"""Public surface: the README library example's import, `__all__`, and
no public definition reached only from tests."""

import ast
import copy
import re
from pathlib import Path

import diffmix

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_import() -> str:
    """The `from diffmix import (...)` statement of the library example."""
    section = README.read_text(encoding="utf-8").split("## Library example")[1]
    match = re.search(r"^from diffmix import \([^)]*\)", section, re.M)
    assert match, "README library example has no `from diffmix import (...)`"
    return match.group(0)


def test_readme_import_runs_and_is_exported():
    namespace = {}
    exec(readme_import(), namespace)
    imported = {name for name in namespace if name != "__builtins__"}
    assert imported and imported <= set(diffmix.__all__)


def test_every_export_resolves():
    assert len(set(diffmix.__all__)) == len(diffmix.__all__)
    for name in diffmix.__all__:
        assert getattr(diffmix, name) is not None, name


ROOT = README.parent


def _identifiers(tree: ast.AST) -> set[str]:
    """Names and attribute names a syntax tree reads."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}


def _public(node: ast.AST) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
        and not node.name.startswith("_")


def _public_definitions(path: Path, live: set[str]) -> dict[str, ast.AST]:
    """The public functions and classes of one module and the public
    methods of its public classes, keyed module.name or
    module.Class.method. A class keeps its other members, and every
    other statement's identifiers go into live."""
    definitions = {}
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if not _public(node):
            live |= _identifiers(node)
            continue
        key = f"{path.stem}.{node.name}"
        if isinstance(node, ast.ClassDef):
            methods = [item for item in node.body if _public(item)]
            definitions.update({f"{key}.{item.name}": item
                                for item in methods})
            node = copy.copy(node)
            node.body = [item for item in node.body if item not in methods]
        definitions[key] = node
    return definitions


def _readme_identifiers() -> set[str]:
    """Names the README code blocks use: Python blocks as parsed code and
    other blocks word by word, so a word in a `#` comment is no use."""
    live = set()
    for lang, block in re.findall(r"```(\w*)\n(.*?)```", README.read_text(
            encoding="utf-8"), re.S):
        live |= (_identifiers(ast.parse(block)) if lang == "python"
                 else set(re.findall(r"\w+", re.sub(r"#.*", "", block))))
    return live


def test_no_public_name_is_reached_only_from_tests():
    # a public module-level function or class of diffmix, or a public
    # method of such a class, must be reached from package code, the
    # benchmark harness or a README code block, directly or through other
    # reached definitions
    live = _readme_identifiers()
    definitions = {}
    for path in sorted((ROOT / "src" / "diffmix").glob("*.py")):
        definitions.update(_public_definitions(path, live))
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        live |= _identifiers(ast.parse(path.read_text(encoding="utf-8")))
    dead = dict(definitions)
    grew = True
    while grew:
        reached = [key for key in dead if key.split(".")[-1] in live]
        for key in reached:
            live |= _identifiers(dead.pop(key))
        grew = bool(reached)
    assert not dead, f"reached only from tests: {sorted(dead)}"


def test_store_never_imports_the_sampler():
    # store reads the sampler configuration by attribute and names gibbs
    # only for type checking, so gibbs can import store with no cycle
    tree = ast.parse((ROOT / "src" / "diffmix" / "store.py").read_text(
        encoding="utf-8"))
    checking = {id(node) for stmt in tree.body if isinstance(stmt, ast.If)
                and ast.unparse(stmt.test) == "TYPE_CHECKING"
                for node in ast.walk(stmt)}
    modules = set()
    for node in ast.walk(tree):
        if id(node) in checking:
            continue
        if isinstance(node, ast.Import):
            modules |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            modules |= {node.module or ""} | {
                f"{node.module or ''}.{alias.name}" for alias in node.names}
    assert modules and not any("gibbs" in name.split(".") for name in modules)


# defaulted parameters that only tests pass, each kept as a test hook
TEST_HOOKS = {
    "euler_path.noise": "zero-noise path checks the drift alone",
    "histogram_mode.bins": "the brute-force oracle sets the bin count",
    "histogram_mode.mass": "the brute-force oracle sets the window mass",
}


def _defaulted(node: ast.FunctionDef, method: bool) -> dict[str, object]:
    """Parameter name -> position (None if keyword-only) for each
    parameter with a default; a method's first parameter is bound."""
    args = node.args
    positional = args.posonlyargs + args.args
    static = any(getattr(d, "id", None) == "staticmethod"
                 for d in node.decorator_list)
    bound = int(method and not static)
    out = {arg.arg: i - bound for i, arg in enumerate(positional)
           if i >= len(positional) - len(args.defaults)}
    out.update({arg.arg: None for arg, default in
                zip(args.kwonlyargs, args.kw_defaults) if default is not None})
    return out


def test_every_defaulted_parameter_has_a_caller():
    # a parameter with a default must be passed, by position or keyword,
    # by some call in package code, the benchmark harness or a README
    # Python block; calls match on the callee's bare name, *args or
    # **kwargs pass everything, and a function named anywhere but as a
    # callee may be called through that name with any arguments
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in (
        *sorted((ROOT / "src" / "diffmix").glob("*.py")),
        *sorted((ROOT / "perfbench").glob("*.py")))]
    trees += [ast.parse(block) for block in re.findall(
        r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)]
    calls, callees, named = {}, set(), set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                callees.add(id(node.func))
                name = getattr(node.func, "id", getattr(node.func, "attr",
                                                        None))
                calls.setdefault(name, []).append(node)
        named |= {node.id if isinstance(node, ast.Name) else node.attr
                  for node in ast.walk(tree) if id(node) not in callees
                  and isinstance(node, (ast.Name, ast.Attribute))}

    def passed(name: str, param: str, position) -> bool:
        if name in named:
            return True
        for call in calls.get(name, []):
            if any(isinstance(a, ast.Starred) for a in call.args) or any(
                    k.arg in (None, param) for k in call.keywords):
                return True
            if position is not None and len(call.args) > position:
                return True
        return False

    unused = set()
    for path in sorted((ROOT / "src" / "diffmix").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef):
                functions = [(node, False)]
            elif isinstance(node, ast.ClassDef):
                functions = [(item, True) for item in node.body
                             if isinstance(item, ast.FunctionDef)]
            else:
                continue
            for fn, method in functions:
                unused |= {f"{fn.name}.{param}" for param, position in
                           _defaulted(fn, method).items()
                           if not passed(fn.name, param, position)}
    assert unused == set(TEST_HOOKS), \
        f"defaulted parameters no caller passes: {sorted(unused)}"
