"""Public surface: the README library example's import, `__all__`, and
no public definition reached only from tests."""

import ast
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


def test_no_public_name_is_reached_only_from_tests():
    # a public module-level function or class of diffmix must be reached
    # from package code, the benchmark harness or a README code block,
    # directly or through other reached definitions
    definitions, live = {}, set()
    for path in sorted((ROOT / "src" / "diffmix").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and not node.name.startswith("_"):
                definitions[f"{path.stem}.{node.name}"] = node
            else:
                live |= _identifiers(node)
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        live |= _identifiers(ast.parse(path.read_text(encoding="utf-8")))
    for block in re.findall(r"```.*?\n(.*?)```", README.read_text(
            encoding="utf-8"), re.S):
        live |= set(re.findall(r"\w+", block))
    dead = dict(definitions)
    grew = True
    while grew:
        reached = [key for key in dead if key.split(".")[1] in live]
        for key in reached:
            live |= _identifiers(dead.pop(key))
        grew = bool(reached)
    assert not dead, f"reached only from tests: {sorted(dead)}"
