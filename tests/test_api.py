"""Public surface: the README library example's import and `__all__`."""

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
