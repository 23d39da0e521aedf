"""Every third-party module the package imports at runtime is declared.

A clean ``pip install -e .`` installs only ``[project].dependencies``,
so a module that ``src/repro`` imports outside ``if TYPE_CHECKING:``
but that no dependency provides breaks the installed package even when
the developer's environment happens to have it.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

import pytest

from repro.analysis.rulebase import runtime_imports
from repro.analysis.source import load_project

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]


def _normalise(name: str) -> str:
    """PEP 503 name normalisation (``Foo_Bar`` → ``foo-bar``)."""
    return re.sub(r"[-_.]+", "-", name).lower()


def _declared_dependencies() -> set[str]:
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    names = set()
    for requirement in pyproject["project"]["dependencies"]:
        match = re.match(r"[A-Za-z0-9][A-Za-z0-9._-]*", requirement)
        assert match is not None, requirement
        names.add(_normalise(match.group()))
    return names


def _third_party_runtime_imports() -> dict[str, str]:
    """Top-level module name → first ``path:line`` importing it."""
    project = load_project([ROOT / "src" / "repro"], root=ROOT)
    assert not project.parse_errors, project.parse_errors
    found: dict[str, str] = {}
    for module in project.modules:
        for name, node in runtime_imports(module):
            top = name.partition(".")[0]
            if top in ("", "repro") or top in sys.stdlib_module_names:
                continue
            found.setdefault(top, f"{module.relpath}:{node.lineno}")
    return found


def test_runtime_imports_are_declared_dependencies():
    imported = _third_party_runtime_imports()
    assert "networkx" in imported  # the scan sees real imports
    declared = _declared_dependencies()
    undeclared = {
        top: where
        for top, where in imported.items()
        if _normalise(top) not in declared
    }
    assert not undeclared, (
        f"imported at runtime but missing from [project].dependencies: {undeclared}"
    )
