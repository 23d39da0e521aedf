"""The metric catalogue in docs/OBSERVABILITY.md lists what the code emits.

Every metric family is registered under a literal ``repro_*`` name, so
the set of such string constants under ``src/`` is the set of families
the package can emit.  A family with no catalogue row is undocumented;
a row with no emitting literal documents a family that is gone.  Each
name is spelled once: the registry keeps the help text and buckets of
whichever request comes first, so a second spelling could drift.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
_FAMILY = re.compile(r"repro_[a-z0-9_]+")
_ROW = re.compile(r"^\| `(repro_[a-z0-9_]+)` \|")


def _catalogue_rows() -> list[str]:
    text = (ROOT / "docs" / "OBSERVABILITY.md").read_text(encoding="utf-8")
    section = text.split("## Metric catalogue", 1)[1].split("\n## ", 1)[0]
    return [
        match.group(1)
        for line in section.splitlines()
        if (match := _ROW.match(line))
    ]


def _family_literals() -> Counter[str]:
    """How often each ``repro_*`` family name is spelled under ``src/``."""
    names: Counter[str] = Counter()
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and _FAMILY.fullmatch(node.value)
            ):
                names[node.value] += 1
    return names


def test_catalogue_rows_equal_the_emitted_families():
    rows = _catalogue_rows()
    assert len(rows) == len(set(rows)), "a family has two catalogue rows"
    emitted = set(_family_literals())
    assert sorted(emitted - set(rows)) == [], "emitted but not catalogued"
    assert sorted(set(rows) - emitted) == [], "catalogued but never emitted"


def test_each_family_name_is_spelled_once():
    repeated = {name: n for name, n in _family_literals().items() if n > 1}
    assert repeated == {}, "declare the family once (a MetricSpec) and reuse it"
