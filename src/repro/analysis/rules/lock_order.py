"""REP008: nested lock acquisition must use one global order.

If one code path takes lock A then lock B while another takes B then
A, two threads can each hold one lock and wait forever on the other.
The rule collects every ordered pair (held -> acquired) from

* lexically nested ``with`` blocks,
* acquisitions made while a lock is guaranteed held at function entry
  (the ``_locked``-helper convention), and
* calls into functions that transitively acquire locks
  (``acquires_within`` closure),

then reports each pair that also occurs reversed.  Re-entrant
acquisition of the *same* lock is not a pair — that is what RLock is
for.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator

from repro.analysis.concurrency import ConcurrencyContext
from repro.analysis.finding import Finding
from repro.analysis.rulebase import Rule, register
from repro.analysis.source import ProjectContext


@dataclass(frozen=True)
class _OrderSite:
    relpath: str
    line: int
    col: int
    fn: str


@register
class LockOrderRule(Rule):
    rule_id = "REP008"
    title = "inconsistent lock acquisition order"
    hint = (
        "pick one global acquisition order and restructure the later "
        "acquisition to respect it (or collapse to a single lock)"
    )

    def run(self, project: ProjectContext) -> Iterator[Finding]:
        ctx = ConcurrencyContext.of(project)
        modules = {m.module or m.relpath: m for m in project.modules}

        pairs: dict[tuple[str, str], list[_OrderSite]] = {}

        def record(held: frozenset[str], acquired: str, site: _OrderSite) -> None:
            for outer in held:
                if outer != acquired:
                    pairs.setdefault((outer, acquired), []).append(site)

        for acq in ctx.locks.acquisitions:
            fn = ctx.graph.function(acq.fn)
            if fn is None:
                continue
            held = frozenset(acq.held_before) | ctx.locks.entry_held(acq.fn)
            record(
                held,
                acq.lock_id,
                _OrderSite(fn.relpath, acq.line, acq.col, acq.fn),
            )
        for site in ctx.graph.call_sites:
            if site.callee is None:
                continue
            fn = ctx.graph.function(site.caller)
            if fn is None:
                continue
            held = ctx.locks.held_at(site.node, site.caller)
            if not held:
                continue
            inner = ctx.locks.acquires_within.get(site.callee, frozenset())
            for lock in inner - held:
                record(
                    held,
                    lock,
                    _OrderSite(
                        fn.relpath,
                        site.node.lineno,
                        site.node.col_offset,
                        site.caller,
                    ),
                )

        reported: set[tuple[str, int, str, str]] = set()
        results: list[tuple[str, int, Finding]] = []
        for (outer, inner), sites in pairs.items():
            if (inner, outer) not in pairs:
                continue
            opposite = min(
                pairs[(inner, outer)], key=lambda s: (s.relpath, s.line)
            )
            for site in sites:
                key = (site.relpath, site.line, outer, inner)
                if key in reported:
                    continue
                reported.add(key)
                module = modules.get(
                    site.fn.rpartition(":")[0]
                ) or project.module_for_path(site.relpath)
                if module is None:
                    continue
                results.append(
                    (
                        site.relpath,
                        site.line,
                        self.finding(
                            module,
                            _anchor(site.line, site.col),
                            f"'{_short(inner)}' is acquired while holding "
                            f"'{_short(outer)}', but the opposite order "
                            f"occurs at {opposite.relpath}:{opposite.line} "
                            f"— potential deadlock",
                        ),
                    )
                )
        for _, _, finding in sorted(
            results, key=lambda item: (item[0], item[1], item[2].message)
        ):
            yield finding


def _short(lock_id: str) -> str:
    return lock_id.rpartition(":")[2]


def _anchor(line: int, col: int) -> ast.AST:
    node = ast.Pass()
    node.lineno = line
    node.col_offset = col
    return node
