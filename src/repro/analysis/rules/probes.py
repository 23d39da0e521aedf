"""REP004 — probe accounting: online access stays inside ``repro.db``.

The paper's Figure 6–7 probe counts are only honest if every online
query flows through :class:`AutonomousWebDatabase`, whose ``ProbeLog``
does the accounting.  Code outside ``repro.db`` therefore may not:

* import the ``repro.db.executor`` / ``repro.db.index`` submodules
  (the unaccounted scan machinery),
* pull ``Executor`` out of the facade or instantiate it,
* reach into database internals (``_table``, ``_executor``, ``_rows``,
  index maps, the probe cache) on anything other than ``self``,
* fabricate ``ProbeLog`` entries — call its mutators
  (``record``/``record_count``/``record_cache_hit``) or bump its
  counters directly.  "Correcting" the log so issued counts look
  like another run's would falsify the very measurement Figures 6–7
  make; work answered without a probe belongs in the
  ``RelaxationTrace``, never in the ProbeLog.

Offline construction (``Table``, schemas, predicates) is untouched —
mining happens on materialised samples, not via probes.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.finding import Finding
from repro.analysis.rulebase import Rule, register, runtime_imports
from repro.analysis.source import ProjectContext, SourceModule

FORBIDDEN_SUBMODULES = (
    "repro.db.executor",
    "repro.db.index",
)
FORBIDDEN_FACADE_NAMES = {"Executor"}
PRIVATE_DB_ATTRS = {
    "_table",
    "_executor",
    "_rows",
    "_hash_indexes",
    "_sorted_indexes",
    "_probe_cache",
    "_plan",
    "_serving_index",
    # Index postings: intersecting them by hand answers a conjunctive
    # query exactly, with no ProbeLog entry.
    "_buckets",
    "_posting_sets",
}
# ProbeLog's mutators.  ``record`` is a common method name, so it is
# only flagged on a probe-log-shaped receiver; the other two are
# unambiguous in this codebase and flagged on any receiver.
PROBELOG_MUTATORS = {"record", "record_count", "record_cache_hit"}
PROBELOG_UNAMBIGUOUS_MUTATORS = {"record_count", "record_cache_hit"}
PROBELOG_COUNTERS = {
    "probes_issued",
    "tuples_returned",
    "empty_results",
    "count_probes",
    "cache_hits",
}
# Receiver shapes that denote the facade's accounting log (its public
# attribute is ``log``).  Plain-name receivers like ``report`` are NOT
# matched: e.g. repro.sampling keeps its own probes_issued tally on a
# CollectionReport, which is measurement, not fabrication.
PROBELOG_RECEIVER_NAMES = {"log", "probe_log", "probelog"}


def _inside_db(module: SourceModule) -> bool:
    return module.module == "repro.db" or module.module.startswith("repro.db.")


@register
class ProbeAccountingRule(Rule):
    rule_id = "REP004"
    title = "probe accounting: no unaccounted database access"
    hint = (
        "go through AutonomousWebDatabase so the ProbeLog sees every "
        "online query; offline code should take a Table, not an Executor"
    )

    def check_module(
        self, module: SourceModule, project: ProjectContext
    ) -> Iterable[Finding]:
        if _inside_db(module):
            return []
        findings: list[Finding] = []
        findings.extend(self._check_imports(module))
        findings.extend(self._check_private_access(module))
        findings.extend(self._check_probelog_fabrication(module))
        return findings

    def _check_imports(self, module: SourceModule) -> Iterable[Finding]:
        for target, node in runtime_imports(module):
            if target in FORBIDDEN_SUBMODULES or any(
                target.startswith(sub + ".") for sub in FORBIDDEN_SUBMODULES
            ):
                yield self.finding(
                    module,
                    node,
                    f"import of {target}: the scan/index machinery is "
                    "private to repro.db and bypasses probe accounting",
                )
            elif target == "repro.db" and isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if alias.name in FORBIDDEN_FACADE_NAMES:
                        yield self.finding(
                            module,
                            node,
                            f"importing {alias.name} outside repro.db "
                            "executes queries without ProbeLog accounting",
                        )

    def _check_private_access(self, module: SourceModule) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Attribute):
                continue
            if node.attr not in PRIVATE_DB_ATTRS:
                continue
            receiver = node.value
            if isinstance(receiver, ast.Name) and receiver.id in (
                "self",
                "cls",
            ):
                continue
            yield self.finding(
                module,
                node,
                f"access to private database internals ({node.attr}) from "
                "outside repro.db",
            )

    @staticmethod
    def _is_probelog_receiver(expr: ast.expr) -> bool:
        """True when ``expr`` denotes a ProbeLog instance.

        Matches the facade's accounting attribute (``webdb.log``, any
        ``*.probe_log``) and direct ``ProbeLog(...)`` constructions.
        """
        if isinstance(expr, ast.Attribute):
            return expr.attr in PROBELOG_RECEIVER_NAMES
        if isinstance(expr, ast.Name):
            return expr.id in PROBELOG_RECEIVER_NAMES
        if isinstance(expr, ast.Call):
            func = expr.func
            name = (
                func.attr
                if isinstance(func, ast.Attribute)
                else func.id if isinstance(func, ast.Name) else ""
            )
            return name == "ProbeLog"
        return False

    def _check_probelog_fabrication(
        self, module: SourceModule
    ) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                method = node.func.attr
                if method not in PROBELOG_MUTATORS:
                    continue
                if (
                    method in PROBELOG_UNAMBIGUOUS_MUTATORS
                    or self._is_probelog_receiver(node.func.value)
                ):
                    yield self.finding(
                        module,
                        node,
                        f"ProbeLog.{method}() called outside repro.db: "
                        "fabricated accounting falsifies the Figs 6-7 "
                        "probe counts (locally-answered queries belong "
                        "in RelaxationTrace.probes_subsumed)",
                    )
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and target.attr in PROBELOG_COUNTERS
                        and self._is_probelog_receiver(target.value)
                    ):
                        yield self.finding(
                            module,
                            target,
                            f"direct mutation of ProbeLog.{target.attr} "
                            "outside repro.db: probe accounting is the "
                            "facade's job",
                        )
