"""REP003 — the import-contract graph.

The repo is layered ``db → afd/simmining → rock → core → evalx →
cli``; lower layers must not import upward, ``repro.core`` talks to the
database only through the ``repro.db`` facade (never submodules), and
package-level import cycles are forbidden outright (detected over the
runtime-import graph with networkx).

``if TYPE_CHECKING:`` imports are exempt everywhere: they create no
import-time coupling and are the sanctioned way to annotate across
layers.
"""

from __future__ import annotations

import ast
from typing import Iterator

import networkx as nx

from repro.analysis.finding import Finding
from repro.analysis.rulebase import Rule, register, runtime_imports
from repro.analysis.source import ProjectContext, SourceModule

# Layer rank per package: imports may only point at equal-or-lower ranks.
LAYERS: dict[str, int] = {
    "repro.obs": 0,
    "repro.floats": 0,
    "repro.db": 1,
    "repro.resilience": 1,
    "repro.afd": 2,
    "repro.simmining": 2,
    "repro.datasets": 2,
    "repro.sampling": 2,
    "repro.rock": 3,
    "repro.core": 4,
    "repro.feedback": 5,
    "repro.evalx": 5,
    "repro.analysis": 5,
    "repro.serve": 6,
    "repro.cli": 7,
    "repro.__main__": 8,
}

# Facade contract: these packages see repro.db only through its
# package-level re-exports, never submodules.
FACADE_ONLY = ("repro.core",)


def package_key(module_name: str) -> str | None:
    """Longest ``LAYERS`` prefix of a dotted name (None when unranked)."""
    parts = module_name.split(".")
    while parts:
        candidate = ".".join(parts)
        if candidate in LAYERS:
            return candidate
        parts.pop()
    return None


@register
class LayeringRule(Rule):
    rule_id = "REP003"
    title = "layering: downward-only imports, db facade, no cycles"
    hint = (
        "import only from lower layers; reach repro.db through the package "
        "facade; break cycles with TYPE_CHECKING-only imports or by moving "
        "shared code down"
    )

    def run(self, project: ProjectContext) -> Iterator[Finding]:
        package_graph = nx.DiGraph()
        edge_sites: dict[tuple[str, str], tuple[SourceModule, ast.stmt]] = {}

        for module in sorted(project.modules, key=lambda m: m.relpath):
            if not module.module.startswith("repro"):
                continue
            source_key = package_key(module.module)
            source_rank = LAYERS.get(source_key or "", None)
            for target, node in runtime_imports(module):
                if not target.startswith("repro"):
                    continue
                yield from self._check_facade(module, target, node)
                if target == "repro":
                    continue  # the top package is a neutral namespace
                target_key = package_key(target)
                if target_key is None or target_key == source_key:
                    continue
                if source_key is not None:
                    package_graph.add_edge(source_key, target_key)
                    edge_sites.setdefault(
                        (source_key, target_key), (module, node)
                    )
                if (
                    source_rank is not None
                    and LAYERS[target_key] > source_rank
                ):
                    yield self.finding(
                        module,
                        node,
                        f"upward import: {source_key} (layer {source_rank}) "
                        f"imports {target} (layer {LAYERS[target_key]})",
                    )

        yield from self._check_cycles(package_graph, edge_sites)

    def _check_facade(
        self, module: SourceModule, target: str, node: ast.stmt
    ) -> Iterator[Finding]:
        source_key = package_key(module.module)
        if source_key in FACADE_ONLY and target.startswith("repro.db."):
            yield self.finding(
                module,
                node,
                f"{source_key} imports {target}: the engine must go through "
                "the repro.db facade, not database submodules",
            )

    def _check_cycles(
        self,
        graph: "nx.DiGraph",
        edge_sites: dict[tuple[str, str], tuple[SourceModule, ast.stmt]],
    ) -> Iterator[Finding]:
        for component in nx.strongly_connected_components(graph):
            if len(component) < 2:
                continue
            members = sorted(component)
            anchor: tuple[SourceModule, ast.stmt] | None = None
            for src, dst in sorted(edge_sites):
                if src in component and dst in component:
                    anchor = edge_sites[(src, dst)]
                    break
            if anchor is None:
                continue
            module, node = anchor
            yield self.finding(
                module,
                node,
                "package import cycle: " + " <-> ".join(members),
            )
