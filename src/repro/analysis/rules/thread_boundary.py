"""REP010: non-thread-safe objects must not cross executor boundaries.

ProbeLog, RelaxationTrace and the EventLog ring are single-writer by
design — the documented pattern for moving their contents across
threads is *capture*: take an immutable ``snapshot()``/``delta()``
under the owner, hand the copy across, and let the owning facade
merge results back.  Handing the live object to
``Executor.submit`` / ``pool.map`` / ``threading.Thread`` (either as
the callable's receiver or inside its argument payload) silently
shares an unsynchronised structure between threads.

Detection is type-approximate: a name counts as one of the unsafe
types when it is assigned that constructor in the same function, or
when it is a ``self.<attr>`` the class assigns that constructor.
Calls in the payload (``log.snapshot()``) are fine — a call result is
a fresh object, which is exactly the capture pattern.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.concurrency import ConcurrencyContext, FunctionInfo
from repro.analysis.finding import Finding
from repro.analysis.rulebase import Rule, attribute_chain, register
from repro.analysis.source import ProjectContext

#: Classes whose instances are single-writer / not thread-safe.
UNSAFE_TYPES = frozenset(
    {
        "ProbeLog",
        "RelaxationTrace",
        "EventLog",
    }
)


@register
class ThreadBoundaryRule(Rule):
    rule_id = "REP010"
    title = "non-thread-safe object crosses an executor boundary"
    hint = (
        "pass a snapshot()/delta() capture across the boundary, or "
        "route the mutation through the owning facade"
    )

    def run(self, project: ProjectContext) -> Iterator[Finding]:
        ctx = ConcurrencyContext.of(project)
        modules = {m.module or m.relpath: m for m in project.modules}
        results: list[tuple[str, int, Finding]] = []
        for boundary in ctx.escape.boundary_calls:
            fn = ctx.graph.function(boundary.fn)
            module = modules.get(fn.module) if fn is not None else None
            if fn is None or module is None:
                continue
            types = _TypeEnv.of(fn, ctx)
            crossings: list[tuple[ast.expr, str, str]] = []
            if boundary.target is not None:
                # Bound method of an unsafe instance: `log.record`.
                chain = attribute_chain(boundary.target)
                if len(chain) >= 2:
                    unsafe = types.lookup(tuple(chain[:-1]))
                    if unsafe is not None:
                        crossings.append(
                            (boundary.target, unsafe, "as the callable")
                        )
            for expr in _payload_exprs(boundary.payload):
                chain = attribute_chain(expr)
                if not chain:
                    continue
                unsafe = types.lookup(tuple(chain))
                if unsafe is not None:
                    crossings.append((expr, unsafe, "in the argument payload"))
            for expr, unsafe, how in crossings:
                results.append(
                    (
                        fn.relpath,
                        expr.lineno,
                        self.finding(
                            module,
                            expr,
                            f"live {unsafe} crosses a '{boundary.kind}' "
                            f"boundary {how} with no capture",
                        ),
                    )
                )
        for _, _, finding in sorted(
            results, key=lambda item: (item[0], item[1], item[2].message)
        ):
            yield finding


class _TypeEnv:
    """Name/attribute -> unsafe type name, for one function's scope."""

    def __init__(self) -> None:
        self._types: dict[tuple[str, ...], str] = {}

    @classmethod
    def of(cls, fn: FunctionInfo, ctx: ConcurrencyContext) -> "_TypeEnv":
        env = cls()
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                env._learn(node.targets[0], node.value)
        if fn.cls is not None:
            for method in ctx.graph.methods_of(fn.module, fn.cls):
                for node in ast.walk(method.node):
                    if isinstance(node, ast.Assign) and len(node.targets) == 1:
                        env._learn(node.targets[0], node.value)
        return env

    def _learn(self, target: ast.expr, value: ast.expr) -> None:
        type_name = _unsafe_ctor(value)
        if type_name is None:
            return
        if isinstance(target, ast.Name):
            self._types[(target.id,)] = type_name
        elif (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            self._types[("self", target.attr)] = type_name

    def lookup(self, chain: tuple[str, ...]) -> str | None:
        return self._types.get(chain)


def _unsafe_ctor(value: ast.expr) -> str | None:
    if not isinstance(value, ast.Call):
        return None
    chain = attribute_chain(value.func)
    if chain and chain[-1] in UNSAFE_TYPES:
        return chain[-1]
    return None


def _payload_exprs(payload: tuple[ast.expr, ...]) -> Iterator[ast.expr]:
    for expr in payload:
        if isinstance(expr, (ast.Tuple, ast.List)):
            yield from expr.elts
        else:
            yield expr
