"""REP009: no blocking operations while a lock is held.

A lock held across a slow operation turns every other thread that
needs the lock into a convoy — and the accounting locks here guard
*bookkeeping*, not probe execution, so nothing slow belongs inside
them.  Flagged while any declared lock is held (lexically, guaranteed
at entry, or on a known call path into the function):

* probe dispatch — ``<webdb>.query(...)`` / ``<webdb>.count(...)`` on
  a bare-name receiver (``self``-rooted internals are the database's
  own storage, not an outbound probe);
* executor traffic — ``.submit(...)`` and future ``.result(...)``;
* ``time.sleep``;
* file/network I/O — ``open``, ``Path.read_text``-family calls, and
  anything rooted in ``socket``/``subprocess``/``urllib``/``http``.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.concurrency import ConcurrencyContext
from repro.analysis.finding import Finding
from repro.analysis.rulebase import Rule, register
from repro.analysis.source import ProjectContext

_PROBE_METHODS = frozenset({"query", "count"})
_EXECUTOR_METHODS = frozenset({"submit", "result"})
_PATH_IO_METHODS = frozenset(
    {"read_text", "write_text", "read_bytes", "write_bytes"}
)
_IO_MODULES = frozenset({"socket", "subprocess", "urllib", "http"})


@register
class BlockingUnderLockRule(Rule):
    rule_id = "REP009"
    title = "blocking operation while a lock is held"
    hint = (
        "move the slow call outside the `with` block: snapshot state "
        "under the lock, block after releasing it"
    )

    def run(self, project: ProjectContext) -> Iterator[Finding]:
        ctx = ConcurrencyContext.of(project)
        modules = {m.module or m.relpath: m for m in project.modules}
        results: list[tuple[str, int, Finding]] = []
        for site in ctx.graph.call_sites:
            fn = ctx.graph.function(site.caller)
            if fn is None:
                continue
            held = (
                ctx.locks.held_at(site.node, site.caller)
                | ctx.locks.reachable_held(site.caller)
            )
            if not held:
                continue
            label = self._blocking_label(site.chain, fn.module, ctx)
            if label is None:
                continue
            module = modules.get(fn.module)
            if module is None:
                continue
            lock_names = ", ".join(
                sorted(lock.rpartition(".")[2] or lock for lock in held)
            )
            results.append(
                (
                    fn.relpath,
                    site.node.lineno,
                    self.finding(
                        module,
                        site.node,
                        f"{label} while holding {lock_names}",
                    ),
                )
            )
        for _, _, finding in sorted(
            results, key=lambda item: (item[0], item[1], item[2].message)
        ):
            yield finding

    def _blocking_label(
        self,
        chain: tuple[str, ...],
        module_key: str,
        ctx: ConcurrencyContext,
    ) -> str | None:
        if not chain:
            return None
        name = chain[-1]
        imports = ctx.graph.import_table(module_key)
        if name == "sleep":
            if (len(chain) == 2 and chain[0] == "time") or (
                len(chain) == 1 and imports.get("sleep", "") == "time.sleep"
            ):
                return "time.sleep() blocks"
            return None
        if name in _EXECUTOR_METHODS and len(chain) >= 2:
            return f"executor '.{name}()' blocks"
        if (
            name in _PROBE_METHODS
            and len(chain) == 2
            and chain[0] not in ("self", "cls")
        ):
            return f"probe dispatch '{chain[0]}.{name}()' blocks"
        if name == "open" and len(chain) == 1 and "open" not in imports:
            return "file I/O 'open()' blocks"
        if name in _PATH_IO_METHODS and len(chain) >= 2:
            return f"file I/O '.{name}()' blocks"
        head = imports.get(chain[0], chain[0]).split(".")[0]
        if head in _IO_MODULES and len(chain) >= 2:
            return f"'{head}' I/O blocks"
        return None
