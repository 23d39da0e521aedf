"""Stress test: the state REP007 guards stays consistent under threads.

Server request threads share one facade.  Eight threads hammer exactly
the mutators the concurrency lint pass forced under the facade's
accounting lock (``set_fault_policy``,
``enable_probe_cache``/``disable_probe_cache``) while other threads
drive the locked query/count path.  The assertions are the invariants
the lock protects: probe accounting matches the number of successful
probes, and no probe ever observes a torn configuration.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

from repro.db.predicates import Eq
from repro.db.query import SelectionQuery
from repro.db.schema import RelationSchema
from repro.db.table import Table
from repro.db.webdb import AutonomousWebDatabase

THREADS = 8
ROUNDS = 50

SCHEMA = RelationSchema.build(
    "cars",
    categorical=("Make",),
    numeric=("Price",),
    order=("Make", "Price"),
)

ROWS = [
    ("honda", 10),
    ("toyota", 20),
    ("honda", 30),
    ("ford", 40),
    ("toyota", 50),
    ("honda", 60),
    ("ford", 70),
    ("toyota", 80),
]


def build_table() -> Table:
    table = Table(SCHEMA)
    for row in ROWS:
        table.insert(row)
    return table


def hammer(workers: list) -> None:
    """Run every worker ROUNDS times across THREADS threads."""
    barrier = threading.Barrier(THREADS)

    def loop(worker) -> None:
        barrier.wait()
        for _ in range(ROUNDS):
            worker()

    with ThreadPoolExecutor(max_workers=THREADS) as pool:
        futures = [
            pool.submit(loop, workers[index % len(workers)])
            for index in range(THREADS)
        ]
        for future in futures:
            future.result()


def test_webdb_accounting_survives_concurrent_reconfiguration():
    webdb = AutonomousWebDatabase(build_table())
    query = SelectionQuery((Eq("Make", "honda"),))
    probes = []
    probe_lock = threading.Lock()

    def probe() -> None:
        result = webdb.query(query)
        assert len(result) == 3
        with probe_lock:
            probes.append(1)

    def count() -> None:
        assert webdb.count(query) == 3
        with probe_lock:
            probes.append(1)

    def flip_cache() -> None:
        webdb.enable_probe_cache(capacity=8)
        webdb.disable_probe_cache()

    def flip_faults() -> None:
        webdb.set_fault_policy(None)

    hammer([probe, count, flip_cache, flip_faults])
    # A call lands either as an issued probe or (when it raced a
    # transiently-enabled cache) as a cache hit — never lost, never
    # double-counted.
    assert webdb.log.probes_issued + webdb.log.cache_hits == len(probes)

