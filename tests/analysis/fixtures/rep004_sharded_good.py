"""Golden fixture: the REP004-clean twin of rep004_sharded_bad.

Shard topology is a private detail of ``repro.db``: callers probe the
facade (single-source or sharded) and every query lands in a ProbeLog.
"""


def scan_through_facade(webdb, query):
    # The facade records the probe; its storage is invisible.
    return webdb.query(query).rows


def gather_from_shards(sharded, query):
    # The sharded facade scatters, gathers, and accounts one logical
    # probe; shard topology stays on its side of the interface.
    return sharded.query(query).rows


def inspect_plan_cost(window):
    # Work accounting flows out through the public stats channel.
    stats = window.execution_stats
    return (stats.rows_examined, stats.postings_intersected)
