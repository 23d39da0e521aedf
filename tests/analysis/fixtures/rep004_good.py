"""Golden fixture: the REP004-clean version of rep004_bad."""

from repro.db import SelectionQuery


def count_rows(webdb):
    # Every probe goes through the facade, so the ProbeLog sees it.
    return webdb.probe_count(SelectionQuery.conjunction([]))


def scan_through_facade(webdb, query):
    # The facade records the probe; its storage is invisible.
    return webdb.query(query).rows


def inspect_plan_cost(window):
    # Work accounting flows out through the public stats channel.
    stats = window.execution_stats
    return (stats.rows_examined, stats.postings_intersected)
