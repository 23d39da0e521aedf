"""Golden fixture: violates REP004 (answering from index postings)."""


def fords_in_chicago(make_index, location_index, executor):
    # Intersecting postings by hand answers a conjunctive query exactly
    # and leaves no ProbeLog entry.
    fords = make_index._posting_sets["Ford"]
    chicago = location_index._buckets["Chicago"]
    return fords & set(chicago), executor._serving_index
