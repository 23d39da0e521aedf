"""Golden fixture: sharded-facade internals outside repro.db (REP004)."""


def drain_shards(sharded, query):
    # Probing the shards directly skips the facade's ProbeLog: the
    # logical probe Figures 6-7 count is never recorded.
    rows = []
    for shard, ids in zip(sharded._shards, sharded._global_ids):
        rows.extend(shard.query(query).rows)
    return rows, ids
