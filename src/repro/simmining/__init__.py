"""Similarity Miner: association-based categorical value similarity.

Implements paper §5: AV-pairs, supertuples (bags of keywords per
unbound attribute, numeric values discretised into range labels), and
the importance-weighted bag-Jaccard estimator VSim, plus the Figure 5
similarity-graph view.
"""

from repro.simmining.avpair import AVPair
from repro.simmining.bag import Bag, jaccard_bags, jaccard_sets
from repro.simmining.estimator import (
    MiningTimings,
    SimilarityMinerConfig,
    SimilarityModel,
    ValueSimilarityMiner,
)
from repro.simmining.graph import neighbors_above, similarity_graph, strongest_edges
from repro.simmining.supertuple import (
    NumericBinner,
    SuperTuple,
    build_binners,
    build_supertuple,
)

__all__ = [
    "AVPair",
    "Bag",
    "MiningTimings",
    "NumericBinner",
    "SimilarityMinerConfig",
    "SimilarityModel",
    "SuperTuple",
    "ValueSimilarityMiner",
    "build_binners",
    "build_supertuple",
    "jaccard_bags",
    "jaccard_sets",
    "neighbors_above",
    "similarity_graph",
    "strongest_edges",
]
