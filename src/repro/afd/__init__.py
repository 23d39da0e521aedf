"""Dependency Miner: TANE-style AFD and approximate-key discovery.

Implements the paper's §4 substrate: stripped partitions, the g3
approximation measure of Kivinen & Mannila, and a levelwise lattice
search (Huhtala et al.'s TANE) that yields a :class:`DependencyModel`
of approximate functional dependencies and approximate keys.
"""

from repro.afd.g3 import dependency_error, key_error
from repro.afd.model import AFD, ApproximateKey, DependencyModel
from repro.afd.partition import (
    StrippedPartition,
    partition_product,
    partition_single,
)
from repro.afd.tane import TaneConfig, TaneMiner, mine_dependencies

__all__ = [
    "AFD",
    "ApproximateKey",
    "DependencyModel",
    "StrippedPartition",
    "TaneConfig",
    "TaneMiner",
    "dependency_error",
    "key_error",
    "mine_dependencies",
    "partition_product",
    "partition_single",
]
