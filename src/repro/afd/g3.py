"""The g3 approximation measure (Kivinen & Mannila, 1995).

``g3(X → A)`` is the minimum fraction of tuples that must be removed
from the relation for the functional dependency to hold exactly; the
paper (§4) adopts it for both approximate dependencies and approximate
keys, and it is the measure TANE computes natively from stripped
partitions.

Dependency error
    For each class ``c`` of π_X, keep the largest sub-class of
    π_{X∪A} inside ``c`` and delete the rest:
    ``g3 = Σ_c (|c| − max_subclass(c)) / n``.
    Classes that are singletons in π_X contribute nothing.  Because
    π_{X∪A} refines π_X, every combined class lies inside exactly one
    π_X class, so one ``bincount`` sizes the combined classes and one
    ``maximum.at`` keeps each π_X class's largest.

Key error
    A set ``X`` is a key when every π_X class is a singleton, so the
    cheapest repair keeps one tuple per class:
    ``g3(X) = (n − |π_X|) / n`` with |π_X| counting singleton classes.

Both errors are built-in floats: an integer count of removed tuples
divided by ``n``.
"""

from __future__ import annotations

import numpy as np

from repro.afd.partition import StrippedPartition, refinement_owner

__all__ = ["dependency_error", "key_error"]


def dependency_error(
    lhs: StrippedPartition, combined: StrippedPartition
) -> float:
    """g3 error of ``X → A`` given π_X (``lhs``) and π_{X∪A} (``combined``).

    Both partitions must range over the same tuple ids, and
    ``combined`` must refine ``lhs`` (it is the product of the lhs
    partition with the consequent's); otherwise ``ValueError``.
    """
    owner = refinement_owner(combined, lhs)
    if owner is None:
        raise ValueError(
            "a combined class is not inside an lhs class: combined does not "
            "refine lhs"
        )
    if lhs.n_rows == 0:
        return 0.0
    labels = combined.labels
    sizes = np.bincount(
        labels[labels >= 0], minlength=combined.num_stripped_classes
    )
    # Any tuple of an lhs class survives on its own (a combined
    # singleton), so every class keeps at least one.
    largest = np.ones(lhs.num_stripped_classes, dtype=np.intp)
    np.maximum.at(largest, owner, sizes)
    removed = lhs.stripped_size - int(largest.sum())
    return removed / lhs.n_rows


def key_error(partition: StrippedPartition) -> float:
    """g3 error of ``X`` as a key, from π_X.

    Zero when X is an exact key (all classes singletons).
    """
    if partition.n_rows == 0:
        return 0.0
    duplicates = partition.stripped_size - partition.num_stripped_classes
    return duplicates / partition.n_rows
