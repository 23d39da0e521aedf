"""Tunable settings of the AIMQ system.

Algorithm 1's footnote says the similarity threshold ``T_sim`` and the
answer count ``k`` "are tuned by the system designers"; this module is
where the designers tune them.  The defaults follow the paper's
experiments: ``T_sim`` sweeps start at 0.5, user-study answers are
top-10, the dependency-mining error threshold is small, and relaxation
is capped so pathological queries terminate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.afd.tane import TaneConfig
from repro.simmining.estimator import SimilarityMinerConfig

__all__ = ["AIMQSettings"]


@dataclass(frozen=True)
class AIMQSettings:
    """End-to-end configuration for building and querying AIMQ.

    Parameters
    ----------
    similarity_threshold:
        ``T_sim``: tuples below this query-tuple similarity are dropped
        from the extended set (Algorithm 1, step 7).
    top_k:
        Number of ranked answers returned to the user.
    base_set_cap:
        At most this many base-set tuples are expanded by relaxation;
        a huge base set means the precise query was already satisfiable
        and needs little help.
    target_per_base_tuple:
        Relaxation stops for a base tuple once this many tuples above
        ``T_sim`` have been gathered for it (the Figure 6/7 experiments
        use 20).
    max_relaxation_level:
        Largest number of attributes relaxed simultaneously.
    max_extracted_per_base_tuple:
        Hard cap on tuples pulled per base tuple, so RandomRelax-style
        strategies cannot scan the whole source on every query.
    numeric_band_fraction:
        Width (as a fraction of the query value) of the ``between``
        band used when a numeric "like" constraint must be widened to
        obtain a non-empty base set.
    numeric_similarity_mode:
        ``"relative"`` (the paper's ``1 − |q−t|/|q|``) or ``"range"``
        (extent-scaled L1, the Lp alternative §5 alludes to).
    importance_smoothing:
        Blend factor λ between the mined importance weights and the
        uniform distribution: sparse samples can leave attributes with
        exactly zero mined weight, and similarity should never ignore
        a column outright.  Zero disables smoothing (pure Algorithm 2
        weights).
    tuple_query_numeric_band:
        Band (fraction of the value) used when base-set tuples are
        turned into selection queries: numeric attributes are bound
        with ``between ±band`` rather than exact equality, because
        continuous values almost never repeat exactly.  Zero restores
        strict equality binding.
    tane:
        Dependency-miner configuration (``T_err`` lives here).  The
        default discretises numeric attributes into 8 equal-width bins
        before partitioning: raw continuous columns make every
        containing set a near-perfect key, which drowns the dependency
        structure Algorithm 2 needs (the paper's own listings carry
        coarse values like "Price=15k", i.e. pre-binned data).
    simmining:
        Similarity-miner configuration.
    """

    similarity_threshold: float = 0.5
    top_k: int = 10
    base_set_cap: int = 100
    target_per_base_tuple: int = 20
    max_relaxation_level: int = 2
    max_extracted_per_base_tuple: int = 2000
    numeric_band_fraction: float = 0.1
    importance_smoothing: float = 0.3
    numeric_similarity_mode: str = "relative"
    tuple_query_numeric_band: float = 0.1
    tane: TaneConfig = field(
        default_factory=lambda: TaneConfig(
            numeric_bins=8, key_error_threshold=0.45
        )
    )
    simmining: SimilarityMinerConfig = field(default_factory=SimilarityMinerConfig)

    def __post_init__(self) -> None:
        if not 0.0 < self.similarity_threshold < 1.0:
            raise ValueError("similarity_threshold must be in (0, 1)")
        if self.top_k < 1:
            raise ValueError("top_k must be at least 1")
        if self.base_set_cap < 1:
            raise ValueError("base_set_cap must be at least 1")
        if self.target_per_base_tuple < 1:
            raise ValueError("target_per_base_tuple must be at least 1")
        if self.max_relaxation_level < 1:
            raise ValueError("max_relaxation_level must be at least 1")
        if self.max_extracted_per_base_tuple < 1:
            raise ValueError("max_extracted_per_base_tuple must be at least 1")
        if not 0.0 < self.numeric_band_fraction <= 1.0:
            raise ValueError("numeric_band_fraction must be in (0, 1]")
        if not 0.0 <= self.tuple_query_numeric_band <= 1.0:
            raise ValueError("tuple_query_numeric_band must be in [0, 1]")
        if not 0.0 <= self.importance_smoothing <= 1.0:
            raise ValueError("importance_smoothing must be in [0, 1]")
        if self.numeric_similarity_mode not in ("relative", "range"):
            raise ValueError(
                "numeric_similarity_mode must be 'relative' or 'range'"
            )
