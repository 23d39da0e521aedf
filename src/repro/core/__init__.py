"""AIMQ core: the paper's primary contribution.

Imprecise-query model, AFD-derived attribute ordering (Algorithm 2),
guided/random relaxation, query–tuple similarity, the online answering
engine (Algorithm 1) and the one-call offline build pipeline.
"""

from repro.core.attribute_order import (
    AttributeOrdering,
    compute_attribute_ordering,
    uniform_ordering,
)
from repro.core.config import AIMQSettings
from repro.core.engine import AIMQEngine
from repro.core.explain import (
    AnswerExplanation,
    AttributeContribution,
    explain_answer,
)
from repro.core.pipeline import (
    AIMQModel,
    BuildTimings,
    build_model,
    build_model_from_sample,
)
from repro.core.query import (
    BaseQueryMapper,
    BaseSet,
    ImpreciseQuery,
    LikeConstraint,
    PreciseConstraint,
)
from repro.core.relaxation import (
    GuidedRelax,
    RandomRelax,
    RelaxationStep,
    ordered_subsets,
    tuple_as_query,
)
from repro.core.results import (
    AnswerSet,
    RankedAnswer,
    RelaxationTrace,
    answer_rank_key,
    base_rank_key,
)
from repro.core.similarity import (
    TupleSimilarity,
    numeric_similarity,
    range_scaled_similarity,
)
from repro.core.store import StoreError, load_model, save_model

__all__ = [
    "AIMQEngine",
    "AIMQModel",
    "AIMQSettings",
    "AnswerExplanation",
    "AnswerSet",
    "AttributeContribution",
    "AttributeOrdering",
    "BaseQueryMapper",
    "BaseSet",
    "BuildTimings",
    "GuidedRelax",
    "ImpreciseQuery",
    "LikeConstraint",
    "PreciseConstraint",
    "RandomRelax",
    "RankedAnswer",
    "RelaxationStep",
    "RelaxationTrace",
    "StoreError",
    "TupleSimilarity",
    "answer_rank_key",
    "base_rank_key",
    "load_model",
    "save_model",
    "build_model",
    "build_model_from_sample",
    "compute_attribute_ordering",
    "explain_answer",
    "numeric_similarity",
    "ordered_subsets",
    "range_scaled_similarity",
    "tuple_as_query",
    "uniform_ordering",
]
