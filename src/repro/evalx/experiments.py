"""Experiment runners: one per table/figure of the paper's §6.

Every runner is a pure function taking explicit scale parameters, so
tests can run them tiny and benchmarks can run them at (or near) paper
scale.  Each returns a structured result object that the reporting
module renders in the paper's layout; EXPERIMENTS.md records the
paper-vs-measured comparison.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from repro.afd.tane import TaneConfig, TaneMiner
from repro.core.attribute_order import compute_attribute_ordering, uniform_ordering
from repro.core.config import AIMQSettings
from repro.core.engine import AIMQEngine
from repro.core.pipeline import AIMQModel, build_model_from_sample
from repro.core.relaxation import GuidedRelax, RandomRelax
from repro.datasets.cardb import generate_cardb
from repro.datasets.census import generate_censusdb
from repro.db.table import Table
from repro.db.webdb import AutonomousWebDatabase
from repro.evalx.metrics import top_k_accuracy
from repro.evalx.userstudy import SimulatedUserPanel, StudyOutcome
from repro.rock.answering import RockQueryAnswerer
from repro.rock.clustering import RockConfig
from repro.sampling.collector import nested_samples
from repro.simmining.avpair import AVPair
from repro.simmining.estimator import ValueSimilarityMiner
from repro.simmining.graph import neighbors_above, similarity_graph
from repro.simmining.supertuple import build_binners, build_supertuple

__all__ = [
    "Table2Result",
    "Table3Result",
    "Fig3Result",
    "Fig4Result",
    "Fig5Result",
    "EfficiencyResult",
    "Fig9Result",
    "run_table1",
    "run_table2",
    "run_table3",
    "run_fig3",
    "run_fig4",
    "run_fig5",
    "run_relaxation_efficiency",
    "run_retrieval_recall",
    "RecallResult",
    "run_fig8",
    "run_fig8_multi",
    "run_fig9",
    "census_settings",
]


def census_settings(
    error_threshold: float = 0.1,
    max_lhs_size: int = 2,
    max_key_size: int = 3,
    numeric_bins: int = 8,
    max_relaxation_level: int = 6,
) -> AIMQSettings:
    """AIMQ settings tuned for the wider Census schema.

    CensusDB has 13 attributes: bounding the mining lattice keeps the
    offline phase near-paper-fast without changing which orderings win,
    while the *online* relaxation must be allowed to go deep — a
    13-attribute tuple-as-query that may only shed two bindings almost
    never matches anything else.
    """
    return AIMQSettings(
        max_relaxation_level=max_relaxation_level,
        max_extracted_per_base_tuple=20000,
        tane=TaneConfig(
            error_threshold=error_threshold,
            key_error_threshold=0.45,
            max_lhs_size=max_lhs_size,
            max_key_size=max_key_size,
            numeric_bins=numeric_bins,
        ),
    )


# ---------------------------------------------------------------------------
# Table 1 — the supertuple for Make=Ford
# ---------------------------------------------------------------------------


def run_table1(car_rows: int = 5000, seed: int = 7, top: int = 5) -> str:
    """Render the Make=Ford supertuple in the paper's 2-column layout."""
    table = generate_cardb(car_rows, seed=seed)
    binners = build_binners(table, n_bins=10)
    index = table.hash_index("Make")
    assert index is not None
    rows = table.rows(index.lookup("Ford"))
    supertuple = build_supertuple(AVPair("Make", "Ford"), rows, table.schema, binners)
    return supertuple.describe(top=top)


# ---------------------------------------------------------------------------
# Table 2 — offline computation time, AIMQ vs ROCK
# ---------------------------------------------------------------------------


@dataclass
class Table2Result:
    """Seconds per offline phase, per dataset (the paper reports minutes)."""

    dataset_sizes: dict[str, int] = field(default_factory=dict)
    aimq_supertuple: dict[str, float] = field(default_factory=dict)
    aimq_estimation: dict[str, float] = field(default_factory=dict)
    rock_links: dict[str, float] = field(default_factory=dict)
    rock_clustering: dict[str, float] = field(default_factory=dict)
    rock_labeling: dict[str, float] = field(default_factory=dict)
    rock_sample_sizes: dict[str, int] = field(default_factory=dict)

    def aimq_total(self, dataset: str) -> float:
        return self.aimq_supertuple[dataset] + self.aimq_estimation[dataset]

    def rock_total(self, dataset: str) -> float:
        return (
            self.rock_links[dataset]
            + self.rock_clustering[dataset]
            + self.rock_labeling[dataset]
        )


def _time_aimq_offline(table: Table, result: Table2Result, dataset: str) -> None:
    miner = ValueSimilarityMiner()
    miner.mine(table)
    result.aimq_supertuple[dataset] = miner.timings.supertuple_seconds
    result.aimq_estimation[dataset] = miner.timings.estimation_seconds


def _time_rock_offline(
    table: Table,
    result: Table2Result,
    dataset: str,
    sample_size: int,
    theta: float,
    n_clusters: int,
) -> None:
    answerer = RockQueryAnswerer(
        table,
        config=RockConfig(theta=theta, n_clusters=n_clusters),
        sample_size=sample_size,
        seed=1,
    )
    answerer.fit()
    result.rock_links[dataset] = answerer.timings.link_seconds
    result.rock_clustering[dataset] = answerer.timings.clustering_seconds
    result.rock_labeling[dataset] = answerer.timings.labeling_seconds
    result.rock_sample_sizes[dataset] = min(sample_size, len(table))


def run_table2(
    car_rows: int = 2500,
    census_rows: int = 4500,
    rock_sample: int = 200,
    theta: float = 0.5,
    n_clusters: int = 12,
    seed: int = 7,
) -> Table2Result:
    """Offline cost of AIMQ vs ROCK on CarDB and CensusDB.

    Defaults are a 10x-scaled-down version of the paper's setup
    (CarDB 25k / CensusDB 45k / ROCK sample 2k); pass the paper's sizes
    for a full-scale run.
    """
    result = Table2Result()
    car = generate_cardb(car_rows, seed=seed)
    census, _ = generate_censusdb(census_rows, seed=seed + 4)
    result.dataset_sizes = {"CarDB": car_rows, "CensusDB": census_rows}

    _time_aimq_offline(car, result, "CarDB")
    _time_aimq_offline(census, result, "CensusDB")
    _time_rock_offline(car, result, "CarDB", rock_sample, theta, n_clusters)
    _time_rock_offline(census, result, "CensusDB", rock_sample, theta, n_clusters)
    return result


# ---------------------------------------------------------------------------
# Table 3 — robustness of similarity estimation across sample sizes
# ---------------------------------------------------------------------------


@dataclass
class Table3Result:
    """Top-similar values at small vs large sample, per probe AV-pair."""

    probes: list[tuple[str, str]]
    small_size: int
    large_size: int
    # probe -> ranked [(value, sim_small, sim_large)]
    rows: dict[tuple[str, str], list[tuple[str, float, float]]] = field(
        default_factory=dict
    )

    def order_preserved(
        self, probe: tuple[str, str], tolerance: float = 0.0
    ) -> bool:
        """True when the large-sample ranking is also descending under
        the small-sample scores (the paper's claim).

        ``tolerance`` forgives inversions between values whose
        small-sample scores are within that margin — near-ties carry no
        ordering information on a quarter-size sample.
        """
        small_scores = [row[1] for row in self.rows[probe]]
        return all(
            earlier >= later - tolerance - 1e-9
            for earlier, later in zip(small_scores, small_scores[1:])
        )


def run_table3(
    car_rows: int = 10000,
    small_fraction: float = 0.25,
    top: int = 3,
    seed: int = 7,
    probes: tuple[tuple[str, str], ...] = (
        ("Make", "Kia"),
        ("Model", "Bronco"),
        ("Year", "1985"),
    ),
) -> Table3Result:
    """Compare top similar values mined from a 25% sample vs the full set."""
    full = generate_cardb(car_rows, seed=seed)
    samples = nested_samples(
        full, [int(car_rows * small_fraction)], random.Random(seed + 1)
    )
    small = samples[int(car_rows * small_fraction)]

    small_model = ValueSimilarityMiner().mine(small)
    large_model = ValueSimilarityMiner().mine(full)

    result = Table3Result(
        probes=list(probes), small_size=len(small), large_size=len(full)
    )
    for attribute, value in probes:
        ranked_large = large_model.top_similar(attribute, value, n=top)
        result.rows[(attribute, value)] = [
            (other, small_model.similarity(attribute, value, other), sim_large)
            for other, sim_large in ranked_large
        ]
    return result


# ---------------------------------------------------------------------------
# Figure 3 — robustness of attribute ordering across sample sizes
# ---------------------------------------------------------------------------


@dataclass
class Fig3Result:
    """Wt_depends per attribute at each sample size."""

    sizes: list[int]
    # size -> attribute -> dependence weight
    weights: dict[int, dict[str, float]] = field(default_factory=dict)
    dependent_attributes: tuple[str, ...] = ()

    def ordering_at(self, size: int) -> list[str]:
        """Dependent attributes by ascending weight at ``size``."""
        weights = self.weights[size]
        return sorted(
            self.dependent_attributes, key=lambda name: (weights[name], name)
        )

    def orderings_consistent(self, tolerance: float = 0.05) -> bool:
        """The paper's claim: sample size shifts magnitudes, not order.

        Two attributes whose weights sit within ``tolerance`` of each
        other are treated as tied — an ordering only counts as flipped
        when some sample separates a pair one way and another sample
        separates it the other way by more than the tolerance.
        """
        names = self.dependent_attributes
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                a_smaller = any(
                    self.weights[s][a] < self.weights[s][b] - tolerance
                    for s in self.sizes
                )
                b_smaller = any(
                    self.weights[s][b] < self.weights[s][a] - tolerance
                    for s in self.sizes
                )
                if a_smaller and b_smaller:
                    return False
        return True


def run_fig3(
    car_rows: int = 10000,
    fractions: tuple[float, ...] = (0.15, 0.25, 0.5, 1.0),
    seed: int = 7,
    tane: TaneConfig | None = None,
) -> Fig3Result:
    """Mine Wt_depends per attribute over nested samples of CarDB."""
    tane = tane or TaneConfig(numeric_bins=8, key_error_threshold=0.45)
    full = generate_cardb(car_rows, seed=seed)
    sizes = sorted({max(1, int(car_rows * f)) for f in fractions})
    samples = nested_samples(full, sizes, random.Random(seed + 1))

    result = Fig3Result(sizes=sizes)
    dependent: tuple[str, ...] | None = None
    for size in sizes:
        sample = samples[size]
        model = TaneMiner(tane).mine(sample)
        ordering = compute_attribute_ordering(sample.schema, model)
        if dependent is None:
            dependent = ordering.dependent
        result.weights[size] = {
            name: model.dependence_weight(name)
            for name in sample.schema.attribute_names
        }
    result.dependent_attributes = dependent or ()
    return result


# ---------------------------------------------------------------------------
# Figure 4 — robustness of approximate-key mining
# ---------------------------------------------------------------------------


@dataclass
class Fig4Result:
    """Key qualities per sample size, paper-style ascending order."""

    sizes: list[int]
    # size -> [(key attribute tuple, quality)] ascending by quality
    key_quality: dict[int, list[tuple[tuple[str, ...], float]]] = field(
        default_factory=dict
    )
    best_key: dict[int, tuple[str, ...]] = field(default_factory=dict)

    def best_key_stable(self) -> bool:
        """The highest-quality key is the same in every sample."""
        keys = list(self.best_key.values())
        return all(key == keys[0] for key in keys)


def run_fig4(
    car_rows: int = 10000,
    fractions: tuple[float, ...] = (0.15, 0.25, 0.5, 1.0),
    seed: int = 7,
    tane: TaneConfig | None = None,
) -> Fig4Result:
    """Mine approximate keys over nested samples and compare qualities."""
    tane = tane or TaneConfig(numeric_bins=8, key_error_threshold=0.45)
    full = generate_cardb(car_rows, seed=seed)
    sizes = sorted({max(1, int(car_rows * f)) for f in fractions})
    samples = nested_samples(full, sizes, random.Random(seed + 1))

    result = Fig4Result(sizes=sizes)
    for size in sizes:
        model = TaneMiner(tane).mine(samples[size])
        ascending = model.keys_sorted_by_quality()
        result.key_quality[size] = [
            (key.attributes, key.quality) for key in ascending
        ]
        best = model.best_key(by="quality")
        result.best_key[size] = best.attributes if best else ()
    return result


# ---------------------------------------------------------------------------
# Figure 5 — similarity graph for Make
# ---------------------------------------------------------------------------


@dataclass
class Fig5Result:
    """The mined Make similarity graph around Ford."""

    threshold: float
    ford_neighbors: list[tuple[str, float]]
    edges: list[tuple[str, str, float]]
    disconnected_from_ford: list[str]


def run_fig5(
    car_rows: int = 10000,
    threshold: float = 0.1,
    seed: int = 7,
    focus: str = "Ford",
) -> Fig5Result:
    """Build the Figure 5 graph and report Ford's neighbourhood."""
    table = generate_cardb(car_rows, seed=seed)
    model = ValueSimilarityMiner().mine(table, attributes=("Make",))
    graph = similarity_graph(model, "Make", threshold=threshold)
    neighbors = neighbors_above(graph, focus)
    connected = {name for name, _ in neighbors} | {focus}
    disconnected = sorted(set(graph.nodes) - connected)
    edges = sorted(
        ((min(a, b), max(a, b), data["weight"]) for a, b, data in graph.edges(data=True)),
        key=lambda edge: -edge[2],
    )
    return Fig5Result(
        threshold=threshold,
        ford_neighbors=neighbors,
        edges=edges,
        disconnected_from_ford=disconnected,
    )


# ---------------------------------------------------------------------------
# Figures 6 & 7 — relaxation efficiency (Work/RelevantTuple vs T_sim)
# ---------------------------------------------------------------------------


@dataclass
class EfficiencyResult:
    """Work/RelevantTuple per threshold for one strategy.

    ``work`` is the mean over the query set (the paper's measure);
    ``median_work`` is reported alongside because at sub-paper data
    density a single query tuple with no T_sim-similar neighbours
    forces an exhaustive scan for *any* strategy and dominates the
    mean.
    """

    strategy: str
    thresholds: list[float]
    # threshold -> average work per relevant tuple over the query set
    work: dict[float, float] = field(default_factory=dict)
    # threshold -> median work per relevant tuple over the query set
    median_work: dict[float, float] = field(default_factory=dict)
    # threshold -> per-query work values
    per_query: dict[float, list[float]] = field(default_factory=dict)
    elapsed_seconds: float = 0.0


def _prepare_cardb_model(
    car_rows: int,
    sample_rows: int,
    seed: int,
    settings: AIMQSettings,
) -> tuple[AutonomousWebDatabase, AIMQModel, Table]:
    table = generate_cardb(car_rows, seed=seed)
    webdb = AutonomousWebDatabase(table)
    sample = nested_samples(table, [sample_rows], random.Random(seed + 1))[
        sample_rows
    ]
    model = build_model_from_sample(sample, settings=settings)
    return webdb, model, table


def run_relaxation_efficiency(
    strategy: str,
    car_rows: int = 10000,
    sample_rows: int = 2500,
    n_queries: int = 10,
    target: int = 20,
    thresholds: tuple[float, ...] = (0.5, 0.6, 0.7, 0.8, 0.9),
    seed: int = 7,
    settings: AIMQSettings | None = None,
) -> EfficiencyResult:
    """The §6.3 experiment for ``strategy`` in {"guided", "random"}.

    Ten random tuples act as queries; for each we extract ``target``
    tuples above each T_sim and record extracted/relevant.
    """
    if strategy not in ("guided", "random"):
        raise ValueError("strategy must be 'guided' or 'random'")
    # All relaxation depths are permitted: GuidedRelax rarely needs to
    # go past narrow relaxations before its quota fills, while the
    # undisciplined baseline pays for the broad queries it stumbles
    # into — the asymmetry Figures 6–7 exist to show.
    settings = settings or AIMQSettings(
        max_relaxation_level=6, max_extracted_per_base_tuple=50000
    )
    webdb, model, table = _prepare_cardb_model(
        car_rows, sample_rows, seed, settings
    )
    rng = random.Random(seed + 2)
    query_ids = rng.sample(range(len(table)), min(n_queries, len(table)))

    result = EfficiencyResult(strategy=strategy, thresholds=list(thresholds))
    started = time.perf_counter()
    for threshold in thresholds:
        works: list[float] = []
        for query_id in query_ids:
            if strategy == "guided":
                engine = model.engine(webdb, strategy=GuidedRelax(model.ordering))
            else:
                engine = model.engine(
                    webdb, strategy=RandomRelax(seed=seed + query_id)
                )
            _, trace = engine.gather_similar(
                table.row(query_id),
                similarity_threshold=threshold,
                target=target,
                row_id=query_id,
            )
            if trace.tuples_relevant > 0:
                works.append(trace.tuples_extracted / trace.tuples_relevant)
            else:
                works.append(float(trace.tuples_extracted))
        result.per_query[threshold] = works
        result.work[threshold] = sum(works) / len(works) if works else 0.0
        if works:
            ordered = sorted(works)
            middle = len(ordered) // 2
            if len(ordered) % 2:
                result.median_work[threshold] = ordered[middle]
            else:
                result.median_work[threshold] = (
                    ordered[middle - 1] + ordered[middle]
                ) / 2
        else:
            result.median_work[threshold] = 0.0
    result.elapsed_seconds = time.perf_counter() - started
    return result


# ---------------------------------------------------------------------------
# Figure 8 — simulated user study (MRR of Guided vs Random vs ROCK)
# ---------------------------------------------------------------------------


def run_fig8(
    car_rows: int = 10000,
    sample_rows: int = 2500,
    n_queries: int = 14,
    k: int = 10,
    n_users: int = 8,
    seed: int = 7,
    settings: AIMQSettings | None = None,
    rock_sample: int = 400,
    rock_theta: float = 0.5,
    rock_clusters: int = 12,
) -> StudyOutcome:
    """Run the §6.4 study with the simulated panel.

    14 random tuple queries; each system returns its top-10; the panel
    re-ranks and the redefined MRR is averaged per system.
    """
    settings = settings or AIMQSettings(max_relaxation_level=3)
    webdb, model, table = _prepare_cardb_model(
        car_rows, sample_rows, seed, settings
    )
    rng = random.Random(seed + 3)
    query_ids = rng.sample(range(len(table)), min(n_queries, len(table)))
    schema = table.schema

    # §6.4: "both RandomRelax and ROCK give equal importance to all the
    # attributes" — the strawman system pairs arbitrary relaxation with
    # uniform importance weights and a uniformly weighted VSim model.
    flat_ordering = uniform_ordering(schema)
    flat_similarity = ValueSimilarityMiner(config=settings.simmining).mine(
        model.sample
    )

    rock = RockQueryAnswerer(
        table,
        config=RockConfig(theta=rock_theta, n_clusters=rock_clusters),
        sample_size=rock_sample,
        seed=seed,
    ).fit()

    guided_answers: list[list[tuple]] = []
    random_answers: list[list[tuple]] = []
    rock_answers: list[list[tuple]] = []
    threshold = 0.35  # permissive: the panel judges relevance, not AIMQ

    for query_id in query_ids:
        row = table.row(query_id)
        guided_engine = model.engine(webdb, strategy=GuidedRelax(model.ordering))
        answers, _ = guided_engine.gather_similar(
            row, similarity_threshold=threshold, target=4 * k, row_id=query_id
        )
        guided_answers.append([a.row for a in answers[:k]])

        random_engine = AIMQEngine(
            webdb=webdb,
            ordering=flat_ordering,
            value_similarity=flat_similarity,
            settings=settings,
            strategy=RandomRelax(seed=seed + query_id),
        )
        answers, _ = random_engine.gather_similar(
            row, similarity_threshold=threshold, target=4 * k, row_id=query_id
        )
        random_answers.append([a.row for a in answers[:k]])

        rock_answers.append(
            [a.row for a in rock.answer_row_id(query_id, k=k)]
        )

    queries = [schema.row_to_mapping(table.row(qid)) for qid in query_ids]
    panel = SimulatedUserPanel(schema, n_users=n_users, seed=seed + 5)
    return panel.run_study(
        queries,
        {
            "GuidedRelax": guided_answers,
            "RandomRelax": random_answers,
            "ROCK": rock_answers,
        },
    )


@dataclass
class RecallResult:
    """Relaxation retrieval vs an exhaustive scan under the same Sim."""

    k: int
    n_queries: int
    recall_at_k: float = 0.0
    mean_probes: float = 0.0
    mean_extracted: float = 0.0
    scan_rows: int = 0


def run_retrieval_recall(
    car_rows: int = 8000,
    sample_rows: int = 2000,
    n_queries: int = 20,
    k: int = 10,
    threshold: float = 0.4,
    seed: int = 7,
    settings: AIMQSettings | None = None,
) -> RecallResult:
    """How much of the *true* top-k does probing-based retrieval find?

    The paper never measures this, but it is the natural effectiveness
    question for the architecture: AIMQ could in principle scan the
    whole relation and rank every tuple with its mined Sim, yet the
    autonomous setting forbids scans — relaxation probing is the
    workaround.  Ground truth here is the full-scan top-k under the
    *same* mined similarity; recall@k measures what the probing search
    loses in exchange for touching only a sliver of the source.
    """
    settings = settings or AIMQSettings(max_relaxation_level=4)
    webdb, model, table = _prepare_cardb_model(
        car_rows, sample_rows, seed, settings
    )
    rng = random.Random(seed + 9)
    query_ids = rng.sample(range(len(table)), min(n_queries, len(table)))

    engine = model.engine(webdb)
    result = RecallResult(k=k, n_queries=len(query_ids), scan_rows=len(table))
    recalls: list[float] = []
    probes: list[int] = []
    extracted: list[int] = []
    for query_id in query_ids:
        row = table.row(query_id)
        # Exhaustive ground truth under the identical similarity model.
        score = engine.similarity.row_scorer(row)
        scored = sorted(
            (
                (score(table.row(i)), i)
                for i in range(len(table))
                if i != query_id
            ),
            key=lambda pair: (-pair[0], pair[1]),
        )
        truth = {i for _, i in scored[:k]}

        webdb.reset_accounting()
        answers, trace = engine.gather_similar(
            row, similarity_threshold=threshold, target=4 * k, row_id=query_id
        )
        found = {answer.row_id for answer in answers[:k]}
        recalls.append(len(found & truth) / k)
        probes.append(webdb.log.probes_issued)
        extracted.append(trace.tuples_extracted)

    result.recall_at_k = sum(recalls) / len(recalls)
    result.mean_probes = sum(probes) / len(probes)
    result.mean_extracted = sum(extracted) / len(extracted)
    return result


def run_fig8_multi(
    seeds: tuple[int, ...] = (7, 17, 27),
    **kwargs,
) -> StudyOutcome:
    """Average the §6.4 study over several dataset/query seeds.

    The paper itself cautions that RandomRelax "is not [a strawman]
    here" — with 14 queries a single draw is noisy, so the benchmark
    aggregates a few independent panels before comparing systems.
    """
    per_query: dict[str, list[float]] = {}
    for seed in seeds:
        outcome = run_fig8(seed=seed, **kwargs)
        for name, values in outcome.per_query.items():
            per_query.setdefault(name, []).extend(values)
    return StudyOutcome(
        system_mrr={
            name: sum(values) / len(values)
            for name, values in per_query.items()
        },
        per_query=per_query,
    )


# ---------------------------------------------------------------------------
# Figure 9 — domain independence: classification accuracy on CensusDB
# ---------------------------------------------------------------------------


@dataclass
class Fig9Result:
    """Top-k label-match accuracy of AIMQ vs ROCK on CensusDB."""

    ks: list[int]
    aimq_accuracy: dict[int, float] = field(default_factory=dict)
    rock_accuracy: dict[int, float] = field(default_factory=dict)
    n_queries: int = 0

    def aimq_beats_rock(self) -> bool:
        return all(
            self.aimq_accuracy[k] > self.rock_accuracy[k] for k in self.ks
        )


def run_fig9(
    census_rows: int = 6000,
    sample_rows: int = 2000,
    n_queries: int = 100,
    ks: tuple[int, ...] = (10, 5, 3, 1),
    threshold: float = 0.4,
    seed: int = 11,
    settings: AIMQSettings | None = None,
    rock_sample: int = 400,
    rock_theta: float = 0.4,
    rock_clusters: int = 16,
) -> Fig9Result:
    """The §6.5 experiment: same-class accuracy of top-k answers.

    Query tuples are drawn outside the learning sample, balanced across
    the two income classes.
    """
    settings = settings or census_settings()
    table, labels = generate_censusdb(census_rows, seed=seed)
    webdb = AutonomousWebDatabase(table)

    rng = random.Random(seed + 1)
    ordering = list(range(len(table)))
    rng.shuffle(ordering)
    sample_ids = sorted(ordering[:sample_rows])
    outside_ids = ordering[sample_rows:]
    sample = table.sample(sample_ids)
    model = build_model_from_sample(sample, settings=settings)

    # Balance queries over classes.
    by_class: dict[str, list[int]] = {}
    for row_id in outside_ids:
        by_class.setdefault(labels[row_id], []).append(row_id)
    per_class = max(1, n_queries // max(1, len(by_class)))
    query_ids: list[int] = []
    for class_ids in by_class.values():
        query_ids.extend(class_ids[:per_class])

    rock = RockQueryAnswerer(
        table,
        config=RockConfig(theta=rock_theta, n_clusters=rock_clusters),
        sample_size=rock_sample,
        seed=seed,
    ).fit()

    max_k = max(ks)
    result = Fig9Result(ks=list(ks), n_queries=len(query_ids))
    aimq_scores: dict[int, list[float]] = {k: [] for k in ks}
    rock_scores: dict[int, list[float]] = {k: [] for k in ks}

    for query_id in query_ids:
        row = table.row(query_id)
        query_label = labels[query_id]

        engine = model.engine(webdb, strategy=GuidedRelax(model.ordering))
        answers, _ = engine.gather_similar(
            row, similarity_threshold=threshold, target=max_k, row_id=query_id
        )
        aimq_labels = [labels[a.row_id] for a in answers[:max_k]]

        rock_result = rock.answer_row_id(query_id, k=max_k)
        rock_labels = [labels[a.row_id] for a in rock_result]

        for k in ks:
            aimq_scores[k].append(top_k_accuracy(aimq_labels, query_label, k))
            rock_scores[k].append(top_k_accuracy(rock_labels, query_label, k))

    for k in ks:
        result.aimq_accuracy[k] = sum(aimq_scores[k]) / len(aimq_scores[k])
        result.rock_accuracy[k] = sum(rock_scores[k]) / len(rock_scores[k])
    return result
