"""Answer explanations: why did this tuple rank where it did?

Imprecise answers need provenance — a user shown an Accord for a Camry
query deserves to know it came from relaxing the Model binding and that
the mined Camry↔Accord similarity carried the score.  The explanation
decomposes Sim(Q, t) into its per-attribute terms:

    Sim(Q, t) = Σ_i W_imp(A_i) · sim_i

and records the relaxation provenance (which base tuple seeded the
answer and at which relaxation depth it was found).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.query import ImpreciseQuery
from repro.core.results import RankedAnswer
from repro.core.similarity import TupleSimilarity

__all__ = ["AttributeContribution", "AnswerExplanation", "explain_answer"]


@dataclass(frozen=True)
class AttributeContribution:
    """One attribute's share of the total similarity."""

    attribute: str
    query_value: object
    answer_value: object
    similarity: float
    weight: float

    @property
    def contribution(self) -> float:
        return self.weight * self.similarity

    @property
    def matched(self) -> bool:
        return self.query_value == self.answer_value

    def describe(self) -> str:
        marker = "=" if self.matched else "~"
        return (
            f"{self.attribute}: {self.query_value!r} {marker} "
            f"{self.answer_value!r} (sim {self.similarity:.2f} x "
            f"weight {self.weight:.2f} = {self.contribution:.3f})"
        )


@dataclass(frozen=True)
class AnswerExplanation:
    """Full decomposition of one answer's score plus its provenance."""

    answer: RankedAnswer
    contributions: tuple[AttributeContribution, ...]

    @property
    def total(self) -> float:
        return sum(c.contribution for c in self.contributions)

    @property
    def strongest(self) -> AttributeContribution:
        return max(self.contributions, key=lambda c: c.contribution)

    @property
    def weakest(self) -> AttributeContribution:
        return min(self.contributions, key=lambda c: c.contribution)

    def describe(self) -> str:
        answer = self.answer
        if answer.relaxation_level == 0:
            provenance = "direct match of the tightened base query"
        else:
            provenance = (
                f"found at relaxation depth {answer.relaxation_level}, "
                f"seeded by base tuple #{answer.source_base_row_id}"
            )
        lines = [
            f"answer #{answer.row_id} scored {answer.similarity:.3f} "
            f"({provenance})"
        ]
        ranked = sorted(
            self.contributions, key=lambda c: -c.contribution
        )
        for contribution in ranked:
            lines.append("  " + contribution.describe())
        return "\n".join(lines)


def explain_answer(
    similarity: TupleSimilarity,
    query: ImpreciseQuery,
    answer: RankedAnswer,
) -> AnswerExplanation:
    """Decompose ``answer``'s score against ``query``.

    Only the query's likeness constraints carry graded similarity
    (precise conjuncts were enforced by the boolean engine), as in
    :meth:`TupleSimilarity.query_scorer`.  Each attribute is scored by
    the same value scorer the compiled plan uses, and a None on either
    side scores 0, so the contribution total reconstructs the answer's
    query similarity.
    """
    bindings = {
        constraint.attribute: constraint.value
        for constraint in query.like_constraints
    }
    weights = similarity.ordering.weights_over(tuple(bindings))
    schema = similarity.schema
    contributions = []
    for attribute, expected in bindings.items():
        actual = answer.row[schema.position(attribute)]
        attribute_similarity = (
            0.0
            if expected is None
            else similarity._value_scorer(attribute, expected)(actual)
        )
        contributions.append(
            AttributeContribution(
                attribute=attribute,
                query_value=expected,
                answer_value=actual,
                similarity=attribute_similarity,
                weight=weights[attribute],
            )
        )
    return AnswerExplanation(
        answer=answer, contributions=tuple(contributions)
    )
