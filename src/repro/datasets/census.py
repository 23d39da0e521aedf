"""Synthetic CensusDB: the UCI Adult/Census stand-in.

Projects the paper's relation ``CensusDB(Age, Workclass,
Demographic-weight, Education, Marital-Status, Occupation, Relationship,
Race, Sex, Capital-gain, Capital-loss, Hours-per-week, Native-Country)``
with the paper's typing (§6.1): Age, Demographic-weight, Capital-gain,
Capital-loss and Hours-per-week numeric, the rest categorical.

Each generated tuple carries a hidden income class (``>50K`` /
``<=50K``) derived from a noisy monotone score over education, age,
hours, occupation and capital gain — mirroring how the real Adult
labels correlate with those attributes.  §6.5's evaluation assumes
"tuples belonging to the same class are more similar"; the generator
enforces that by making the class-relevant attributes mutually
correlated (education drives occupation and hours; age drives marital
status; marital status and sex drive relationship).

The class is *not* part of the relation — it is returned as a parallel
label list, exactly like the paper's "pre-classified" tuples.
"""

from __future__ import annotations

import random

from repro.db.schema import RelationSchema
from repro.db.table import Table
from repro.db.webdb import AutonomousWebDatabase

__all__ = [
    "CENSUS_SCHEMA",
    "INCOME_HIGH",
    "INCOME_LOW",
    "generate_censusdb",
    "census_webdb",
]


CENSUS_SCHEMA = RelationSchema.build(
    "CensusDB",
    categorical=(
        "Workclass",
        "Education",
        "Marital-Status",
        "Occupation",
        "Relationship",
        "Race",
        "Sex",
        "Native-Country",
    ),
    numeric=(
        "Age",
        "Demographic-weight",
        "Capital-gain",
        "Capital-loss",
        "Hours-per-week",
    ),
    order=(
        "Age",
        "Workclass",
        "Demographic-weight",
        "Education",
        "Marital-Status",
        "Occupation",
        "Relationship",
        "Race",
        "Sex",
        "Capital-gain",
        "Capital-loss",
        "Hours-per-week",
        "Native-Country",
    ),
)

INCOME_HIGH = ">50K"
INCOME_LOW = "<=50K"

# Education levels in increasing order; the index is the ordinal score.
_EDUCATION = (
    "HS-grad",
    "Some-college",
    "Assoc-voc",
    "Bachelors",
    "Masters",
    "Prof-school",
    "Doctorate",
)
_EDUCATION_WEIGHTS = (0.34, 0.24, 0.10, 0.20, 0.08, 0.02, 0.02)

_WORKCLASS = (
    "Private",
    "Self-emp-not-inc",
    "Self-emp-inc",
    "Federal-gov",
    "State-gov",
    "Local-gov",
)

# Occupations with a skill score and education affinity; higher skill
# occupations demand more education and pay more.
_OCCUPATIONS = (
    ("Exec-managerial", 3),
    ("Prof-specialty", 3),
    ("Tech-support", 2),
    ("Sales", 2),
    ("Craft-repair", 1),
    ("Adm-clerical", 1),
    ("Machine-op-inspct", 0),
    ("Transport-moving", 0),
    ("Handlers-cleaners", 0),
    ("Other-service", 0),
)

_MARITAL = (
    "Never-married",
    "Married-civ-spouse",
    "Divorced",
    "Widowed",
    "Separated",
)

_RACES = ("White", "Black", "Asian-Pac-Islander", "Amer-Indian-Eskimo", "Other")
_RACE_WEIGHTS = (0.80, 0.10, 0.06, 0.02, 0.02)

_COUNTRIES = (
    "United-States",
    "Mexico",
    "Philippines",
    "Germany",
    "Canada",
    "India",
    "England",
    "Cuba",
)
_COUNTRY_WEIGHTS = (0.88, 0.04, 0.02, 0.015, 0.015, 0.015, 0.008, 0.007)


def _pick(rng: random.Random, items: tuple, weights: tuple | list):
    return rng.choices(items, weights=weights, k=1)[0]


def _pick_occupation(rng: random.Random, education_level: int) -> tuple[str, int]:
    """Higher education strongly tilts toward higher-skill occupations.

    The coupling is deliberately sharp: in the real Adult data the
    education/occupation contingency is strong enough for approximate
    dependencies to surface, and the reproduction relies on mining that
    same structure (see DESIGN.md's substitution notes).
    """
    target_skill = min(3, education_level // 2 + (1 if education_level >= 3 else 0))
    weights = []
    for _, skill in _OCCUPATIONS:
        gap = abs(skill - target_skill)
        weights.append(10.0 ** (1.5 - gap))
    return _pick(rng, _OCCUPATIONS, weights)


def _pick_workclass(rng: random.Random, skill: int) -> str:
    """Work sector follows occupation skill (managers rarely labour)."""
    if skill >= 3:
        weights = (0.55, 0.08, 0.14, 0.08, 0.06, 0.09)
    elif skill >= 1:
        weights = (0.72, 0.08, 0.03, 0.04, 0.05, 0.08)
    else:
        weights = (0.82, 0.07, 0.01, 0.02, 0.03, 0.05)
    return _pick(rng, _WORKCLASS, weights)


def _pick_marital(rng: random.Random, age: int) -> str:
    if age < 25:
        weights = (0.75, 0.15, 0.04, 0.0, 0.06)
    elif age < 40:
        weights = (0.30, 0.50, 0.13, 0.01, 0.06)
    else:
        weights = (0.10, 0.55, 0.20, 0.10, 0.05)
    return _pick(rng, _MARITAL, weights)


def _pick_relationship(rng: random.Random, marital: str, sex: str) -> str:
    if marital == "Married-civ-spouse":
        return "Husband" if sex == "Male" else "Wife"
    return _pick(
        rng,
        ("Not-in-family", "Own-child", "Unmarried", "Other-relative"),
        (0.5, 0.2, 0.2, 0.1),
    )


def _income_score(
    education_level: int,
    age: int,
    hours: int,
    occupation_skill: int,
    capital_gain: int,
    marital: str,
) -> float:
    """Monotone log-odds-style score the label thresholds against.

    Coefficients mirror the real Adult data's structure, where marital
    status (married-civ-spouse) is by far the strongest single
    predictor of the >50K class, followed by education, occupation
    skill, hours and age.
    """
    score = 0.0
    score += 0.45 * education_level
    score += 0.05 * min(age, 55)
    score += 0.04 * (hours - 40)
    score += 0.35 * occupation_skill
    score += 0.0004 * capital_gain
    if marital == "Married-civ-spouse":
        score += 2.2
    return score


def generate_censusdb(
    n_rows: int, seed: int = 11
) -> tuple[Table, list[str]]:
    """Generate a CensusDB instance plus its hidden income labels.

    Returns ``(table, labels)`` with ``labels[row_id]`` being ``>50K``
    or ``<=50K``; roughly a quarter of tuples land in the high class,
    matching the real Adult data's skew.
    """
    if n_rows < 0:
        raise ValueError("n_rows cannot be negative")
    rng = random.Random(seed)
    rows: list[tuple[object, ...]] = []
    labels: list[str] = []
    for _ in range(n_rows):
        education = _pick(rng, _EDUCATION, _EDUCATION_WEIGHTS)
        education_level = _EDUCATION.index(education)
        age = min(90, max(17, int(rng.gauss(38, 13))))
        occupation, skill = _pick_occupation(rng, education_level)
        hours = min(
            99,
            max(5, int(rng.gauss(34 + 4.0 * skill + 1.2 * education_level, 6))),
        )
        marital = _pick_marital(rng, age)
        sex = _pick(rng, ("Male", "Female"), (0.67, 0.33))
        relationship = _pick_relationship(rng, marital, sex)
        capital_gain = 0
        if rng.random() < 0.06 + 0.02 * education_level:
            capital_gain = int(rng.expovariate(1 / 6000.0))
        capital_loss = int(rng.expovariate(1 / 900.0)) if rng.random() < 0.04 else 0
        weight = int(rng.gauss(190000, 60000))
        weight = max(20000, (weight // 20) * 20)

        rows.append(
            (
                age,
                _pick_workclass(rng, skill),
                weight,
                education,
                marital,
                occupation,
                relationship,
                _pick(rng, _RACES, _RACE_WEIGHTS),
                sex,
                capital_gain,
                capital_loss,
                hours,
                _pick(rng, _COUNTRIES, _COUNTRY_WEIGHTS),
            )
        )
        score = _income_score(
            education_level, age, hours, skill, capital_gain, marital
        )
        score += rng.gauss(0, 0.9)
        labels.append(INCOME_HIGH if score > 5.3 else INCOME_LOW)
    table = Table(CENSUS_SCHEMA)
    table.extend(rows)
    return table, labels


def census_webdb(
    n_rows: int, seed: int = 11
) -> tuple[AutonomousWebDatabase, list[str]]:
    """A CensusDB instance wrapped as an autonomous Web source."""
    table, labels = generate_censusdb(n_rows, seed=seed)
    return AutonomousWebDatabase(table), labels
