"""Synthetic CarDB: the Yahoo Autos stand-in.

Projects the paper's relation ``CarDB(Make, Model, Year, Price,
Mileage, Location, Color)`` with the paper's typing: Make, Model, Year,
Location and Color categorical; Price and Mileage numeric (§6.1).

The generator reproduces the statistical structure AIMQ mines:

* ``Model → Make`` holds exactly (the catalogue is a function);
* Price falls with age through exponential depreciation plus noise and
  a mileage-wear discount, so Year/Price/Mileage co-vary;
* Mileage grows with age at a segment-dependent rate;
* Location and Color have mildly make-/segment-skewed distributions —
  enough signal for supertuples, not enough to dominate;
* Price is quoted to $100 and Mileage to 500 miles, like real listings,
  which keeps equality probing and key mining meaningful.

Determinism: one ``seed`` fixes the whole dataset.
"""

from __future__ import annotations

import math
import random

from repro.datasets.catalog import CATALOG, COLORS, LOCATIONS, SEGMENTS, ModelSpec
from repro.db.schema import RelationSchema
from repro.db.table import Table
from repro.db.webdb import AutonomousWebDatabase

__all__ = ["CARDB_SCHEMA", "generate_cardb", "cardb_webdb", "YEAR_RANGE"]


CARDB_SCHEMA = RelationSchema.build(
    "CarDB",
    categorical=("Make", "Model", "Year", "Location", "Color"),
    numeric=("Price", "Mileage"),
    order=("Make", "Model", "Year", "Price", "Mileage", "Location", "Color"),
)

YEAR_RANGE = (1984, 2005)

# Annual depreciation by segment: luxury and sports cars shed value
# faster, trucks hold it.
_DEPRECIATION = {
    "economy": 0.13,
    "midsize": 0.13,
    "fullsize": 0.14,
    "luxury": 0.17,
    "sports": 0.15,
    "suv": 0.12,
    "truck": 0.10,
    "van": 0.14,
}

# Mild regional skew: domestic makes list more in the heartland,
# imports on the coasts.  Index into LOCATIONS.
_DOMESTIC = {"Ford", "Chevrolet", "Dodge", "Mercury"}
_COASTAL_LOCATIONS = ("Los Angeles", "San Diego", "Seattle", "Miami")
_HEARTLAND_LOCATIONS = ("Dallas", "Houston", "Chicago", "Detroit", "Denver")

# Color taste varies by segment; sports skew red/black, trucks white.
_COLOR_TILT = {
    "sports": {"Red": 3.0, "Black": 2.0},
    "truck": {"White": 3.0, "Silver": 1.5},
    "luxury": {"Black": 2.5, "Silver": 2.0},
    "van": {"White": 2.0, "Gold": 1.3},
}


def _pick_weighted(rng: random.Random, items: tuple, weights: list[float]):
    return rng.choices(items, weights=weights, k=1)[0]


def _pick_model(rng: random.Random) -> ModelSpec:
    weights = [spec.popularity for spec in CATALOG]
    return _pick_weighted(rng, CATALOG, weights)


def _pick_year(rng: random.Random, reference_year: int) -> int:
    """Listing years skew recent: age is geometric-ish, capped."""
    low, high = YEAR_RANGE
    age = min(int(rng.expovariate(1 / 6.0)), reference_year - low)
    return max(low, reference_year - age)


def _pick_location(rng: random.Random, make: str) -> str:
    weights = []
    for location in LOCATIONS:
        weight = 1.0
        if make in _DOMESTIC and location in _HEARTLAND_LOCATIONS:
            weight = 1.8
        elif make not in _DOMESTIC and location in _COASTAL_LOCATIONS:
            weight = 1.6
        weights.append(weight)
    return _pick_weighted(rng, LOCATIONS, weights)


def _pick_color(rng: random.Random, segment: str) -> str:
    tilt = _COLOR_TILT.get(segment, {})
    weights = [tilt.get(color, 1.0) for color in COLORS]
    return _pick_weighted(rng, COLORS, weights)


def _price_and_mileage(
    rng: random.Random, spec: ModelSpec, year: int, reference_year: int
) -> tuple[int, int]:
    age = reference_year - year
    segment = SEGMENTS[spec.segment]
    miles = age * rng.gauss(segment.miles_per_year, segment.miles_per_year * 0.25)
    miles = max(0.0, miles) + rng.uniform(0, 4000)
    mileage = int(round(miles / 500.0) * 500)

    depreciation = _DEPRECIATION[spec.segment]
    value = spec.base_price * math.exp(-depreciation * age)
    # Wear discount: every 10k miles beyond the age-expected mileage
    # knocks ~3% off; being under-driven adds a little.
    expected = age * segment.miles_per_year
    wear = (miles - expected) / 10000.0
    value *= max(0.4, 1.0 - 0.03 * wear)
    value *= rng.gauss(1.0, 0.08)
    price = max(500, int(round(value / 100.0) * 100))
    return price, mileage


def generate_cardb(
    n_rows: int,
    seed: int = 7,
    reference_year: int = 2005,
    auto_index: bool = True,
) -> Table:
    """Generate a CarDB instance with ``n_rows`` listings.

    >>> table = generate_cardb(100)
    >>> len(table)
    100
    """
    if n_rows < 0:
        raise ValueError("n_rows cannot be negative")
    rng = random.Random(seed)
    table = Table(CARDB_SCHEMA, auto_index=auto_index)
    rows: list[tuple[object, ...]] = []
    for _ in range(n_rows):
        spec = _pick_model(rng)
        year = _pick_year(rng, reference_year)
        price, mileage = _price_and_mileage(rng, spec, year, reference_year)
        rows.append(
            (
                spec.make,
                spec.model,
                str(year),
                price,
                mileage,
                _pick_location(rng, spec.make),
                _pick_color(rng, spec.segment),
            )
        )
    table.extend(rows)
    return table


def cardb_webdb(
    n_rows: int,
    seed: int = 7,
    result_cap: int | None = None,
    auto_index: bool = True,
) -> AutonomousWebDatabase:
    """A CarDB instance wrapped as an autonomous Web source."""
    return AutonomousWebDatabase(
        generate_cardb(n_rows, seed=seed, auto_index=auto_index),
        result_cap=result_cap,
    )
