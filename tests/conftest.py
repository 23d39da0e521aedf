"""Shared fixtures: tiny deterministic relations used across the suite."""

from __future__ import annotations

import random

import pytest

from repro.datasets.cardb import generate_cardb
from repro.datasets.census import generate_censusdb
from repro.db.schema import RelationSchema
from repro.db.table import Table
from repro.db.webdb import AutonomousWebDatabase
from repro.obs import OBS


@pytest.fixture(autouse=True)
def _observability_switches_restored():
    """Fail a test that leaves observability switched otherwise than it found it.

    ``OBS`` is process-wide, so a flag a test leaves on makes every later
    test pay for spans and metrics and see stale recordings.  The flags
    are compared before and after each test (so a module-scoped fixture
    may keep observability on for its tests) and restored either way.
    """
    before = (OBS.enabled, OBS.events.enabled, OBS.events.probe_events)
    yield
    after = (OBS.enabled, OBS.events.enabled, OBS.events.probe_events)
    OBS.enabled, OBS.events.enabled, OBS.events.probe_events = before
    if after != before:
        pytest.fail(
            "observability switches (OBS.enabled, OBS.events.enabled, "
            f"OBS.events.probe_events) went from {before} to {after}"
        )


@pytest.fixture()
def toy_schema() -> RelationSchema:
    """A 4-attribute schema mixing categorical and numeric kinds."""
    return RelationSchema.build(
        "Cars",
        categorical=("Make", "Model"),
        numeric=("Price", "Year"),
        order=("Make", "Model", "Price", "Year"),
    )


TOY_ROWS = [
    ("Toyota", "Camry", 10000, 2000),
    ("Toyota", "Camry", 10500, 2001),
    ("Toyota", "Corolla", 8000, 2000),
    ("Honda", "Accord", 9800, 2000),
    ("Honda", "Accord", 15000, 2004),
    ("Honda", "Civic", 7500, 1999),
    ("Ford", "Focus", 7000, 2001),
    ("Ford", "F-150", 17000, 2003),
]


@pytest.fixture()
def toy_table(toy_schema: RelationSchema) -> Table:
    table = Table(toy_schema)
    table.extend(TOY_ROWS)
    return table


@pytest.fixture()
def toy_webdb(toy_table: Table) -> AutonomousWebDatabase:
    return AutonomousWebDatabase(toy_table)


@pytest.fixture(scope="session")
def car_table() -> Table:
    """A 3000-row CarDB instance shared (read-only!) across tests."""
    return generate_cardb(3000, seed=7)


@pytest.fixture(scope="session")
def car_webdb(car_table: Table) -> AutonomousWebDatabase:
    return AutonomousWebDatabase(car_table)


@pytest.fixture(scope="session")
def census_data() -> tuple[Table, list[str]]:
    """A 2500-row CensusDB instance plus labels (read-only!)."""
    return generate_censusdb(2500, seed=11)


@pytest.fixture()
def rng() -> random.Random:
    return random.Random(1234)
