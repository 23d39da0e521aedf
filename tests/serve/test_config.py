"""ServeConfig validation: a bad knob-set refuses to construct."""

import dataclasses

import pytest

from repro.serve import ServeConfig

from tests.serve.conftest import base_serve_config


def test_defaults_construct():
    config = ServeConfig()
    assert config.max_inflight == 8
    assert config.pressure_threshold == 0.75


@pytest.mark.parametrize(
    "overrides",
    [
        {"dataset": "moviedb"},
        {"rows": 0},
        {"sample": 0},
        {"probe_cache_capacity": -1},
        {"default_k": 0},
        {"max_k": 1, "default_k": 10},
        {"max_inflight": 0},
        {"max_queue": -1},
        {"queue_wait_seconds": -0.1},
        {"rate": -1.0},
        {"burst": 0},
        {"retry_after_seconds": 0.0},
        {"pressure_threshold": 0.0},
        {"pressure_threshold": 1.5},
        {"query_deadline_seconds": 0.0},
        {"pressured_deadline_seconds": 0.0},
        {"pressured_probe_cap": 0},
        {"drain_seconds": -1.0},
    ],
)
def test_bad_knobs_are_rejected(overrides):
    with pytest.raises(ValueError):
        base_serve_config(**overrides)


def test_config_is_frozen():
    config = ServeConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.max_inflight = 99  # type: ignore[misc]
