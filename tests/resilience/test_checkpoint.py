"""Checkpoint/resume for collection runs against failing sources."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import AutonomousWebDatabase, FaultPolicy, FaultSpec, ProbeLog
from repro.db.errors import ProbeLimitExceededError, TypeMismatchError
from repro.sampling import (
    CollectionCheckpoint,
    CollectionInterrupted,
    probe_all,
)

_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=5),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=5), children, max_size=4),
    max_leaves=12,
)
_FIELDS = (
    "spanning_attribute",
    "next_query_index",
    "next_offset",
    "rows",
    "probes_issued",
    "truncated_probes",
    "pages_followed",
)
# Objects carrying the checkpoint's own keys, so decoding gets past the
# first lookup and reaches every field's checks.
_PAYLOADS = _JSON | st.fixed_dictionaries(
    {}, optional={key: _JSON for key in _FIELDS}
)


class TestCheckpointSerialisation:
    def test_json_round_trip(self):
        checkpoint = CollectionCheckpoint(
            spanning_attribute="Make",
            next_query_index=3,
            next_offset=40,
            rows=(("Toyota", "Camry", 1999), ("Honda", "Civic", 2001)),
            probes_issued=7,
            truncated_probes=1,
            pages_followed=2,
        )
        assert CollectionCheckpoint.from_json(checkpoint.to_json()) == checkpoint

    def test_positions_validated(self):
        with pytest.raises(ValueError):
            CollectionCheckpoint(
                spanning_attribute="Make",
                next_query_index=-1,
                next_offset=0,
                rows=(),
            )


class TestCheckpointDecoding:
    @pytest.mark.parametrize(
        "payload",
        [
            {"rows": []},
            [],
            {
                "spanning_attribute": "Make",
                "next_query_index": "3",
                "next_offset": 0,
                "rows": [],
            },
            {
                "spanning_attribute": "Make",
                "next_query_index": 0,
                "next_offset": 0,
                "rows": 5,
            },
            {
                "spanning_attribute": "Make",
                "next_query_index": 0,
                "next_offset": 0,
                "rows": [1],
            },
            {
                "spanning_attribute": "Make",
                "next_query_index": 0,
                "next_offset": 0,
                "rows": [],
                "probes_issued": True,
            },
        ],
    )
    def test_undecodable_payload_raises_value_error(self, payload):
        with pytest.raises(ValueError):
            CollectionCheckpoint.from_dict(payload)
        with pytest.raises(ValueError):
            CollectionCheckpoint.from_json(json.dumps(payload))

    def test_invalid_json_raises_value_error(self):
        with pytest.raises(ValueError):
            CollectionCheckpoint.from_json('{"rows": [')

    @given(_PAYLOADS)
    @settings(max_examples=300, deadline=None)
    def test_from_json_decodes_or_raises_value_error(self, payload):
        try:
            checkpoint = CollectionCheckpoint.from_json(json.dumps(payload))
        except ValueError:
            return
        assert CollectionCheckpoint.from_json(checkpoint.to_json()) == checkpoint


class TestResumableCollection:
    def test_default_mode_propagates_unchanged(self, car_table):
        limited = AutonomousWebDatabase(car_table, probe_budget=3)
        with pytest.raises(ProbeLimitExceededError):
            probe_all(limited, spanning_attribute="Model")

    def test_interrupt_carries_a_checkpoint(self, car_table):
        limited = AutonomousWebDatabase(car_table, probe_budget=3)
        with pytest.raises(CollectionInterrupted) as info:
            probe_all(limited, spanning_attribute="Model", resumable=True)
        checkpoint = info.value.checkpoint
        assert checkpoint.spanning_attribute == "Model"
        assert checkpoint.probes_issued == 3
        assert len(checkpoint.rows) > 0
        assert isinstance(info.value.__cause__, ProbeLimitExceededError)

    def test_resume_completes_without_reissuing_probes(self, car_table):
        clean = AutonomousWebDatabase(car_table)
        full, clean_report = probe_all(clean, spanning_attribute="Model")

        limited = AutonomousWebDatabase(car_table, probe_budget=5)
        with pytest.raises(CollectionInterrupted) as info:
            probe_all(limited, spanning_attribute="Model", resumable=True)
        checkpoint = info.value.checkpoint

        fresh = AutonomousWebDatabase(car_table)
        resumed, report = probe_all(
            fresh, resumable=True, checkpoint=checkpoint
        )
        assert list(resumed.rows()) == list(full.rows())
        assert report.tuples_collected == clean_report.tuples_collected
        # The resumed run paid only for the probes the first run missed.
        assert (
            fresh.log.probes_issued
            == clean_report.probes_issued - checkpoint.probes_issued
        )
        assert report.probes_issued == clean_report.probes_issued

    def test_resume_survives_repeated_faults(self, car_table):
        """Keep resuming through a flaky source until collection lands."""
        clean = AutonomousWebDatabase(car_table)
        full, _ = probe_all(clean, spanning_attribute="Model")

        flaky = AutonomousWebDatabase(
            car_table,
            fault_policy=FaultPolicy(
                FaultSpec(transient_rate=0.4), seed=13
            ),
        )
        checkpoint = None
        for _ in range(200):
            try:
                collected, _ = probe_all(
                    flaky,
                    spanning_attribute="Model",
                    resumable=True,
                    checkpoint=checkpoint,
                )
                break
            except CollectionInterrupted as interrupt:
                checkpoint = interrupt.checkpoint
        else:
            pytest.fail("collection never completed through the flaky source")
        assert list(collected.rows()) == list(full.rows())

    def test_round_trip_through_json_mid_run(self, car_table):
        limited = AutonomousWebDatabase(car_table, probe_budget=5)
        with pytest.raises(CollectionInterrupted) as info:
            probe_all(limited, spanning_attribute="Model", resumable=True)
        revived = CollectionCheckpoint.from_json(
            info.value.checkpoint.to_json()
        )
        fresh = AutonomousWebDatabase(car_table)
        resumed, _ = probe_all(fresh, resumable=True, checkpoint=revived)
        clean, _ = probe_all(
            AutonomousWebDatabase(car_table), spanning_attribute="Model"
        )
        assert list(resumed.rows()) == list(clean.rows())

    def test_mismatched_spanning_attribute_is_rejected(self, car_table):
        checkpoint = CollectionCheckpoint(
            spanning_attribute="Model",
            next_query_index=0,
            next_offset=0,
            rows=(),
        )
        webdb = AutonomousWebDatabase(car_table)
        with pytest.raises(ValueError, match="spanning attribute"):
            probe_all(
                webdb,
                spanning_attribute="Make",
                resumable=True,
                checkpoint=checkpoint,
            )

    @pytest.mark.parametrize(
        "bad_row",
        [
            ("Toyota", "Camry"),  # wrong arity
            ("Toyota", "Camry", "1999", "cheap", 1000, "Dallas", "Red"),
        ],
    )
    def test_resume_validates_rows_before_probing(self, car_table, bad_row):
        good = car_table.row(0)
        checkpoint = CollectionCheckpoint(
            spanning_attribute="Model",
            next_query_index=0,
            next_offset=0,
            rows=(good, bad_row, good),
        )
        webdb = AutonomousWebDatabase(car_table)
        with pytest.raises(TypeMismatchError):
            probe_all(webdb, resumable=True, checkpoint=checkpoint)
        assert webdb.log == ProbeLog()
