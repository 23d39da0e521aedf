"""Persistence for mined AIMQ models.

Mining is the expensive phase; a deployment wants to probe and mine
once, persist the artifacts, and answer queries from the stored model
until the source drifts.  This module serialises everything the online
engine needs — the dependency model, the attribute ordering, the value
similarities and the settings — to a single JSON document.

The schema itself is serialised too and verified on load, so a stored
model cannot silently be applied to a different relation.  A file this
build cannot decode fails with :class:`StoreError` and yields no model.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict
from pathlib import Path

from repro.afd.model import AFD, ApproximateKey, DependencyModel
from repro.afd.tane import TaneConfig
from repro.core.attribute_order import AttributeOrdering
from repro.core.config import AIMQSettings
from repro.core.pipeline import AIMQModel, BuildTimings
from repro.db import RelationSchema, Table
from repro.simmining.estimator import SimilarityMinerConfig, SimilarityModel

__all__ = ["FORMAT_VERSION", "StoreError", "save_model", "load_model"]

FORMAT_VERSION = 2


class StoreError(Exception):
    """A stored model cannot be written or does not match on load."""


# -- serialisation ----------------------------------------------------------


def _schema_payload(schema: RelationSchema) -> dict:
    return {
        "name": schema.name,
        "attributes": [
            {"name": a.name, "kind": a.kind.value} for a in schema.attributes
        ],
    }


def _dependencies_payload(model: DependencyModel) -> dict:
    return {
        "attributes": list(model.attributes),
        "sample_size": model.sample_size,
        "afds": [
            {
                "lhs": list(afd.lhs),
                "rhs": afd.rhs,
                "error": afd.error,
                "minimal": afd.minimal,
            }
            for afd in model.afds
        ],
        "keys": [
            {
                "attributes": list(key.attributes),
                "error": key.error,
                "minimal": key.minimal,
            }
            for key in model.keys
        ],
    }


def _ordering_payload(ordering: AttributeOrdering) -> dict:
    return {
        "relaxation_order": list(ordering.relaxation_order),
        "importance": dict(ordering.importance),
        "deciding": list(ordering.deciding),
        "dependent": list(ordering.dependent),
        "best_key": (
            {
                "attributes": list(ordering.best_key.attributes),
                "error": ordering.best_key.error,
                "minimal": ordering.best_key.minimal,
            }
            if ordering.best_key is not None
            else None
        ),
        "decides_weight": dict(ordering.decides_weight),
        "depends_weight": dict(ordering.depends_weight),
    }


def _similarity_payload(model: SimilarityModel) -> dict:
    return {
        "attributes": list(model.attributes),
        "values": {
            attribute: sorted(model.known_values(attribute))
            for attribute in model.attributes
        },
        "pairs": {
            attribute: [
                [a, b, sim] for (a, b), sim in sorted(model.pairs(attribute).items())
            ]
            for attribute in model.attributes
        },
    }


def save_model(model: AIMQModel, path: str | Path) -> Path:
    """Write ``model`` as JSON; returns the path written.

    The probed sample itself is not stored (it can be large and is not
    needed online) — only its size is recorded for provenance.
    """
    path = Path(path)
    payload = {
        "format_version": FORMAT_VERSION,
        "schema": _schema_payload(model.sample.schema),
        "sample_rows": len(model.sample),
        "settings": asdict(model.settings),
        "dependencies": _dependencies_payload(model.dependencies),
        "ordering": _ordering_payload(model.ordering),
        "similarity": _similarity_payload(model.value_similarity),
        "numeric_extents": {
            name: list(extent) for name, extent in model.numeric_extents.items()
        },
        "timings": asdict(model.timings),
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1), encoding="utf-8")
    return path


# -- deserialisation ---------------------------------------------------------


def _check_schema(payload: dict, schema: RelationSchema) -> None:
    stored = payload["schema"]
    if stored["name"] != schema.name:
        raise StoreError(
            f"stored model is for relation {stored['name']!r}, "
            f"not {schema.name!r}"
        )
    stored_attributes = [(a["name"], a["kind"]) for a in stored["attributes"]]
    live_attributes = [(a.name, a.kind.value) for a in schema.attributes]
    if stored_attributes != live_attributes:
        raise StoreError(
            "stored model's schema does not match the live relation "
            f"({stored_attributes!r} vs {live_attributes!r})"
        )


def _load_dependencies(payload: dict) -> DependencyModel:
    model = DependencyModel(
        payload["attributes"], sample_size=payload["sample_size"]
    )
    for entry in payload["afds"]:
        model.add_afd(
            AFD(
                lhs=tuple(entry["lhs"]),
                rhs=entry["rhs"],
                error=entry["error"],
                minimal=entry["minimal"],
            )
        )
    for entry in payload["keys"]:
        model.add_key(
            ApproximateKey(
                attributes=tuple(entry["attributes"]),
                error=entry["error"],
                minimal=entry["minimal"],
            )
        )
    return model


def _load_ordering(payload: dict) -> AttributeOrdering:
    importance = dict(payload["importance"])
    for attribute, weight in importance.items():
        # The engine's T_sim cut is sound only for weights >= 0; mining
        # guarantees that, a file does not.
        if not math.isfinite(weight) or weight < 0.0:
            raise StoreError(
                f"importance weight {weight!r} of {attribute!r} is not a "
                "finite number >= 0"
            )
    best_key = payload["best_key"]
    return AttributeOrdering(
        relaxation_order=tuple(payload["relaxation_order"]),
        importance=importance,
        deciding=tuple(payload["deciding"]),
        dependent=tuple(payload["dependent"]),
        best_key=(
            ApproximateKey(
                attributes=tuple(best_key["attributes"]),
                error=best_key["error"],
                minimal=best_key["minimal"],
            )
            if best_key is not None
            else None
        ),
        decides_weight=dict(payload["decides_weight"]),
        depends_weight=dict(payload["depends_weight"]),
    )


def _load_similarity(payload: dict) -> SimilarityModel:
    model = SimilarityModel(payload["attributes"])
    for attribute, values in payload["values"].items():
        for value in values:
            model.register_value(attribute, value)
    for attribute, pairs in payload["pairs"].items():
        for a, b, sim in pairs:
            model.record(attribute, a, b, sim)
    return model


def _load_settings(payload: dict) -> AIMQSettings:
    data = dict(payload)
    data["tane"] = TaneConfig(**data["tane"])
    data["simmining"] = SimilarityMinerConfig(**data["simmining"])
    return AIMQSettings(**data)


def load_model(path: str | Path, schema: RelationSchema) -> AIMQModel:
    """Load a stored model and bind it to ``schema``.

    Raises :class:`StoreError` on version or schema mismatch and on any
    payload it cannot decode (missing or unknown keys, values of the
    wrong type or out of range); nothing is returned then.  The
    returned model's ``sample`` is an empty table carrying the schema —
    the probed data is not persisted.
    """
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise StoreError(f"cannot read stored model at {path}: {exc}") from exc
    version = payload.get("format_version") if isinstance(payload, dict) else None
    if version != FORMAT_VERSION:
        raise StoreError(
            f"stored model has format version {version!r}; this build "
            f"reads version {FORMAT_VERSION}"
        )
    try:
        _check_schema(payload, schema)
        return AIMQModel(
            sample=Table(schema),
            dependencies=_load_dependencies(payload["dependencies"]),
            ordering=_load_ordering(payload["ordering"]),
            value_similarity=_load_similarity(payload["similarity"]),
            settings=_load_settings(payload["settings"]),
            timings=BuildTimings(**payload["timings"]),
            numeric_extents={
                name: (extent[0], extent[1])
                for name, extent in payload.get("numeric_extents", {}).items()
            },
        )
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        raise StoreError(
            f"cannot decode stored model at {path}: {type(exc).__name__}: {exc}"
        ) from exc
