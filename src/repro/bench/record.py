"""The bench-record schema: one scenario's performance measurement.

A :class:`BenchRecord` (schema ``repro.bench-record/1``) is the unit of
the performance trajectory: one benchmark scenario, on one revision, with

* a **deterministic** side -- scenario id, suite, seed, workload params
  (backend, workers, replicates, grid sizes, ...), and the deterministic
  metric snapshot of the run (which now carries p50/p90/p99 histogram
  quantiles) -- byte-identical between two runs of the same code at the
  same seed; and
* a **wall-clock** side -- ``created_at``, ``git`` (describe of the tree
  that ran), and the ``timings`` table (seconds, events/sec, points/sec)
  -- the values the regression gate actually compares, confined to
  :data:`WALL_CLOCK_FIELDS` so tooling can strip them, mirroring the run
  manifest's determinism contract.

Records link back to the run manifest that produced their metrics through
the ``manifest`` field (a path or ``bench:<name>`` command tag), closing
the loop span forest -> profile -> record -> committed trajectory -> CI
gate (docs/BENCHMARKING.md).
"""

from __future__ import annotations

import json
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from ..errors import BenchError
from ..obs import clock
from ..obs.manifest import git_describe
from ..obs.metrics import MetricsRegistry

__all__ = [
    "SCHEMA_VERSION",
    "RUN_SCHEMA_VERSION",
    "WALL_CLOCK_FIELDS",
    "BenchRecord",
    "validate_record",
    "strip_wall_clock",
    "dump_run",
    "load_run",
]

#: Bench-record schema identifier; bump on incompatible layout changes.
SCHEMA_VERSION = "repro.bench-record/1"

#: Schema tag of a bench-run file (``repro bench run --record``): one
#: JSON object bundling every record the run produced.
RUN_SCHEMA_VERSION = "repro.bench-run/1"

#: Top-level keys whose values are wall-clock-derived.  ``git`` is listed
#: because two otherwise-identical runs from different checkouts differ
#: there; everything *not* listed must be byte-identical between two
#: identically-seeded runs of the same code.
WALL_CLOCK_FIELDS = ("created_at", "git", "timings")

#: Keys every bench record must carry (schema v1).
REQUIRED_FIELDS = (
    "schema",
    "suite",
    "scenario",
    "git",
    "created_at",
    "seed",
    "params",
    "metrics",
    "timings",
    "manifest",
)


@dataclass(frozen=True)
class BenchRecord:
    """One scenario's bench measurement (see module docstring)."""

    suite: str
    scenario: str
    seed: int | None
    params: Mapping[str, object]
    metrics: Mapping[str, Mapping[str, object]]
    timings: Mapping[str, float]
    manifest: str | None = None
    git: str = "unknown"
    created_at: str = ""
    schema: str = field(default=SCHEMA_VERSION)

    @classmethod
    def collect(
        cls,
        suite: str,
        scenario: str,
        *,
        seed: int | None,
        params: Mapping[str, object],
        registry: MetricsRegistry,
        timings: Mapping[str, float],
        manifest: str | None = None,
    ) -> "BenchRecord":
        """Assemble a record from a finished scenario's registry and timings.

        Stamps ``git`` (describe) and ``created_at`` here, so every record
        carries its revision -- the capture is not opt-in.
        """
        return cls(
            suite=suite,
            scenario=scenario,
            seed=seed,
            params=dict(params),
            metrics=registry.snapshot(),
            timings={k: float(v) for k, v in timings.items()},
            manifest=manifest,
            git=git_describe(),
            created_at=clock.utc_timestamp(),
        )

    def to_dict(self) -> dict:
        """JSON-ready mapping (plain dicts, schema-v1 key set)."""
        return {
            "schema": self.schema,
            "suite": self.suite,
            "scenario": self.scenario,
            "git": self.git,
            "created_at": self.created_at,
            "seed": self.seed,
            "params": dict(self.params),
            "metrics": {k: dict(v) for k, v in self.metrics.items()},
            "timings": dict(self.timings),
            "manifest": self.manifest,
        }

    def to_json(self) -> str:
        """One compact JSON line (sorted keys), the history's wire format."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "BenchRecord":
        """Validate ``data`` and rebuild the record."""
        validate_record(data)
        return cls(
            suite=str(data["suite"]),
            scenario=str(data["scenario"]),
            seed=data["seed"],  # type: ignore[arg-type]
            params=dict(data["params"]),  # type: ignore[call-overload]
            metrics={
                k: dict(v)
                for k, v in data["metrics"].items()  # type: ignore[union-attr]
            },
            timings=dict(data["timings"]),  # type: ignore[call-overload]
            manifest=data["manifest"],  # type: ignore[arg-type]
            git=str(data["git"]),
            created_at=str(data["created_at"]),
            schema=str(data["schema"]),
        )


def strip_wall_clock(data: Mapping[str, object]) -> dict:
    """A copy of a record dict without its wall-clock fields.

    Two identically-seeded runs of the same code must agree exactly on
    this projection -- the determinism drift check of ``bench compare``.
    """
    return {k: v for k, v in data.items() if k not in WALL_CLOCK_FIELDS}


def validate_record(data: Mapping[str, object]) -> None:
    """Check a record mapping against schema v1; raise BenchError."""
    errors = list(_schema_errors(data))
    if errors:
        raise BenchError(
            "bench record fails schema validation:\n  " + "\n  ".join(errors)
        )


def _schema_errors(data: Mapping[str, object]) -> Sequence[str]:
    errors: list[str] = []
    if not isinstance(data, Mapping):
        return [f"record must be a JSON object, got {type(data).__name__}"]
    for key in REQUIRED_FIELDS:
        if key not in data:
            errors.append(f"missing required field {key!r}")
    if errors:
        return errors
    if data["schema"] != SCHEMA_VERSION:
        errors.append(f"schema {data['schema']!r} is not {SCHEMA_VERSION!r}")
    for key in ("suite", "scenario", "git"):
        if not isinstance(data[key], str) or not data[key]:
            errors.append(f"{key!r} must be a nonempty string")
    if not (data["seed"] is None or isinstance(data["seed"], int)):
        errors.append("'seed' must be an integer or null")
    if not (data["manifest"] is None or isinstance(data["manifest"], str)):
        errors.append("'manifest' must be a string or null")
    for key in ("params", "metrics", "timings"):
        if not isinstance(data[key], Mapping):
            errors.append(f"{key!r} must be an object")
    if isinstance(data["timings"], Mapping):
        for name, value in data["timings"].items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                errors.append(f"timing {name!r} must be a number, got {value!r}")
        if not data["timings"]:
            errors.append("'timings' must record at least one measurement")
    return errors


def dump_run(records: Sequence[BenchRecord]) -> str:
    """Bundle a run's records as one pretty-printed JSON document."""
    return (
        json.dumps(
            {
                "schema": RUN_SCHEMA_VERSION,
                "records": [record.to_dict() for record in records],
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )


def load_run(data: Mapping[str, object]) -> list[BenchRecord]:
    """Rebuild the records of a bench-run document (validates each)."""
    if not isinstance(data, Mapping) or data.get("schema") != RUN_SCHEMA_VERSION:
        raise BenchError(
            f"not a bench-run document (expected schema {RUN_SCHEMA_VERSION!r})"
        )
    records = data.get("records")
    if not isinstance(records, Sequence) or isinstance(records, (str, bytes)):
        raise BenchError("bench-run 'records' must be an array")
    return [BenchRecord.from_dict(entry) for entry in records]
