"""Machine-readable run manifests: what ran, with what, and what it measured.

A :class:`RunManifest` is the JSON artifact a run leaves behind: the
command, the seed, the protocol and its parameters, the source revision
(``git describe``), and a full snapshot of every metric series the run
recorded.  Benchmarks and CI consume these to build the ``BENCH_*.json``
performance trajectory; tests consume them to pin the telemetry schema.

Determinism is part of the schema: everything outside
:data:`WALL_CLOCK_FIELDS` must be byte-identical between two runs with the
same seed and parameters.  Wall-clock-derived values (timestamps, elapsed
time, throughput gauges) are confined to those fields so consumers can
compare manifests by stripping a fixed, documented set of keys.

``python -m repro.obs.manifest PATH`` validates a manifest file against
the schema (used by the CI smoke step).
"""

from __future__ import annotations

import json
import subprocess
import sys
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import ManifestError
from . import clock
from .metrics import MetricsRegistry

__all__ = [
    "SCHEMA_VERSION",
    "WALL_CLOCK_FIELDS",
    "RunManifest",
    "git_describe",
    "validate_manifest",
    "strip_wall_clock",
]

#: Manifest schema identifier; bump on incompatible layout changes.
SCHEMA_VERSION = "repro.run-manifest/1"

#: Top-level keys whose values are wall-clock-derived and therefore
#: nondeterministic.  Everything else must be identical between two
#: identically-seeded runs.
WALL_CLOCK_FIELDS = ("created_at", "wall_time_s", "wall_clock_metrics")

#: Keys every manifest must carry (schema v1).
REQUIRED_FIELDS = (
    "schema",
    "command",
    "created_at",
    "git",
    "seed",
    "protocol",
    "params",
    "metrics",
    "wall_clock_metrics",
    "wall_time_s",
)

_METRIC_TYPES = ("counter", "gauge", "histogram")


def git_describe() -> str:
    """``git describe --always --dirty`` of the working tree, or ``unknown``.

    Telemetry must never fail a run: any git error (not a repository, no
    binary, no commits) degrades to the literal string ``unknown``.
    """
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    described = out.stdout.strip()
    return described if out.returncode == 0 and described else "unknown"


@dataclass(frozen=True)
class RunManifest:
    """One run's machine-readable record (see module docstring)."""

    command: str
    seed: int | None
    protocol: Mapping[str, object]
    params: Mapping[str, object]
    metrics: Mapping[str, Mapping[str, object]]
    wall_clock_metrics: Mapping[str, Mapping[str, object]] = field(
        default_factory=dict
    )
    git: str = "unknown"
    created_at: str = ""
    wall_time_s: float = 0.0
    schema: str = SCHEMA_VERSION

    @classmethod
    def collect(
        cls,
        command: str,
        *,
        seed: int | None,
        protocol: Mapping[str, object],
        params: Mapping[str, object],
        registry: MetricsRegistry,
        wall_time_s: float = 0.0,
    ) -> "RunManifest":
        """Assemble a manifest from a finished run's metrics registry."""
        return cls(
            command=command,
            seed=seed,
            protocol=dict(protocol),
            params=dict(params),
            metrics=registry.snapshot(),
            wall_clock_metrics=registry.wall_clock_snapshot(),
            git=git_describe(),
            created_at=clock.utc_timestamp(),
            wall_time_s=wall_time_s,
        )

    def to_dict(self) -> dict:
        """JSON-ready mapping (plain dicts, schema-v1 key set)."""
        return {
            "schema": self.schema,
            "command": self.command,
            "created_at": self.created_at,
            "git": self.git,
            "seed": self.seed,
            "protocol": dict(self.protocol),
            "params": dict(self.params),
            "metrics": {k: dict(v) for k, v in self.metrics.items()},
            "wall_clock_metrics": {
                k: dict(v) for k, v in self.wall_clock_metrics.items()
            },
            "wall_time_s": self.wall_time_s,
        }

    def to_json(self) -> str:
        """Pretty-printed JSON with sorted keys (stable byte layout)."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def write(self, path: str | Path) -> Path:
        """Validate, then write the manifest to ``path``; returns the path."""
        data = self.to_dict()
        validate_manifest(data)
        path = Path(path)
        path.write_text(self.to_json(), encoding="utf-8")
        return path


def strip_wall_clock(data: Mapping[str, object]) -> dict:
    """A copy of a manifest dict without its wall-clock fields.

    Two identically-seeded runs must agree exactly on this projection.
    """
    return {k: v for k, v in data.items() if k not in WALL_CLOCK_FIELDS}


def validate_manifest(data: Mapping[str, object]) -> None:
    """Check a manifest mapping against schema v1; raise ManifestError.

    Validates the key set, the schema tag, the metric entry shapes, and
    the minimum telemetry contract (a nonempty metrics section).
    """
    errors = list(_schema_errors(data))
    if errors:
        raise ManifestError(
            "manifest fails schema validation:\n  " + "\n  ".join(errors)
        )


def _schema_errors(data: Mapping[str, object]) -> Sequence[str]:
    errors: list[str] = []
    if not isinstance(data, Mapping):
        return [f"manifest must be a JSON object, got {type(data).__name__}"]
    for key in REQUIRED_FIELDS:
        if key not in data:
            errors.append(f"missing required field {key!r}")
    if errors:
        return errors
    if data["schema"] != SCHEMA_VERSION:
        errors.append(
            f"schema {data['schema']!r} is not {SCHEMA_VERSION!r}"
        )
    if not isinstance(data["command"], str) or not data["command"]:
        errors.append("'command' must be a nonempty string")
    if not (data["seed"] is None or isinstance(data["seed"], int)):
        errors.append("'seed' must be an integer or null")
    if not isinstance(data["protocol"], Mapping):
        errors.append("'protocol' must be an object")
    elif "name" not in data["protocol"]:
        errors.append("'protocol' must name the protocol ('name')")
    if not isinstance(data["params"], Mapping):
        errors.append("'params' must be an object")
    if not isinstance(data["wall_time_s"], (int, float)):
        errors.append("'wall_time_s' must be a number")
    for section in ("metrics", "wall_clock_metrics"):
        entries = data[section]
        if not isinstance(entries, Mapping):
            errors.append(f"{section!r} must be an object")
            continue
        for name, entry in entries.items():
            if not isinstance(entry, Mapping) or "type" not in entry:
                errors.append(f"metric {name!r} must be an object with 'type'")
            elif entry["type"] not in _METRIC_TYPES:
                errors.append(
                    f"metric {name!r} has unknown type {entry['type']!r}"
                )
    if isinstance(data["metrics"], Mapping) and not data["metrics"]:
        errors.append("'metrics' must record at least one series")
    return errors


def main(argv: Sequence[str] | None = None) -> int:
    """Validate manifest files given as arguments (CI smoke entry point)."""
    paths = list(sys.argv[1:] if argv is None else argv)
    if not paths:
        print("usage: python -m repro.obs.manifest MANIFEST.json ...")
        return 2
    status = 0
    for path in paths:
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
            validate_manifest(data)
        except (OSError, ValueError, ManifestError) as exc:
            print(f"{path}: INVALID: {exc}")
            status = 1
        else:
            series = len(data["metrics"]) + len(data["wall_clock_metrics"])
            print(f"{path}: ok ({data['command']}, {series} metric series)")
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
