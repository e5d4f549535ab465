"""Shared helpers for the benchmark harness.

Each benchmark module regenerates one table or figure of the paper
(experiment ids E1-E10 in DESIGN.md), asserts the *shape* the paper
reports, and prints the regenerated rows so ``pytest benchmarks/
--benchmark-only -s`` doubles as the artifact generator used by
EXPERIMENTS.md.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.obs import MetricsRegistry, RunManifest, Stopwatch


class BenchManifest:
    """Telemetry capture for one benchmark: a live registry and a manifest.

    Every benchmark gets a live :attr:`registry`.  Run-manifest files are
    opted into with ``REPRO_BENCH_MANIFEST_DIR=/some/dir``: :meth:`write`
    persists a manifest there (docs/OBSERVABILITY.md).  With the variable
    unset :meth:`write` no-ops and a run writes no file.
    """

    def __init__(self, directory: str | None) -> None:
        self._directory = directory
        self.registry = MetricsRegistry()
        self.stopwatch = Stopwatch()

    def write(
        self,
        name: str,
        *,
        protocol: dict,
        params: dict,
        seed: int | None = None,
    ) -> Path | None:
        """Persist this benchmark's full manifest when capture is on."""
        if self._directory is None:
            return None
        target = Path(self._directory)
        target.mkdir(parents=True, exist_ok=True)
        manifest = RunManifest.collect(
            f"bench:{name}",
            seed=seed,
            protocol=protocol,
            params=params,
            registry=self.registry,
            wall_time_s=self.stopwatch.seconds,
        )
        return manifest.write(target / f"{name}.json")


@pytest.fixture
def bench_manifest() -> BenchManifest:
    """Per-test telemetry capture (manifests gated by REPRO_BENCH_MANIFEST_DIR)."""
    return BenchManifest(os.environ.get("REPRO_BENCH_MANIFEST_DIR"))
