"""One benchmark launch: set up, run the job once, check the outputs.

``run.py`` starts this file in a fresh interpreter per launch::

    python3 perfbench/job.py --workload check --seed 1 --mode job

``--mode setup`` stops once the inputs are ready (a set-up sample);
``--mode job`` also runs the job once and checks its outputs; ``--mode
traced`` does the same with every layer wrapped in spans
(:class:`layers.Tracer`) and a live metrics registry installed.  The job
is never repeated in one process: ``repro.markov`` caches chains in an
``lru_cache`` and symbolic solves in a module dict, so a repeat would time
cache hits.  The last line of standard output is one JSON object; set-up
times are ``time.monotonic()`` stamps, a clock shared by all processes,
which ``run.py`` subtracts from the moment it spawned this one.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
import time

from layers import SPAN_METRICS, Tracer
from workloads import WORKLOADS, registry_counts

__all__ = ["execute", "layer_metrics"]


def execute(workload_name: str, seed: int, mode: str) -> dict:
    """One launch's record; every check still pending at an exception fails."""
    workload = WORKLOADS[workload_name]
    record: dict = {"workload": workload_name, "mode": mode, "error": None}
    for module in workload.imports:
        importlib.import_module(module)
    record["imported_at"] = time.monotonic()
    inputs = workload.inputs(seed)
    record["ready_at"] = time.monotonic()
    if mode == "setup":
        return record
    verdicts = dict.fromkeys(workload.checks, False)
    record["checks"] = verdicts
    try:
        if mode == "traced":
            from repro.obs.metrics import MetricsRegistry, use

            registry = MetricsRegistry()
            with Tracer() as tracer, use(registry):
                start = time.perf_counter()
                out = workload.job(inputs, registry)
                wall = time.perf_counter() - start
            record["layers"] = layer_metrics(tracer, wall)
            record["layers"].update(registry_counts(registry))
            record["layers"].update(workload.counts(out))
        else:
            start = time.perf_counter()
            out = workload.job(inputs, None)
            wall = time.perf_counter() - start
        record["wall_s"] = wall
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if workload.outcomes:
            record["sim"] = workload.outcomes(out)
        for name, verdict in workload.verify(inputs, out):
            verdicts[name] = bool(verdict)
    except Exception as exc:  # the launch reports, and fails, its pending checks
        record["error"] = f"{type(exc).__name__}: {exc}"
    return record


def layer_metrics(tracer: Tracer, wall: float) -> dict[str, float]:
    """Per-layer self times and span counts of one traced job."""
    metrics = {metric: tracer.self_seconds(span) for span, metric in SPAN_METRICS.items()}
    metrics["check.replays"] = tracer.calls("check.replay")
    metrics["check.replayed_actions"] = tracer.calls("check.apply", parent="check.replay")
    # attempt_update decides through is_distinguished: count outer spans only
    metrics["core.decisions"] = tracer.calls("core.decide") - tracer.calls(
        "core.decide", parent="core.decide"
    )
    metrics["traced_wall_s"] = wall
    metrics["unattributed_s"] = wall - tracer.root_seconds()
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "job", "traced"))
    args = parser.parse_args(argv)
    record = execute(args.workload, args.seed, args.mode)
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
