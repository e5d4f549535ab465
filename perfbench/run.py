"""Run one benchmark workload in fresh interpreters and print its metrics.

    python3 perfbench/run.py --workload {reproduce,check,simulate} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root; the program is imported from ``src/``.
Every launch is a fresh interpreter (``job.py``) under the environment
that the ``env`` prefix of BENCHMARK.json's command pins: one
BLAS/OpenMP thread, a fixed hash seed, no ``REPRO_WORKERS``, and bytecode
written to and read from ``perfbench/.pycache`` only.  One unmeasured
set-up launch first fills the file cache and that bytecode cache, so every
measured launch reads bytecode compiled from the checkout's own sources.
Then, until ``--seconds`` have passed:

* ``--trace 0``: a set-up-only launch, then a job launch.  ``setup_s`` is
  the median set-up time of all launches, ``wall_s`` and ``peak_rss_mb``
  the medians over job launches, ``ok_ratio`` the share of checks passed.
* ``--trace 1``: an untraced job launch, then a traced one.  The
  per-layer metrics come from the traced launch with the median traced
  wall time, so its self times plus ``unattributed_s`` equal its
  ``traced_wall_s``; ``trace_overhead`` is the median traced wall time over
  the median untraced one.

Human-readable lines go first; the last line of standard output is the
JSON result.  The process exits non-zero, without a result, when the
program is missing or no launch reports.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS  # imports no program module: check names only

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

LAUNCH_TIMEOUT_S = 170

#: Metric names and units: a ``--trace 0`` run reports the end-to-end
#: metrics, a ``--trace 1`` run the per-layer ones.  The command's ``env``
#: prefix is the launch environment.
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Sim-time outcome of simulate's untraced cluster run, reported per layer.
SIM_METRICS = ("netsim.commit_p50_ms", "netsim.commit_p99_ms", "netsim.committed_ratio")


def child_env() -> dict[str, str]:
    """This environment as BENCHMARK.json's ``env -u NAME ... NAME=VALUE ...`` leaves it."""
    env = dict(os.environ)
    args = iter(BENCHMARK["command"][1:])
    for arg in args:
        if arg == "-u":
            env.pop(next(args), None)
        elif "=" in arg:
            name, _, value = arg.partition("=")
            env[name] = value
        else:
            break
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def launch(workload: str, seed: int, mode: str) -> dict | None:
    """One fresh-interpreter launch; ``None`` if it printed no record."""
    command = [sys.executable, str(HERE / "job.py"), "--workload", workload,
               "--seed", str(seed), "--mode", mode]
    spawned = time.monotonic()
    try:
        done = subprocess.run(command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=LAUNCH_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print(f"# {mode} launch timed out after {LAUNCH_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"# {mode} launch exited {done.returncode} without a record", file=sys.stderr)
        return None
    record = json.loads(lines[-1])
    record["setup_s"] = record["ready_at"] - spawned
    record["import_s"] = record["imported_at"] - spawned
    if record["error"]:
        print(f"# {mode} launch failed: {record['error']}", file=sys.stderr)
    return record


def tree_stamp() -> str:
    """``git describe --always --dirty`` of the measured tree, if it is one."""
    if not (ROOT / ".git").exists():
        return "unversioned"
    try:
        done = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def tally(workload: str, jobs: list[dict | None]) -> tuple[int, int, list[str]]:
    """(attempted, passed, notes) over job launches; a lost launch fails all."""
    checks = WORKLOADS[workload].checks
    attempted = passed = 0
    notes = []
    for record in jobs:
        verdicts = (record or {}).get("checks") or {}
        attempted += len(checks)
        passed += sum(1 for name in checks if verdicts.get(name) is True)
        notes.extend(f"check failed: {name}" for name in checks if verdicts.get(name) is not True)
    sims = [json.dumps(r["sim"], sort_keys=True) for r in jobs if r and "sim" in r]
    if len(sims) > 1:  # sim-time outcomes are a function of the seed alone
        attempted += 1
        if len(set(sims)) == 1:
            passed += 1
        else:
            notes.append("check failed: sim-time outcomes differ between launches")
    return attempted, passed, notes


def end_to_end(setups: list[dict], timed: list[dict], ok_ratio: float) -> dict[str, float]:
    return {
        "setup_s": statistics.median(r["setup_s"] for r in setups + timed),
        "wall_s": statistics.median(r["wall_s"] for r in timed),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed),
        "ok_ratio": ok_ratio,
    }


def per_layer(timed: list[dict], traced: list[dict]) -> dict[str, float]:
    """Layers of the traced launch with the (lower) median wall time."""
    pick = sorted(traced, key=lambda r: r["wall_s"])[(len(traced) - 1) // 2]
    values = dict.fromkeys((m["name"] for m in BENCHMARK["per_layer"]), 0.0)
    values.update(pick["layers"])
    values["setup.import_s"] = pick["import_s"]
    values["setup.inputs_s"] = pick["setup_s"] - pick["import_s"]
    values["trace_overhead"] = statistics.median(r["wall_s"] for r in traced) / statistics.median(
        r["wall_s"] for r in timed
    )
    values.update({k: v for k, v in timed[0].get("sim", {}).items() if k in SIM_METRICS})
    return values


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict | None:
    """Run the launch loop; the result object, or ``None`` if nothing reported."""
    launch(workload, seed, "setup")  # fills the file and bytecode caches
    setups, jobs, traced = [], [], []
    start = time.monotonic()
    while not jobs or time.monotonic() - start < seconds:
        if trace:
            jobs.append(launch(workload, seed, "job"))
            traced.append(launch(workload, seed, "traced"))
        else:
            setups.append(launch(workload, seed, "setup"))
            jobs.append(launch(workload, seed, "job"))
    attempted, passed, notes = tally(workload, jobs + traced)
    for note in notes:
        print(f"# {note}", file=sys.stderr)
    setups = [r for r in setups if r]
    timed = [r for r in jobs if r and "wall_s" in r]
    traced = [r for r in traced if r and "layers" in r]
    if not timed or (trace and not traced):
        return None
    if trace:
        values, declared = per_layer(timed, traced), BENCHMARK["per_layer"]
    else:
        values, declared = end_to_end(setups, timed, passed / attempted), BENCHMARK["end_to_end"]
    metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in declared}
    samples = {
        "setup_s": [r["setup_s"] for r in setups + timed],
        "wall_s": [r["wall_s"] for r in timed],
        "traced_wall_s": [r["wall_s"] for r in traced],
    }
    print(f"perfbench {workload} seed={seed} trace={int(trace)} tree={tree_stamp()} "
          f"launches: setup={len(setups)} job={len(timed)} traced={len(traced)}")
    for name, (value, unit) in metrics.items():
        each = " ".join(f"{v:.4g}" for v in samples.get(name, ()))
        print(f"  {workload}/{name:26s} {value:>14.6g} {unit:5s} {each}".rstrip())
    if not trace:
        units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
        for name, value in timed[0].get("sim", {}).items():
            print(f"  {workload}/{name:26s} {value:>14.6g} {units.get(name, 'count'):5s} "
                  "sim-time outcome, set by the seed")
    return {
        "correct": passed == attempted,
        "attempted": attempted,
        "failed": attempted - passed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so the running launch is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {ROOT / 'src'}; nothing to measure", file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    if result is None:
        print("perfbench: no launch reported a timed job", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
