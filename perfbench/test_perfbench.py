"""Self-tests of the benchmark (not part of the tier-1 suite).

    PYTHONPATH=src python -m pytest perfbench -q

They check that BENCHMARK.json names the workloads ``run.py`` knows, that
a corrupted expectation or an exception lowers ``ok_ratio``, that every
layer span fires on its predicted workload and stays at zero where the
workload bypasses the layer, that the self times add up to the traced wall
time, and that a run leaves the working tree as it found it.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import job
import run
import workloads
from layers import SPAN_METRICS

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

#: Per-layer metrics each workload must move; every other layer metric
#: stays exactly zero there (the predicted bypasses).
FIRES = {
    "reproduce": {
        "markov.build_s", "markov.build.expansions", "markov.solve.dense_s",
        "markov.solve.sparse_s", "markov.solve.sparse", "ratfunc.exact_s",
        "ratfunc.symbolic_s", "ratfunc.roots_s", "analysis.self_s",
        "core.decide_s", "core.decisions",
    },
    "check": {
        "check.explorer_self_s", "check.replay_s", "check.replays",
        "check.replayed_actions", "check.apply_s", "check.snapshot_s",
        "check.oracles_s", "check.enabled_s", "check.states", "check.transitions",
        "check.sleep_pruned", "check.cache_pruned", "core.decide_s", "core.decisions",
    },
    "simulate": {
        "sim.scalar_s", "sim.vectorized_s", "sim.kernel_s", "mc.events",
        "netsim.cluster_s", "netsim.messages", "netsim.msgs_per_commit",
        "obs.export_s", "obs.export_mb", "obs.causal.events", "obs.parse_s",
        "obs.assert_s", "core.decide_s", "core.decisions",
    },
}
#: Metrics of the launch as a whole, not of one layer.
WHOLE_LAUNCH = {
    "setup.import_s", "setup.inputs_s", "unattributed_s", "traced_wall_s",
    "trace_overhead", *run.SIM_METRICS,
}


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_every_layer_metric_has_a_workload():
    layer_metrics = {m["name"] for m in BENCHMARK["per_layer"]}
    assert set(SPAN_METRICS.values()) <= layer_metrics
    assert set().union(*FIRES.values()) | WHOLE_LAUNCH == layer_metrics


def test_corrupted_expectation_lowers_ok_ratio(monkeypatch):
    monkeypatch.setitem(workloads.EXPECTED, "check.states", workloads.EXPECTED["check.states"] + 1)
    record = job.execute("check", 1, "job")
    assert record["error"] is None
    assert record["checks"] == {"check.clean": True, "check.states": False, "check.transitions": True}
    attempted, passed, _ = run.tally("check", [record])
    assert passed / attempted < 1


def test_exception_fails_every_pending_check(monkeypatch):
    def explode(inputs, registry):
        raise RuntimeError("job failed")

    def verify_then_explode(inputs, out):
        yield "check.clean", True
        raise RuntimeError("check failed")

    check = workloads.WORKLOADS["check"]
    monkeypatch.setitem(workloads.WORKLOADS, "check", dataclasses.replace(check, job=explode))
    record = job.execute("check", 1, "job")
    assert record["error"] == "RuntimeError: job failed"
    assert not any(record["checks"].values())
    assert run.tally("check", [record])[:2] == (3, 0)
    assert run.tally("check", [None])[:2] == (3, 0)

    monkeypatch.setitem(
        workloads.WORKLOADS,
        "check",
        dataclasses.replace(check, job=lambda inputs, registry: {}, verify=verify_then_explode),
    )
    record = job.execute("check", 1, "job")
    assert record["checks"] == {"check.clean": True, "check.states": False, "check.transitions": False}


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_layer_coverage(workload):
    record = run.launch(workload, 1, "traced")
    assert record is not None and record["error"] is None
    assert all(record["checks"].values())
    layers = record["layers"]
    for name in (m["name"] for m in BENCHMARK["per_layer"]):
        if name in WHOLE_LAUNCH:
            continue
        value = layers.get(name, 0)
        if name in FIRES[workload]:
            assert value > 0, f"{name} did not fire on {workload}"
        else:
            assert value == 0, f"{name} fired on {workload}, which should bypass it"
    self_times = [layers[metric] for metric in SPAN_METRICS.values()]
    assert min(self_times) >= 0 and layers["unattributed_s"] >= 0
    assert sum(self_times) + layers["unattributed_s"] == pytest.approx(
        layers["traced_wall_s"], rel=1e-9
    )
    assert layers["traced_wall_s"] == record["wall_s"]


def _git_status() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    return subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout


@pytest.mark.parametrize("trace, declared", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_the_result_line_and_leaves_the_tree_clean(trace, declared):
    before = _git_status()
    done = subprocess.run(
        [*BENCHMARK["command"], "--workload", "simulate", "--seed", "2", "--seconds", "1",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCHMARK[declared]
    }
    for name in run.SIM_METRICS:
        assert f"simulate/{name}" in done.stdout
        if trace:
            assert result["metrics"][name]["value"] > 0
    assert _git_status() == before


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "check", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170, check=False,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
