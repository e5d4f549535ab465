"""Run-manifest tests: schema validation and seeded-run determinism."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.errors import ManifestError
from repro.obs import (
    SCHEMA_VERSION,
    WALL_CLOCK_FIELDS,
    MetricsRegistry,
    RunManifest,
    strip_wall_clock,
    validate_manifest,
)


def _registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("mc.events").inc(100)
    registry.gauge("mc.mean").set(0.42)
    registry.gauge("mc.events_per_sec", wall_clock=True).set(5e4)
    return registry


def _manifest() -> RunManifest:
    return RunManifest.collect(
        "simulate",
        seed=2026,
        protocol={"name": "hybrid", "n_sites": 5},
        params={"ratio": 1.0},
        registry=_registry(),
        wall_time_s=1.25,
    )


class TestSchema:
    def test_collect_produces_a_valid_manifest(self):
        data = _manifest().to_dict()
        validate_manifest(data)  # does not raise
        assert data["schema"] == SCHEMA_VERSION
        assert data["seed"] == 2026
        assert data["metrics"]["mc.events"] == {"type": "counter", "value": 100}
        assert "mc.events_per_sec" in data["wall_clock_metrics"]
        assert "mc.events_per_sec" not in data["metrics"]

    def test_to_json_round_trips(self):
        data = json.loads(_manifest().to_json())
        validate_manifest(data)

    def test_write_validates_and_writes(self, tmp_path):
        path = _manifest().write(tmp_path / "run.json")
        validate_manifest(json.loads(path.read_text()))

    @pytest.mark.parametrize(
        "mutation, message",
        [
            (lambda d: d.pop("seed"), "missing required field 'seed'"),
            (lambda d: d.update(schema="other/9"), "is not"),
            (lambda d: d.update(metrics={}), "at least one series"),
            (lambda d: d["protocol"].pop("name"), "must name the protocol"),
            (
                lambda d: d.update(metrics={"x": {"type": "sparkline"}}),
                "unknown type",
            ),
            (lambda d: d.update(seed="soon"), "integer or null"),
        ],
    )
    def test_validation_rejects_broken_manifests(self, mutation, message):
        data = _manifest().to_dict()
        mutation(data)
        with pytest.raises(ManifestError, match=message):
            validate_manifest(data)

    def test_strip_wall_clock_removes_exactly_the_documented_fields(self):
        data = _manifest().to_dict()
        stripped = strip_wall_clock(data)
        assert set(data) - set(stripped) == set(WALL_CLOCK_FIELDS)


class TestSeededDeterminism:
    def test_identical_seeds_identical_manifests_modulo_wall_clock(
        self, tmp_path, capsys
    ):
        argv = [
            "simulate", "--protocol", "hybrid", "-n", "5", "-r", "1.0",
            "--events", "500", "--replicates", "2", "--seed", "7",
        ]
        main([*argv, "--manifest", str(tmp_path / "a.json")])
        main([*argv, "--manifest", str(tmp_path / "b.json")])
        capsys.readouterr()
        a = json.loads((tmp_path / "a.json").read_text())
        b = json.loads((tmp_path / "b.json").read_text())
        assert strip_wall_clock(a) == strip_wall_clock(b)
        assert len(a["metrics"]) >= 10

    def test_compare_manifests_identical_modulo_wall_clock(self, tmp_path, capsys):
        # Both runs derive their chains afresh, so the second records the
        # same markov.build.* counters as the first.
        argv = ["compare", "-n", "5", "-r", "1.0", "2.0"]
        main([*argv, "--manifest", str(tmp_path / "a.json")])
        main([*argv, "--manifest", str(tmp_path / "b.json")])
        capsys.readouterr()
        a = json.loads((tmp_path / "a.json").read_text())
        b = json.loads((tmp_path / "b.json").read_text())
        assert strip_wall_clock(a) == strip_wall_clock(b)
        assert "markov.build.lumped.expansions" in a["metrics"]

    def test_different_seeds_differ(self, tmp_path, capsys):
        argv = [
            "simulate", "-n", "5", "--events", "500", "--replicates", "2",
        ]
        main([*argv, "--seed", "7", "--manifest", str(tmp_path / "a.json")])
        main([*argv, "--seed", "8", "--manifest", str(tmp_path / "b.json")])
        capsys.readouterr()
        a = json.loads((tmp_path / "a.json").read_text())
        b = json.loads((tmp_path / "b.json").read_text())
        assert strip_wall_clock(a) != strip_wall_clock(b)


class TestValidateManifestCommand:
    def test_valid_file_passes(self, tmp_path, capsys):
        path = _manifest().write(tmp_path / "run.json")
        assert main(["validate-manifest", str(path)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_invalid_file_fails(self, tmp_path, capsys):
        data = _manifest().to_dict()
        del data["seed"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert main(["validate-manifest", str(path)]) == 1
        assert "INVALID" in capsys.readouterr().out

    def test_unreadable_file_fails(self, tmp_path, capsys):
        assert main(["validate-manifest", str(tmp_path / "missing.json")]) == 1
        assert "INVALID" in capsys.readouterr().out
