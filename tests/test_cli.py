"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.protocol == "hybrid"
        assert args.sites == 5

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("repro ")
        assert out.split()[1][0].isdigit()


class TestCommands:
    def test_compare(self, capsys):
        assert main(["compare", "-n", "4", "-r", "1.0", "2.0"]) == 0
        out = capsys.readouterr().out
        assert "hybrid" in out and "voting" in out

    def test_fig1(self, capsys):
        assert main(["fig1"]) == 0
        out = capsys.readouterr().out
        assert "protocol: hybrid" in out
        assert "ACCEPT" in out

    def test_chain_dump(self, capsys):
        assert main(["chain", "--protocol", "hybrid", "-n", "3"]) == 0
        out = capsys.readouterr().out
        assert "4 states" in out
        assert "(2, 3, 0)" in out

    def test_chain_dump_other_protocol(self, capsys):
        assert main(["chain", "--protocol", "dynamic", "-n", "3"]) == 0
        assert "states" in capsys.readouterr().out

    def test_crossover(self, capsys):
        assert main(["crossover", "-n", "4"]) == 0
        out = capsys.readouterr().out
        assert "0.66" in out  # 0.665 bracket

    def test_figure(self, capsys):
        assert main(["figure", "3", "--steps", "4"]) == 0
        assert "mu/lambda" in capsys.readouterr().out

    def test_theorem3_small_range(self, capsys):
        assert main(["theorem3", "--n-min", "3", "--n-max", "4"]) == 0
        out = capsys.readouterr().out
        assert "0.82" in out

    def test_simulate_agrees(self, capsys):
        code = main([
            "simulate", "--protocol", "voting", "-n", "3",
            "-r", "1.0", "--events", "4000", "--replicates", "4",
        ])
        assert code == 0
        assert "analytic" in capsys.readouterr().out

    def test_compare_json(self, capsys):
        assert main(["compare", "-n", "3", "-r", "1.0", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["n_sites"] == 3
        assert report["availability"]["hybrid"]["1"] == pytest.approx(0.375)

    def test_compare_manifest(self, tmp_path, capsys):
        path = tmp_path / "compare.json"
        code = main(["compare", "-n", "3", "-r", "1.0", "--manifest", str(path)])
        assert code == 0
        capsys.readouterr()
        manifest = json.loads(path.read_text())
        assert manifest["command"] == "compare"
        assert manifest["seed"] is None
        # The chain-backed protocols each record a numeric solve (voting
        # has a closed form and never builds a chain).
        assert manifest["metrics"]["markov.solve.numeric"]["value"] >= 3

    def test_simulate_metrics_and_manifest(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        main([
            "simulate", "--protocol", "hybrid", "-n", "3", "-r", "1.0",
            "--events", "500", "--replicates", "2",
            "--metrics", "--manifest", str(path),
        ])
        out = capsys.readouterr().out
        assert "mc.replicates" in out
        assert "sim.event.site-failure" in out
        manifest = json.loads(path.read_text())
        assert manifest["protocol"] == {"name": "hybrid", "n_sites": 3}
        assert manifest["seed"] == 2026
        assert len(manifest["metrics"]) >= 10
        assert main(["validate-manifest", str(path)]) == 0

    def test_simulate_without_telemetry_flags_prints_no_metrics(self, capsys):
        main([
            "simulate", "--protocol", "voting", "-n", "3",
            "--events", "500", "--replicates", "2",
        ])
        assert "mc.replicates" not in capsys.readouterr().out

    def test_trace_renders_the_protocol_transcript(self, capsys):
        assert main(["trace", "--protocol", "hybrid", "-n", "3"]) == 0
        out = capsys.readouterr().out
        assert "[message]" in out
        assert "[topology]" in out
        assert "VoteRequest" in out
        assert "committed" in out

    def test_trace_jsonl_parses_line_by_line(self, capsys):
        assert main(["trace", "-n", "3", "--jsonl"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) > 10
        events = [json.loads(line) for line in lines]
        assert {"time", "category", "description", "fields"} <= set(events[0])
        assert any(e["category"] == "span" for e in events)

    def test_trace_category_filter(self, capsys):
        assert main(["trace", "-n", "3", "--jsonl", "--categories", "run"]) == 0
        events = [
            json.loads(line)
            for line in capsys.readouterr().out.strip().splitlines()
        ]
        assert events and all(e["category"] == "run" for e in events)

    def test_trace_is_deterministic_modulo_run_ids(self, capsys):
        # Run identifiers are process-unique (a fresh CLI process always
        # starts at 1), so two in-process invocations are compared after
        # renumbering them by order of first appearance.
        def normalized():
            main(["trace", "-n", "3", "--jsonl"])
            events = [
                json.loads(line)
                for line in capsys.readouterr().out.strip().splitlines()
            ]
            ids: dict[int, int] = {}
            for event in events:
                run_id = event["fields"].get("run_id")
                if run_id is not None:
                    fresh = ids.setdefault(run_id, len(ids) + 1)
                    event["fields"]["run_id"] = fresh
                    event["description"] = event["description"].replace(
                        f"run {run_id}", f"run {fresh}"
                    )
            return events

        assert normalized() == normalized()

    def test_proof(self, capsys):
        assert main(["proof", "-n", "3"]) == 0
        out = capsys.readouterr().out
        assert "Descartes" in out
        assert "0.82" in out

    def test_transient(self, capsys):
        assert main(["transient", "-n", "4", "-r", "2.0", "-t", "0", "1", "5"]) == 0
        out = capsys.readouterr().out
        assert "mean time to first blocking" in out
        assert "1.0000" in out  # A(0) = 1


class TestLintCommand:
    def test_lint_json_smoke(self, tmp_path, capsys):
        import json

        snippet = tmp_path / "scratch.py"
        snippet.write_text("import random\n")
        code = main(["lint", str(snippet), "--no-baseline", "--json"])
        assert code == 1
        report = json.loads(capsys.readouterr().out)
        assert report["exit_code"] == 1
        assert any(f["rule"] == "REP001" for f in report["new"])

    def test_lint_clean_file_exits_zero(self, tmp_path, capsys):
        snippet = tmp_path / "scratch.py"
        snippet.write_text('"""Nothing to see."""\n')
        assert main(["lint", str(snippet), "--no-baseline"]) == 0
        assert "0 new finding(s)" in capsys.readouterr().out


class TestCheckCommand:
    def test_clean_exploration_exits_zero(self, capsys):
        code = main(
            ["check", "--protocol", "dynamic", "--updates", "1", "--depth", "8"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "no invariant violations" in out
        assert "384 states" in out

    def test_json_report_shape(self, capsys):
        code = main(
            [
                "check",
                "--protocol",
                "dynamic",
                "--updates",
                "1",
                "--depth",
                "8",
                "--json",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        (result,) = report["results"]
        assert result["protocol"] == "dynamic"
        assert result["states"] == 384
        assert result["violation"] is None

    def test_fork_bug_injection_fails_with_replayable_counterexample(
        self, tmp_path, capsys
    ):
        artifact = tmp_path / "fork.jsonl"
        code = main(
            [
                "check",
                "--protocol",
                "dynamic",
                "--updates",
                "1",
                "--depth",
                "8",
                "--inject-fork-bug",
                "--counterexample",
                str(artifact),
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "VIOLATION" in out and "participants-only" in out
        assert artifact.exists()
        capsys.readouterr()
        assert main(["check", "--replay", str(artifact)]) == 0
        assert "reproduced" in capsys.readouterr().out

    def test_unknown_protocol_is_a_usage_error(self, capsys):
        assert main(["check", "--protocol", "nope"]) == 2
        assert "unknown protocol" in capsys.readouterr().err

    def test_modified_hybrid_at_two_sites_names_its_minimum(self, capsys):
        assert main(["check", "--protocol", "modified-hybrid", "-n", "2"]) == 2
        err = capsys.readouterr().err
        assert "must name a site outside its partition" in err
        assert "modified-hybrid needs n >= 3" in err
        assert "n > 2" not in err


class TestTraceCausalModes:
    def test_causal_mode_renders_per_trace_listing(self, capsys):
        assert main(["trace", "causal", "--protocol", "hybrid", "-n", "3"]) == 0
        out = capsys.readouterr().out
        assert "trace " in out
        assert "submit" in out
        assert "commit" in out
        assert "<-" in out  # parent edges are shown

    def test_causal_jsonl_is_pure_causal_category(self, capsys):
        assert main(["trace", "causal", "-n", "3", "--jsonl"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) > 20
        events = [json.loads(line) for line in lines]
        assert all(e["category"] == "causal" for e in events)
        assert any(e["fields"]["event"] == "commit" for e in events)

    def test_causal_jsonl_is_deterministic_for_a_seed(self, capsys):
        def export():
            main(["trace", "causal", "-n", "3", "--jsonl", "--seed", "7"])
            return capsys.readouterr().out

        assert export() == export()

    def test_critical_path_reports_per_phase_latency(self, capsys):
        assert main(["trace", "critical-path", "-n", "3"]) == 0
        out = capsys.readouterr().out
        assert "committed version" in out
        assert "latency" in out
        # The per-phase breakdown bills protocol phases, not raw events.
        assert "vote" in out

    def test_critical_path_reads_an_exported_file(self, tmp_path, capsys):
        main(["trace", "causal", "-n", "3", "--jsonl"])
        artifact = tmp_path / "trace.jsonl"
        artifact.write_text(capsys.readouterr().out)
        assert main(["trace", "critical-path", "--input", str(artifact)]) == 0
        assert "committed version" in capsys.readouterr().out

    def test_assert_passes_on_a_clean_run(self, capsys):
        assert main(["trace", "assert", "-n", "3"]) == 0
        assert "causal trace clean" in capsys.readouterr().out

    def test_assert_fails_on_a_fork_bug_counterexample(self, tmp_path, capsys):
        artifact = tmp_path / "fork.jsonl"
        main(
            [
                "check",
                "--protocol",
                "dynamic",
                "--updates",
                "1",
                "--depth",
                "8",
                "--inject-fork-bug",
                "--counterexample",
                str(artifact),
            ]
        )
        capsys.readouterr()
        assert main(["trace", "assert", "--input", str(artifact)]) == 1
        captured = capsys.readouterr()
        assert "FAIL" in captured.out
        assert "install-within-participants" in captured.out
        assert "violated" in captured.err

    def test_legacy_trace_has_no_causal_lines(self, capsys):
        # Plain `repro trace` predates causal mode and must stay unchanged.
        assert main(["trace", "-n", "3", "--jsonl"]) == 0
        events = [
            json.loads(line)
            for line in capsys.readouterr().out.strip().splitlines()
        ]
        assert all(e["category"] != "causal" for e in events)


class TestArtifactCommand:
    def test_artifact_written(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "artifact.json"
        assert main(["artifact", "--output", str(path), "--n-max", "4"]) == 0
        out = capsys.readouterr().out
        assert "wrote" in out
        import json

        data = json.loads(path.read_text())
        assert set(data["theorem3"]) == {"3", "4"}


class TestProfileCommand:
    def test_profile_requires_a_profileable_target(self, capsys):
        assert main(["profile"]) == 2
        assert "simulate" in capsys.readouterr().err

    def test_profile_collapsed_stack_matches_the_span_forest(
        self, tmp_path, capsys
    ):
        from repro.obs import parse_collapsed, profiling

        # Ground truth: run the same deterministic invocation under a
        # profiler of our own; sim-time spans make both runs identical.
        with profiling() as profiler:
            assert main(["trace", "--protocol", "hybrid", "-n", "3"]) == 0
        capsys.readouterr()

        path = tmp_path / "trace.collapsed"
        code = main(
            ["profile", "--output", str(path),
             "trace", "--protocol", "hybrid", "-n", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "sim-time spans (deterministic):" in out
        emitted = parse_collapsed(path.read_text())
        assert emitted == pytest.approx(profiler.stacks())
        assert sum(emitted.values()) == pytest.approx(profiler.total())

    def test_profile_rejects_unprofileable_targets(self, capsys):
        assert main(["profile", "lint", "src"]) == 2
        assert "simulate, compare, trace" in capsys.readouterr().err


class TestBenchCommands:
    def _run(self, tmp_path, seed="2026"):
        record = tmp_path / "run.json"
        history = tmp_path / "history.jsonl"
        trajectory = tmp_path / "BENCH_perf.json"
        code = main(
            ["bench", "run", "--suite", "perf", "--quick", "--seed", seed,
             "--record", str(record), "--history", str(history),
             "--trajectory", str(trajectory)]
        )
        assert code == 0
        return record, history, trajectory

    def test_bench_run_writes_record_history_and_trajectory(
        self, tmp_path, capsys
    ):
        record, history, trajectory = self._run(tmp_path)
        out = capsys.readouterr().out
        assert "mc.scalar.hybrid.n5" in out
        run_doc = json.loads(record.read_text())
        assert run_doc["schema"] == "repro.bench-run/1"
        scenarios = {r["scenario"] for r in run_doc["records"]}
        assert scenarios == {
            "mc.scalar.hybrid.n5",
            "mc.vectorized.hybrid.n5",
            "markov.grid.batched.n5",
            "markov.grid.horner.n5",
            "markov.lumped.n25",
            "markov.sparse.n25",
            "netsim.causal.overhead.n5",
        }
        assert all(r["git"] for r in run_doc["records"])
        assert len(history.read_text().splitlines()) == 7
        assert json.loads(trajectory.read_text())["schema"] == (
            "repro.bench-trajectory/1"
        )

    def test_bench_compare_against_itself_passes(self, tmp_path, capsys):
        record, _, _ = self._run(tmp_path)
        assert main(["bench", "compare", str(record), str(record)]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_bench_compare_detects_injected_2x_slowdown(
        self, tmp_path, capsys, monkeypatch
    ):
        import repro.cli as cli_module

        record, _, _ = self._run(tmp_path)
        capsys.readouterr()

        # Inject a 2x slowdown into the Monte-Carlo hot path: same
        # deterministic result, double the wall time.
        original = cli_module.estimate_availability

        def twice_as_slow(*args, **kwargs):
            original(*args, **kwargs)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli_module, "estimate_availability", twice_as_slow)
        slow = tmp_path / "slow.json"
        assert main(
            ["bench", "run", "--quick", "--record", str(slow),
             "--history", "-", "--trajectory", "-"]
        ) == 0
        capsys.readouterr()
        code = main(
            ["bench", "compare", str(record), str(slow), "--tolerance", "0.3"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "HARD REGRESSION" in out
        assert "events_per_sec" in out

    def test_bench_report_renders_the_history(self, tmp_path, capsys):
        _, history, _ = self._run(tmp_path)
        capsys.readouterr()
        assert main(
            ["bench", "report", "--history", str(history), "--format", "md"]
        ) == 0
        out = capsys.readouterr().out
        assert out.startswith("| created_at |")
        assert "markov.grid.horner.n5" in out

    def test_bench_errors_exit_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        code = main(["bench", "compare", str(missing), str(missing)])
        assert code == 2
        assert "repro bench:" in capsys.readouterr().err


class TestGridCommand:
    def test_text_table(self, capsys):
        assert main([
            "grid", "--protocol", "dynamic", "-n", "25", "--points", "5",
        ]) == 0
        out = capsys.readouterr().out
        assert "dynamic n=25" in out
        assert "availability" in out

    def test_forced_sparse_reports_the_sparse_counter(self, capsys):
        assert main([
            "grid", "--protocol", "hybrid", "-n", "25", "--points", "4",
            "--solver", "sparse",
        ]) == 0
        out = capsys.readouterr().out
        assert "sparse=1" in out

    def test_json_output(self, capsys):
        assert main([
            "grid", "--protocol", "dynamic", "-n", "25", "--points", "3",
            "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["protocol"] == "dynamic"
        assert payload["n_sites"] == 25
        assert len(payload["grid"]) == 3
        assert all(0 < row["availability"] < 1 for row in payload["grid"])

    def test_solvers_agree(self, capsys):
        curves = []
        for solver in ("dense", "sparse"):
            assert main([
                "grid", "--protocol", "dynamic", "-n", "25", "--points", "4",
                "--solver", solver, "--json",
            ]) == 0
            payload = json.loads(capsys.readouterr().out)
            curves.append([row["availability"] for row in payload["grid"]])
        assert max(
            abs(a - b) for a, b in zip(curves[0], curves[1])
        ) <= 1e-12

    def test_unknown_protocol_fails_cleanly(self, capsys):
        assert main([
            "grid", "--protocol", "nonesuch", "-n", "5", "--points", "2",
        ]) == 2
        assert "nonesuch" in capsys.readouterr().err

    def test_bad_range_rejected(self, capsys):
        assert main([
            "grid", "-n", "5", "--points", "2", "--start", "5", "--stop", "1",
        ]) == 2
