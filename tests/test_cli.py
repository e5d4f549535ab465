"""Tests for the command-line interface."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main
from repro.obs import TraceLog
from repro.obs.causal import CausalTracer


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
        # The causal events are the one export format.
        assert all(e["category"] == "causal" for e in events)
        kinds = {e["fields"]["event"] for e in events}
        assert {"submit", "site-failure", "site-repair", "finish"} <= kinds

    def test_trace_category_filter(self, capsys):
        assert main(["trace", "-n", "3", "--categories", "run", "topology"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 10  # four runs submitted and finished, one fail/repair
        assert all("[run]" in line or "[topology]" in line for line in lines)

    def test_trace_renders_the_transcript_of_an_export(self, tmp_path, capsys):
        assert main(["trace", "-n", "3"]) == 0
        live = capsys.readouterr().out
        assert main(["trace", "-n", "3", "--jsonl"]) == 0
        export = tmp_path / "trace.jsonl"
        export.write_text(capsys.readouterr().out)
        assert main(["trace", "--input", str(export)]) == 0
        assert capsys.readouterr().out == live

    def test_trace_categories_filter_only_the_transcript(self, capsys):
        assert main(["trace", "-n", "3", "--jsonl", "--categories", "run"]) == 2
        assert "cannot be combined with --jsonl" in capsys.readouterr().err
        with pytest.raises(SystemExit) as excinfo:
            main(["trace", "-n", "3", "--categories", "lock"])
        assert excinfo.value.code == 2

    def test_trace_ends_with_the_drop_line_of_a_full_log(self, capsys, monkeypatch):
        import functools

        from repro.netsim import cluster

        monkeypatch.setattr(
            cluster, "TraceLog", functools.partial(cluster.TraceLog, capacity=40)
        )
        assert main(["trace", "-n", "3"]) == 0
        last = capsys.readouterr().out.splitlines()[-1]
        assert re.fullmatch(r"\.\.\. \((\d+) dropped at capacity; causal: \1\)", last)

    def test_trace_is_deterministic_modulo_run_ids(self, capsys):
        # Run identifiers are process-unique; `repro trace` rewinds the
        # counter, and the comparison renumbers them by order of first
        # appearance so it holds whether or not the rewind happens.
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


class TestChainVerbErrors:
    """chain, transient and grid report a library error as a usage error."""

    @pytest.mark.parametrize("verb", ["chain", "transient"])
    def test_protocol_without_a_chain(self, verb, capsys):
        assert main([verb, "--protocol", "primary-copy"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: no chain for 'primary-copy'; known: ")

    @pytest.mark.parametrize("verb", ["chain", "transient", "grid"])
    def test_too_few_sites_names_the_minimum(self, verb, capsys):
        assert main([verb, "--protocol", "hybrid", "-n", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the hybrid chain needs n >= 3 sites, got 2\n"


class TestLibraryErrors:
    """Every verb reports a library error as ``error: ...`` and exit 2."""

    def test_vectorized_site_limit_ends_without_a_traceback(self):
        child = subprocess.run(
            [sys.executable, "-m", "repro", "simulate", "--protocol", "hybrid",
             "-n", "70", "-r", "1", "--backend", "vectorized",
             "--replicates", "2", "--events", "10"],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])},
        )
        assert child.returncode == 2
        assert child.stdout == ""
        assert child.stderr.startswith("error: ")
        assert "63" in child.stderr
        assert "Traceback" not in child.stderr

    def test_trace_assert_on_input_that_is_not_json(self, tmp_path, capsys):
        export = tmp_path / "bad.jsonl"
        export.write_text("not json\n")
        assert main(["trace", "assert", "--input", str(export)]) == 2
        assert capsys.readouterr().err.startswith("error: line 1 is not JSON")

    def test_trace_assert_names_the_event_with_an_unreadable_run_id(
        self, tmp_path, capsys
    ):
        assert main(["trace", "causal", "--protocol", "hybrid", "-n", "3",
                     "--jsonl"]) == 0
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        for record in records:
            if "run_id" in record["fields"]:
                record["fields"]["run_id"] = "one"
        export = tmp_path / "one.jsonl"
        export.write_text("".join(json.dumps(r) + "\n" for r in records))
        assert main(["trace", "assert", "--input", str(export)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: causal event ")
        assert "has run_id 'one', not an integer" in captured.err

    @pytest.mark.parametrize(
        ("action", "argv"),
        [
            ("read", ["trace", "--input", "PATH"]),
            ("read", ["trace", "causal", "--input", "PATH"]),
            ("read", ["trace", "critical-path", "--input", "PATH"]),
            ("read", ["trace", "assert", "--input", "PATH"]),
            ("read", ["profile", "trace", "assert", "--input", "PATH"]),
            ("write", ["simulate", "-n", "3", "--replicates", "2",
                       "--events", "200", "--manifest", "PATH"]),
            ("write", ["compare", "-n", "3", "-r", "1", "--manifest", "PATH"]),
            ("write", ["profile", "--output", "PATH", "trace", "-n", "3"]),
            ("write", ["artifact", "--n-max", "3", "--output", "PATH"]),
            ("read", ["trace", "--input", "BINARY"]),
            ("read", ["trace", "causal", "--input", "BINARY"]),
            ("read", ["trace", "critical-path", "--input", "BINARY"]),
            ("read", ["trace", "assert", "--input", "BINARY"]),
        ],
    )
    def test_file_argument_that_cannot_be_opened(
        self, tmp_path, capsys, action, argv
    ):
        # One error line and exit 2, no traceback; a file in a missing
        # directory can be neither read nor written, and a file that is
        # not UTF-8 cannot be read.
        path = tmp_path / "missing" / "file.json"
        binary = tmp_path / "binary.jsonl"
        binary.write_bytes(b"\xff\xfe\x00{\x80\n")
        named = {"PATH": path, "BINARY": binary}
        assert main([str(named.get(arg, arg)) for arg in argv]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        target = binary if "BINARY" in argv else path
        assert line.startswith(f"error: cannot {action} {target}: ")
        assert not path.parent.exists()


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

    @pytest.mark.parametrize("kind", ["missing", "binary"])
    def test_replay_file_that_cannot_be_read(self, tmp_path, capsys, kind):
        path = tmp_path / "missing" / "fork.jsonl"
        if kind == "binary":
            path = tmp_path / "fork.jsonl"
            path.write_bytes(b"\xff\xfe\x00{\x80\n")
        assert main(["check", "--replay", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"repro check: cannot read {path}: ")

    def test_unknown_protocol_is_a_usage_error(self, capsys):
        assert main(["check", "--protocol", "nope"]) == 2
        assert "unknown protocol" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("option", "flag"),
        [
            (["-n", "4"], "-n/--sites"),
            (["--sites", "3"], "-n/--sites"),
            (["--updates", "1"], "--updates"),
            (["--crashes", "1"], "--crashes"),
            (["--recoveries", "0"], "--recoveries"),
            (["--link-cuts", "1"], "--link-cuts"),
            (["--link-heals", "1"], "--link-heals"),
        ],
    )
    def test_quick_rejects_an_option_it_fixes(self, capsys, option, flag):
        code = main(["check", "--quick", "--protocol", "hybrid", *option])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--quick" in captured.err and flag in captured.err

    @pytest.mark.parametrize("inject", [False, True])
    def test_quick_is_the_default_configuration(self, inject):
        # `--quick` builds no configuration of its own: it relies on the
        # defaults being the preset that perfbench and the tests use.
        from repro.check import CheckConfig
        from repro.check.runner import quick_config

        assert quick_config("hybrid", inject_fork_bug=inject) == CheckConfig(
            protocol="hybrid", disable_participants_guard=inject
        )

    def test_quick_names_every_conflicting_option(self, capsys):
        code = main(
            ["check", "--quick", "--crashes", "1", "--recoveries", "1", "--depth", "9"]
        )
        assert code == 2
        assert "--crashes, --recoveries" in capsys.readouterr().err

    def test_quick_takes_a_depth_and_the_fork_switch(self, capsys):
        code = main(
            ["check", "--quick", "--protocol", "dynamic", "--depth", "4", "--json"]
        )
        assert code == 0
        (result,) = json.loads(capsys.readouterr().out)["results"]
        assert (result["sites"], result["depth"]) == (3, 4)
        code = main(["check", "--quick", "--protocol", "dynamic", "--inject-fork-bug"])
        assert code == 1

    def test_negative_depth_is_a_usage_error(self, capsys):
        assert main(["check", "--protocol", "dynamic", "--depth", "-1"]) == 2
        captured = capsys.readouterr()
        assert "depth must be nonnegative" in captured.err
        assert "no invariant violations" not in captured.out

    @pytest.mark.parametrize("budget", ["0", "-1"])
    def test_max_states_below_one_is_a_usage_error(self, capsys, budget):
        code = main(
            ["check", "--protocol", "dynamic", "--updates", "1", "--depth", "8",
             "--max-states", budget]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert f"max-states must be positive, got {budget}" in captured.err
        assert "TRUNCATED" not in captured.out

    @pytest.mark.parametrize("as_json", [False, True])
    def test_unwritable_counterexample_is_a_usage_error(
        self, tmp_path, capsys, as_json
    ):
        path = tmp_path / "missing" / "fork.jsonl"
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
                str(path),
                *(["--json"] if as_json else []),
            ]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert f"repro check: cannot write {path}: " in captured.err
        assert "Traceback" not in captured.err
        assert not path.exists()
        if as_json:
            (result,) = json.loads(captured.out)["results"]
            assert result["violation"]["oracle"] == "participants-only"
            assert "counterexample" not in result
        else:
            assert "VIOLATION" in captured.out
            assert "minimized to 7 steps\n" in captured.out

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
        # Plain `repro trace` predates causal mode; its transcript keeps
        # its four record categories.
        assert main(["trace", "-n", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        categories = {line.split("[")[1].split("]")[0] for line in lines}
        assert categories == {"run", "topology", "message", "span"}

    def test_assert_flags_the_in_doubt_fork_counterexample(self, tmp_path, capsys):
        # A participant that forgets its in-doubt vote in a crash joins a
        # second quorum for version 1 (docs/CHECKING.md); the catalog's
        # one-run-per-version rule sees the fork in the causal trace.
        artifact = tmp_path / "in-doubt.jsonl"
        assert main(
            ["check", "--protocol", "dynamic", "-n", "3", "--updates", "1",
             "--crashes", "1", "--recoveries", "1", "--depth", "9",
             "--counterexample", str(artifact)]
        ) == 1
        assert "VIOLATION after 9 steps -- no-fork" in capsys.readouterr().out
        assert main(["trace", "assert", "--input", str(artifact)]) == 1
        (line,) = capsys.readouterr().out.splitlines()
        assert line.startswith(
            "FAIL one-run-per-version: version 1 installed by run 1 at A and "
            "by run 1000 at B ["
        )

    @pytest.mark.parametrize("mode", ["causal", "critical-path", "assert"])
    def test_input_without_causal_events_is_a_usage_error(
        self, tmp_path, capsys, mode
    ):
        export = tmp_path / "flat.jsonl"
        log = TraceLog()
        log.record(0.0, "run", "run 1 [update] submitted at A", run_id=1)
        export.write_text(log.to_jsonl() + "\n")
        assert main(["trace", mode, "--input", str(export)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {export} holds no causal event\n"



class TestClosedStdout:
    def test_reader_closing_the_pipe_ends_the_command_quietly(self, tmp_path):
        # A listing far longer than a pipe buffers, so the writer meets
        # the closed pipe mid-listing.
        log = TraceLog()
        tracer = CausalTracer(log, seed=1)
        event = tracer.begin("op:1", "submit", 0.0, site="A", run_id=1)
        for step in range(1, 5000):
            event = tracer.emit(
                "send", step * 1e-3, parents=(event,), site="A", run_id=1
            )
        export = tmp_path / "long.jsonl"
        export.write_text(log.to_jsonl())
        child = subprocess.Popen(
            [sys.executable, "-m", "repro", "trace", "causal", "--input", export],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])},
        )
        assert child.stdout.readline().startswith(b"trace ")
        child.stdout.close()
        stderr = child.stderr.read().decode()
        child.stderr.close()
        assert child.wait(timeout=60) == 1
        assert "Traceback" not in stderr
        assert "BrokenPipeError" not in stderr

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
        assert "(trace)" in capsys.readouterr().err

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
        # Only a trace closes sim-time spans; any other verb would fold
        # nothing and print an empty profile.
        for target in (["lint", "src"], ["simulate", "-n", "3"], ["compare"]):
            assert main(["profile", *target]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "give an invocation to profile (trace)" in captured.err


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
