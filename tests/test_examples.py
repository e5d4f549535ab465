"""Smoke-run the example scripts (the fast ones) as a user would.

Each example is executed in-process via runpy; the examples carry their
own assertions, so a passing run certifies both that the public API they
demonstrate works and that the README's promises hold.
"""

import pathlib
import runpy

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"

FAST_EXAMPLES = [
    "quickstart.py",
    "partition_scenario.py",
    "message_level_cluster.py",
    "custom_protocol.py",
    "availability_study.py",
]


@pytest.mark.parametrize("script", FAST_EXAMPLES)
def test_example_runs_clean(script, capsys):
    runpy.run_path(str(EXAMPLES / script), run_name="__main__")
    out = capsys.readouterr().out
    assert out  # every example narrates its run


def test_quickstart_tells_the_section4_story(capsys):
    runpy.run_path(str(EXAMPLES / "quickstart.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "VN=10 SC=3 DS=ABC" in out      # static phase entered
    assert "VN=11 SC=3 DS=ABC" in out      # ...and preserved by the AC update
    assert "denied" in out.lower()          # the AD denial is demonstrated
    assert "linear chain" in out


def test_partition_scenario_asserts_the_narrative(capsys):
    runpy.run_path(str(EXAMPLES / "partition_scenario.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "all narrative claims reproduced" in out


def test_message_level_cluster_audits_cleanly(capsys):
    runpy.run_path(str(EXAMPLES / "message_level_cluster.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "one-copy semantics" in out
    assert "'sites': 5" in out


def test_custom_protocol_example_demonstrates_extensibility(capsys):
    runpy.run_path(str(EXAMPLES / "custom_protocol.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "derived Markov chain" in out
    assert "zero extra tooling" in out
