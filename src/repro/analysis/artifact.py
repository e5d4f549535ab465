"""Machine-readable experiment artifacts.

:func:`collect_results` runs the core experiment battery and returns one
nested dict -- the JSON-ready companion to EXPERIMENTS.md -- and
:func:`write_artifact` persists it.  Downstream users comparing against
this reproduction can diff artifacts instead of scraping tables.

The battery is sized for interactive use (seconds, not the full benchmark
scale); every number it emits is also pinned by an assertion somewhere in
the test or benchmark suites.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from ..markov import availability, chain_for, mean_time_to_blocking
from ..sim import figure1_scenario, paper_protocols
from .crossover import PAPER_CROSSOVERS, certified_crossover
from .figures import figure3_series, figure4_series
from .sensitivity import traditional_availability

__all__ = ["collect_results", "write_artifact", "ARTIFACT_VERSION"]

#: Bumped whenever the artifact layout changes.
ARTIFACT_VERSION = 2


def collect_results(
    n_values: tuple[int, ...] = (3, 4, 5, 6, 7, 8),
    figure_steps: int = 10,
) -> dict[str, Any]:
    """Run the experiment battery and return the nested result dict."""
    results: dict[str, Any] = {
        "artifact_version": ARTIFACT_VERSION,
        "paper": "Dynamic Voting (Jajodia & Mutchler, SIGMOD 1987) via the "
        "hybrid journal version",
    }

    # E1: Fig. 1 narrative.
    scenario = figure1_scenario()
    traces = scenario.replay_all(paper_protocols())
    results["figure1"] = {
        name: {
            str(result.time): sorted(
                "".join(sorted(g)) for g in result.accepted_groups()
            )
            for result in trace.results
        }
        for name, trace in traces.items()
    }

    # E2: chain sizes.
    results["figure2_state_counts"] = {
        str(n): chain_for("hybrid", n).size for n in n_values
    }

    # E5: crossovers with exact brackets.
    results["theorem3"] = {}
    for n in n_values:
        crossover = certified_crossover("hybrid", "dynamic-linear", n)
        results["theorem3"][str(n)] = {
            "measured": crossover.value,
            "bracket": [str(crossover.low), str(crossover.high)],
            "paper": PAPER_CROSSOVERS[n],
        }

    # E6/E7: figure series.
    for label, series in (
        ("figure3", figure3_series(figure_steps)),
        ("figure4", figure4_series(figure_steps)),
    ):
        results[label] = {
            "ratios": list(series.ratios),
            "curves": {k: list(v) for k, v in series.curves.items()},
        }

    # A3: measure sensitivity snapshot.
    results["measure_sensitivity"] = {
        str(ratio): {
            "site": {
                "hybrid": availability("hybrid", 5, ratio),
                "dynamic-linear": availability("dynamic-linear", 5, ratio),
            },
            "traditional": {
                "hybrid": traditional_availability("hybrid", 5, ratio),
                "dynamic-linear": traditional_availability(
                    "dynamic-linear", 5, ratio
                ),
            },
        }
        for ratio in (0.25, 1.0, 4.0)
    }

    # E14: endurance.
    results["mean_time_to_blocking"] = {
        name: mean_time_to_blocking(chain_for(name, 5), 1.0)
        for name in ("voting", "dynamic", "dynamic-linear", "hybrid")
    }
    return results


def write_artifact(path: str | Path, **kwargs: Any) -> dict[str, Any]:
    """Collect results and write them as pretty-printed JSON."""
    results = collect_results(**kwargs)
    Path(path).write_text(json.dumps(results, indent=2, sort_keys=True))
    return results
