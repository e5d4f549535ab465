"""Imports follow the work: each entry point loads only what it calls.

numpy and scipy are most of a launch's set-up time (docs/PERFORMANCE.md,
"Imports follow the work").  Each case runs in a fresh interpreter, since
this one imported both long ago, and reads the modules that its code left
in ``sys.modules``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.markov
import repro.sim

SRC = str(Path(repro.__file__).parents[1])

#: The perfbench ``simulate`` workload's set-up imports.
SIMULATE_SETUP = "import repro.markov, repro.netsim, repro.obs.query, repro.sim"
#: The perfbench ``reproduce`` workload's set-up imports.
REPRODUCE_SETUP = (
    "import repro.analysis, repro.core, repro.markov, repro.reassignment, repro.sim"
)


def loaded_modules(code: str) -> set[str]:
    """Every module loaded after ``code`` runs in a fresh interpreter."""
    probe = f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    done = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": SRC},
        check=True,
    )
    return set(json.loads(done.stdout.splitlines()[-1]))


def heavy_modules(code: str) -> set[str]:
    """The numpy/scipy modules loaded after ``code`` runs in a fresh interpreter."""
    return {
        m for m in loaded_modules(code) if m.partition(".")[0] in ("numpy", "scipy")
    }


def roots(modules: set[str]) -> set[str]:
    return {m.partition(".")[0] for m in modules}


@pytest.mark.parametrize("module", ["repro.check", "repro.netsim", "repro.lint"])
def test_checker_netsim_and_linter_load_no_numpy(module):
    assert roots(heavy_modules(f"import {module}")) == set()


def test_simulate_setup_loads_no_scipy():
    assert roots(heavy_modules(SIMULATE_SETUP)) == {"numpy"}


def test_help_loads_neither_numpy_nor_scipy():
    code = (
        "import contextlib, io\n"
        "from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        "        main(['--help'])\n"
        "    except SystemExit:\n"
        "        pass\n"
    )
    assert heavy_modules(code) == set()


def test_reproduce_setup_loads_numpy_only():
    loaded = loaded_modules(REPRODUCE_SETUP)
    assert roots(loaded) & {"numpy", "scipy"} == {"numpy"}
    assert "repro.sim.montecarlo" not in loaded


def test_crossovers_and_large_solves_load_no_scipy():
    # Brent's method is our own, and chains past the dense threshold
    # solve by level reduction: the Theorem 3 table, an n = 50 grid and a
    # Section VII derived chain (526 states) all stay on numpy.
    code = (
        f"{REPRODUCE_SETUP}\n"
        "from repro.obs.metrics import MetricsRegistry, use\n"
        "from repro.types import site_names\n"
        "registry = MetricsRegistry()\n"
        "with use(registry):\n"
        "    repro.analysis.theorem3_table([3, 4])\n"
        "    repro.markov.availability_grid('dynamic-linear', 50, [0.5, 1.0, 2.0])\n"
        "    policy = repro.reassignment.POLICIES['trio-freeze']()\n"
        "    repro.markov.derive_chain(\n"
        "        repro.reassignment.VoteReassignmentProtocol(site_names(5), policy)\n"
        "    ).availability(1.0)\n"
        "assert registry.counter('markov.solve.sparse').value == 2\n"
    )
    assert roots(heavy_modules(code)) == {"numpy"}


def test_transient_loads_scipy_linalg_alone():
    code = (
        "import contextlib, io\n"
        "from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    main(['transient', '-n', '4'])\n"
    )
    scipy = {m for m in heavy_modules(code) if m.startswith("scipy.")}
    assert "scipy.linalg" in scipy
    assert not {m for m in scipy if m.startswith(("scipy.optimize", "scipy.sparse"))}


@pytest.mark.parametrize("package", [repro.markov, repro.sim])
def test_every_export_resolves(package):
    for name in package.__all__:
        assert getattr(package, name) is not None, name
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        package.nope
