"""Imports follow the work: each entry point loads only what it calls.

numpy and scipy are most of a launch's set-up time (docs/PERFORMANCE.md,
"Imports follow the work").  Each case runs in a fresh interpreter, since
this one imported both long ago, and lists the numpy and scipy modules
that its code left in ``sys.modules``.
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


def heavy_modules(code: str) -> set[str]:
    """The numpy/scipy modules loaded after ``code`` runs in a fresh interpreter."""
    probe = (
        f"{code}\n"
        "import json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m.partition('.')[0] in ('numpy', 'scipy'))))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": SRC},
        check=True,
    )
    return set(json.loads(done.stdout.splitlines()[-1]))


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


def test_a_first_sparse_solve_loads_scipy_sparse():
    code = (
        f"{SIMULATE_SETUP}\n"
        "repro.markov.chain_for('dynamic', 4).steady_state(1.0, solver='sparse')\n"
    )
    assert {"scipy.sparse", "scipy.sparse.linalg"} <= heavy_modules(code)


@pytest.mark.parametrize("package", [repro.markov, repro.sim])
def test_every_export_resolves(package):
    for name in package.__all__:
        assert getattr(package, name) is not None, name
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        package.nope
