"""Shared fixtures: closed-form problems, a simulated CLI bundle, and a
fresh interpreter for tests of what a process imports."""

import os
import subprocess
import sys

import numpy as np
import pytest

from surveysense import CalibrationProblem, cli

# one "[criterion NN] PASS/FAIL" line per acceptance test, printed after
# the run; fd-level capture would swallow direct writes from the tests
acceptance_verdicts = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not acceptance_verdicts:
        return
    terminalreporter.ensure_newline()
    terminalreporter.section("acceptance criteria", sep="-")
    for line in acceptance_verdicts:
        terminalreporter.write_line(line)


@pytest.fixture
def two_cell_problem():
    """Four rows, one binary margin moved from 0.50 to 0.75.

    The entropy solution is constant within cells: 1.5 on x = 1 rows and
    0.5 on x = 0 rows.
    """
    matrix = np.array([[1.0], [1.0], [0.0], [0.0]])
    problem = CalibrationProblem(matrix, np.array([0.75]), column_names=("x",))
    expected = np.array([1.5, 1.5, 0.5, 0.5])
    return problem, expected


@pytest.fixture(scope="session")
def mild_problem():
    """Calibration problem whose solution stays close to uniform.

    Small target shifts keep every weight within a factor two of one,
    which the exact-reconstruction tests rely on.
    """
    rng = np.random.default_rng(42)
    n = 500
    x1 = (rng.random(n) < 0.5).astype(float)
    x2 = (rng.random(n) < 0.4).astype(float)
    x3 = rng.normal(size=n)
    matrix = np.column_stack([x1, x2, x3])
    targets = np.array([x1.mean() + 0.04, x2.mean() - 0.03, x3.mean() + 0.05])
    problem = CalibrationProblem(matrix, targets, column_names=("x1", "x2", "x3"))
    y = 1.0 + 0.8 * x1 - 0.5 * x2 + 0.3 * x3 + rng.normal(scale=0.5, size=n)
    return problem, y


@pytest.fixture(scope="session")
def demo_bundle(tmp_path_factory):
    """Synthetic survey bundle written by the simulate subcommand."""
    root = tmp_path_factory.mktemp("bundle")
    rc = cli.main(["simulate", "--out", str(root)])
    assert rc == 0
    return root


@pytest.fixture(scope="session")
def run_fresh():
    """Runs a Python script in a fresh interpreter on this session's import
    path and returns its stdout; the script must exit 0."""

    def run(script: str) -> str:
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    return run
