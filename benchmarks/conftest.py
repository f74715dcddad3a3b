"""Shared fixtures for the per-figure benchmark harness.

Every ``test_figNN_*``/``test_secN_*`` file regenerates one table or
figure of the paper through the ``reproduce`` fixture, the way ``repro
reproduce`` does: an inline sweep of the runs the experiment declares,
then its driver.  The runs are cached on disk under
``benchmarks/.benchcache`` (entries keyed by a content hash of the full
``SimConfig``, so config changes invalidate automatically); a later
test or session reuses every entry already there.

Scale is ``TINY`` by default; set ``REPRO_BENCH_SCALE=quick|paper`` for
higher-fidelity runs (the shape assertions are scale-independent).
"""

from __future__ import annotations

import os

import pytest

from repro.analysis.experiments import DRIVERS, declared_sweeps
from repro.analysis.runner import ExperimentRunner
from repro.analysis.sweep import run_sweep
from repro.workloads.suite import Scale

_SCALE = Scale[os.environ.get("REPRO_BENCH_SCALE", "tiny").upper()]
_CACHE = os.path.join(os.path.dirname(__file__), ".benchcache")


@pytest.fixture(scope="session")
def reproduce():
    """Render one experiment by id after sweeping the runs it reads."""
    runner = ExperimentRunner(
        scale=_SCALE, seeds=(1, 2), kind="synthetic", cache_dir=_CACHE
    )

    def render(experiment: str):
        sweeps = declared_sweeps(runner, [experiment])
        if sweeps:
            run_sweep(sweeps, workers=0).raise_on_failure()
        return DRIVERS[experiment].render(runner)

    return render


def pytest_sessionfinish(session, exitstatus):
    """Append a figure-harness session record to the run history.

    Each full run of the per-figure benchmark suite is one record in the
    run history: which scale it asserted the paper's shapes at, and
    whether everything held.  Skipped when the history is disabled
    (``REPRO_HISTORY=0``) or the session collected nothing.
    """
    if not getattr(session, "testscollected", 0):
        return
    from repro.history import record_run

    record_run(
        "benchmarks",
        {
            "scale": _SCALE.name,
            "tests_collected": session.testscollected,
            "tests_failed": session.testsfailed,
            "exit_status": int(exitstatus),
        },
    )


def emit(result) -> None:
    """Print the regenerated table (visible with pytest -s)."""
    print()
    print(result)
