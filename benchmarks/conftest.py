"""Shared fixtures for the per-figure benchmark harness.

Every ``test_figNN_*``/``test_secN_*`` file regenerates one table or
figure of the paper from a shared (benchmark x scheduler) sweep.  The
sweep is computed once per session and cached on disk under
``benchmarks/.benchcache`` (entries keyed by a content hash of the full
``SimConfig``, so config changes invalidate automatically) and is filled
through the same resumable sweep harness as ``python -m repro sweep``.

Scale is ``TINY`` by default; set ``REPRO_BENCH_SCALE=quick|paper`` for
higher-fidelity runs (the shape assertions are scale-independent).  Set
``REPRO_BENCH_WORKERS=N`` to prefill the cache with N worker processes
before the figure tests run (0, the default, simulates lazily inline).
"""

from __future__ import annotations

import os

import pytest

from repro.analysis.runner import ExperimentRunner
from repro.analysis.sweep import run_sweep
from repro.workloads.suite import Scale

_SCALE = Scale[os.environ.get("REPRO_BENCH_SCALE", "tiny").upper()]
_CACHE = os.path.join(os.path.dirname(__file__), ".benchcache")
_WORKERS = int(os.environ.get("REPRO_BENCH_WORKERS", "0"))

#: The scheduler grid the figure files consume (§VI adds per-alpha SBWAS
#: configs, which hash to their own cache entries on demand).
_SCHEDULERS = ("gmc", "wg", "wg-m", "wg-bw", "wg-w", "wafcfs", "zero-div")


@pytest.fixture(scope="session")
def runner() -> ExperimentRunner:
    r = ExperimentRunner(
        scale=_SCALE, seeds=(1, 2), kind="synthetic", cache_dir=_CACHE
    )
    if _WORKERS > 0:
        from repro.workloads.profiles import ALL_PROFILES

        run_sweep(
            r, sorted(ALL_PROFILES), _SCHEDULERS,
            workers=_WORKERS, resume=True,
        ).raise_on_failure()
        run_sweep(
            r, sorted(ALL_PROFILES), ("gmc",), perfect=True,
            workers=_WORKERS, resume=True,
        ).raise_on_failure()
    return r


@pytest.fixture(scope="session")
def scale() -> Scale:
    return _SCALE


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
            "workers": _WORKERS,
            "tests_collected": session.testscollected,
            "tests_failed": session.testsfailed,
            "exit_status": int(exitstatus),
        },
    )


def emit(result) -> None:
    """Print the regenerated table (visible with pytest -s)."""
    print()
    print(result)
