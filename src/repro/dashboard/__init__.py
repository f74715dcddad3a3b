"""Static HTML dashboard over the run history (docs/observability.md).

Pure-Python SVG rendering — no matplotlib, no JavaScript, no network —
so ``python -m repro dashboard`` works in any environment that can run
the simulator, and the emitted ``index.html`` is a single portable file.
"""

from repro.dashboard.build import (
    DEFAULT_BENCH_RESULTS,
    REQUIRED_FIGURES,
    DashboardBuild,
    build_dashboard,
)
from repro.dashboard.svg import Figure

__all__ = [
    "DEFAULT_BENCH_RESULTS",
    "DashboardBuild",
    "Figure",
    "REQUIRED_FIGURES",
    "build_dashboard",
]
