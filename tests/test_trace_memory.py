"""Memory budgets of trace generation.

The suite keeps the paper's full input sizes at every scale, and only the
warp budget scales (``workloads/suite.py``).  So the generators build and
keep only what the budgeted warps read: spmv draws only the matrix
entries its rows reach, ``random_csr`` fills its column array in place,
and stream lanes stay ``range`` objects (docs/performance.md, "Trace
memory").  This test holds that to committed budgets for the repository
benchmark's algorithmic cells and for graphsample, the largest graph:

* ``peak``: the ``tracemalloc`` peak while ``build_benchmark`` runs;
* ``held``: the traced bytes still allocated once it returns, i.e. the
  trace itself.

``tracemalloc`` counts Python objects and NumPy buffers alike and does
not depend on the host's allocator, so the values are deterministic per
interpreter and NumPy version.  The budgets sit about 30% above the
values measured on CPython 3.11 with NumPy 2.4.6, and below what the
full-size generators used.  The values on the other interpreters CI runs
(3.10 and 3.12, with the NumPy releases they resolve) have not been
measured; a failure there prints every measured value, so the budgets
can be set from those numbers rather than widened on a guess.
"""

from __future__ import annotations

import gc
import tracemalloc

from repro.core.config import SimConfig
from repro.workloads.suite import Scale, build_benchmark

MIB = 1 << 20

#: (benchmark, scale) -> (peak, held) budget in MiB.  Measured on CPython
#: 3.11 with NumPy 2.4.6, seed 1, as (peak, held): bfs 16.1/3.7, nw 3.4/3.3, spmv 7.5/3.8,
#: streamcluster 4.1/3.9, graphsample 31.1/9.6.  The full-size generators
#: read 33.3/4.6, 5.3/5.3, 45.5/4.1, 25.1/24.9 and 105.3/9.9.
BUDGETS_MIB = {
    ("bfs", "QUICK"): (21.0, 5.0),
    ("nw", "QUICK"): (4.5, 4.5),
    ("spmv", "TINY"): (10.0, 5.0),
    ("streamcluster", "PAPER"): (5.5, 5.5),
    ("graphsample", "TINY"): (40.0, 12.5),
}


def measure(name: str, scale: str) -> tuple[float, float]:
    """(peak, held) MiB of one ``build_benchmark`` call at seed 1."""
    config = SimConfig()
    gc.collect()
    tracemalloc.start()
    try:
        trace = build_benchmark(name, config, Scale[scale], seed=1)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del trace
    return peak / MIB, held / MIB


def test_trace_build_memory_within_budget():
    rows = []
    over = []
    for (name, scale), budget in BUDGETS_MIB.items():
        measured = measure(name, scale)
        for label, value, limit in zip(("peak", "held"), measured, budget):
            rows.append(f"{name} {scale} {label}: {value:.2f} MiB (budget {limit:.1f})")
            if value > limit:
                over.append(f"{name} {scale} {label}")
    assert not over, "over budget: " + ", ".join(over) + "\n" + "\n".join(rows)
