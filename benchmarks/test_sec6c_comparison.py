"""E-CMP (§VI-C): prior schedulers vs the warp-aware stack.

Paper: SBWAS (best profiled alpha per benchmark) gains only ~2.5% over
the GMC; WAFCFS *loses* 11.2% (in-order warp servicing achieves almost no
row hits on irregular access streams); WG-W beats SBWAS by 7.3%.
"""

from conftest import emit


def test_sec6c_prior_schedulers(reproduce):
    result = reproduce("sec6c")
    emit(result)
    h = result.headline
    # WAFCFS loses against the throughput-optimized baseline.
    assert h["wafcfs_speedup"] < 1.0
    # SBWAS lands between WAFCFS and the full warp-aware stack.
    assert h["sbwas_speedup"] > h["wafcfs_speedup"]
    assert h["wgw_speedup"] > h["wafcfs_speedup"]
    # The ordering that matters: WG-W is the best-performing policy.
    assert h["wgw_speedup"] >= h["sbwas_speedup"] - 0.02
