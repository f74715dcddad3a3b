"""E-F3: regenerate Fig. 3 (extent of main-memory latency divergence).

Paper: a warp's last request completes at ~1.6x the latency of its first,
and a warp's requests touch 2.5 memory controllers on average.
"""

from conftest import emit


def test_fig3_divergence(reproduce):
    result = reproduce("fig3")
    emit(result)
    # Significant main-memory latency divergence exists under the baseline.
    assert result.headline["last_over_first"] > 1.3
    # Warps spread across multiple controllers (motivates WG-M).
    assert 1.5 <= result.headline["channels_per_warp"] <= 3.5
    # The multi-controller benchmarks (cfd/sp/sssp/spmv) spread the most.
    by_name = {r[0]: r[2] for r in result.rows[:-1]}
    multi = (by_name["cfd"] + by_name["sp"] + by_name["sssp"] + by_name["spmv"]) / 4
    few = (by_name["sad"] + by_name["nw"] + by_name["SS"] + by_name["bfs"]) / 4
    assert multi > few
