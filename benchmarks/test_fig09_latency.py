"""E-F9: regenerate Fig. 9 (effective main-memory latency of warps).

Paper: warp-group scheduling reduces the average effective latency (time
until a warp's last reply) — WG by 9.1% and WG-M by 16.9%; the
bandwidth-aware variants keep the reduction while restoring utilization.
"""

from conftest import emit


def test_fig9_effective_latency(reproduce):
    result = reproduce("fig9")
    emit(result)
    h = result.headline
    # The full stack cuts average warp stall time vs the baseline.
    assert h["latency_reduction_wg-w"] > 0.0
    assert h["latency_reduction_wg-bw"] > 0.0
    # And no policy makes it dramatically worse.
    for key, value in h.items():
        assert value > -0.05, key
