"""E-F11: regenerate Fig. 11 (DRAM bandwidth utilization).

Paper: prioritizing warp-groups interrupts row-hit streaks and costs
WG-M bandwidth; the MERB policy (WG-Bw) recovers it — >14% better
utilization than WG-M — by hiding row-miss overheads behind row hits in
other banks.
"""

from conftest import emit


def test_fig11_bandwidth_utilization(reproduce):
    result = reproduce("fig11")
    emit(result)
    h = result.headline
    # The MERB governor improves utilization over plain WG-M...
    assert h["wgbw_over_wgm"] > 0.0
    assert h["bw_wg-bw"] > h["bw_wg-m"]
    # ...and WG-W does not burn the recovered bandwidth.
    assert h["bw_wg-w"] > h["bw_wg-m"] * 0.98
