"""E-F8: regenerate Fig. 8 (IPC normalized to the GMC baseline).

Paper geomeans over the irregular suite: WG +3.4%, WG-M +6.2%,
WG-Bw +8.4%, WG-W +10.1%.  The shape claims asserted here: the full
warp-aware stack delivers a clear gain, and the bandwidth-aware variants
(WG-Bw/WG-W) beat plain warp-group scheduling.

Thresholds are calibrated at TINY scale with seeds (1, 2); they were
tightened around the buggy pre-depth-cap MERB gate (which overfilled
bank queues past ``command_queue_depth`` and inflated WG-Bw/WG-W) and
re-calibrated after the fix (best policy +2.1% at TINY; see
EXPERIMENTS.md).
"""

from conftest import emit


def test_fig8_normalized_ipc(reproduce):
    result = reproduce("fig8")
    emit(result)
    h = result.headline
    # The headline result: the best policy wins by a clear margin.
    best = max(h["speedup_wg-bw"], h["speedup_wg-w"])
    assert best >= 1.015
    # Bandwidth awareness (MERB) adds over plain warp-group scheduling.
    assert h["speedup_wg-bw"] >= h["speedup_wg"]
    # Every proposed policy is at worst roughly baseline-neutral overall.
    for name in ("wg", "wg-m", "wg-bw", "wg-w"):
        assert h[f"speedup_{name}"] > 0.95
