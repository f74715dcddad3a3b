"""E-F10: regenerate Fig. 10 (first-to-last reply gap per scheduler).

Paper: warp-group scheduling shrinks the per-warp divergence gap on every
benchmark; WG-M is the most effective where warps spread across many
controllers, while sad/nw/SS/bfs (fewer than 2 controllers per warp) are
already handled by per-controller WG.
"""

from conftest import emit


def test_fig10_divergence(reproduce):
    result = reproduce("fig10")
    emit(result)
    h = result.headline
    # Warp-aware scheduling shrinks the divergence gap suite-wide.
    assert h["divergence_wg"] < h["divergence_gmc"]
    assert h["divergence_wg-m"] < h["divergence_gmc"]
    # Per-benchmark: a clear majority improves under WG.
    improved = sum(1 for row in result.rows[:-1] if row[2] < row[1])
    assert improved >= 8
