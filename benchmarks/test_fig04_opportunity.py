"""E-F4: regenerate Fig. 4 (room for improvement).

Paper: perfect coalescing (one request per load) is worth ~5x — an
unrealizable bound; zero main-memory latency divergence is worth +43%,
the true headroom of warp-aware scheduling.
"""

from conftest import emit


def test_fig4_opportunity(reproduce):
    result = reproduce("fig4")
    emit(result)
    pc = result.headline["perfect_coalescing_x"]
    zd = result.headline["zero_divergence_x"]
    # Perfect coalescing is a multiple-x bound, far above zero-divergence.
    assert pc > 2.0
    assert pc > zd
    # Eliminating divergence alone yields a large double-digit gain.
    assert 1.15 <= zd <= 2.5
    # Both bounds beat the baseline on every benchmark.
    for row in result.rows[:-1]:
        assert row[1] > 1.0
        assert row[2] > 1.0
