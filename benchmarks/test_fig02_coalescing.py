"""E-F2: regenerate Fig. 2 (coalescing efficiency of the irregular suite).

Paper: 56% of loads issue more than one memory request after coalescing;
the suite averages 5.9 requests per load.
"""

from conftest import emit


def test_fig2_coalescing(reproduce):
    result = reproduce("fig2")
    emit(result)
    assert len(result.rows) == 12  # 11 irregular benchmarks + MEAN
    # Shape: a majority-divergent suite with several requests per load.
    assert 0.40 <= result.headline["frac_divergent"] <= 0.75
    assert 3.5 <= result.headline["requests_per_load"] <= 8.0
    # Every benchmark exhibits MAI (the Table III selection criterion).
    for row in result.rows[:-1]:
        assert row[2] > 1.0
