"""E-F12: regenerate Fig. 12 (write intensity / unit-size stalled groups).

Paper: nw, SS and sad are the write-intensive benchmarks; WG-W's
warp-aware write drain helps where both write intensity and the fraction
of unit-size warp-groups stalled by drains are high.
"""

from conftest import emit

WRITE_HEAVY = ("nw", "SS", "sad", "PVC")
READ_MOSTLY = ("bfs", "bh", "spmv", "sssp")


def test_fig12_write_intensity(reproduce):
    result = reproduce("fig12")
    emit(result)
    wi = {row[0]: row[1] for row in result.rows}
    heavy = sum(wi[b] for b in WRITE_HEAVY) / len(WRITE_HEAVY)
    light = sum(wi[b] for b in READ_MOSTLY) / len(READ_MOSTLY)
    # The write-intensity split of Fig. 12 reproduces.
    assert heavy > 2.0 * light
    assert heavy > 0.10
    # Unit-size groups exist everywhere (what drains strand).
    for row in result.rows:
        assert row[2] > 0.1
