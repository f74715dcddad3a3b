"""Unit tests for the GDDR5 power model (§VI-B)."""

import pytest

from repro.core.config import DRAMTimingConfig
from repro.dram.power import GDDR5PowerParams, estimate_channel_power

T = DRAMTimingConfig()
US = 1_000_000  # ps


def estimate(activates, busy_frac, reads=1000, writes=0, elapsed=100 * US):
    return estimate_channel_power(
        activates=activates,
        reads=reads,
        writes=writes,
        data_bus_busy_ps=int(busy_frac * elapsed),
        elapsed_ps=elapsed,
        timing=T,
    )


def test_io_power_dominates_at_high_utilization():
    p = estimate(activates=2000, busy_frac=0.6)
    assert p.io_w > p.activate_w
    assert p.io_w > p.background_w
    assert p.total_w == pytest.approx(
        p.background_w + p.activate_w + p.array_rw_w + p.io_w
    )


def test_power_monotone_in_activates():
    lo = estimate(activates=1000, busy_frac=0.5)
    hi = estimate(activates=2000, busy_frac=0.5)
    assert hi.total_w > lo.total_w
    assert hi.activate_w == pytest.approx(2 * lo.activate_w)


def test_row_hit_rate_sensitivity_is_small():
    """The §VI-B claim: ~16% fewer row hits costs only a few % power.

    At a fixed access count, a 16% row-hit-rate drop raises the activate
    count by roughly 1/(1-0.16) = 19%; total power must move by well under
    10% because I/O dominates GDDR5 power, and by low single digits with
    9000 reads and 1000 writes.
    """
    for reads, writes, bound in ((1000, 0, 0.10), (9000, 1000, 0.06)):
        base = estimate(activates=2000, busy_frac=0.55, reads=reads, writes=writes)
        worse = estimate(
            activates=int(2000 * 1.19), busy_frac=0.55, reads=reads, writes=writes
        )
        delta = worse.total_w / base.total_w - 1.0
        assert 0.0 < delta < bound, (reads, writes)


def test_zero_elapsed_rejected():
    with pytest.raises(ValueError):
        estimate_channel_power(0, 0, 0, 0, 0, T)


def test_utilization_clamped():
    p = estimate(activates=0, busy_frac=2.0)  # busy > elapsed is clamped
    q = estimate(activates=0, busy_frac=1.0)
    assert p.io_w == pytest.approx(q.io_w)


def test_params_energy_positive():
    params = GDDR5PowerParams()
    assert params.activate_energy_j > 0
    assert params.io_w_at_full_bw > 1.0  # I/O is watts-scale at 6 Gbps
