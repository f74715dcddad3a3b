"""E-PWR (§VI-B): GDDR5 power sensitivity to row-hit-rate changes.

Paper: WG-W's 16% lower row-buffer hit rate raises GDDR5 power by only
~1.8%, because I/O drivers — not the arrays — dominate GDDR5 power.
We assert the methodology's conclusion both on simulated runs and with
the calculator directly at the paper's exact -16% hit-rate point.
"""

from repro.core.config import DRAMTimingConfig
from repro.dram.power import estimate_channel_power

from conftest import emit


def test_sec6b_energy_per_access(reproduce):
    result = reproduce("sec6b")
    emit(result)
    # Energy per access moves by only a few percent between schedulers.
    assert abs(result.headline["mean_energy_delta"]) < 0.10


def test_paper_sensitivity_point():
    """The paper's exact claim, via the calculator: 16% fewer row hits
    (19% more activates at fixed work) costs low-single-digit percent."""
    t = DRAMTimingConfig()

    def deltas():
        base = estimate_channel_power(
            activates=2000, reads=9000, writes=1000,
            data_bus_busy_ps=55_000_000, elapsed_ps=100_000_000, timing=t,
        )
        worse = estimate_channel_power(
            activates=int(2000 * 1.19), reads=9000, writes=1000,
            data_bus_busy_ps=55_000_000, elapsed_ps=100_000_000, timing=t,
        )
        return worse.total_w / base.total_w - 1.0

    delta = deltas()
    assert 0.0 < delta < 0.06
