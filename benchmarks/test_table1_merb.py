"""E-T1: regenerate Table I (MERB values for GDDR5).

The table must match the paper exactly — it is a pure function of the
Table II timing parameters.
"""

from repro.analysis.experiments import table1_merb
from repro.dram.timing import GDDR5_TIMING
from repro.mc.merb import merb_table

from conftest import emit


def test_table1_exact():
    result = table1_merb()
    emit(result)
    values = {row[0]: row[1] for row in result.rows}
    assert values[1] == 31
    assert values[2] == 20
    assert values[3] == 10
    assert values[4] == 7
    assert values[5] == 5
    assert values["6-16"] == 5
    # §IV-D: streaming 31 hits to a single bank reaches ~62% utilization.
    assert abs(result.headline["single_bank_util_at_31"] - 0.62) < 0.005


def test_merb_computation_speed():
    merb_table.cache_clear()
    merb_table(GDDR5_TIMING, 16)
