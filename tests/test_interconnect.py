"""Unit tests for the SM <-> partition crossbar."""

from repro.core.config import GPUConfig, SimConfig
from repro.core.engine import Engine
from repro.gpu.interconnect import Crossbar


def make(num_parts: int = 2) -> tuple[Engine, Crossbar]:
    eng = Engine()
    return eng, Crossbar(
        eng, GPUConfig(num_sms=4), num_parts, SimConfig().dram_org.line_bytes
    )


def test_base_latency_applied():
    eng, xbar = make()
    seen = []
    deliver = xbar.to_partition(0, lambda: seen.append(eng.now))
    eng.run()
    assert seen == [deliver]
    assert deliver >= int(GPUConfig().xbar_latency_ns * 1000)


def test_per_port_serialization_preserves_order():
    eng, xbar = make()
    seen = []
    for i in range(5):
        xbar.to_partition(0, lambda i=i: seen.append(i))
    eng.run()
    assert seen == [0, 1, 2, 3, 4]


def test_port_contention_delays_later_messages():
    eng, xbar = make()
    t1 = xbar.to_partition(0, lambda: None)
    t2 = xbar.to_partition(0, lambda: None)
    assert t2 - t1 == xbar.transfer_ps


def test_distinct_ports_do_not_contend():
    eng, xbar = make()
    t1 = xbar.to_partition(0, lambda: None)
    t2 = xbar.to_partition(1, lambda: None)
    assert t1 == t2


def test_return_path_independent_of_forward():
    eng, xbar = make()
    tf = xbar.to_partition(0, lambda: None)
    tr = xbar.to_sm(0, lambda: None)
    assert tf == tr
