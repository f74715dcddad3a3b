"""Unit tests for the memory partition (L2 slice + controller glue)."""

from repro.core.config import SimConfig
from repro.core.engine import Engine
from repro.core.request import MemoryRequest
from repro.core.stats import SimStats
from repro.gpu.address_map import AddressMap
from repro.gpu.partition import MemoryPartition
from repro.mc.registry import controller_class

from helpers import make_request, record_announcements, tagged_load


class FakeMC:
    """Captures what the partition forwards to the controller."""

    def __init__(self):
        self.reads = []
        self.writes = []
        self.resolved = []

    def receive_read(self, req):
        self.reads.append(req)

    def receive_write(self, req):
        self.writes.append(req)

    def resolve_read(self, req, to_dram):
        self.resolved.append((req, to_dram))


def build(part_id: int = 0, use_l2: bool = True):
    import dataclasses

    cfg = SimConfig()
    if not use_l2:
        cfg = dataclasses.replace(cfg, use_l2=False)
    eng = Engine()
    amap = AddressMap(cfg.dram_org)
    stats = SimStats(cfg.dram_org.num_channels)
    replies = []
    part = MemoryPartition(eng, part_id, cfg, amap, replies.append, stats)
    part.mc = FakeMC()
    return eng, amap, part, replies


def read_req(amap, part_id: int, bank=0, row=0, col=0):
    addr = amap.compose(part_id, bank, row, col)
    req = MemoryRequest(addr=addr, is_write=False, sm_id=0, warp_id=0)
    amap.route(req)
    return req


def test_cold_miss_forwards_to_mc():
    eng, amap, part, replies = build()
    req = read_req(amap, 0)
    part.receive(req)
    eng.run()
    assert part.mc.reads == [req]
    assert replies == []


def test_fill_then_hit():
    eng, amap, part, replies = build()
    req = read_req(amap, 0)
    part.receive(req)
    eng.run()
    part.on_dram_data(req)  # fill
    assert replies == [req]
    again = read_req(amap, 0)
    part.receive(again)
    eng.run()
    assert again.serviced_by == "l2"
    assert replies == [req, again]
    assert part.mc.reads == [req]  # no second DRAM read


def test_mshr_merges_concurrent_misses():
    eng, amap, part, replies = build()
    a = read_req(amap, 0)
    b = read_req(amap, 0)  # same line
    part.receive(a)
    part.receive(b)
    eng.run()
    assert part.mc.reads == [a]  # b merged
    part.on_dram_data(a)
    assert set(replies) == {a, b}


def test_write_allocates_dirty_and_evicts_to_dram():
    eng, amap, part, replies = build()
    cfg = SimConfig()
    sets = cfg.gpu.l2_slice.num_sets
    ways = cfg.gpu.l2_slice.ways
    # Collect channel-0 lines that all map to L2 set 0, enough to overflow
    # the set's associativity with dirty lines.
    addrs = []
    i = 0
    while len(addrs) < ways + 4:
        addr = i * sets * 128  # same set index
        i += 1
        if amap.channel_of(addr) == 0:
            addrs.append(addr)
    for addr in addrs:
        w = MemoryRequest(addr=addr, is_write=True, sm_id=0, warp_id=0)
        amap.route(w)
        part.receive(w)
    eng.run()
    assert part.writebacks >= 4
    assert all(w.is_write for w in part.mc.writes)


def test_write_hit_absorbed():
    eng, amap, part, replies = build()
    w1 = MemoryRequest(addr=amap.compose(0, 0, 1, 0), is_write=True, sm_id=0, warp_id=0)
    amap.route(w1)
    w2 = MemoryRequest(addr=w1.addr, is_write=True, sm_id=0, warp_id=0)
    amap.route(w2)
    part.receive(w1)
    part.receive(w2)
    eng.run()
    assert part.mc.writes == []
    assert part.writebacks == 0


def test_l2_disabled_passthrough():
    eng, amap, part, replies = build(use_l2=False)
    req = read_req(amap, 0)
    part.receive(req)
    eng.run()
    assert part.mc.reads == [req]
    part.on_dram_data(req)
    assert replies == [req]
    w = MemoryRequest(addr=amap.compose(0, 1, 1, 0), is_write=True, sm_id=0, warp_id=0)
    amap.route(w)
    part.receive(w)
    eng.run()
    assert part.mc.writes == [w]


def test_lookup_latency_applied():
    eng, amap, part, replies = build()
    req = read_req(amap, 0)
    part.receive(req)
    assert part.mc.reads == []  # not before the L2 lookup latency
    eng.run()
    assert part.mc.reads == [req]
    assert eng.now >= part.l2_lat_ps


def test_transaction_resolution_on_l2_hit():
    eng, amap, part, replies = build()
    req = read_req(amap, 0)
    part.receive(req)
    eng.run()
    part.on_dram_data(req)
    again = read_req(amap, 0)
    part.receive(again)
    eng.run()
    # The hit resolves at the slice, never admitted to the controller.
    assert part.mc.resolved == [(again, False)]
    assert again.serviced_by == "l2"


# ---------------------------------------------------------------------------
# The group tag (§IV-B): whoever resolves a load's closing request on this
# channel announces how many of the load's requests the controller admitted.
# ---------------------------------------------------------------------------
def build_wired():
    """A partition in front of a real WG controller whose group-size
    announcements are recorded."""
    eng, amap, part, replies = build()
    part.mc = controller_class("wg")(
        eng, 0, part.config, part.sim_stats.channels[0], part.on_dram_data
    )
    return eng, part, replies, record_announcements(part.mc)


def test_closing_l2_hit_announces_the_admitted_requests():
    eng, part, replies, announced = build_wired()
    miss, hit = tagged_load(1, [(0, 1), (1, 2)])
    part.l2.fill(hit.addr)
    for req in (miss, hit):
        part.receive(req)
    eng.run()
    assert (miss.serviced_by, hit.serviced_by) == ("dram", "l2")
    # Announced at the hit's lookup, counting the one admitted miss...
    assert announced == [((0, 1), 1, part.l2_lat_ps)]
    # ...which completes the group, so WG schedules it.
    assert miss.t_data > 0 and set(replies) == {miss, hit}


def test_closing_l2_mshr_merge_announces_the_admitted_requests():
    eng, part, replies, announced = build_wired()
    other = make_request(bank=2, row=3, warp_id=7)  # another warp's fill
    part.receive(other)
    own, merged = tagged_load(1, [(0, 1), (2, 3)])
    assert merged.addr == other.addr
    for req in (own, merged):
        part.receive(req)
    eng.run()
    assert announced == [((0, 1), 1, part.l2_lat_ps)]
    assert part.mc.stats.reads == 2  # own and other; merged rode other's fill
    assert set(replies) == {other, own, merged}


def test_channel_whose_requests_all_hit_the_l2_announces_nothing():
    eng, part, replies, announced = build_wired()
    reqs = tagged_load(1, [(0, 1), (1, 2)])
    for req in reqs:
        part.l2.fill(req.addr)
        part.receive(req)
    eng.run()
    assert announced == []
    assert replies == reqs
    assert part.mc.sorter.empty() and not part.mc.sorter.groups
