"""Unit tests for the SM model: SIMT blocking, issue server, L1 path."""

from repro.core.config import SimConfig
from repro.core.engine import Engine
from repro.core.request import MemoryRequest
from repro.core.stats import SimStats
from repro.gpu.address_map import AddressMap
from repro.gpu.sm import SMCore
from repro.gpu.tlb import PAGE_TABLE_REGION
from repro.workloads.trace import MemOp, Segment, WarpTrace


class SMHarness:
    """An SM wired to a perfect memory system with fixed latency."""

    def __init__(self, warps, config=None, mem_latency_ps=200_000, use_l1=True):
        import dataclasses

        cfg = config or SimConfig()
        if not use_l1:
            cfg = dataclasses.replace(cfg, use_l1=False)
        self.engine = Engine()
        self.stats = SimStats(cfg.dram_org.num_channels)
        self.amap = AddressMap(cfg.dram_org)
        self.sent: list[MemoryRequest] = []
        self.done_warps = []
        self.finish_ps: list[int] = []  # engine time of each warp finish
        self.mem_latency_ps = mem_latency_ps

        def send(req: MemoryRequest) -> None:
            self.amap.route(req)
            self.sent.append(req)
            if req.is_write:
                return  # stores get no reply, as in the real system
            req.t_data = 0  # mark as memory-serviced
            self.engine.schedule(
                self.mem_latency_ps, lambda r=req: self.sm.receive_reply(r)
            )

        def warp_done(w) -> None:
            self.done_warps.append(w)
            self.finish_ps.append(self.engine.now)

        self.sm = SMCore(
            self.engine, 0, cfg, warps,
            send_request=send,
            on_warp_done=warp_done,
            sim_stats=self.stats,
        )

    def run(self):
        self.sm.start()
        self.engine.run(max_events=1_000_000)


def warp(sm_id, wid, segments):
    return WarpTrace(sm_id, wid, segments)


def gather_op(lines, is_write=False):
    lanes = [line * 4096 + 4 * i for i, line in enumerate(lines * (32 // len(lines)))]
    return MemOp(is_write, lanes)


def test_warp_blocks_until_last_reply():
    w = warp(0, 0, [Segment(4, gather_op([1, 2, 3, 4]))])
    h = SMHarness([w])
    h.run()
    assert len(h.done_warps) == 1
    assert len(h.sent) == 4
    rec = h.stats.load_records[0]
    assert rec.n_requests == 4
    # Warp finished only after the last reply.
    assert h.finish_ps[0] >= max(r.t_return for r in h.sent)


def test_issue_server_serializes_compute():
    warps = [warp(0, i, [Segment(100, None)]) for i in range(4)]
    h = SMHarness(warps)
    h.run()
    cfg = SimConfig()
    # 4 warps x 100 instructions at 1 IPC.
    assert h.engine.now >= 400 * cfg.gpu.core_cycle_ps
    assert h.stats.warp_instructions == 400


def test_memory_latency_overlaps_across_warps():
    # Two warps, each: tiny compute then a load. Their memory time overlaps.
    segs = [Segment(1, gather_op([1])), Segment(1, None)]
    h = SMHarness([warp(0, 0, list(segs)), warp(0, 1, [Segment(1, gather_op([9])), Segment(1, None)])])
    h.run()
    total = h.engine.now
    assert total < 2 * h.mem_latency_ps  # not serialized


def test_l1_hit_avoids_second_request():
    segs = [
        Segment(1, gather_op([7])),
        Segment(1, gather_op([7])),  # same line again -> L1 hit
    ]
    h = SMHarness([warp(0, 0, segs)])
    h.run()
    assert len(h.sent) == 1
    assert h.stats.l1_hits == 1
    assert len(h.stats.load_records) == 2


def test_l1_mshr_merges_cross_warp_same_line():
    h = SMHarness([
        warp(0, 0, [Segment(1, gather_op([5]))]),
        warp(0, 1, [Segment(1, gather_op([5]))]),
    ])
    h.run()
    assert len(h.sent) == 1  # second warp merged into the in-flight miss
    assert len(h.done_warps) == 2


def test_without_l1_every_line_is_sent():
    segs = [Segment(1, gather_op([7])), Segment(1, gather_op([7]))]
    h = SMHarness([warp(0, 0, segs)], use_l1=False)
    h.run()
    assert len(h.sent) == 2


def test_store_is_fire_and_forget():
    segs = [Segment(1, gather_op([3], is_write=True)), Segment(50, None)]
    h = SMHarness([warp(0, 0, segs)], mem_latency_ps=10**9)
    h.run()
    # Warp finished despite the write never being acknowledged.
    assert len(h.done_warps) == 1
    assert h.sent[0].is_write


def test_resident_warp_cap_staggers_start():
    import dataclasses

    cfg = SimConfig()
    cfg = dataclasses.replace(cfg, gpu=dataclasses.replace(cfg.gpu, max_warps_per_sm=2))
    warps = [warp(0, i, [Segment(2, gather_op([i + 1]))]) for i in range(6)]
    h = SMHarness(warps, config=cfg)
    h.sm.start()
    assert len(h.sm.pending) == 4  # two of six warps resident
    h.engine.run(max_events=1_000_000)
    assert len(h.done_warps) == 6


def test_fully_masked_load_is_skipped():
    segs = [Segment(3, MemOp(False, [None] * 32))]
    h = SMHarness([warp(0, 0, segs)])
    h.run()
    assert len(h.sent) == 0
    assert len(h.done_warps) == 1
    assert h.stats.loads_issued == 0


def test_instruction_counting():
    segs = [Segment(10, gather_op([1])), Segment(5, None)]
    h = SMHarness([warp(0, 0, segs)])
    h.run()
    # 10 compute + 1 load + 5 compute.
    assert h.stats.warp_instructions == 16


def _closing(sent):
    """Per channel, the requests flagged as closing the load's group."""
    flagged: dict[int, list[MemoryRequest]] = {}
    for req in sent:
        if req.closes_group:
            flagged.setdefault(req.channel, []).append(req)
    return flagged


def test_last_request_per_channel_closes_the_group():
    lines = [1, 2, 3, 4, 5, 6, 7, 8]
    h = SMHarness([warp(0, 0, [Segment(1, gather_op(lines))])], use_l1=False)
    h.run()
    last = {}
    for req in h.sent:
        last[req.channel] = req
    assert len(last) > 1  # the load spans several channels
    assert _closing(h.sent) == {ch: [req] for ch, req in last.items()}


def test_page_walk_closes_the_group_of_its_channel():
    """A walk sent to a channel no line of the load maps to is that
    channel's only request, so it carries the tag."""
    import dataclasses

    cfg = dataclasses.replace(SimConfig(), use_tlb=True, use_l1=False)
    amap = AddressMap(cfg.dram_org)
    page = cfg.gpu.page_bytes
    walk = PAGE_TABLE_REGION & ~(cfg.dram_org.line_bytes - 1)  # page 0's PTE
    walk_channel = amap.decompose(walk)[0]
    lanes = [
        a for a in range(0, page, 128) if amap.decompose(a)[0] != walk_channel
    ]
    h = SMHarness(
        [warp(0, 0, [Segment(1, MemOp(False, lanes[:32]))])], config=cfg
    )
    h.run()
    walks = [r for r in h.sent if r.addr == walk]
    assert len(walks) == 1 and walks[0].channel == walk_channel
    assert _closing(h.sent)[walk_channel] == walks
