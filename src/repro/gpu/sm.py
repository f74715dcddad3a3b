"""Streaming multiprocessor model.

Warp-granularity SIMT execution: the SM issues one instruction per core
cycle, shared by all resident warps (an issue *server*; warps claim it in
ready order).  A warp executes a trace segment (compute run + optional
vector memory op); a vector load blocks the warp until the last of its
coalesced requests returns — the SIMT property at the heart of the paper's
latency-divergence problem.  Up to ``max_warps_per_sm`` warps are resident;
finished warps are replaced from the pending pool (CTA-style batching).

The L1 is looked up at issue; misses allocate an L1 MSHR (merging
same-line misses across warps) and travel to the owning memory partition.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Callable

from repro.core.config import SimConfig
from repro.core.engine import Engine
from repro.core.request import LoadTransaction, MemoryRequest
from repro.core.stats import LoadRecord, SimStats
from repro.gpu.cache import MSHR, Cache
from repro.gpu.coalescer import coalesce
from repro.gpu.warp import WarpState
from repro.workloads.trace import MemOp, Segment, WarpTrace

__all__ = ["SMCore"]


class SMCore:
    """One SM: issue server, resident warp pool, L1, coalescer."""

    def __init__(
        self,
        engine: Engine,
        sm_id: int,
        config: SimConfig,
        warps: list[WarpTrace],
        send_request: Callable[[MemoryRequest], None],
        on_warp_done: Callable[[WarpState], None],
        sim_stats: SimStats,
    ) -> None:
        self.engine = engine
        self.sm_id = sm_id
        self.config = config
        gpu = config.gpu
        self.core_cycle_ps = gpu.core_cycle_ps
        self.max_warps = gpu.max_warps_per_sm
        self.line_bytes = config.dram_org.line_bytes
        self.l1 = Cache(gpu.l1, self.line_bytes) if config.use_l1 else None
        self.l1_mshr = MSHR()
        self.l1_hit_ps = int(gpu.l1.hit_latency_ns * 1000)
        if config.use_tlb:
            from repro.gpu.tlb import TLB

            self.tlb = TLB(gpu.tlb_entries, gpu.page_bytes)
        else:
            self.tlb = None
        self.send_request = send_request
        self.on_warp_done = on_warp_done
        self.sim_stats = sim_stats

        self.pending: deque[WarpState] = deque(WarpState(t) for t in warps)
        self.issue_free = 0  # issue-server availability (ps)

    # ------------------------------------------------------------------
    # warp lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        for _ in range(min(self.max_warps, len(self.pending))):
            self._activate_next()

    def _activate_next(self) -> None:
        if not self.pending:
            return
        self._run(self.pending.popleft())

    def _run(self, w: WarpState) -> None:
        """Claim issue-server time for the warp's current segment."""
        if w.finished:
            self._finish(w)
            return
        seg = w.current_segment()
        cycles = max(1, seg.instructions)
        start = max(self.engine.now, self.issue_free)
        end = start + cycles * self.core_cycle_ps
        self.issue_free = end
        self.engine.schedule_at(end, self._segment_done, w, seg)

    def _segment_done(self, w: WarpState, seg: Segment) -> None:
        self.sim_stats.warp_instructions += seg.instructions
        w.advance()
        if seg.mem is None:
            self._run(w)
        elif seg.mem.is_write:
            self._issue_store(w, seg.mem)
            self._run(w)  # stores are fire-and-forget
        else:
            self._issue_load(w, seg.mem)

    def _finish(self, w: WarpState) -> None:
        self.on_warp_done(w)
        self._activate_next()

    # ------------------------------------------------------------------
    # memory instructions
    # ------------------------------------------------------------------
    def _issue_load(self, w: WarpState, mem: MemOp) -> None:
        now = self.engine.now
        lines = coalesce(mem.lane_addrs, self.line_bytes)
        if not lines:  # fully masked-off load
            self._run(w)
            return
        # §V extension: unmapped pages add page-table walk reads to the
        # load (the warp blocks on them like on any other request).
        walk_lines: list[int] = []
        if self.tlb is not None:
            seen_walks = set()
            for line in lines:
                if not self.tlb.lookup(line):
                    walk = self.tlb.walk_address(line) & ~(self.line_bytes - 1)
                    if walk not in seen_walks:
                        seen_walks.add(walk)
                        walk_lines.append(walk)
                    self.tlb.fill(line)
        self.sim_stats.loads_issued += 1
        self.sim_stats.requests_issued += len(lines) + len(walk_lines)
        # partial over a bound method (not a closure): the transaction may
        # sit in a checkpoint snapshot, so everything it holds must pickle.
        txn = LoadTransaction(
            self.sm_id,
            w.warp_id,
            n_requests=len(lines) + len(walk_lines),
            t_issue=now,
            on_complete=partial(self._load_done, w),
        )
        # The last request sent to each channel (routed by send_request).
        last: dict[int, MemoryRequest] = {}
        # Page walks bypass the L1 (no locality to exploit; L2-cacheable).
        for walk in walk_lines:
            wreq = MemoryRequest(
                addr=walk, is_write=False, sm_id=self.sm_id, warp_id=w.warp_id
            )
            wreq.transaction = txn
            wreq.t_issue = now
            self.send_request(wreq)
            last[wreq.channel] = wreq
        # L1-hit returns are scheduled interleaved with miss sends, and the
        # engine breaks time ties by schedule order.
        for line in lines:
            if self.l1 is not None and self.l1.lookup(line):
                self.sim_stats.l1_hits += 1
                self.engine.schedule(self.l1_hit_ps, self._l1_hit_return, txn)
                continue
            req = MemoryRequest(
                addr=line, is_write=False, sm_id=self.sm_id, warp_id=w.warp_id
            )
            req.transaction = txn
            req.t_issue = now
            if self.l1 is not None:
                primary = self.l1_mshr.allocate(line, (txn, req))
                if not primary:
                    # Merged into an in-flight L1 miss: no new request.
                    continue
            self.send_request(req)
            last[req.channel] = req
        # Tag each channel's last request (§IV-B).  Nothing is resolved
        # yet: every request is still on the crossbar.
        for req in last.values():
            req.closes_group = True

    def _issue_store(self, w: WarpState, mem: MemOp) -> None:
        lines = coalesce(mem.lane_addrs, self.line_bytes)
        if not lines:
            return
        now = self.engine.now
        for line in lines:
            if self.l1 is not None:
                self.l1.lookup(line)  # write-through: touch, never dirty
            req = MemoryRequest(
                addr=line, is_write=True, sm_id=self.sm_id, warp_id=w.warp_id
            )
            req.t_issue = now
            self.send_request(req)

    def _l1_hit_return(self, txn: LoadTransaction) -> None:
        txn.note_return(self.engine.now)

    def _load_done(self, w: WarpState, txn: LoadTransaction) -> None:
        self.sim_stats.record_load(
            LoadRecord(
                sm_id=txn.sm_id,
                warp_id=txn.warp_id,
                n_requests=txn.n_requests,
                dram_requests=txn.dram_requests,
                channels_touched=len(txn.channels_touched),
                banks_touched=len(txn.banks_touched),
                t_issue=txn.t_issue,
                t_first_return=txn.t_first_return,
                t_last_return=txn.t_last_return,
                t_first_dram=txn.t_first_dram,
                t_last_dram=txn.t_last_dram,
            )
        )
        self._run(w)

    # ------------------------------------------------------------------
    # reply path
    # ------------------------------------------------------------------
    def receive_reply(self, req: MemoryRequest) -> None:
        req.t_return = self.engine.now
        if self.l1 is None:
            assert req.transaction is not None
            req.transaction.note_return(self.engine.now, req)
            return
        waiters = self.l1_mshr.complete(req.addr)
        if not waiters:
            # L1-bypassing request (page-table walk): answer it directly.
            assert req.transaction is not None
            req.transaction.note_return(self.engine.now, req)
            return
        self.l1.fill(req.addr)
        for txn, primary_req in waiters:
            txn.note_return(self.engine.now, primary_req)
