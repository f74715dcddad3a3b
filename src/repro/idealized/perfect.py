"""Idealized opportunity models (Fig. 4).

Two hypothetical systems bound the benefit of warp-aware scheduling:

* **Perfect coalescing** — every vector load produces exactly one memory
  request.  Realized as a trace transform: all lanes of each memory op are
  redirected to the op's first line.  The paper measures ~5x speedup
  (it removes bandwidth demand *and* divergence) and calls it unrealizable.

* **Zero latency divergence** — request counts are unchanged, but once a
  warp's first request has been serviced the rest follow in back-to-back
  succession: bank conflicts are abstracted away for all but one request
  per warp while DRAM bus bandwidth and contention remain modeled.  The
  paper measures +43% — the true headroom of warp-aware scheduling.

The zero-divergence system is realized as a memory-controller subclass
(``ZeroDivergenceController``): the first request of each warp-group pays
the full array access (scheduled FR-FCFS), and the group's remaining
requests are emitted as pure data-bus transfers immediately after it.
"""

from __future__ import annotations

from repro.core.request import MemoryRequest
from repro.mc.frfcfs import FRFCFSController
from repro.workloads.trace import KernelTrace, MemOp, Segment, WarpTrace

__all__ = [
    "perfect_coalescing",
    "ZeroDivergenceController",
    "install_idealized_schedulers",
]


def perfect_coalescing(kernel: KernelTrace) -> KernelTrace:
    """Transform a trace so every memory op touches exactly one line."""
    new_warps = []
    for w in kernel.warps:
        segs = []
        for s in w.segments:
            if s.mem is None:
                segs.append(Segment(s.compute_cycles, None))
                continue
            first = next((a for a in s.mem.lane_addrs if a is not None), None)
            if first is None:
                segs.append(Segment(s.compute_cycles, None))
                continue
            base = first & ~127
            lanes = [
                None if a is None else base + (i * 4) % 128
                for i, a in enumerate(s.mem.lane_addrs)
            ]
            segs.append(Segment(s.compute_cycles, MemOp(s.mem.is_write, lanes)))
        new_warps.append(WarpTrace(w.sm_id, w.warp_id, segs))
    return KernelTrace(kernel.name + "+perfect-coalescing", new_warps)


class ZeroDivergenceController(FRFCFSController):
    """Upper-bound controller: no main-memory latency divergence.

    The first pending request of each warp is serviced normally (FR-FCFS
    over group leaders); every later request of the same warp-group that
    is still pending when the leader's data returns is completed in
    back-to-back bus bursts right after it — modeling "all requests
    return in close succession after the first" while still charging the
    data bus for every transfer.
    """

    name = "zero-div"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._leader_seen: set[tuple[int, int]] = set()

    def _accept_read(self, req: MemoryRequest) -> None:
        key = req.warp
        if req.transaction is not None and key in self._leader_seen:
            # Follower: bypass the bank machinery; pay bus occupancy only.
            self._complete_follower(req)
            return
        self._leader_seen.add(key)
        super()._accept_read(req)

    def _complete_follower(self, req: MemoryRequest) -> None:
        now = self.engine.now
        start = max(now, self.channel.data_bus_free)
        burst = self.channel.bursts_per_access * self.t.tburst_ps
        # The bus is occupied for the burst only; the array latency (tCAS)
        # pipelines with other transfers.
        self.channel.data_bus_free = start + burst
        self.channel.data_bus_busy_ps += burst
        # Timing state mutated outside a command issue: invalidate the
        # command scheduler's next-legal-issue cache.
        self.channel.version += 1
        data_end = start + self.t.tcas_ps + burst
        req.t_data = data_end
        req.was_row_hit = True
        self._reads_pending -= 1  # it never entered the sorter
        self.stats.reads += 1
        self.stats.row_hits += 1
        # Accounted like a scheduled read, but with no sorter wait; it
        # keeps t_scheduled unset (it never enters a command queue).
        self.stats.sorter_wait.add(0.0)
        self.stats.service_time.add((data_end - now) / 1000.0)
        if self.on_read_done is not None:
            self.on_read_done((data_end - req.t_mc_arrival) / 1000.0)
        self.engine.schedule_at(data_end, self.deliver_read, req)

    def _on_column_issued(self, req: MemoryRequest, now: int) -> None:
        # The leader has been serviced: the group key becomes reusable for
        # the warp's next load (followers of *this* load were already
        # handled on arrival because the leader registered first).
        if not req.is_write:
            self._leader_seen.discard(req.warp)


def install_idealized_schedulers() -> None:
    """Register the idealized controllers with the scheduler registry."""
    from repro.mc.registry import SCHEDULERS

    SCHEDULERS.setdefault("zero-div", ZeroDivergenceController)
