"""Memory-controller shell shared by every scheduling policy (Fig. 1).

Pipeline implemented here:

  arrivals -> read/write queues -> [policy: transaction scheduler] ->
  per-bank command queues -> command scheduler -> GDDR5 channel

Responsibilities of this base class:

* bounded read/write queues with overflow backpressure buffers;
* write-to-read forwarding (a read hitting a buffered write is answered
  from the write queue);
* the write-drain FSM with high/low watermarks, including opportunistic
  drains while the read side is idle (§II-C);
* the bank-group-aware round-robin command scheduler that issues
  PRE/ACT/RD/WR respecting all device timing, in queue order per bank;
* event pumping: the controller never polls — it computes the next time
  any command could issue and sleeps until then or until an arrival.

Subclasses implement the *transaction scheduler*: how read requests move
from their sorter into the command queues (`_schedule_reads`), plus
optional reactions to warp-group completion tags and coordination
messages.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from repro.core.config import SimConfig
from repro.core.engine import Engine
from repro.core.request import MemoryRequest
from repro.core.stats import ChannelStats
from repro.dram.channel import Channel
from repro.dram.commands import CommandKind
from repro.mc.command_queue import CommandQueues

__all__ = ["MemoryController"]

# Enum members resolved once: the command scheduler's inner loop touches
# these per candidate bank, and Enum attribute access is a descriptor call.
_ACT = CommandKind.ACT
_PRE = CommandKind.PRE
_RD = CommandKind.RD
_WR = CommandKind.WR


class MemoryController:
    """Base class for all memory controllers."""

    # Registry name; subclasses override.
    name = "base"

    def __init__(
        self,
        engine: Engine,
        channel_id: int,
        config: SimConfig,
        stats: ChannelStats,
        deliver_read: Callable[[MemoryRequest], None],
    ) -> None:
        self.engine = engine
        self.channel_id = channel_id
        self.config = config
        self.mc = config.mc
        self.t = config.dram_timing
        self.org = config.dram_org
        self.stats = stats
        self.deliver_read = deliver_read
        self.channel = Channel(self.org, self.t)
        self.cq = CommandQueues(self.org, self.mc.command_queue_depth)

        #: Called with each DRAM read's controller latency in ns when its
        #: data is scheduled (the interval sampler sets it); None when
        #: nothing listens.
        self.on_read_done: Optional[Callable[[float], None]] = None

        # Write queue and an index by line address for read forwarding.
        # The index covers the overflow buffer too: a read must see every
        # buffered write, wherever backpressure parked it.
        self.write_queue: list[MemoryRequest] = []
        self._wq_index: dict[int, MemoryRequest] = {}
        self._write_overflow: deque[MemoryRequest] = deque()

        # Read-side overflow (backpressure beyond the 64-entry read queue).
        self._read_overflow: deque[MemoryRequest] = deque()
        self._reads_pending = 0  # requests admitted to the sorter

        # Write drain FSM.
        self.draining = False
        self._drain_reason = ""

        # Command-scheduler round-robin pointers.
        self._num_bank_groups = self.org.num_bank_groups  # a property: read once
        self._group_ptr = 0
        self._bank_ptr = [0] * self._num_bank_groups
        # Visit orders are pure functions of the pointers, which cycle
        # through at most num_bank_groups * banks_per_group**num_bank_groups
        # states — memoize them instead of rebuilding the list every scan.
        self._order_cache: dict[tuple, list[int]] = {}

        # Next-legal-issue cache: the result of one full bank scan —
        # ``(cq_version, channel_version, entries, wake)`` where entries is
        # the scan-ordered list of ``(bank, req, kind, earliest)`` and
        # wake the controller-wide minimum earliest.  Valid until either
        # version moves (command issued, queue mutated, refresh adjusted
        # timing): earliest-issue answers are time-shift exact under
        # unchanged state (``earliest(t1) = max(t1, earliest(t0))``), so a
        # pump wake with a fresh cache issues from an O(1) lookup instead
        # of re-scanning all banks and re-deriving their timing.
        self._scan_cache: Optional[tuple] = None

        # Pump arming.
        self._armed: Optional[int] = None

        self.age_threshold_ps = int(self.mc.age_threshold_ns * 1000)

        # Refresh bookkeeping (only used when timing.refresh_enabled).
        self._next_refresh = self.t.trefi_ps

    # ------------------------------------------------------------------
    # policy hooks
    # ------------------------------------------------------------------
    def _accept_read(self, req: MemoryRequest) -> None:
        """Admit a read into the policy's sorter structure."""
        raise NotImplementedError

    def _schedule_reads(self, now: int) -> None:
        """Move read requests from the sorter into the command queues."""
        raise NotImplementedError

    def _sorter_empty(self) -> bool:
        """True when the policy holds no pending (unscheduled) reads."""
        raise NotImplementedError

    def _mark_group_complete(self, key: tuple[int, int], expected: int) -> None:
        """Warp-group ``key`` will comprise ``expected`` requests here.

        Models the paper's tag on the group's last request: once the
        controller has admitted ``expected`` requests of the group, no
        more will come and the group is schedulable.
        """
        # Baseline policies ignore warp-group boundaries.

    def receive_coordination(self, key: tuple[int, int], remote_score: int) -> None:
        """A peer controller selected warp-group ``key`` (WG-M, §IV-C)."""
        # Non-coordinating policies ignore messages.

    # ------------------------------------------------------------------
    # external interface (called by the memory partition / L2 miss path)
    # ------------------------------------------------------------------
    def receive_read(self, req: MemoryRequest) -> None:
        req.t_mc_arrival = self.engine.now
        # Forward from a buffered write to the same line, if any.
        fw = self._wq_index.get(req.addr)
        if fw is not None:
            req.serviced_by = "wq"
            req.t_data = self.engine.now + self.t.tcas_ps
            self.engine.schedule_at(req.t_data, self.deliver_read, req)
            self.resolve_read(req, to_dram=False)
            return
        req.serviced_by = "dram"
        if self._reads_pending >= self.mc.read_queue_entries or self._read_overflow:
            self.stats.read_queue_full_events += 1
            self._read_overflow.append(req)
        else:
            self._reads_pending += 1
            self._accept_read(req)
        # Resolve only after the request is admitted: if it closes its
        # load's group, the size announcement must not precede it.
        if req.transaction is not None:
            req.transaction.note_dram_bound(req)
        self.resolve_read(req, to_dram=True)
        self._kick()

    def resolve_read(self, req: MemoryRequest, to_dram: bool) -> None:
        """``req`` finished its L2 lookup on this channel (admitted to this
        controller when ``to_dram``); if it closes its load's group here,
        announce the group's size (§IV-B, see LoadTransaction)."""
        if req.transaction is not None:
            expected = req.transaction.note_resolved(req, to_dram)
            if expected:
                self.receive_group_complete(req.warp, expected)

    def receive_write(self, req: MemoryRequest) -> None:
        req.t_mc_arrival = self.engine.now
        # Index every buffered write — including overflowed ones — so
        # write-to-read forwarding sees it; the newest write to a line wins.
        self._wq_index[req.addr] = req
        if len(self.write_queue) >= self.mc.write_queue_entries or self._write_overflow:
            self._write_overflow.append(req)
        else:
            self._admit_write(req)
        self._kick()

    def receive_group_complete(self, key: tuple[int, int], expected: int) -> None:
        self._mark_group_complete(key, expected)
        self._kick()

    def _admit_write(self, req: MemoryRequest) -> None:
        # The forwarding index is maintained at receive time (it must not
        # be reset here: an older overflow entry admitted later would
        # shadow a newer write to the same line).
        self.write_queue.append(req)

    # ------------------------------------------------------------------
    # pump
    # ------------------------------------------------------------------
    def _kick(self, at: Optional[int] = None) -> None:
        now = self.engine.now
        t = now if at is None or at <= now else at
        if self._armed is not None and self._armed <= t:
            return
        self._armed = t
        self.engine.schedule_at(t, self._pump)

    def _pump(self) -> None:
        now = self.engine.now
        if self._armed != now:
            # A stale wake-up: a later kick superseded this event (or it
            # was already claimed by a same-time twin).  Running it would
            # duplicate the re-arm chain, so bail out.
            return
        self._armed = None
        self._drain_overflow()
        self._update_drain_state()
        if self.draining:
            self._schedule_writes(now)
        else:
            self._schedule_reads(now)
        next_t = self._issue_one_command(now)
        if next_t is not None:
            self._kick(next_t)

    def _drain_overflow(self) -> None:
        while self._read_overflow and self._reads_pending < self.mc.read_queue_entries:
            req = self._read_overflow.popleft()
            self._reads_pending += 1
            self._accept_read(req)
        while self._write_overflow and len(self.write_queue) < self.mc.write_queue_entries:
            self._admit_write(self._write_overflow.popleft())

    # ------------------------------------------------------------------
    # write drain FSM
    # ------------------------------------------------------------------
    def _read_side_idle(self) -> bool:
        return (
            self._sorter_empty()
            and not self._read_overflow
            and self.cq.pending_reads() == 0
        )

    def _update_drain_state(self) -> None:
        wq = len(self.write_queue)
        if not self.draining:
            if wq >= self.mc.write_high_watermark:
                self.draining = True
                self._drain_reason = "watermark"
                self.stats.write_drains += 1
            elif wq > 0 and self._read_side_idle():
                self.draining = True
                self._drain_reason = "idle"
        else:
            if wq <= self.mc.write_low_watermark and self._drain_reason == "watermark":
                self.draining = False
            elif self._drain_reason == "idle" and (wq == 0 or not self._read_side_idle()):
                # Opportunistic drains yield to newly arrived reads.
                self.draining = False

    def _schedule_writes(self, now: int) -> None:
        """FR-FCFS write drain: prefer row hits, then oldest, per bank."""
        cq = self.cq
        full = cq.full
        predicted_hit = cq.predicted_hit
        while self.draining and self.write_queue:
            # Pick the best write across banks with queue space.
            best = None
            best_key = None
            for w in self.write_queue:
                if w.bank in full:
                    continue
                key = (0 if predicted_hit(w.bank, w.row) else 1, w.t_mc_arrival, w.req_id)
                if best_key is None or key < best_key:
                    best, best_key = w, key
            if best is None:
                return
            self.write_queue.remove(best)
            if self._wq_index.get(best.addr) is best:
                del self._wq_index[best.addr]
            cq.insert(best, now)
            self.stats.drain_writes += 1
            self._update_drain_state()

    # ------------------------------------------------------------------
    # command scheduler (bank-group aware round robin)
    # ------------------------------------------------------------------
    def _bank_order(self) -> list[int]:
        """Visit banks interleaving bank groups first (GDDR5 command policy)."""
        key = (self._group_ptr, tuple(self._bank_ptr))
        order = self._order_cache.get(key)
        if order is None:
            ng = self._num_bank_groups
            bpg = self.org.banks_per_group
            order = []
            for step in range(bpg):
                for gi in range(ng):
                    g = (self._group_ptr + gi) % ng
                    b = g * bpg + (self._bank_ptr[g] + step) % bpg
                    order.append(b)
            self._order_cache[key] = order
        return order

    def _issue_after(self, bank: int, req: MemoryRequest, kind, now: int) -> Optional[int]:
        """Issue ``kind`` on ``bank`` and return the follow-up wake time."""
        self._do_issue(bank, req, kind, now)
        # Advance the round-robin pointers past this bank.
        g = bank // self.org.banks_per_group
        self._group_ptr = (g + 1) % self._num_bank_groups
        self._bank_ptr[g] = (bank % self.org.banks_per_group + 1) % self.org.banks_per_group
        if not self.cq.empty() or not self._sorter_empty() or self.write_queue:
            return now + self.t.tck_ps
        return None

    def _issue_one_command(self, now: int) -> Optional[int]:
        """Issue at most one DRAM command at ``now``.

        Returns the next instant worth waking at, or None when idle.
        """
        if self.t.refresh_enabled:
            wake = self._refresh_gate(now)
            if wake is not None:
                return wake
        if self.channel.next_cmd_free > now:
            if self.cq.empty():
                return None
            return self.channel.next_cmd_free
        cache = self._scan_cache
        if cache is not None:
            cq_v, ch_v, entries, wake = cache
            if cq_v == self.cq.version and ch_v == self.channel.version:
                # Nothing changed since the scan: the cached earliest-issue
                # times are still exact (time-shifted to ``now``), so the
                # first now-ready entry is precisely what a re-scan would
                # pick.  The common case is waking exactly at ``wake``.
                if wake > now:
                    return wake
                for bank, req, kind, earliest in entries:
                    if earliest <= now:
                        return self._issue_after(bank, req, kind, now)
                return wake  # unreachable: wake <= now implies a ready entry
            self._scan_cache = None
        # Fresh scan.  The channel-global terms of each earliest-issue
        # query are hoisted once (scan_terms); the loop folds in only the
        # candidate bank's own state, combining to the exact value the
        # earliest_act/earliest_pre/earliest_col calls it replaces would
        # return (see Channel.scan_terms).
        channel = self.channel
        banks = channel.banks
        queues = self.cq.queues
        base, act_t, col_rd, col_wr, ccd_same_t, ccd_diff_t, col_group = (
            channel.scan_terms(now)
        )
        best_earliest: Optional[int] = None
        entries = []
        for bank in self._bank_order():
            q = queues[bank]
            if not q:
                continue
            req = q[0]
            b = banks[bank]
            open_row = b.open_row
            if open_row == req.row:
                if req.is_write:
                    kind = _WR
                    earliest = col_wr
                else:
                    kind = _RD
                    earliest = col_rd
                ccd_t = ccd_same_t if b.group == col_group else ccd_diff_t
                if ccd_t > earliest:
                    earliest = ccd_t
                if b.earliest_col > earliest:
                    earliest = b.earliest_col
            elif open_row is None:
                kind = _ACT
                earliest = act_t if act_t > b.earliest_act else b.earliest_act
            else:
                kind = _PRE
                earliest = base if base > b.earliest_pre else b.earliest_pre
            if earliest <= now:
                return self._issue_after(bank, req, kind, now)
            entries.append((bank, req, kind, earliest))
            if best_earliest is None or earliest < best_earliest:
                best_earliest = earliest
        if best_earliest is not None:
            self._scan_cache = (
                self.cq.version, self.channel.version, entries, best_earliest
            )
        return best_earliest

    def _do_issue(self, bank: int, req: MemoryRequest, kind: CommandKind, now: int) -> None:
        if kind == CommandKind.ACT:
            self.channel.issue_act(bank, req.row, now)
            self.stats.activates += 1
            req.needed_act = True
        elif kind == CommandKind.PRE:
            self.channel.issue_pre(bank, now)
            self.stats.precharges += 1
        else:
            data_end = self.channel.issue_col(bank, req.is_write, now)
            self.cq.pop(bank)
            self._on_column_issued(req, now)
            req.t_data = data_end
            req.was_row_hit = not req.needed_act
            if req.was_row_hit:
                self.stats.row_hits += 1
            else:
                self.stats.row_misses += 1
            if req.is_write:
                self.stats.writes += 1
            else:
                self.stats.reads += 1
                self._reads_pending -= 1
                self.stats.sorter_wait.add((req.t_scheduled - req.t_mc_arrival) / 1000.0)
                self.stats.service_time.add((data_end - req.t_scheduled) / 1000.0)
                if self.on_read_done is not None:
                    self.on_read_done((data_end - req.t_mc_arrival) / 1000.0)
                self.engine.schedule_at(data_end, self.deliver_read, req)

    def _on_column_issued(self, req: MemoryRequest, now: int) -> None:
        """Hook for policies that track per-request completion (WG family)."""

    # ------------------------------------------------------------------
    # refresh (optional fidelity knob; see DRAMTimingConfig)
    # ------------------------------------------------------------------
    def _refresh_gate(self, now: int) -> Optional[int]:
        """All-bank refresh every tREFI.

        Returns a wake-up instant while a refresh is being set up or in
        progress; None when normal command issue may proceed.  Intervals
        that elapse while the controller is completely idle are skipped —
        an idle-bank refresh costs nothing that the model measures.
        """
        if now < self._next_refresh:
            return None
        if self.cq.empty() and self._sorter_empty() and not self.write_queue:
            while self._next_refresh <= now:
                self._next_refresh += self.t.trefi_ps
            return None
        # Close any open banks first (respecting their precharge timing).
        open_banks = [b.index for b in self.channel.banks if b.open_row is not None]
        if open_banks:
            if self.channel.next_cmd_free > now:
                return self.channel.next_cmd_free
            earliest = None
            for bank in open_banks:
                t_pre = self.channel.earliest_pre(bank, now)
                if t_pre <= now:
                    self.channel.issue_pre(bank, now)
                    self.stats.precharges += 1
                    return now + self.t.tck_ps
                if earliest is None or t_pre < earliest:
                    earliest = t_pre
            return earliest
        # All banks idle: run the refresh cycle.
        end = now + self.t.trfc_ps
        for bank in self.channel.banks:
            bank.earliest_act = max(bank.earliest_act, end)
        self.channel.next_cmd_free = max(self.channel.next_cmd_free, end)
        self.channel.version += 1  # timing state mutated outside an issue
        self.stats.refreshes += 1
        self._next_refresh += self.t.trefi_ps
        return end

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def pending_work(self) -> int:
        """Requests anywhere in the controller (for end-of-run detection)."""
        return (
            self._reads_pending
            + len(self._read_overflow)
            + len(self.write_queue)
            + len(self._write_overflow)
            + self.cq.total_occupancy()
        )

    def sync_stats(self) -> None:
        """Fold channel-level counters into the stats object."""
        self.stats.data_bus_busy_ps = self.channel.data_bus_busy_ps

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(ch{self.channel_id}, reads={self._reads_pending}, "
            f"writes={len(self.write_queue)}, cq={self.cq.total_occupancy()})"
        )
