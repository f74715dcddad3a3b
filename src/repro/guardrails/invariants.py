"""Online invariant monitor: conservation, occupancy, forward progress.

The monitor is wired into :class:`~repro.gpu.system.GPUSystem` when
``GuardrailConfig.invariants`` is set.  It observes the simulation from
two angles:

* **edge hooks** — ``note_inject`` / ``note_retire`` / ``note_warp_done``
  are called synchronously from the system's routing callbacks, so the
  request-conservation ledger is exact (no sampling gap);
* **periodic sweeps** — ``check`` runs between event-queue segments at
  ``check_period_ns`` cadence and audits state that only drifts over
  time: queue occupancies against their configured capacities, warp-group
  entries against retired warps, request age, and per-controller command
  progress.

Every failure raises :class:`InvariantViolation` carrying the violated
law's name, the simulation instant, and a diagnostic precise enough to
start debugging from (request ids, channel ids, ages in ns).

The monitor holds only plain dicts/sets/ints, so it pickles and rides
along inside checkpoint snapshots; a restored run resumes watching with
its ledger intact.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.request import MemoryRequest
from repro.mc.row_sorter import RowSorter

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.gpu.system import GPUSystem
    from repro.guardrails.config import GuardrailConfig

__all__ = ["InvariantMonitor", "InvariantViolation"]


class InvariantViolation(RuntimeError):
    """A simulation invariant was broken (run aborted).

    ``law`` is one of ``conservation``, ``occupancy``, ``warp-group``,
    ``stale-request``, ``stuck-mc``.
    """

    def __init__(self, law: str, time_ps: int, detail: str) -> None:
        self.law = law
        self.time_ps = time_ps
        self.detail = detail
        super().__init__(f"[{law}] t={time_ps / 1000:.1f}ns: {detail}")


class InvariantMonitor:
    """Watches one :class:`GPUSystem` run for broken invariants."""

    def __init__(self, config: "GuardrailConfig") -> None:
        self.stale_ps = int(config.stale_request_ns * 1000)
        self.stuck_mc_ps = int(config.stuck_mc_ns * 1000)
        # Conservation ledger: req_id -> (request, inject instant).
        self.outstanding: dict[int, tuple[MemoryRequest, int]] = {}
        self.reads_injected = 0
        self.reads_retired = 0
        self.writes_injected = 0
        self.done_warps: set[tuple[int, int]] = set()
        # Per-controller progress snapshots: commands_issued at the last
        # sweep where the count changed, and when that was.
        self._mc_progress: dict[int, tuple[int, int]] = {}
        self.checks_run = 0

    # ------------------------------------------------------------------
    # edge hooks (called from GPUSystem routing callbacks)
    # ------------------------------------------------------------------
    def note_inject(self, req: MemoryRequest, now_ps: int) -> None:
        """A coalesced request entered the memory system."""
        if req.is_write:
            self.writes_injected += 1
            return  # stores are fire-and-forget: no reply to conserve
        if req.req_id in self.outstanding:
            raise InvariantViolation(
                "conservation", now_ps, f"{req!r} injected twice"
            )
        self.outstanding[req.req_id] = (req, now_ps)
        self.reads_injected += 1

    def note_retire(self, req: MemoryRequest, now_ps: int) -> None:
        """A reply left the memory system toward its SM."""
        if self.outstanding.pop(req.req_id, None) is None:
            raise InvariantViolation(
                "conservation",
                now_ps,
                f"{req!r} retired but not in flight "
                "(duplicate response, or a reply for a request never injected)",
            )
        self.reads_retired += 1

    def note_warp_done(self, key: tuple[int, int]) -> None:
        self.done_warps.add(key)

    # ------------------------------------------------------------------
    # periodic sweep
    # ------------------------------------------------------------------
    def check(self, system: "GPUSystem", now_ps: int) -> None:
        """Audit slow-drift state; raises on the first broken invariant."""
        self.checks_run += 1
        self._check_occupancy(system, now_ps)
        self._check_warp_groups(system, now_ps)
        self._check_stale_requests(now_ps)
        self._check_stuck_mcs(system, now_ps)

    def _check_occupancy(self, system: "GPUSystem", now_ps: int) -> None:
        for mc in system.mcs:
            cap = getattr(mc, "mc", None)
            if cap is None:  # idealized controllers have no bounded queues
                continue
            pending = getattr(mc, "_reads_pending", None)
            if pending is not None and not 0 <= pending <= cap.read_queue_entries:
                raise InvariantViolation(
                    "occupancy",
                    now_ps,
                    f"channel {mc.channel_id}: read queue holds {pending} "
                    f"of {cap.read_queue_entries} entries",
                )
            wq = getattr(mc, "write_queue", None)
            if wq is not None and len(wq) > cap.write_queue_entries:
                raise InvariantViolation(
                    "occupancy",
                    now_ps,
                    f"channel {mc.channel_id}: write queue holds {len(wq)} "
                    f"of {cap.write_queue_entries} entries",
                )
            cq = getattr(mc, "cq", None)
            if cq is not None:
                # WG-family schedulers insert a whole warp-group once one
                # slot is free, so a bank queue may legally overshoot its
                # nominal depth by the group's per-bank size — bounded by
                # one warp's coalesced lines plus its page walks.
                slack = 2 * system.config.gpu.warp_size - 1
                for bank, q in enumerate(cq.queues):
                    if len(q) > cq.depth + slack:
                        raise InvariantViolation(
                            "occupancy",
                            now_ps,
                            f"channel {mc.channel_id} bank {bank}: command "
                            f"queue holds {len(q)} entries "
                            f"(depth {cq.depth} + group slack {slack})",
                        )
                # The maintained sets the transaction schedulers skip by.
                full = {b for b, q in enumerate(cq.queues) if len(q) >= cq.depth}
                if cq.full != full:
                    raise InvariantViolation(
                        "occupancy",
                        now_ps,
                        f"channel {mc.channel_id}: full-bank set "
                        f"{sorted(cq.full)} but banks {sorted(full)} hold "
                        f">= {cq.depth} commands",
                    )
            sorter = getattr(mc, "sorter", None)
            if isinstance(sorter, RowSorter):
                pending = {b for b, rows in enumerate(sorter.banks) if rows}
                if sorter.pending != pending:
                    raise InvariantViolation(
                        "occupancy",
                        now_ps,
                        f"channel {mc.channel_id}: pending-bank set "
                        f"{sorted(sorter.pending)} but banks {sorted(pending)} "
                        f"hold sorted requests",
                    )

    def _check_warp_groups(self, system: "GPUSystem", now_ps: int) -> None:
        """No controller may hold a group for a warp that already retired."""
        if not self.done_warps:
            return
        for mc in system.mcs:
            # Only warp-aware sorters keep per-warp groups; FR-FCFS-style
            # row sorters have nothing to cross-check here.
            groups = getattr(getattr(mc, "sorter", None), "groups", None)
            if groups is None:
                continue
            for key in groups:
                if key in self.done_warps:
                    raise InvariantViolation(
                        "warp-group",
                        now_ps,
                        f"channel {mc.channel_id}: sorter still holds group "
                        f"(sm={key[0]}, warp={key[1]}) of a finished warp",
                    )

    def _check_stale_requests(self, now_ps: int) -> None:
        oldest_id: Optional[int] = None
        oldest_t = now_ps
        for req_id, (_, t_inject) in self.outstanding.items():
            if t_inject < oldest_t:
                oldest_t = t_inject
                oldest_id = req_id
        if oldest_id is not None and now_ps - oldest_t > self.stale_ps:
            req, _ = self.outstanding[oldest_id]
            raise InvariantViolation(
                "stale-request",
                now_ps,
                f"{req!r} in flight for {(now_ps - oldest_t) / 1000:.1f}ns "
                f"(bound {self.stale_ps / 1000:.0f}ns); "
                f"{len(self.outstanding)} requests outstanding",
            )

    def _check_stuck_mcs(self, system: "GPUSystem", now_ps: int) -> None:
        for mc in system.mcs:
            channel = getattr(mc, "channel", None)
            if channel is None or not hasattr(mc, "pending_work"):
                continue
            issued = channel.commands_issued
            prev = self._mc_progress.get(mc.channel_id)
            if prev is None or issued != prev[0] or mc.pending_work() == 0:
                self._mc_progress[mc.channel_id] = (issued, now_ps)
                continue
            t_progress = prev[1]
            if now_ps - t_progress > self.stuck_mc_ps:
                raise InvariantViolation(
                    "stuck-mc",
                    now_ps,
                    f"channel {mc.channel_id}: {mc.pending_work()} requests "
                    f"pending but no DRAM command for "
                    f"{(now_ps - t_progress) / 1000:.1f}ns "
                    f"(bound {self.stuck_mc_ps / 1000:.0f}ns)",
                )

    # ------------------------------------------------------------------
    # end of run
    # ------------------------------------------------------------------
    def final_check(self, now_ps: int) -> None:
        """After the event queue drains, the ledger must balance."""
        if self.outstanding:
            req, t_inject = next(iter(self.outstanding.values()))
            raise InvariantViolation(
                "conservation",
                now_ps,
                f"{len(self.outstanding)} read(s) injected but never retired "
                f"(e.g. {req!r}, injected at {t_inject / 1000:.1f}ns)",
            )
        if self.reads_injected != self.reads_retired:
            raise InvariantViolation(
                "conservation",
                now_ps,
                f"{self.reads_injected} reads injected, "
                f"{self.reads_retired} retired",
            )
