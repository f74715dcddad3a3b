"""WG: per-controller warp-group scheduling (§IV-B).

A bank-aware shortest-job-first (BASJF) arbiter over *complete*
warp-groups.  Each pump, the transaction scheduler:

1. scores every complete warp-group against the bank table (array score
   1/3 per request + queuing score of the target command queues; group
   score = max over its banks — the drain time of its slowest bank);
2. ranks groups by score (shortest job first); ties go to the group with
   more row hits (lower DRAM power), then to the oldest;
3. pulls the best-ranked group whose target command queues have room, the
   *entire* group at once, so its requests drain together — and repeats
   until queues fill or no group is eligible.

Two hygiene rules keep SJF safe in a real controller:

* groups older than the controller's age threshold rank ahead of
  everything (pure SJF would starve large groups indefinitely);
* if the read queue is full and *no* group is complete (their stragglers
  are stuck behind the queue's own backpressure), the oldest group is
  serviced partially — the deadlock-free equivalent of the sorter
  spilling under pressure.
"""

from __future__ import annotations

from typing import Optional

from repro.core.request import MemoryRequest
from repro.mc.base import MemoryController
from repro.mc.warp_sorter import WarpGroupEntry, WarpSorter

__all__ = ["WGController"]


class WGController(MemoryController):
    name = "wg"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.sorter = WarpSorter()
        # (sorter.version, cq.version) snapshots under which the last
        # pick / pressure fallback found nothing to do.  A "no group has
        # room" outcome is *time-independent* — it depends only on group
        # membership and queue occupancy, never on rank order — so it
        # stays valid until one of those versions moves.
        self._pick_none: Optional[tuple[int, int]] = None
        self._fallback_noop: Optional[tuple[int, int]] = None
        # True when this controller uses the stock rank key, enabling
        # _pick_with_room's inline prefix comparison (the inline copy of
        # the key's first two fields must track _rank_key).
        self._rank_is_default = type(self)._rank_key is WGController._rank_key

    # -- base hooks -----------------------------------------------------------
    def _accept_read(self, req: MemoryRequest) -> None:
        self.sorter.add(req, self.engine.now)

    def _sorter_empty(self) -> bool:
        return self.sorter.empty()

    def _mark_group_complete(self, key: tuple[int, int], expected: int) -> None:
        self.sorter.mark_complete(key, expected, self.engine.now)

    # -- transaction scheduling ---------------------------------------------------
    def _schedule_reads(self, now: int) -> None:
        while True:
            picked = self._pick_with_room(now)
            if picked is None:
                self._pressure_fallback(now)
                return
            entry, score = picked
            self._on_group_selected(entry, score, now)
            self._insert_group(entry, now)

    def _rank_key(self, entry: WarpGroupEntry, score: int, hits: int, now: int):
        """Sort key: over-age groups first, then BASJF with tie-breaks."""
        overage = 0 if now - entry.arrival_ps > self.age_threshold_ps else 1
        return (overage, score, -hits, entry.arrival_ps, entry.key)

    def _pick_with_room(self, now: int) -> Optional[tuple[WarpGroupEntry, int]]:
        """Best-ranked complete group whose command queues have room.

        Skipping blocked groups avoids head-of-line idling: a full bank
        must not keep other banks' work waiting in the sorter.  The
        "first with room in rank order" of the paper's arbiter is
        computed as a single min-scan — identical choice (rank keys end
        in the unique group key, so there are no ties), no sort.  A
        group touching a bank in ``cq.full`` is dropped before it is
        scored: scoring and ranking are pure, so it could only have
        lost.  The reference sort-then-first-with-room pick lives in
        :mod:`repro.fuzz.oracles` (the ``pick-differential`` probe).
        """
        if not self.sorter.n_complete:
            return None
        state = (self.sorter.version, self.cq.version)
        if state == self._pick_none:
            return None
        score_fn = WarpSorter.score
        cq = self.cq
        full = cq.full
        rank_key = self._rank_key  # polymorphic: WG-W/WG-Share override it
        default_rank = self._rank_is_default
        age_threshold = self.age_threshold_ps
        best_key = None
        best: Optional[WarpGroupEntry] = None
        best_score = 0
        # complete_groups() inlined: this min-scan runs per pump over every
        # resident group, and the per-group property/generator dispatch
        # dominates the comparison itself.
        for e in self.sorter.groups.values():
            if e.n_requests == 0 or e.expected is None or e.received < e.expected:
                continue  # not schedulable: empty or incomplete
            if not full.isdisjoint(e.by_bank):
                continue  # a touched bank queue has no room
            score, hits = score_fn(e, cq)
            if default_rank:
                # Inline copy of _rank_key's (overage, score) prefix: a
                # strictly worse prefix cannot beat best_key (keys are
                # compared lexicographically and end in the unique group
                # key), so losers skip the full tuple build.
                overage = 0 if now - e.arrival_ps > age_threshold else 1
                if best_key is not None and (
                    overage > best_key[0]
                    or (overage == best_key[0] and score > best_key[1])
                ):
                    continue
                key = (overage, score, -hits, e.arrival_ps, e.key)
            else:
                key = rank_key(e, score, hits, now)
            if best_key is None or key < best_key:
                best_key = key
                best = e
                best_score = score
        if best is None:
            self._pick_none = state
            return None
        return best, best_score

    def _pressure_fallback(self, now: int) -> None:
        """Escape hatch for the full-queue / no-complete-group deadlock."""
        if self._reads_pending < self.mc.read_queue_entries and not self._read_overflow:
            return
        if (self.sorter.version, self.cq.version) == self._fallback_noop:
            return
        while True:
            best = None
            for entry in self.sorter.groups.values():
                if entry.empty or entry.complete:
                    continue
                if best is None or entry.arrival_ps < best.arrival_ps:
                    best = entry
            if best is None or not self.cq.full.isdisjoint(best.by_bank):
                # Like _pick_with_room's cache: this outcome only moves
                # when membership or queue occupancy does.
                self._fallback_noop = (self.sorter.version, self.cq.version)
                return
            self.stats.fallback_reads += best.n_requests
            self._insert_group(best, now)

    def _on_group_selected(self, entry: WarpGroupEntry, score: int, now: int) -> None:
        """Hook: WG-M broadcasts the selection to peer controllers here."""

    def _insert_group(self, entry: WarpGroupEntry, now: int) -> None:
        # Snapshot: the WG-Bw MERB gate may pull some of this group's own
        # row-hit requests as fillers while we iterate.
        plan = [
            (bank, sorted(reqs, key=lambda r: (r.row, r.t_mc_arrival, r.req_id)))
            for bank, reqs in sorted(entry.by_bank.items())
        ]
        for bank, reqs in plan:
            for req in reqs:
                if req.t_scheduled >= 0:
                    continue  # already scheduled as a MERB filler
                self._insert_request(req, now)

    def _insert_request(self, req: MemoryRequest, now: int) -> None:
        """Move one request from the warp sorter into its command queue.

        WG-Bw overrides this to run the MERB row-miss gate first.
        """
        self.sorter.remove_request(req)
        self.cq.insert(req, now)
