"""Warp sorter and bank table (Fig. 6, §IV-B).

The warp sorter replaces the baseline's row sorter: pending reads are
grouped by ``(SM-id, warp-id)`` into *warp-groups*.  A group becomes
eligible for scheduling only once the controller has admitted every
request of the group: the last-request tag of the paper is realized as an
expected-count announcement (see ``LoadTransaction``), so a group is
*complete* when ``received == expected`` — robust against read-queue
backpressure delaying individual requests.

The bank-table scoring of §IV-B is implemented by :meth:`WarpSorter.score`:

* each request scores 1 if it is predicted to hit the row its bank's
  command queue will leave open, 3 if it needs a row cycle
  (tRP+tRCD+tCAS ≈ 3 × tCAS);
* per bank, the group's requests' scores are added to the *queuing score*
  — the summed scores of everything already sitting in that bank's
  command queue;
* the group's score is the maximum over its banks, i.e. the estimated
  drain time of its slowest bank;
* WG-M coordination messages subtract a one-time discount (§IV-C).

Scoring is *incrementally maintained* (docs/performance.md): each entry
keeps, per bank, the row of its first pending request plus the summed
chain contributions of the later requests against their in-group
predecessor.  Those internal terms only change when a request joins or
leaves the group, so evaluating a group's score is O(banks touched) —
one comparison of the first row against the bank's ``last_sched_row``
plus the bank's live ``queue_score`` — instead of a walk over every
request.  The original walk lives on in :mod:`repro.fuzz.oracles` as the
reference half of the fuzzer's scorer-differential oracle.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.core.request import MemoryRequest
from repro.mc.command_queue import SCORE_HIT, SCORE_MISS, CommandQueues

__all__ = ["WarpGroupEntry", "WarpSorter"]


class WarpGroupEntry:
    """Pending requests of one warp at one controller."""

    __slots__ = (
        "key",
        "by_bank",
        "bank_stats",
        "n_requests",
        "received",
        "expected",
        "arrival_ps",
        "completed_ps",
        "score_discount",
        "remote_score",
    )

    def __init__(self, key: tuple[int, int], arrival_ps: int) -> None:
        self.key = key
        self.by_bank: dict[int, list[MemoryRequest]] = {}
        # bank -> [first_row, chain_sum, chain_hits]: the incremental
        # scoring state.  ``first_row`` is the row of ``by_bank[b][0]``;
        # ``chain_sum``/``chain_hits`` are the summed §IV-B contributions
        # (and hit count) of requests [1:] against their predecessor in
        # the list.  The head's own contribution depends on the bank's
        # live ``last_sched_row`` and is computed at evaluation time.
        self.bank_stats: dict[int, list[int]] = {}
        self.n_requests = 0  # pending (not yet scheduled) requests
        self.received = 0  # total requests admitted so far
        self.expected: Optional[int] = None  # announced group size
        self.arrival_ps = arrival_ps
        self.completed_ps = -1  # instant the group became schedulable
        self.score_discount = 0  # accumulated WG-M priority boost
        self.remote_score: Optional[int] = None  # best peer completion score

    @property
    def complete(self) -> bool:
        return self.expected is not None and self.received >= self.expected

    def add(self, req: MemoryRequest) -> None:
        bank = req.bank
        reqs = self.by_bank.get(bank)
        if reqs is None:
            self.by_bank[bank] = [req]
            self.bank_stats[bank] = [req.row, 0, 0]
        else:
            stats = self.bank_stats[bank]
            if req.row == reqs[-1].row:
                stats[1] += SCORE_HIT
                stats[2] += 1
            else:
                stats[1] += SCORE_MISS
            reqs.append(req)
        self.n_requests += 1
        self.received += 1

    def remove(self, req: MemoryRequest) -> None:
        bank = req.bank
        reqs = self.by_bank[bank]
        i = reqs.index(req)
        if len(reqs) == 1:
            del self.by_bank[bank]
            del self.bank_stats[bank]
        else:
            stats = self.bank_stats[bank]
            row = reqs[i].row
            if i + 1 < len(reqs):
                # Unlink the successor's contribution against ``req``...
                if reqs[i + 1].row == row:
                    stats[1] -= SCORE_HIT
                    stats[2] -= 1
                else:
                    stats[1] -= SCORE_MISS
            if i == 0:
                # ...the successor becomes the head (its contribution is
                # now the live first-row term, not a chain term).
                stats[0] = reqs[1].row
            else:
                prev_row = reqs[i - 1].row
                if row == prev_row:
                    stats[1] -= SCORE_HIT
                    stats[2] -= 1
                else:
                    stats[1] -= SCORE_MISS
                if i + 1 < len(reqs):
                    # ...and re-link it to its new predecessor.
                    if reqs[i + 1].row == prev_row:
                        stats[1] += SCORE_HIT
                        stats[2] += 1
                    else:
                        stats[1] += SCORE_MISS
            del reqs[i]
        self.n_requests -= 1

    def requests(self) -> Iterable[MemoryRequest]:
        for reqs in self.by_bank.values():
            yield from reqs

    @property
    def empty(self) -> bool:
        return self.n_requests == 0


class WarpSorter:
    """All warp-group entries of one controller, with scoring."""

    def __init__(self) -> None:
        self.groups: dict[tuple[int, int], WarpGroupEntry] = {}
        # Expected counts that arrived before any of the group's requests.
        self._early_expected: dict[tuple[int, int], int] = {}
        # (bank, row) -> pending requests in arrival order; lets WG-Bw find
        # row-hit filler requests across groups in O(1).
        self.row_index: dict[tuple[int, int], list[MemoryRequest]] = {}
        self._count = 0
        #: Number of complete, non-empty groups (what complete_groups()
        #: yields); lets the transaction scheduler skip ranking entirely
        #: on the frequent nothing-schedulable pumps.
        self.n_complete = 0
        #: Bumped on any membership change (add / remove_request /
        #: mark_complete); with ``CommandQueues.version`` it keys the
        #: transaction scheduler's nothing-to-do caches.
        self.version = 0

    # -- membership ------------------------------------------------------------
    def add(self, req: MemoryRequest, now_ps: int) -> WarpGroupEntry:
        key = req.warp
        entry = self.groups.get(key)
        if entry is None:
            entry = WarpGroupEntry(key, now_ps)
            self.groups[key] = entry
            early = self._early_expected.pop(key, None)
            if early is not None:
                entry.expected = early
            was_complete = False
        else:
            was_complete = entry.complete
        entry.add(req)
        if req.transaction is None:
            # Raw request streams (tests/microbenches) have no SM-side load
            # transaction: the group is always schedulable as-is.
            entry.expected = entry.received
        if entry.complete:
            if entry.completed_ps < 0:
                entry.completed_ps = now_ps
            if not was_complete:
                self.n_complete += 1
        self.row_index.setdefault((req.bank, req.row), []).append(req)
        self._count += 1
        self.version += 1
        return entry

    def mark_complete(self, key: tuple[int, int], expected: int, now_ps: int) -> None:
        """The group's size announcement (the paper's last-request tag)."""
        entry = self.groups.get(key)
        if entry is None:
            self._early_expected[key] = expected
            return
        self.version += 1
        was_complete = entry.complete
        entry.expected = expected
        if entry.complete and entry.completed_ps < 0:
            entry.completed_ps = now_ps
        if entry.empty and entry.complete:
            # All requests were already pulled (e.g. as MERB fillers);
            # the group was never schedulable, so n_complete is untouched.
            del self.groups[key]
        elif entry.complete and not was_complete:
            self.n_complete += 1

    def remove_request(self, req: MemoryRequest) -> None:
        entry = self.groups.get(req.warp)
        if entry is None:
            raise KeyError(f"no group for {req}")
        entry.remove(req)
        pending = self.row_index[(req.bank, req.row)]
        pending.remove(req)
        if not pending:
            del self.row_index[(req.bank, req.row)]
        self._count -= 1
        self.version += 1
        if entry.empty and entry.complete:
            del self.groups[req.warp]
            self.n_complete -= 1

    def complete_groups(self) -> Iterable[WarpGroupEntry]:
        return (e for e in self.groups.values() if e.complete and not e.empty)

    def get(self, key: tuple[int, int]) -> Optional[WarpGroupEntry]:
        return self.groups.get(key)

    def pending_hits(self, bank: int, row: int) -> list[MemoryRequest]:
        """Pending requests to (bank, row) in arrival order (may be empty)."""
        return self.row_index.get((bank, row), [])

    def empty(self) -> bool:
        return self._count == 0

    def __len__(self) -> int:
        return self._count

    # -- scoring (§IV-B) ----------------------------------------------------------
    @staticmethod
    def score(entry: WarpGroupEntry, cq: CommandQueues) -> tuple[int, int]:
        """(group score, row hits) from the maintained per-bank stats.

        O(banks touched): only the head request's hit/miss depends on
        live queue state (``last_sched_row``); every later request's
        contribution was folded into ``chain_sum`` when it joined.
        """
        worst = 0
        hits = 0
        last_rows = cq.last_sched_row
        queue_score = cq.queue_score
        for bank, (first_row, chain_sum, chain_hits) in entry.bank_stats.items():
            if first_row == last_rows[bank]:
                bank_score = queue_score[bank] + SCORE_HIT + chain_sum
                hits += chain_hits + 1
            else:
                bank_score = queue_score[bank] + SCORE_MISS + chain_sum
                hits += chain_hits
            if bank_score > worst:
                worst = bank_score
        score = max(0, worst - entry.score_discount)
        if entry.remote_score is not None and entry.remote_score < score:
            # §IV-C: a peer already started servicing this warp; the local
            # score is lowered by (LC - RC), i.e. clamped to the remote
            # completion score, so the laggard group jumps the queue.
            score = max(0, entry.remote_score)
        return score, hits
