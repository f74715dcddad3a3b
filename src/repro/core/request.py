"""Memory request and warp-group bookkeeping shared by GPU and controllers.

A *warp-group* (paper §IV-A) is the set of memory requests one warp's vector
load contributes to one memory controller.  Because a warp blocks on each
divergent load, a warp has at most one group in flight per controller at a
time; the group key is therefore ``(sm_id, warp_id)``.

The paper closes a group at a controller by tagging the warp's *last
request to that controller*: after coalescing and address routing the SM
sets :attr:`MemoryRequest.closes_group` on the last request it sends to
each channel (page walks included).  The crossbar keeps per-(SM,
partition) order and the L2 lookup latency is constant, so that request
is also the last of the load's requests on its channel to *resolve* (L2
hit, L2-MSHR merge, write-queue forward, or controller admission).
Whichever component resolves it asks :meth:`LoadTransaction.note_resolved`
for the group's size and announces it to its own controller.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

__all__ = ["MemoryRequest", "LoadTransaction", "warp_key"]


class _ReqIdSource:
    """Monotonic request-id generator whose cursor can be saved/restored.

    Request ids break ties in scheduler sort keys, so a checkpointed run
    must resume issuing ids exactly where it left off to stay bit-identical
    with an uninterrupted run (see ``repro.guardrails.checkpoint``).
    """

    __slots__ = ("next_id",)

    def __init__(self) -> None:
        self.next_id = 0

    def __call__(self) -> int:
        value = self.next_id
        self.next_id += 1
        return value


_req_ids = _ReqIdSource()

# LoadTransaction._dram_bound marker for a channel whose group has closed.
_CLOSED = -1


def warp_key(sm_id: int, warp_id: int) -> tuple[int, int]:
    """Identity of a warp-group owner at a memory controller."""
    return (sm_id, warp_id)


@dataclass(slots=True, eq=False)  # identity semantics: hashable, unique
class MemoryRequest:
    """A single coalesced 128B memory access as seen below the coalescer.

    Address decomposition fields (channel/bank/row) are filled by the
    address mapper before the request enters the interconnect.
    """

    addr: int
    is_write: bool
    sm_id: int
    warp_id: int
    req_id: int = field(default_factory=_req_ids)

    # Address decomposition (set by repro.gpu.address_map.AddressMap.route)
    channel: int = -1
    bank: int = -1
    row: int = -1

    # Lifecycle timestamps, picoseconds (-1 = not reached)
    t_issue: int = -1  # left the coalescer
    t_mc_arrival: int = -1  # entered the controller read/write queue
    t_scheduled: int = -1  # picked by the transaction scheduler
    t_data: int = -1  # DRAM data burst complete
    t_return: int = -1  # arrived back at the SM

    transaction: Optional["LoadTransaction"] = None
    # The load's last request to this channel (the paper's group tag).
    closes_group: bool = False

    # Command-queue state (set by CommandQueues.insert and the command
    # scheduler): §IV-B score at insertion, and whether the bank had to
    # activate its row for it.
    score: int = 0
    needed_act: bool = False

    # Outcome annotations used by statistics
    serviced_by: str = ""  # "l1" | "l2" | "dram" | "wq" (write-queue hit)
    was_row_hit: bool = False

    @property
    def warp(self) -> tuple[int, int]:
        return (self.sm_id, self.warp_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "W" if self.is_write else "R"
        return (
            f"Req#{self.req_id}[{kind} sm{self.sm_id} w{self.warp_id} "
            f"ch{self.channel} b{self.bank} r{self.row}]"
        )


class LoadTransaction:
    """Tracks one warp vector-load from issue until the last reply returns.

    Responsibilities:

    * count outstanding replies so the SM knows when to unblock the warp;
    * record first/last reply times (overall and main-memory-only) for the
      latency-divergence statistics;
    * count, per memory channel, the requests admitted to that controller,
      and hand the count to whoever resolves the channel's closing request
      (the paper's last-request tag).
    """

    __slots__ = (
        "sm_id",
        "warp_id",
        "n_requests",
        "outstanding",
        "t_issue",
        "t_first_return",
        "t_last_return",
        "t_first_dram",
        "t_last_dram",
        "dram_requests",
        "channels_touched",
        "banks_touched",
        "on_complete",
        "_dram_bound",
    )

    def __init__(
        self,
        sm_id: int,
        warp_id: int,
        n_requests: int,
        t_issue: int,
        on_complete: Optional[Callable[["LoadTransaction"], None]] = None,
    ) -> None:
        if n_requests <= 0:
            raise ValueError("a load must carry at least one request")
        self.sm_id = sm_id
        self.warp_id = warp_id
        self.n_requests = n_requests
        self.outstanding = n_requests  # replies still owed to the SM
        self.t_issue = t_issue
        self.t_first_return = -1
        self.t_last_return = -1
        self.t_first_dram = -1  # replies serviced by the memory system only
        self.t_last_dram = -1
        self.dram_requests = 0
        self.channels_touched: set[int] = set()
        self.banks_touched: set[tuple[int, int]] = set()
        self.on_complete = on_complete
        # Requests admitted per channel; _CLOSED once the closing request
        # of that channel has resolved.
        self._dram_bound: dict[int, int] = {}

    # -- resolution-side bookkeeping (at L2 slices and controllers) -----------
    def note_resolved(self, req: MemoryRequest, to_dram: bool) -> int:
        """``req`` finished its L2 lookup; returns the group size to announce.

        ``to_dram`` is True when it was admitted to the controller (and so
        joined the warp-group there) — L2 hits, MSHR merges and write-queue
        forwards resolve with ``to_dram=False``.  The return value is the
        number of the load's requests admitted on ``req.channel`` when
        ``req`` closes that group and at least one was admitted, else 0.
        """
        channel = req.channel
        count = self._dram_bound.get(channel, 0)
        if count == _CLOSED:
            raise ValueError(
                f"{req!r} resolved after its load's closing request to "
                f"channel {channel}"
            )
        if to_dram:
            count += 1
        if req.closes_group:
            self._dram_bound[channel] = _CLOSED
            return count
        self._dram_bound[channel] = count
        return 0

    def note_dram_bound(self, req: MemoryRequest) -> None:
        """Statistics: a request joined channel ``req.channel``'s group."""
        self.dram_requests += 1
        self.channels_touched.add(req.channel)
        self.banks_touched.add((req.channel, req.bank))

    # -- reply bookkeeping ---------------------------------------------------
    def note_return(self, now_ps: int, req: Optional[MemoryRequest] = None) -> None:
        """A reply reached the SM at ``now_ps``."""
        if self.outstanding <= 0:
            raise ValueError("reply for an already-complete load")
        if self.t_first_return < 0:
            self.t_first_return = now_ps
        self.t_last_return = now_ps
        if req is not None and req.t_data >= 0:
            # Serviced by the main memory system (DRAM or write-queue
            # forward) — the population Fig. 3's divergence gap measures.
            if self.t_first_dram < 0:
                self.t_first_dram = now_ps
            self.t_last_dram = now_ps
        self.outstanding -= 1
        if self.outstanding == 0 and self.on_complete is not None:
            self.on_complete(self)
