"""Kernel trace containers.

The SM model is trace-driven: each warp executes a list of *segments*, a
segment being a run of compute instructions optionally terminated by one
vector memory instruction (32 lane addresses, some possibly masked off).
This is exactly the information the paper's mechanisms consume — request
addresses, their warp of origin, and the compute spacing that determines
how much latency the SM's multithreading can hide.

Traces persist as JSON documents (:meth:`KernelTrace.save_json` /
:meth:`KernelTrace.load_json`), the *ingestion* format: any external
tracer that can emit per-warp segment lists can produce one and replay
it through the simulator (``kind: trace`` in a scenario spec, see
docs/scenarios.md).  A trace round-trips losslessly through
:meth:`KernelTrace.to_json_dict` / :meth:`KernelTrace.from_json_dict`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

__all__ = [
    "MemOp",
    "Segment",
    "WarpTrace",
    "KernelTrace",
    "TraceFormatError",
    "TRACE_JSON_FORMAT",
    "TRACE_JSON_VERSION",
]

#: Self-identification of the JSON trace interchange format.
TRACE_JSON_FORMAT = "repro-kernel-trace"
TRACE_JSON_VERSION = 1


class TraceFormatError(ValueError):
    """A persisted trace is unreadable or structurally inconsistent.

    Raised by :meth:`KernelTrace.load_json` instead of the raw I/O,
    decoding and JSON exceptions so callers can tell "bad trace file"
    from a programming error.  The message always names the file and,
    where applicable, the offending element.
    """


@dataclass(slots=True)
class MemOp:
    """One vector memory instruction.

    ``lane_addrs`` is a list, or a ``range`` for a unit-stride stream
    (``WarpBuilder.load_stream``); copy it into a list before editing it.
    """

    is_write: bool
    lane_addrs: Sequence[Optional[int]]

    def active_lanes(self) -> int:
        return sum(1 for a in self.lane_addrs if a is not None)


@dataclass(slots=True)
class Segment:
    """``compute_cycles`` ALU instructions, then (optionally) one memory op."""

    compute_cycles: int = 0
    mem: Optional[MemOp] = None

    @property
    def instructions(self) -> int:
        return self.compute_cycles + (1 if self.mem is not None else 0)


@dataclass(slots=True)
class WarpTrace:
    """The full instruction trace of one warp."""

    sm_id: int
    warp_id: int
    segments: list[Segment] = field(default_factory=list)

    def loads(self) -> Iterator[MemOp]:
        return (s.mem for s in self.segments if s.mem is not None and not s.mem.is_write)

    def instructions(self) -> int:
        return sum(s.instructions for s in self.segments)

    def memory_ops(self) -> int:
        return sum(1 for s in self.segments if s.mem is not None)


@dataclass
class KernelTrace:
    """A kernel: warps pre-assigned to SMs."""

    name: str
    warps: list[WarpTrace] = field(default_factory=list)

    def by_sm(self, num_sms: int) -> list[list[WarpTrace]]:
        buckets: list[list[WarpTrace]] = [[] for _ in range(num_sms)]
        for w in self.warps:
            if not 0 <= w.sm_id < num_sms:
                raise ValueError(
                    f"warp {w.warp_id} assigned to SM {w.sm_id} of {num_sms}"
                )
            buckets[w.sm_id].append(w)
        return buckets

    def total_instructions(self) -> int:
        return sum(w.instructions() for w in self.warps)

    def total_memory_ops(self) -> int:
        return sum(w.memory_ops() for w in self.warps)

    # ------------------------------------------------------------------
    # JSON interchange (external trace ingestion)
    # ------------------------------------------------------------------
    def to_json_dict(self) -> dict:
        """Plain-JSON form: each segment is ``[compute]`` (no memory op) or
        ``[compute, is_write, [lane addresses, null = masked]]``."""
        warps = []
        for w in self.warps:
            segments: list[list] = []
            for s in w.segments:
                if s.mem is None:
                    segments.append([s.compute_cycles])
                else:
                    segments.append(
                        [s.compute_cycles, int(s.mem.is_write), list(s.mem.lane_addrs)]
                    )
            warps.append(
                {"sm": w.sm_id, "warp": w.warp_id, "segments": segments}
            )
        return {
            "format": TRACE_JSON_FORMAT,
            "version": TRACE_JSON_VERSION,
            "name": self.name,
            "warps": warps,
        }

    def save_json(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=1)
            fh.write("\n")

    @classmethod
    def from_json_dict(cls, doc, source: str = "<json>") -> "KernelTrace":
        """Validating inverse of :meth:`to_json_dict`; raises
        :class:`TraceFormatError` naming ``source`` and the bad element."""

        def bad(detail: str) -> TraceFormatError:
            return TraceFormatError(f"{source}: {detail}")

        if not isinstance(doc, dict):
            raise bad("top level must be a JSON object")
        if doc.get("format") != TRACE_JSON_FORMAT:
            raise bad(
                f"'format' is {doc.get('format')!r}, "
                f"expected {TRACE_JSON_FORMAT!r}"
            )
        if doc.get("version") != TRACE_JSON_VERSION:
            raise bad(
                f"unsupported trace version {doc.get('version')!r} "
                f"(this build reads version {TRACE_JSON_VERSION})"
            )
        name = doc.get("name")
        if not isinstance(name, str) or not name:
            raise bad("'name' must be a non-empty string")
        raw_warps = doc.get("warps")
        if not isinstance(raw_warps, list) or not raw_warps:
            raise bad("'warps' must be a non-empty list")
        warps: list[WarpTrace] = []
        for wi, rw in enumerate(raw_warps):
            if not isinstance(rw, dict):
                raise bad(f"warps[{wi}] must be an object")
            sm_id, warp_id = rw.get("sm"), rw.get("warp")
            for label, v in (("sm", sm_id), ("warp", warp_id)):
                if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                    raise bad(
                        f"warps[{wi}].{label} must be a non-negative "
                        f"integer, got {v!r}"
                    )
            raw_segs = rw.get("segments")
            if not isinstance(raw_segs, list):
                raise bad(f"warps[{wi}].segments must be a list")
            segments: list[Segment] = []
            for si, rs in enumerate(raw_segs):
                where = f"warps[{wi}].segments[{si}]"
                if not isinstance(rs, list) or len(rs) not in (1, 3):
                    raise bad(
                        f"{where} must be [compute] or "
                        "[compute, is_write, lanes]"
                    )
                compute = rs[0]
                if not isinstance(compute, int) or isinstance(compute, bool) or compute < 0:
                    raise bad(
                        f"{where}: compute cycles must be a non-negative "
                        f"integer, got {compute!r}"
                    )
                mem = None
                if len(rs) == 3:
                    is_write, lanes = rs[1], rs[2]
                    if is_write not in (0, 1, True, False):
                        raise bad(
                            f"{where}: is_write must be 0/1, got {is_write!r}"
                        )
                    if not isinstance(lanes, list) or not lanes:
                        raise bad(f"{where}: lanes must be a non-empty list")
                    addrs: list[Optional[int]] = []
                    for li, a in enumerate(lanes):
                        if a is None:
                            addrs.append(None)
                        elif isinstance(a, int) and not isinstance(a, bool) and a >= 0:
                            addrs.append(a)
                        else:
                            raise bad(
                                f"{where}: lane {li} must be a non-negative "
                                f"integer address or null, got {a!r}"
                            )
                    if all(a is None for a in addrs):
                        raise bad(f"{where}: every lane is masked off")
                    mem = MemOp(is_write=bool(is_write), lane_addrs=addrs)
                segments.append(Segment(compute_cycles=compute, mem=mem))
            warps.append(WarpTrace(sm_id, warp_id, segments))
        return cls(name=name, warps=warps)

    @classmethod
    def load_json(cls, path: str) -> "KernelTrace":
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise TraceFormatError(f"{path}: unreadable ({exc})") from exc
        except UnicodeDecodeError as exc:
            raise TraceFormatError(f"{path}: not UTF-8 text ({exc})") from exc
        except json.JSONDecodeError as exc:
            raise TraceFormatError(f"{path}: not valid JSON ({exc})") from exc
        return cls.from_json_dict(doc, source=path)

