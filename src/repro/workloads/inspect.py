"""Offline trace inspection.

``trace_signature`` computes, without running a simulation, the
memory-behaviour statistics a :class:`KernelTrace` will exhibit — the same
quantities the paper's Figs. 2/3 report and the synthetic profiles are
calibrated against.  Used by the calibration tests and handy when writing
new workload generators:

    from repro.workloads.inspect import trace_signature
    sig = trace_signature(trace, SimConfig())
    print(sig.requests_per_load, sig.channels_per_divergent_load)
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import SimConfig
from repro.gpu.address_map import AddressMap
from repro.gpu.coalescer import coalesce
from repro.workloads.trace import KernelTrace

__all__ = ["TraceSignature", "trace_signature"]


@dataclass(frozen=True)
class TraceSignature:
    """Static memory-irregularity statistics of a kernel trace."""

    warps: int
    loads: int
    stores: int
    instructions: int
    requests_per_load: float
    frac_divergent_loads: float
    channels_per_divergent_load: float
    banks_per_divergent_load: float
    store_request_ratio: float  # store requests / load requests
    footprint_bytes: int
    distinct_rows: int


def trace_signature(trace: KernelTrace, config: SimConfig | None = None) -> TraceSignature:
    """Analyze a trace against the configured address mapping."""
    cfg = config or SimConfig()
    amap = AddressMap(cfg.dram_org)
    line_bytes = cfg.dram_org.line_bytes

    loads = stores = 0
    load_requests = store_requests = 0
    divergent = 0
    ch_spread_sum = 0
    bank_spread_sum = 0
    lines_seen: set[int] = set()
    rows_seen: set[tuple[int, int, int]] = set()
    lo = None
    hi = 0

    for w in trace.warps:
        for seg in w.segments:
            if seg.mem is None:
                continue
            lines = coalesce(seg.mem.lane_addrs, line_bytes)
            if not lines:
                continue
            if seg.mem.is_write:
                stores += 1
                store_requests += len(lines)
            else:
                loads += 1
                load_requests += len(lines)
            chans = set()
            banks = set()
            for a in lines:
                ch, bank, row = amap.locate(a)
                chans.add(ch)
                banks.add((ch, bank))
                rows_seen.add((ch, bank, row))
                lines_seen.add(a)
                lo = a if lo is None else min(lo, a)
                hi = max(hi, a + line_bytes)
            if not seg.mem.is_write and len(lines) > 1:
                divergent += 1
                ch_spread_sum += len(chans)
                bank_spread_sum += len(banks)

    return TraceSignature(
        warps=len(trace.warps),
        loads=loads,
        stores=stores,
        instructions=trace.total_instructions(),
        requests_per_load=load_requests / loads if loads else 0.0,
        frac_divergent_loads=divergent / loads if loads else 0.0,
        channels_per_divergent_load=(
            ch_spread_sum / divergent if divergent else 0.0
        ),
        banks_per_divergent_load=(
            bank_spread_sum / divergent if divergent else 0.0
        ),
        store_request_ratio=(
            store_requests / load_requests if load_requests else 0.0
        ),
        footprint_bytes=(hi - lo) if lo is not None else 0,
        distinct_rows=len(rows_seen),
    )
