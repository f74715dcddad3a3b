"""Delta-debugging failure minimizer.

Given a failing case and a predicate ("does this still trip the same
oracle?"), shrink the case through four stages, each keeping a change
only when the failure survives:

1. **drop warps** — classic ddmin over the warp list;
2. **drop segments** — per-warp greedy bisection of the segment list;
3. **shrink lane masks** — mask off half of each memory op's live lanes;
4. **neutralize config deltas** — reset each field that differs from the
   default :class:`SimConfig` back to its default.

Every candidate evaluation re-runs the targeted oracle, so the budget is
expressed in predicate evaluations (simulations), not wall time — the
minimizer is as deterministic as the simulator itself.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

from repro.core.config import SimConfig
from repro.workloads.mutate import clone_trace, truncate_warps
from repro.workloads.trace import KernelTrace

__all__ = ["minimize", "MinimizeResult"]

Predicate = Callable[[SimConfig, KernelTrace], bool]

# Geometry fields whose *defaults* describe the full-size GPU; resetting
# a small fuzzed value to them would grow the repro, not shrink it.
_KEEP_SMALL = {
    ("gpu", "num_sms"),
    ("dram_org", "num_channels"),
    ("dram_org", "banks_per_channel"),
    ("dram_org", "rows_per_bank"),
}


@dataclasses.dataclass
class MinimizeResult:
    config: SimConfig
    trace: KernelTrace
    evals: int
    neutralized: list[str]


class _Budget:
    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.used = 0

    def spend(self) -> bool:
        if self.used >= self.limit:
            return False
        self.used += 1
        return True


def _try(predicate: Predicate, budget: _Budget, config: SimConfig,
         trace: KernelTrace) -> bool:
    if not budget.spend():
        return False
    if not trace.warps:
        return False  # an empty kernel can't run; never a valid repro
    try:
        return predicate(config, trace)
    except Exception:
        # A candidate that crashes differently is not the same failure.
        return False


def _ddmin_warps(config: SimConfig, trace: KernelTrace, predicate: Predicate,
                 budget: _Budget) -> KernelTrace:
    indices = list(range(len(trace.warps)))
    n = 2
    while len(indices) >= 2:
        chunk = max(1, len(indices) // n)
        subsets = [indices[i:i + chunk] for i in range(0, len(indices), chunk)]
        reduced = False
        for subset in subsets:
            complement = [i for i in indices if i not in set(subset)]
            if not complement:
                continue
            if _try(predicate, budget, config, truncate_warps(trace, complement)):
                indices = complement
                n = max(2, n - 1)
                reduced = True
                break
        if not reduced:
            if n >= len(indices) or budget.used >= budget.limit:
                break
            n = min(len(indices), n * 2)
    return truncate_warps(trace, indices)


def _shrink_segments(config: SimConfig, trace: KernelTrace, predicate: Predicate,
                     budget: _Budget) -> KernelTrace:
    current = trace
    for wi in range(len(current.warps)):
        while len(current.warps[wi].segments) > 1:
            candidate = clone_trace(current)
            w = candidate.warps[wi]
            w.segments = w.segments[: max(1, len(w.segments) // 2)]
            if _try(predicate, budget, config, candidate):
                current = candidate
            else:
                break
    return current


def _shrink_lanes(config: SimConfig, trace: KernelTrace, predicate: Predicate,
                  budget: _Budget) -> KernelTrace:
    current = trace
    for wi, w in enumerate(current.warps):
        for si, s in enumerate(w.segments):
            if s.mem is None or s.mem.active_lanes() <= 1:
                continue
            candidate = clone_trace(current)
            addrs = candidate.warps[wi].segments[si].mem.lane_addrs
            live = [i for i, a in enumerate(addrs) if a is not None]
            for lane in live[len(live) // 2:]:
                addrs[lane] = None
            if _try(predicate, budget, config, candidate):
                current = candidate
    return current


def _neutralize_config(config: SimConfig, trace: KernelTrace, predicate: Predicate,
                       budget: _Budget) -> tuple[SimConfig, list[str]]:
    default = SimConfig()
    current = config
    kept_neutral: list[str] = []
    sections = ("dram_timing", "dram_org", "mc", "gpu")
    for section in sections:
        cur_sec = getattr(current, section)
        def_sec = getattr(default, section)
        for f in dataclasses.fields(def_sec):
            if getattr(cur_sec, f.name) == getattr(def_sec, f.name):
                continue
            if (section, f.name) in _KEEP_SMALL:
                continue
            try:
                candidate = dataclasses.replace(
                    current,
                    **{section: dataclasses.replace(
                        getattr(current, section),
                        **{f.name: getattr(def_sec, f.name)})},
                )
            except ValueError:
                continue  # resetting one field alone broke validate()
            if _try(predicate, budget, candidate, trace):
                current = candidate
                kept_neutral.append(f"{section}.{f.name}")
    for name in ("use_l1", "use_l2", "use_tlb"):
        if getattr(current, name) == getattr(default, name):
            continue
        candidate = dataclasses.replace(current, **{name: getattr(default, name)})
        if _try(predicate, budget, candidate, trace):
            current = candidate
            kept_neutral.append(name)
    return current, kept_neutral


def minimize(config: SimConfig, trace: KernelTrace, predicate: Predicate,
             max_evals: int = 200) -> MinimizeResult:
    """Shrink (config, trace) while ``predicate`` keeps failing.

    ``predicate(config, trace)`` must return True when the candidate
    still exhibits the original failure.  The inputs are assumed to fail
    already (the caller verified that); the result is the smallest
    variant found within ``max_evals`` predicate evaluations.
    """
    budget = _Budget(max_evals)
    trace = _ddmin_warps(config, trace, predicate, budget)
    trace = _shrink_segments(config, trace, predicate, budget)
    trace = _shrink_lanes(config, trace, predicate, budget)
    config, neutralized = _neutralize_config(config, trace, predicate, budget)
    return MinimizeResult(
        config=config, trace=trace, evals=budget.used, neutralized=neutralized
    )
