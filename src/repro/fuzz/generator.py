"""Seeded generation of random-but-valid fuzz cases.

A *case* is a (``SimConfig``, ``KernelTrace``) pair plus the recipe that
produced it.  Case ``i`` of campaign seed ``s`` is derived entirely from
``np.random.default_rng((s, i))`` — no wall clock, no global RNG — so the
case stream is reproducible across processes and the time budget can
only truncate it, never reshuffle it.

Configs are sampled *constructively* against :meth:`SimConfig.validate`:
dependent GDDR5 timings are clamped up to their physical floors (ceiling
at the 3-decimal granularity the timing tables use) instead of being
rejection-sampled, so almost every draw is valid on the first try; the
validator still runs as the final filter.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.config import (
    CacheConfig,
    DRAMOrgConfig,
    DRAMTimingConfig,
    GPUConfig,
    MCConfig,
    SimConfig,
)
from repro.workloads.mutate import MUTATORS, mutate_trace, truncate_warps
from repro.workloads.profiles import ALL_PROFILES
from repro.workloads.suite import Scale, build_benchmark
from repro.workloads.synthetic import synthetic_trace
from repro.workloads.trace import KernelTrace

__all__ = ["FuzzCase", "CaseGenerator"]

# Cheap algorithmic kernels (sub-second builds at TINY scale); the heavy
# graph benchmarks are exercised by the sweep CI, not the fuzzer.
_ALGORITHMIC = ("sad", "spmv")

_MAX_WARPS = 48


@dataclass
class FuzzCase:
    """One generated (config, workload) pair."""

    index: int
    campaign_seed: int
    config: SimConfig
    trace: KernelTrace
    recipe: dict = field(default_factory=dict)


def _ceil3(x: float) -> float:
    """Round up to 3 decimals (the granularity of the timing tables)."""
    return math.ceil(x * 1000.0 - 1e-9) / 1000.0


def _perturb(rng: np.random.Generator, base: float, lo: float = 0.8, hi: float = 1.3) -> float:
    return round(base * rng.uniform(lo, hi), 3)


class CaseGenerator:
    """Derives the deterministic case stream of one campaign seed."""

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def case(self, index: int) -> FuzzCase:
        rng = np.random.default_rng((self.seed, index))
        # A quarter of cases run an *MC-stress* regime: caches off, tiny
        # write queue, write-heavy workload.  That keeps reads and bursty
        # writebacks colliding at the controller — the corner where the
        # forwarding/overflow machinery actually executes; cache-filtered
        # traffic almost never reaches it.
        stress = bool(rng.random() < 0.25)
        config = self._sample_config(rng, stress)
        trace, recipe = self._sample_workload(rng, config, stress)
        recipe["config_recipe"] = "mc-stress" if stress else "sampled"
        return FuzzCase(
            index=index,
            campaign_seed=self.seed,
            config=config,
            trace=trace,
            recipe=recipe,
        )

    # ------------------------------------------------------------------
    # config sampling
    # ------------------------------------------------------------------
    def _sample_config(self, rng: np.random.Generator, stress: bool = False) -> SimConfig:
        for _ in range(8):
            try:
                return self._draw_config(rng, stress)
            except ValueError:
                continue  # validate() rejected a rare corner; redraw
        # Constructive clamping makes this unreachable in practice.
        return SimConfig().small()

    def _draw_config(self, rng: np.random.Generator, stress: bool = False) -> SimConfig:
        base = DRAMTimingConfig()
        trcd = _perturb(rng, base.trcd_ns)
        trp = _perturb(rng, base.trp_ns)
        tcas = _perturb(rng, base.tcas_ns)
        trtp = _perturb(rng, base.trtp_ns)
        trrd = _perturb(rng, base.trrd_ns)
        twtr = _perturb(rng, base.twtr_ns)
        twr = _perturb(rng, base.twr_ns)
        # Dependent windows: perturb, then clamp up to their floors.
        tras = max(_perturb(rng, base.tras_ns), _ceil3(trcd + trtp))
        trc = max(_perturb(rng, base.trc_ns), _ceil3(tras + trp))
        tfaw = max(_perturb(rng, base.tfaw_ns), _ceil3(4 * trrd))
        timing = dataclasses.replace(
            base,
            trcd_ns=trcd, trp_ns=trp, tcas_ns=tcas, trtp_ns=trtp,
            trrd_ns=trrd, twtr_ns=twtr, twr_ns=twr,
            tras_ns=tras, trc_ns=trc, tfaw_ns=tfaw,
        )

        banks = int(rng.choice([4, 8, 16]))
        group_choices = [g for g in (2, 4, 8) if banks % g == 0 and g <= banks]
        org = DRAMOrgConfig(
            num_channels=int(rng.integers(1, 4)),
            banks_per_channel=banks,
            banks_per_group=int(rng.choice(group_choices)),
            rows_per_bank=int(rng.choice([512, 1024, 4096])),
        )

        wq = int(rng.choice([2, 4] if stress else [4, 8, 16, 32, 64]))
        high = max(2, wq // 2)
        mc = MCConfig(
            read_queue_entries=int(rng.choice([8, 16, 32, 64])),
            write_queue_entries=wq,
            write_high_watermark=high,
            write_low_watermark=high // 2,
            command_queue_depth=int(rng.choice([1, 2] if stress else [1, 2, 4, 8])),
            age_threshold_ns=float(rng.choice([200.0, 500.0, 1000.0, 2000.0])),
            max_row_hit_streak=int(rng.choice([4, 8, 16, 32])),
            wgw_drain_guard_entries=int(rng.choice([2, 4, 8])),
            sbwas_alpha=float(rng.choice([0.25, 0.5, 0.75])),
        )

        gpu_base = GPUConfig()
        gpu = dataclasses.replace(
            gpu_base,
            num_sms=int(rng.integers(1, 5)),
            l1=dataclasses.replace(
                gpu_base.l1, size_bytes=int(rng.choice([16, 32])) * 1024
            ),
            l2_slice=dataclasses.replace(
                gpu_base.l2_slice, size_bytes=int(rng.choice([64, 128])) * 1024
            ),
        )

        return SimConfig(
            gpu=gpu,
            dram_timing=timing,
            dram_org=org,
            mc=mc,
            use_l1=False if stress else bool(rng.random() < 0.8),
            use_l2=False if stress else bool(rng.random() < 0.8),
            use_tlb=bool(rng.random() < 0.1),
        )

    # ------------------------------------------------------------------
    # workload sampling
    # ------------------------------------------------------------------
    def _sample_workload(
        self, rng: np.random.Generator, config: SimConfig, stress: bool = False
    ) -> tuple[KernelTrace, dict]:
        trace_seed = int(rng.integers(1, 2**31))
        if stress:
            profile = ALL_PROFILES[str(rng.choice(["nw", "SS", "sad"]))]
            profile = dataclasses.replace(
                profile,
                warps=int(rng.integers(16, _MAX_WARPS + 1)),
                loads_per_warp=int(rng.integers(3, 7)),
                write_ratio=float(rng.uniform(0.8, 0.95)),
            )
            trace = synthetic_trace(profile, config, seed=trace_seed)
            recipe = {
                "workload": "synthetic",
                "profile": profile.name,
                "warps": profile.warps,
                "loads_per_warp": profile.loads_per_warp,
                "write_ratio": profile.write_ratio,
                "seed": trace_seed,
            }
            recipe["mutations"] = []
            return trace, recipe
        if rng.random() < 0.15:
            name = str(rng.choice(_ALGORITHMIC))
            trace = build_benchmark(name, config, Scale.TINY, seed=trace_seed)
            if len(trace.warps) > _MAX_WARPS:
                trace = truncate_warps(trace, list(range(_MAX_WARPS)))
            recipe = {"workload": "algorithmic", "benchmark": name, "seed": trace_seed}
        else:
            profile = ALL_PROFILES[str(rng.choice(sorted(ALL_PROFILES)))]
            profile = dataclasses.replace(
                profile,
                warps=int(rng.integers(16, _MAX_WARPS + 1)),
                loads_per_warp=int(rng.integers(3, 7)),
            )
            trace = synthetic_trace(profile, config, seed=trace_seed)
            recipe = {
                "workload": "synthetic",
                "profile": profile.name,
                "warps": profile.warps,
                "loads_per_warp": profile.loads_per_warp,
                "seed": trace_seed,
            }
        n_mut = int(rng.integers(0, 4))
        operators = [str(rng.choice(sorted(MUTATORS))) for _ in range(n_mut)]
        if operators:
            trace = mutate_trace(trace, rng, operators)
        recipe["mutations"] = operators
        return trace, recipe
