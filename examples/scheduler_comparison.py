#!/usr/bin/env python3
"""Compare every memory scheduler on one benchmark.

Runs the full policy family of the paper — naive FCFS, FR-FCFS, the GMC
baseline, the prior warp-aware proposals (WAFCFS, SBWAS) and the paper's
WG / WG-M / WG-Bw / WG-W — plus the zero-latency-divergence upper bound,
on a benchmark of your choice.

Run:  python examples/scheduler_comparison.py [benchmark] [--synthetic]
      (default benchmark: spmv)
"""

import argparse

from repro import (
    ALL_PROFILES,
    Scale,
    SimConfig,
    benchmark_names,
    build_benchmark,
    simulate,
    synthetic_trace,
)
from repro.analysis import format_table

ORDER = (
    "fcfs", "frfcfs", "wafcfs", "sbwas", "gmc",
    "wg", "wg-m", "wg-bw", "wg-w", "zero-div",
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("benchmark", nargs="?", default="spmv",
                    choices=sorted(benchmark_names()))
    ap.add_argument("--synthetic", action="store_true",
                    help="use the profile-driven synthetic trace instead of "
                         "the algorithmic generator")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    cfg = SimConfig()
    if args.synthetic:
        trace = synthetic_trace(ALL_PROFILES[args.benchmark], cfg,
                                seed=args.seed, scale=Scale.QUICK.factor)
    else:
        trace = build_benchmark(args.benchmark, cfg, Scale.QUICK, seed=args.seed)
    kind = "synthetic" if args.synthetic else "algorithmic"
    print(f"{args.benchmark} ({kind}): {len(trace.warps)} warps, "
          f"{trace.total_memory_ops()} memory instructions\n")

    rows = []
    base_ipc = None
    for sched in ORDER:
        stats = simulate(cfg.with_scheduler(sched), trace)
        s = stats.summary()
        if sched == "gmc":
            base_ipc = s["ipc"]
        rows.append([sched, s["ipc"], s["effective_latency_ns"],
                     s["divergence_ns"], s["row_hit_rate"],
                     s["bandwidth_utilization"]])
        print(f"  {sched:8s} done")

    print()
    table_rows = [
        [r[0], r[1], f"{r[1] / base_ipc:.3f}", r[2], r[3], r[4], r[5]]
        for r in rows
    ]
    print(format_table(
        ["scheduler", "IPC", "vs GMC", "stall ns", "divergence ns",
         "row hit", "bus util"],
        table_rows,
        title=f"{args.benchmark}: scheduler comparison",
    ))


if __name__ == "__main__":
    main()
