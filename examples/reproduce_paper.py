#!/usr/bin/env python3
"""Regenerate the paper's evaluation: every table and figure.

Runs the experiment drivers of ``repro.analysis.experiments`` and prints
each result as an ASCII table (one row per benchmark, one column per
series), with the paper's reported numbers noted underneath.

Run:
    python examples/reproduce_paper.py                      # quick scale
    python examples/reproduce_paper.py --scale paper        # full scale
    python examples/reproduce_paper.py --only fig8 fig11    # subset
    python examples/reproduce_paper.py --kind algorithmic   # real-algorithm traces
    python examples/reproduce_paper.py --workers 8          # parallel prefetch
                                                            # (rerun after an
                                                            # interrupt: cached
                                                            # runs are reused)
"""

import argparse
import os
import sys
import time

from repro.analysis.experiments import DRIVERS, prefetch
from repro.analysis.runner import ExperimentRunner
from repro.workloads.suite import Scale


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--scale", choices=[s.name.lower() for s in Scale],
                    default="quick")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    ap.add_argument("--kind", choices=["synthetic", "algorithmic"],
                    default="synthetic")
    ap.add_argument("--only", nargs="+", choices=sorted(DRIVERS),
                    help="run a subset of experiments")
    ap.add_argument("--cache-dir", default=".repro-results",
                    help="simulation result cache (JSON per run)")
    ap.add_argument("--out", help="also write each table to this directory")
    ap.add_argument("--workers", type=int, default=0,
                    help="prefetch the sweep with N worker processes first "
                         "(a rerun reuses every run already cached)")
    args = ap.parse_args()

    scale = Scale[args.scale.upper()]
    t0 = time.time()
    runner = ExperimentRunner(
        scale=scale, seeds=tuple(args.seeds), kind=args.kind,
        cache_dir=args.cache_dir, verbose=True,
    )
    if args.workers > 0:
        # Parallel sweeps over every run the drivers read; the drivers
        # below then run from the cache.
        prefetch(
            runner, workers=args.workers,
            progress=lambda msg: print(msg, file=sys.stderr),
        )
    results = {name: DRIVERS[name](runner) for name in args.only or DRIVERS}

    for rid, res in results.items():
        print()
        print(res)
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            with open(os.path.join(args.out, f"{rid}.txt"), "w") as fh:
                fh.write(str(res) + "\n")

    print(f"\nDone in {time.time() - t0:.0f}s "
          f"(scale={scale.name}, kind={args.kind}, seeds={args.seeds}).")


if __name__ == "__main__":
    main()
