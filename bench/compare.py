#!/usr/bin/env python3
"""Compare two results of ``bench/run.py``: parent ``A`` against change ``B``.

    python3 bench/compare.py A.json B.json

For each (workload, end-to-end metric) it prints both medians with their
quartiles and a verdict, using the bounds in BENCHMARK.json:

* ``unresolved``: one side's quartile spread is wider than the bound, and
  not every repeat of B beats every repeat of A.  The spread includes the
  differences between the inputs a run cycles through, so this errs
  towards ``unresolved``;
* ``worse``: B's median is worse than A's by more than the bound;
* ``better``: B's median is better than A's by more than A's own
  quartile spread (or every repeat of B beats every repeat of A);
* ``no-change`` otherwise.

It then names the layer whose ``self_s`` moved most, per workload, and
whether the simulated output (summary SHA and event count of each input
both results ran) changed.  Exit status 1 when any verdict is ``worse``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def verdict(a: dict, b: dict, bound: float, lower_is_better: bool) -> str:
    sign = 1.0 if lower_is_better else -1.0
    # Positive = B worse than A, as a share of A's median.
    change = sign * (b["median"] - a["median"]) / a["median"]
    a_best = min(a["values"]) if lower_is_better else max(a["values"])
    b_worst = max(b["values"]) if lower_is_better else min(b["values"])
    b_beats_all = sign * (b_worst - a_best) < 0
    spread = max((s["q3"] - s["q1"]) / s["median"] for s in (a, b))
    if spread > bound:
        return "better" if b_beats_all else "unresolved"
    if change > bound:
        return "worse"
    if b_beats_all or -change > (a["q3"] - a["q1"]) / a["median"]:
        return "better"
    return "no-change"


def moved_layer(a: dict, b: dict) -> str:
    """The per-layer ``self_s`` with the largest absolute move, A to B."""
    pa, pb = a.get("per_layer", {}), b.get("per_layer", {})
    moves = [
        (pb[k]["value"] - pa[k]["value"], k)
        for k in pa
        if k.endswith(".self_s") and k in pb
    ]
    if not moves:
        return "no per-layer split in both results (run with --trace 1)"
    delta, name = max(moves, key=lambda m: abs(m[0]))
    base = pa[name]["value"]
    rel = f" ({delta / base:+.1%})" if base else ""
    return f"{name} moved {delta:+.4f} s{rel}"


def compare(a: dict, b: dict, spec: dict) -> tuple[list[str], int]:
    lines = []
    worse = 0
    for workload in a["workloads"]:
        wa, wb = a["workloads"][workload], b["workloads"].get(workload)
        if wb is None or "end_to_end" not in wa or "end_to_end" not in wb:
            lines.append(f"{workload}: not measured in both results")
            continue
        shared = wa["outputs"].keys() & wb["outputs"].keys()
        same = all(wa["outputs"][s] == wb["outputs"][s] for s in shared)
        lines.append(
            f"{workload}: simulated output {'same' if same else 'DIFFERS'} "
            f"on {len(shared)} shared input(s), failed "
            f"{wa['failed']}/{wa['attempted']} -> {wb['failed']}/{wb['attempted']}"
        )
        for m in spec["end_to_end"]:
            sa, sb = wa["end_to_end"][m["name"]], wb["end_to_end"][m["name"]]
            v = verdict(sa, sb, m["bound"], m["better"] == "lower")
            worse += v == "worse"
            lines.append(
                f"  {m['name']:12s} A {sa['median']:10.4f} [{sa['q1']:.4f}, {sa['q3']:.4f}]"
                f"  B {sb['median']:10.4f} [{sb['q1']:.4f}, {sb['q3']:.4f}] {m['unit']:3s}"
                f" {(sb['median'] - sa['median']) / sa['median']:+7.1%}"
                f"  bound {m['bound']:.0%}  {v}"
            )
        lines.append(f"  layer: {moved_layer(wa, wb)}")
    return lines, worse


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python3 bench/compare.py A.json B.json", file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lines, worse = compare(a, b, spec)
    print("\n".join(lines))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
