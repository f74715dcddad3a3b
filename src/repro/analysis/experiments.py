"""Per-figure experiment drivers.

Each ``figN_*``/``secN_*`` function regenerates one table or figure of the
paper's evaluation from an :class:`ExperimentRunner` and returns an
:class:`ExperimentResult` whose ``table`` is ready to print and whose
``headline`` dict and rows carry the numbers the paper's claims are read
from.  ``DRIVERS`` lists them in the paper's order (``python -m repro
reproduce`` runs them), each with the :class:`Runs` it reads.  A driver
only reads: :func:`declared_sweeps` turns the runs a set of experiments
reads into one (runner, cells) pair per config variant, and one
:func:`repro.analysis.sweep.run_sweep` call simulates them all first.
``CLAIMS`` holds every claim of the paper's evaluation, each read off
its experiment's rendered result and held to a band;
:func:`accuracy_doc` measures them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Optional, Sequence

from repro.analysis.report import format_table, geomean
from repro.analysis.runner import ExperimentRunner, config_hash
from repro.analysis.schema import ACCURACY_SCHEMA
from repro.core.config import SimConfig
from repro.core.overrides import apply_overrides
from repro.dram.power import estimate_channel_power
from repro.mc.merb import merb_table, single_bank_utilization

__all__ = [
    "BANDED_RUN",
    "CLAIMS",
    "Claim",
    "DRIVERS",
    "Experiment",
    "ExperimentResult",
    "Runs",
    "accuracy_doc",
    "declared_sweeps",
    "outside_band",
    "fig2_coalescing",
    "fig3_divergence",
    "fig4_opportunity",
    "table1_merb",
    "fig8_ipc",
    "fig9_latency",
    "fig10_divergence",
    "fig11_bandwidth",
    "fig12_writes",
    "sec6a_regular",
    "sec6b_power",
    "sec6c_comparison",
]

PAPER_SCHEDULERS = ("wg", "wg-m", "wg-bw", "wg-w")
FIG9_SCHEDULERS = ("gmc", *PAPER_SCHEDULERS)
FIG10_SCHEDULERS = ("gmc", "wg", "wg-m")
FIG11_SCHEDULERS = ("gmc", "wg-m", "wg-bw", "wg-w")
#: §VI-C profiles SBWAS at each alpha and keeps the best per benchmark.
SBWAS_ALPHAS = (0.25, 0.5, 0.75)


@dataclass
class ExperimentResult:
    experiment: str
    headers: list[str]
    rows: list[list]
    headline: dict[str, float] = field(default_factory=dict)
    notes: str = ""

    @property
    def table(self) -> str:
        return format_table(self.headers, self.rows, title=self.experiment)

    def __str__(self) -> str:
        extra = "\n".join(f"  {k}: {v:.4g}" for k, v in self.headline.items())
        return f"{self.table}\n{extra}\n{self.notes}".rstrip()


@dataclass(frozen=True)
class Runs:
    """Runs an experiment reads: a benchmark suite under ``schedulers``
    at every seed of the runner."""

    schedulers: tuple[str, ...]
    regular: bool = False  # the regular suite instead of the irregular one
    perfect: bool = False  # perfectly coalesced traces (Fig. 4)
    sbwas_alpha: Optional[float] = None  # a config variant (§VI-C)


@dataclass(frozen=True)
class Experiment:
    """One table or figure: its driver and every run the driver reads."""

    render: Callable[[ExperimentRunner], ExperimentResult]
    reads: tuple[Runs, ...] = ()


def _variant_runner(
    runner: ExperimentRunner, sbwas_alpha: Optional[float]
) -> ExperimentRunner:
    """``runner`` itself, or one like it, sharing its cache, at another
    ``mc.sbwas_alpha``."""
    if sbwas_alpha is None:
        return runner
    return ExperimentRunner(
        config=apply_overrides(runner.config, {"mc.sbwas_alpha": sbwas_alpha}),
        scale=runner.scale,
        seeds=runner.seeds,
        kind=runner.kind,
        cache_dir=runner.cache_dir,
        trace_paths=runner.trace_paths or None,
    )


# ---------------------------------------------------------------------------
# Motivation figures
# ---------------------------------------------------------------------------
def fig2_coalescing(runner: ExperimentRunner) -> ExperimentResult:
    """Fig. 2: coalescing efficiency of the irregular suite (GMC runs)."""
    rows = []
    for b in runner.irregular_benchmarks():
        s = runner.mean(b, "gmc")
        rows.append([b, s["frac_divergent_loads"], s["requests_per_load"]])
    mean_div = sum(r[1] for r in rows) / len(rows)
    mean_rpl = sum(r[2] for r in rows) / len(rows)
    rows.append(["MEAN", mean_div, mean_rpl])
    return ExperimentResult(
        "Fig. 2 - Coalescing efficiency",
        ["benchmark", "frac loads >1 request", "requests/load"],
        rows,
        {"frac_divergent": mean_div, "requests_per_load": mean_rpl},
        "paper: 56% of loads divergent, 5.9 requests/load",
    )


def fig3_divergence(runner: ExperimentRunner) -> ExperimentResult:
    """Fig. 3: extent of main-memory latency divergence (GMC runs)."""
    rows = []
    for b in runner.irregular_benchmarks():
        s = runner.mean(b, "gmc")
        rows.append([b, s["last_over_first"], s["channels_per_warp"]])
    mean_lf = sum(r[1] for r in rows) / len(rows)
    mean_ch = sum(r[2] for r in rows) / len(rows)
    rows.append(["MEAN", mean_lf, mean_ch])
    return ExperimentResult(
        "Fig. 3 - Main-memory latency divergence",
        ["benchmark", "last/first latency", "controllers/warp"],
        rows,
        {"last_over_first": mean_lf, "channels_per_warp": mean_ch},
        "paper: last request ~1.6x first; 2.5 controllers per warp",
    )


def fig4_opportunity(runner: ExperimentRunner) -> ExperimentResult:
    """Fig. 4: perfect coalescing and zero-latency-divergence bounds."""
    rows = []
    pc_speedups = []
    zd_speedups = []
    for b in runner.irregular_benchmarks():
        base = runner.mean(b, "gmc")["ipc"]
        pc = runner.mean(b, "gmc", perfect=True)["ipc"] / base
        zd = runner.mean(b, "zero-div")["ipc"] / base
        pc_speedups.append(pc)
        zd_speedups.append(zd)
        rows.append([b, pc, zd])
    rows.append(["GEOMEAN", geomean(pc_speedups), geomean(zd_speedups)])
    return ExperimentResult(
        "Fig. 4 - Room for improvement (speedup vs GMC)",
        ["benchmark", "perfect coalescing", "zero latency divergence"],
        rows,
        {
            "perfect_coalescing_x": geomean(pc_speedups),
            "zero_divergence_x": geomean(zd_speedups),
        },
        "paper: ~5x perfect coalescing; +43% zero divergence",
    )


def table1_merb(config: Optional[SimConfig] = None) -> ExperimentResult:
    """Table I: MERB values for GDDR5 timing."""
    cfg = config or SimConfig()
    table = merb_table(cfg.dram_timing, cfg.dram_org.banks_per_channel)
    rows = [[b, table[b]] for b in range(1, 7)]
    rows.append(["6-16", table[6]])
    util = single_bank_utilization(31, cfg.dram_timing)
    return ExperimentResult(
        "Table I - MERB values (GDDR5)",
        ["busy banks", "MERB"],
        rows,
        {"single_bank_util_at_31": util},
        "paper: 31, 20, 10, 7, 5, 5...; 62% single-bank utilization",
    )


# ---------------------------------------------------------------------------
# Evaluation figures
# ---------------------------------------------------------------------------
def _per_scheduler_metric(
    runner: ExperimentRunner,
    metric: str,
    schedulers: Sequence[str],
    normalize_to_gmc: bool = False,
) -> tuple[list[list], dict[str, float]]:
    rows = []
    agg: dict[str, list[float]] = {s: [] for s in schedulers}
    for b in runner.irregular_benchmarks():
        base = runner.mean(b, "gmc")[metric] if normalize_to_gmc else 1.0
        row = [b]
        for s in schedulers:
            v = runner.mean(b, s)[metric]
            v = v / base if normalize_to_gmc and base else v
            row.append(v)
            agg[s].append(v)
        rows.append(row)
    summary = {s: geomean(agg[s]) for s in schedulers}
    rows.append(["GEOMEAN"] + [summary[s] for s in schedulers])
    return rows, summary


def fig8_ipc(runner: ExperimentRunner) -> ExperimentResult:
    """Fig. 8: IPC normalized to the GMC baseline."""
    rows, summary = _per_scheduler_metric(
        runner, "ipc", PAPER_SCHEDULERS, normalize_to_gmc=True
    )
    return ExperimentResult(
        "Fig. 8 - IPC normalized to GMC",
        ["benchmark", *PAPER_SCHEDULERS],
        rows,
        {f"speedup_{s}": v for s, v in summary.items()},
        "paper geomeans: WG +3.4%, WG-M +6.2%, WG-Bw +8.4%, WG-W +10.1%",
    )


def fig9_latency(runner: ExperimentRunner) -> ExperimentResult:
    """Fig. 9: effective main-memory latency experienced by warps (ns)."""
    rows, _ = _per_scheduler_metric(runner, "effective_latency_ns", FIG9_SCHEDULERS)
    base = rows[-1][1]
    headline = {
        f"latency_reduction_{s}": 1.0 - rows[-1][i + 1] / base
        for i, s in enumerate(FIG9_SCHEDULERS)
        if s != "gmc"
    }
    return ExperimentResult(
        "Fig. 9 - Effective memory latency (ns)",
        ["benchmark", *FIG9_SCHEDULERS],
        rows,
        headline,
        "paper: WG -9.1%, WG-M -16.9% average effective latency",
    )


def fig10_divergence(runner: ExperimentRunner) -> ExperimentResult:
    """Fig. 10: first-to-last DRAM reply gap per warp (ns)."""
    rows, summary = _per_scheduler_metric(runner, "divergence_ns", FIG10_SCHEDULERS)
    return ExperimentResult(
        "Fig. 10 - DRAM latency divergence (ns)",
        ["benchmark", *FIG10_SCHEDULERS],
        rows,
        {f"divergence_{s}": v for s, v in summary.items()},
        "paper: WG-M lowest for multi-controller warps (cfd/spmv/sssp/sp); "
        "WG sufficient for sad/nw/SS/bfs",
    )


def fig11_bandwidth(runner: ExperimentRunner) -> ExperimentResult:
    """Fig. 11: DRAM data-bus utilization."""
    rows, summary = _per_scheduler_metric(
        runner, "bandwidth_utilization", FIG11_SCHEDULERS
    )
    gain = summary["wg-bw"] / summary["wg-m"] - 1.0
    return ExperimentResult(
        "Fig. 11 - Bandwidth utilization",
        ["benchmark", *FIG11_SCHEDULERS],
        rows,
        {**{f"bw_{s}": v for s, v in summary.items()}, "wgbw_over_wgm": gain},
        "paper: WG-Bw improves WG-M's utilization by >14%",
    )


def fig12_writes(runner: ExperimentRunner) -> ExperimentResult:
    """Fig. 12: write intensity and unit-size groups; WG-W gains."""
    rows = []
    for b in runner.irregular_benchmarks():
        s = runner.mean(b, "gmc")
        gain = runner.mean(b, "wg-w")["ipc"] / runner.mean(b, "wg-bw")["ipc"] - 1.0
        rows.append([b, s["write_intensity"], s["unit_group_frac"], gain])
    return ExperimentResult(
        "Fig. 12 - Write intensity and WG-W benefit",
        ["benchmark", "write intensity", "unit-size group frac", "WG-W gain over WG-Bw"],
        rows,
        {
            "mean_write_intensity": sum(r[1] for r in rows) / len(rows),
            "mean_wgw_gain": sum(r[3] for r in rows) / len(rows),
        },
        "paper: WG-W helps most where write intensity and stalled unit-size "
        "groups are both high (nw, SS)",
    )


# ---------------------------------------------------------------------------
# Section VI subsections
# ---------------------------------------------------------------------------
def sec6a_regular(runner: ExperimentRunner) -> ExperimentResult:
    """§VI-A: impact on non-divergent (regular) applications."""
    rows = []
    speedups = []
    worst = 10.0
    for b in runner.regular_benchmarks():
        sp = runner.speedup(b, "wg-w")
        speedups.append(sp)
        worst = min(worst, sp)
        rows.append([b, sp])
    g = geomean(speedups)
    rows.append(["GEOMEAN", g])
    return ExperimentResult(
        "Sec VI-A - Regular applications (WG-W speedup vs GMC)",
        ["benchmark", "speedup"],
        rows,
        {"regular_speedup": g, "worst_case": worst},
        "paper: +1.8% average, no application slows down",
    )


def sec6b_power(runner: ExperimentRunner) -> ExperimentResult:
    """§VI-B: GDDR5 power impact of the row-hit-rate change under WG-W.

    The paper feeds access counts into the Micron power calculator, i.e.
    it compares power for *the same work*.  We therefore evaluate both
    schedulers' energy over their runs and compare energy-per-access
    (equivalently, power over a common time base) — the activate-count
    difference, set by the row-hit rates, is the only array-side term
    that moves.
    """
    timing = runner.config.dram_timing
    nch = runner.config.dram_org.num_channels
    rows = []
    deltas = []
    hit_deltas = []
    for b in runner.irregular_benchmarks():
        out = {}
        for sched in ("gmc", "wg-w"):
            s = runner.mean(b, sched)
            elapsed_ps = s["elapsed_ns"] * 1000
            busy_ps = s["bandwidth_utilization"] * elapsed_ps
            p = estimate_channel_power(
                activates=int(s["activates"] / nch),
                reads=int(s["reads"] / nch),
                writes=int(s["writes"] / nch),
                data_bus_busy_ps=int(busy_ps),
                elapsed_ps=int(elapsed_ps),
                timing=timing,
            )
            energy_j = p.total_w * elapsed_ps * 1e-12
            accesses = max(1.0, s["reads"] + s["writes"])
            out[sched] = (energy_j / accesses, s["row_hit_rate"])
        delta = out["wg-w"][0] / out["gmc"][0] - 1.0
        hit_delta = out["wg-w"][1] - out["gmc"][1]
        deltas.append(delta)
        hit_deltas.append(hit_delta)
        rows.append(
            [b, out["gmc"][1], out["wg-w"][1], out["gmc"][0] * 1e9, out["wg-w"][0] * 1e9, delta]
        )
    rows.append(
        [
            "MEAN",
            sum(r[1] for r in rows) / len(rows),
            sum(r[2] for r in rows) / len(rows),
            sum(r[3] for r in rows) / len(rows),
            sum(r[4] for r in rows) / len(rows),
            sum(deltas) / len(deltas),
        ]
    )
    return ExperimentResult(
        "Sec VI-B - GDDR5 energy per access",
        ["benchmark", "hit rate gmc", "hit rate wg-w", "nJ/acc gmc", "nJ/acc wg-w", "delta"],
        rows,
        {
            "mean_energy_delta": sum(deltas) / len(deltas),
            "mean_hit_rate_change": sum(hit_deltas) / len(hit_deltas),
        },
        "paper: 16% lower row-hit rate costs only ~1.8% GDDR5 power "
        "(I/O power dominates; array power is a small slice)",
    )


def sec6c_comparison(runner: ExperimentRunner) -> ExperimentResult:
    """§VI-C: SBWAS (best alpha per benchmark, as the paper profiles) and
    WAFCFS versus the GMC baseline, alongside WG-W."""
    alpha_runners = {a: _variant_runner(runner, a) for a in SBWAS_ALPHAS}
    rows = []
    sbwas_speedups = []
    wafcfs_speedups = []
    wgw_speedups = []
    for b in runner.irregular_benchmarks():
        base = runner.mean(b, "gmc")["ipc"]
        best_alpha, best = None, 0.0
        for a, r in alpha_runners.items():
            v = r.mean(b, "sbwas")["ipc"] / base
            if v > best:
                best_alpha, best = a, v
        waf = runner.mean(b, "wafcfs")["ipc"] / base
        wgw = runner.mean(b, "wg-w")["ipc"] / base
        sbwas_speedups.append(best)
        wafcfs_speedups.append(waf)
        wgw_speedups.append(wgw)
        rows.append([b, best, best_alpha, waf, wgw])
    rows.append(
        ["GEOMEAN", geomean(sbwas_speedups), "-", geomean(wafcfs_speedups), geomean(wgw_speedups)]
    )
    return ExperimentResult(
        "Sec VI-C - Prior schedulers vs GMC",
        ["benchmark", "SBWAS (best a)", "alpha", "WAFCFS", "WG-W"],
        rows,
        {
            "sbwas_speedup": geomean(sbwas_speedups),
            "wafcfs_speedup": geomean(wafcfs_speedups),
            "wgw_speedup": geomean(wgw_speedups),
        },
        "paper: SBWAS +2.5%; WAFCFS -11.2%; WG-W beats SBWAS by 7.3%",
    )


#: Experiment id -> driver and the runs it reads, in the paper's order.
DRIVERS: dict[str, Experiment] = {
    "fig2": Experiment(fig2_coalescing, (Runs(("gmc",)),)),
    "fig3": Experiment(fig3_divergence, (Runs(("gmc",)),)),
    "fig4": Experiment(
        fig4_opportunity,
        (Runs(("gmc", "zero-div")), Runs(("gmc",), perfect=True)),
    ),
    "table1": Experiment(lambda runner: table1_merb(runner.config)),
    "fig8": Experiment(fig8_ipc, (Runs(("gmc", *PAPER_SCHEDULERS)),)),
    "fig9": Experiment(fig9_latency, (Runs(FIG9_SCHEDULERS),)),
    "fig10": Experiment(fig10_divergence, (Runs(FIG10_SCHEDULERS),)),
    "fig11": Experiment(fig11_bandwidth, (Runs(FIG11_SCHEDULERS),)),
    "fig12": Experiment(fig12_writes, (Runs(("gmc", "wg-bw", "wg-w")),)),
    "sec6a": Experiment(sec6a_regular, (Runs(("gmc", "wg-w"), regular=True),)),
    "sec6b": Experiment(sec6b_power, (Runs(("gmc", "wg-w")),)),
    "sec6c": Experiment(
        sec6c_comparison,
        (
            Runs(("gmc", "wafcfs", "wg-w")),
            *(Runs(("sbwas",), sbwas_alpha=a) for a in SBWAS_ALPHAS),
        ),
    ),
}


def declared_sweeps(
    runner: ExperimentRunner, experiments: Sequence[str]
) -> list[tuple[ExperimentRunner, list[tuple[str, str, bool]]]]:
    """The runs the named experiments read, as (runner, cells) pairs for
    one :func:`repro.analysis.sweep.run_sweep` call, empty if they read
    none: one per config variant, which the drivers derive too.  The
    ``mc.sbwas_alpha`` variants share the base config's traces."""
    grids: dict[Optional[float], dict[tuple[str, str, bool], None]] = {}
    for rid in experiments:
        for runs in DRIVERS[rid].reads:
            suite = (
                runner.regular_benchmarks() if runs.regular
                else runner.irregular_benchmarks()
            )
            grids.setdefault(runs.sbwas_alpha, {}).update(
                dict.fromkeys(product(suite, runs.schedulers, [runs.perfect]))
            )
    return [
        (_variant_runner(runner, alpha), list(cells))
        for alpha, cells in grids.items()
    ]




# ----------------------------------------------------------------------
# Paper claims (accuracy.json)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Claim:
    """One claim of the paper's evaluation, read off the rendered result
    of its experiment.

    ``paper`` is None where the paper makes the claim only in words.
    ``band`` is the closed interval (lo, hi), either side open as None,
    that the measured value must fall in when the run is
    :data:`BANDED_RUN`: a regression band around the value measured
    there, or, for an ordering or threshold, a bound on a difference.
    """

    id: str
    experiment: str  # a DRIVERS id
    metric: str
    unit: str  # "pct", "x" or "count"
    paper: Optional[float]
    read: Callable[[ExperimentResult], float]
    band: tuple[Optional[float], Optional[float]]


#: The run the bands were measured at: (scale, seeds, kind, config hash).
#: ``reproduce`` checks the bands only for a runner of exactly this run.
BANDED_RUN = ("PAPER", (1, 2), "synthetic", config_hash(SimConfig()))

MULTI_CONTROLLER = ("cfd", "sp", "sssp", "spmv")
FEW_CONTROLLER = ("sad", "nw", "SS", "bfs")
WRITE_HEAVY = ("nw", "SS", "sad", "PVC")
READ_MOSTLY = ("bfs", "bh", "spmv", "sssp")


def _pct(key: str) -> Callable[[ExperimentResult], float]:
    """A headline fraction, in percent."""
    return lambda r: 100.0 * r.headline[key]


def _gain(key: str) -> Callable[[ExperimentResult], float]:
    """A headline ratio to GMC, as a percent change."""
    return lambda r: 100.0 * (r.headline[key] - 1.0)


def _value(key: str) -> Callable[[ExperimentResult], float]:
    return lambda r: r.headline[key]


def _cut(key: str) -> Callable[[ExperimentResult], float]:
    """A headline reduction, as a (negative) percent change."""
    return lambda r: -100.0 * r.headline[key]


def _minus(a: str, b: str) -> Callable[[ExperimentResult], float]:
    """Headline ``a`` minus headline ``b``, in percentage points."""
    return lambda r: 100.0 * (r.headline[a] - r.headline[b])


def _over(a: str, b: str) -> Callable[[ExperimentResult], float]:
    """Headline ``a`` over headline ``b``, as a percent change."""
    return lambda r: 100.0 * (r.headline[a] / r.headline[b] - 1.0)


def _column(result: ExperimentResult, col: int) -> dict[str, float]:
    """Column ``col`` of each benchmark row (not the MEAN/GEOMEAN row)."""
    return {
        row[0]: row[col] for row in result.rows
        if row[0] not in ("MEAN", "GEOMEAN")
    }


def _mean_over(values: dict[str, float], benches: Sequence[str]) -> float:
    return sum(values[b] for b in benches) / len(benches)


def _controller_split(r: ExperimentResult) -> float:
    per_warp = _column(r, 2)
    return (
        _mean_over(per_warp, MULTI_CONTROLLER)
        - _mean_over(per_warp, FEW_CONTROLLER)
    )


def _wg_shrinks(r: ExperimentResult) -> float:
    gmc, wg = _column(r, 1), _column(r, 2)
    return float(sum(1 for b in gmc if wg[b] < gmc[b]))


def _write_split(r: ExperimentResult) -> float:
    intensity = _column(r, 1)
    return (
        _mean_over(intensity, WRITE_HEAVY) / _mean_over(intensity, READ_MOSTLY)
    )


#: Every claim, in the paper's order.  ``reproduce`` measures the claims
#: of the experiments it renders; tests/test_accuracy.py checks the
#: committed measurement (results/accuracy.json) against this table.
CLAIMS: tuple[Claim, ...] = (
    Claim("fig2-divergent", "fig2", "loads issuing >1 request", "pct", 56.0,
          _pct("frac_divergent"), (56.01, 61.91)),
    Claim("fig2-requests", "fig2", "requests per load", "count", 5.9,
          _value("requests_per_load"), (5.12, 5.66)),
    Claim("fig2-min-requests", "fig2", "fewest requests per load of a benchmark",
          "count", None, lambda r: min(_column(r, 2).values()), (1.0, None)),
    Claim("fig3-ratio", "fig3", "last/first main-memory latency", "x", 1.6,
          _value("last_over_first"), (2.76, 9.42)),
    Claim("fig3-controllers", "fig3", "controllers per warp", "count", 2.5,
          _value("channels_per_warp"), (2.06, 2.28)),
    Claim("fig3-split", "fig3",
          "controllers per warp, cfd/sp/sssp/spmv minus sad/nw/SS/bfs",
          "count", None, _controller_split, (0.0, None)),
    Claim("fig4-coalescing", "fig4", "perfect-coalescing speedup", "x", 5.0,
          _value("perfect_coalescing_x"), (4.33, 4.78)),
    Claim("fig4-zerodiv", "fig4", "zero-divergence speedup", "pct", 43.0,
          _gain("zero_divergence_x"), (49.99, 69.37)),
    Claim("fig4-min-coalescing", "fig4",
          "smallest perfect-coalescing speedup of a benchmark", "x", None,
          lambda r: min(_column(r, 1).values()), (1.0, None)),
    Claim("fig4-min-zerodiv", "fig4",
          "smallest zero-divergence speedup of a benchmark", "x", None,
          lambda r: min(_column(r, 2).values()), (1.0, None)),
    Claim("table1-util", "table1", "single-bank utilization bound", "pct", 62.0,
          _pct("single_bank_util_at_31"), (58.91, 65.11)),
    Claim("fig8-wg", "fig8", "WG speedup", "pct", 3.4,
          _gain("speedup_wg"), (5.7, 10.43)),
    Claim("fig8-wgm", "fig8", "WG-M speedup", "pct", 6.2,
          _gain("speedup_wg-m"), (3.4, 10.97)),
    Claim("fig8-wgbw", "fig8", "WG-Bw speedup", "pct", 8.4,
          _gain("speedup_wg-bw"), (6.84, 11.53)),
    Claim("fig8-wgw", "fig8", "WG-W speedup", "pct", 10.1,
          _gain("speedup_wg-w"), (6.62, 11.81)),
    Claim("fig8-wgbw-over-wg", "fig8", "WG-Bw speedup minus WG speedup", "pct",
          None, _minus("speedup_wg-bw", "speedup_wg"), (0.0, None)),
    Claim("fig9-wg", "fig9", "WG effective-latency change", "pct", -9.1,
          _cut("latency_reduction_wg"), (-9.71, 0.98)),
    Claim("fig9-wgm", "fig9", "WG-M effective-latency change", "pct", -16.9,
          _cut("latency_reduction_wg-m"), (-9.99, 1.72)),
    Claim("fig9-wgbw", "fig9", "WG-Bw effective-latency change", "pct", None,
          _cut("latency_reduction_wg-bw"), (None, 0.0)),
    Claim("fig9-wgw", "fig9", "WG-W effective-latency change", "pct", None,
          _cut("latency_reduction_wg-w"), (None, 0.0)),
    Claim("fig10-wg", "fig10", "WG divergence change", "pct", None,
          _over("divergence_wg", "divergence_gmc"), (None, 0.0)),
    Claim("fig10-wgm", "fig10", "WG-M divergence change", "pct", None,
          _over("divergence_wg-m", "divergence_gmc"), (None, 0.0)),
    Claim("fig10-improved", "fig10", "benchmarks whose divergence WG shrinks",
          "count", None,
          _wg_shrinks, (8.0, None)),
    Claim("fig11-margin", "fig11", "WG-Bw utilization margin over WG-M", "pct",
          14.0, _pct("wgbw_over_wgm"), (0.36, 3.39)),
    Claim("fig11-wgw", "fig11", "WG-W utilization change over WG-M", "pct",
          None, _over("bw_wg-w", "bw_wg-m"), (-2.0, None)),
    Claim("fig12-write-split", "fig12",
          "write intensity, nw/SS/sad/PVC over bfs/bh/spmv/sssp", "x", None,
          _write_split, (2.0, None)),
    Claim("fig12-heavy-writes", "fig12", "write intensity of nw/SS/sad/PVC",
          "pct", None,
          lambda r: 100.0 * _mean_over(_column(r, 1), WRITE_HEAVY), (10.0, None)),
    Claim("fig12-min-unit-groups", "fig12",
          "smallest unit-size group share of a benchmark", "pct", None,
          lambda r: 100.0 * min(_column(r, 2).values()), (10.0, None)),
    Claim("sec6a-regular", "sec6a", "regular-app geomean change", "pct", 1.8,
          _gain("regular_speedup"), (-0.96, 0.0)),
    Claim("sec6a-worst", "sec6a", "worst regular-app change", "pct", None,
          _gain("worst_case"), (-3.5, None)),
    Claim("sec6b-energy", "sec6b", "GDDR5 energy change", "pct", 1.8,
          _pct("mean_energy_delta"), (-2.14, -0.94)),
    Claim("sec6c-sbwas", "sec6c", "SBWAS speedup", "pct", 2.5,
          _gain("sbwas_speedup"), (-1.7, 5.45)),
    Claim("sec6c-wafcfs", "sec6c", "WAFCFS change", "pct", -11.2,
          _gain("wafcfs_speedup"), (-4.81, 0.0)),
    Claim("sec6c-sbwas-over-wafcfs", "sec6c",
          "SBWAS speedup minus WAFCFS speedup", "pct", None,
          _minus("sbwas_speedup", "wafcfs_speedup"), (0.0, None)),
    Claim("sec6c-gap", "sec6c", "WG-W gap over SBWAS", "pct", 7.3,
          _minus("wgw_speedup", "sbwas_speedup"), (6.36, 8.31)),
)


def accuracy_doc(
    runner: ExperimentRunner, results: dict[str, ExperimentResult]
) -> dict:
    """The claims of the rendered ``results`` (experiment id -> result),
    measured, as the schema-versioned ``accuracy.json`` document:
    ``gated`` says whether ``runner`` is :data:`BANDED_RUN`, whose bands
    apply."""
    entries = []
    for claim in CLAIMS:
        result = results.get(claim.experiment)
        if result is None:
            continue
        measured = round(claim.read(result), 4)
        entries.append({
            "id": claim.id,
            "figure": result.experiment.split(" - ")[0],
            "metric": claim.metric,
            "unit": claim.unit,
            "paper": claim.paper,
            "measured": measured,
            "delta": (
                None if claim.paper is None else round(measured - claim.paper, 4)
            ),
            "band": list(claim.band),
        })
    run = (runner.scale.name, tuple(runner.seeds), runner.kind, runner.config_hash)
    return {
        "schema_version": ACCURACY_SCHEMA,
        "kind": "accuracy",
        "run": dict(zip(("scale", "seeds", "kind", "config_hash"), run)),
        "gated": run == BANDED_RUN,
        "entries": entries,
    }


def outside_band(doc: dict) -> list[str]:
    """The entries of an ``accuracy.json`` document outside their band,
    as "id measured not in [lo, hi]" lines."""
    misses = []
    for e in doc["entries"]:
        lo = -math.inf if e["band"][0] is None else e["band"][0]
        hi = math.inf if e["band"][1] is None else e["band"][1]
        if not lo <= e["measured"] <= hi:
            misses.append(f"{e['id']} {e['measured']:g} not in [{lo:g}, {hi:g}]")
    return misses
