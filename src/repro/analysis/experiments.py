"""Per-figure experiment drivers.

Each ``figN_*``/``secN_*`` function regenerates one table or figure of the
paper's evaluation from an :class:`ExperimentRunner` and returns an
:class:`ExperimentResult` whose ``table`` is ready to print and whose
``headline`` dict carries the numbers EXPERIMENTS.md records against the
paper's.  ``DRIVERS`` lists them in the paper's order (``python -m repro
reproduce`` runs them), each with the :class:`Runs` it reads.  A driver
only reads: :func:`declared_sweeps` turns the runs a set of experiments
reads into one sweep per config variant, and
:func:`repro.analysis.sweep.run_sweep` simulates them first.

Paper targets (for orientation; see EXPERIMENTS.md for measured values):

=========  ==============================================================
Fig. 2     56% of irregular loads issue >1 request; mean 5.9 reqs/load
Fig. 3     last/first DRAM latency ~1.6x; 2.5 controllers per warp
Fig. 4     perfect coalescing ~5x; zero latency divergence +43%
Table I    MERB(1..6+) = 31, 20, 10, 7, 5, 5
Fig. 8     WG +3.4%, WG-M +6.2%, WG-Bw +8.4%, WG-W +10.1% (vs GMC)
Fig. 9     effective latency: WG -9.1%, WG-M -16.9%
Fig. 10    divergence shrinks under WG/WG-M, most for multi-channel warps
Fig. 11    WG-Bw recovers >14% bandwidth over WG-M
Fig. 12    WG-W wins where write intensity and unit groups are high
§VI-A      regular apps: ~+1.8% with WG-W, no slowdowns
§VI-B      16% lower row-hit rate -> ~+1.8% GDDR5 power
§VI-C      SBWAS ~+2.5%; WAFCFS ~-11%
=========  ==============================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Optional, Sequence

from repro.analysis.report import format_table, geomean
from repro.analysis.runner import ExperimentRunner
from repro.core.atomic import atomic_write_json
from repro.core.config import SimConfig
from repro.core.overrides import apply_overrides
from repro.dram.power import estimate_channel_power
from repro.mc.merb import merb_table, single_bank_utilization

__all__ = [
    "ACCURACY_ENTRIES",
    "DRIVERS",
    "Experiment",
    "ExperimentResult",
    "Runs",
    "accuracy_doc",
    "declared_sweeps",
    "write_accuracy",
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
    """The runs the named experiments read, as one (runner, cells) sweep
    per config variant for :func:`repro.analysis.sweep.run_sweep`; the
    drivers derive the same variant runners."""
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
# paper-accuracy export (results/accuracy.json)
# ----------------------------------------------------------------------
#: Machine-readable mirror of the EXPERIMENTS.md paper-vs-measured table.
#: Each entry's ``paper_text``/``measured_text`` is a literal snippet of
#: that table's row — tests/test_accuracy.py asserts the doc and this
#: export never drift apart.  :func:`accuracy_doc` adds each entry's
#: ``delta``, measured - paper in the entry's own unit; percent entries
#: feed the dashboard's accuracy chart.
ACCURACY_ENTRIES: tuple[dict, ...] = (
    {"id": "fig2-divergent", "figure": "Fig. 2",
     "metric": "loads issuing >1 request", "unit": "pct",
     "paper": 56.0, "measured": 59.0,
     "paper_text": "56%", "measured_text": "59% divergent"},
    {"id": "fig2-requests", "figure": "Fig. 2",
     "metric": "requests per load", "unit": "count",
     "paper": 5.9, "measured": 5.39,
     "paper_text": "5.9 requests/load", "measured_text": "5.39 requests/load"},
    {"id": "fig3-ratio", "figure": "Fig. 3",
     "metric": "last/first main-memory latency", "unit": "x",
     "paper": 1.6, "measured": 6.1,
     "paper_text": "≈1.6×", "measured_text": "6.1×"},
    {"id": "fig3-controllers", "figure": "Fig. 3",
     "metric": "controllers per warp", "unit": "count",
     "paper": 2.5, "measured": 2.17,
     "paper_text": "2.5 controllers/warp",
     "measured_text": "2.17 controllers/warp"},
    {"id": "fig4-coalescing", "figure": "Fig. 4",
     "metric": "perfect-coalescing speedup", "unit": "x",
     "paper": 5.0, "measured": 4.55,
     "paper_text": "≈5×", "measured_text": "4.55×"},
    {"id": "fig4-zerodiv", "figure": "Fig. 4",
     "metric": "zero-divergence speedup", "unit": "pct",
     "paper": 43.0, "measured": 60.0,
     "paper_text": "+43%", "measured_text": "+60%"},
    {"id": "table1-util", "figure": "Table I",
     "metric": "single-bank utilization bound", "unit": "pct",
     "paper": 62.0, "measured": 62.0,
     "paper_text": "62% single-bank util", "measured_text": "62.0%"},
    {"id": "fig8-wg", "figure": "Fig. 8",
     "metric": "WG speedup", "unit": "pct",
     "paper": 3.4, "measured": 8.1,
     "paper_text": "WG +3.4%", "measured_text": "WG +8.1%"},
    {"id": "fig8-wgm", "figure": "Fig. 8",
     "metric": "WG-M speedup", "unit": "pct",
     "paper": 6.2, "measured": 7.2,
     "paper_text": "WG-M +6.2%", "measured_text": "WG-M +7.2%"},
    {"id": "fig8-wgbw", "figure": "Fig. 8",
     "metric": "WG-Bw speedup", "unit": "pct",
     "paper": 8.4, "measured": 9.2,
     "paper_text": "WG-Bw +8.4%", "measured_text": "WG-Bw +9.2%"},
    {"id": "fig8-wgw", "figure": "Fig. 8",
     "metric": "WG-W speedup", "unit": "pct",
     "paper": 10.1, "measured": 9.2,
     "paper_text": "WG-W +10.1%", "measured_text": "WG-W +9.2%"},
    {"id": "fig9-wg", "figure": "Fig. 9",
     "metric": "WG effective-latency change", "unit": "pct",
     "paper": -9.1, "measured": -4.4,
     "paper_text": "WG −9.1%", "measured_text": "WG −4.4%"},
    {"id": "fig9-wgm", "figure": "Fig. 9",
     "metric": "WG-M effective-latency change", "unit": "pct",
     "paper": -16.9, "measured": -4.1,
     "paper_text": "WG-M −16.9%", "measured_text": "WG-M −4.1%"},
    {"id": "fig11-margin", "figure": "Fig. 11",
     "metric": "WG-Bw utilization margin over WG-M", "unit": "pct",
     "paper": 14.0, "measured": 1.9,
     "paper_text": ">14%", "measured_text": "+1.9%"},
    {"id": "sec6a-regular", "figure": "§VI-A",
     "metric": "regular-app geomean change", "unit": "pct",
     "paper": 1.8, "measured": -0.5,
     "paper_text": "+1.8%", "measured_text": "−0.5% geomean"},
    {"id": "sec6b-energy", "figure": "§VI-B",
     "metric": "GDDR5 energy change", "unit": "pct",
     "paper": 1.8, "measured": -1.5,
     "paper_text": "+1.8% GDDR5 power",
     "measured_text": "energy/access −1.5%"},
    {"id": "sec6c-sbwas", "figure": "§VI-C",
     "metric": "SBWAS speedup", "unit": "pct",
     "paper": 2.5, "measured": 1.9,
     "paper_text": "SBWAS +2.5%", "measured_text": "SBWAS +1.9%"},
    {"id": "sec6c-wafcfs", "figure": "§VI-C",
     "metric": "WAFCFS change", "unit": "pct",
     "paper": -11.2, "measured": -1.4,
     "paper_text": "WAFCFS −11.2%", "measured_text": "WAFCFS −1.4%"},
    {"id": "sec6c-gap", "figure": "§VI-C",
     "metric": "WG-W gap over SBWAS", "unit": "pct",
     "paper": 7.3, "measured": 7.3,
     "paper_text": "by 7.3%", "measured_text": "by 7.3pp"},
)


def accuracy_doc() -> dict:
    """The paper-accuracy export as a schema-versioned document."""
    from repro.analysis.schema import ACCURACY_SCHEMA

    return {
        "schema_version": ACCURACY_SCHEMA,
        "kind": "accuracy",
        "source": "EXPERIMENTS.md",
        "generated_by": "repro.analysis.experiments.write_accuracy",
        "entries": [_with_delta(e) for e in ACCURACY_ENTRIES],
    }


def _with_delta(entry: dict) -> dict:
    """A copy of ``entry`` with ``delta`` inserted after ``measured``."""
    out = {}
    for key, value in entry.items():
        out[key] = value
        if key == "measured":
            out["delta"] = round(entry["measured"] - entry["paper"], 6)
    return out


def write_accuracy(path: str = "results/accuracy.json") -> dict:
    """Write ``results/accuracy.json`` (and append a history record)."""
    from repro.history import record_run

    doc = accuracy_doc()
    atomic_write_json(path, doc)
    record_run("accuracy", doc)
    return doc
