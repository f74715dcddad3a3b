"""Figure recipes: benchmark results, history records and the accuracy
export -> dashboard views.

Each recipe is a pure function from already-loaded data to a
:class:`repro.dashboard.svg.Figure`; it never touches the filesystem, so
the test suite can drive every recipe from tiny fixtures.  A recipe with
nothing to show returns an *empty* figure carrying the reason (the build
layer decides which empty figures fail ``--check``).
"""

from __future__ import annotations

import os
from typing import Optional, Sequence

from repro.dashboard.svg import (
    CATEGORICAL_SLOTS,
    Figure,
    data_table,
    grouped_hbar_svg,
    legend_html,
    line_chart_svg,
)

__all__ = [
    "accuracy_figure",
    "benchmark_figure",
    "fuzz_figure",
    "scenario_matrix_figure",
]


def _short_sha(sha: str) -> str:
    return sha[:7] if sha and sha != "unknown" else "-"


# ----------------------------------------------------------------------
# 1. repository benchmark (bench/run.py results)
# ----------------------------------------------------------------------
def benchmark_figure(results: Sequence[tuple[str, dict]]) -> Figure:
    """``simulate_s`` median per workload across ``bench/run.py`` results.

    ``results`` is a sequence of ``(path, result document)`` pairs in the
    order to plot them, so several files (one per commit, oldest first)
    form a trajectory.  Times are in the benchmark's reference seconds,
    which are normalized by a calibration loop run in the same process,
    so results from different hosts sit on one axis.  The table lists
    every end-to-end median of every (file, workload).
    """
    fig = Figure(
        figure_id="benchmark",
        title="Repository benchmark",
        subtitle=(
            "bench/run.py: simulate_s median per workload and result file, "
            "in reference seconds (lower is faster)"
        ),
    )
    labels = [os.path.splitext(os.path.basename(path))[0] for path, _ in results]
    workloads: list[str] = []
    units: dict[str, str] = {}  # end-to-end metric -> unit, first-seen order
    for _, doc in results:
        for name, w in doc["workloads"].items():
            if "end_to_end" not in w:
                continue
            if name not in workloads:
                workloads.append(name)
            for metric, stat in w["end_to_end"].items():
                units.setdefault(metric, stat.get("unit", ""))
    if not workloads:
        fig.empty = True
        fig.empty_reason = (
            "no bench/run.py result with end-to-end metrics — run "
            "`python3 bench/run.py`"
        )
        return fig

    plotted = workloads[: len(CATEGORICAL_SLOTS)]
    series: dict[str, list[Optional[float]]] = {w: [] for w in plotted}
    tooltips: dict[str, list[str]] = {w: [] for w in plotted}
    rows = []
    for label, (_, doc) in zip(labels, results):
        for w in workloads:
            e2e = doc["workloads"].get(w, {}).get("end_to_end")
            sim = e2e.get("simulate_s") if e2e else None
            if w in series:
                series[w].append(round(sim["median"], 4) if sim else None)
                tooltips[w].append(
                    f"{w} · {label}: "
                    + (
                        f"{sim['median']:.3f} s [{sim['q1']:.3f}, "
                        f"{sim['q3']:.3f}], n {sim['n']}"
                        if sim else "not measured"
                    )
                )
            if e2e:
                rows.append([label, w] + [
                    f"{e2e[m]['median']:.4g}" if m in e2e else "-" for m in units
                ])

    fig.svg = line_chart_svg(
        series, labels, y_label="simulate_s (reference s)", tooltips=tooltips
    )
    if len(series) >= 2:
        fig.legend_html = legend_html(list(series))
    fig.table_html = data_table(
        ["result", "workload"] + [f"{m} ({u})" for m, u in units.items()], rows
    )
    notes = ["medians over each run's untraced repeats (bench/README.md)"]
    folded = workloads[len(CATEGORICAL_SLOTS):]
    if folded:
        notes.append(
            "not plotted (palette holds 8 series): " + ", ".join(folded)
            + " — see the table"
        )
    fig.note = "; ".join(notes)
    return fig


# ----------------------------------------------------------------------
# 2. paper-vs-measured accuracy
# ----------------------------------------------------------------------
def accuracy_figure(accuracy: Optional[dict]) -> Figure:
    """Paper value vs this repo's measured value per claim.

    Percent-unit claims with a paper value are charted (as magnitudes,
    tip labels keep the sign); the rest — ratios, multipliers, counts,
    and claims the paper makes only in words — live in the table, where
    mixed units cannot silently share an axis.
    """
    fig = Figure(
        figure_id="accuracy",
        title="Paper vs measured",
        subtitle=(
            "The paper's claims as repro reproduce measured them: the "
            "paper's value, this simulator's, and the band it must hold"
        ),
    )
    entries = (accuracy or {}).get("entries") or []
    if not entries:
        fig.empty = True
        fig.empty_reason = (
            "results/accuracy.json missing or empty — run "
            "`python -m repro reproduce --scale paper --out results/`"
        )
        return fig

    pct = [
        e for e in entries
        if e.get("unit") == "pct" and e.get("paper") is not None
    ]
    if pct:
        labels = [f"{e['figure']} · {e['metric']}" for e in pct]
        series = {
            "paper": [abs(float(e["paper"])) for e in pct],
            "measured": [abs(float(e["measured"])) for e in pct],
        }
        sign = lambda v: f"{float(v):+.1f}"  # noqa: E731
        value_texts = {
            "paper": [sign(e["paper"]) for e in pct],
            "measured": [sign(e["measured"]) for e in pct],
        }
        tooltips = {
            key: [
                f"{e['figure']} {e['metric']} — {key}: "
                f"{sign(e[key])}% (delta {float(e['delta']):+.1f})"
                for e in pct
            ]
            for key in ("paper", "measured")
        }
        fig.svg = grouped_hbar_svg(
            labels, series,
            value_label="% (magnitude)",
            tooltips=tooltips,
            value_texts=value_texts,
            label_width=290,
        )
        fig.legend_html = legend_html(["paper", "measured"])
    fig.table_html = data_table(
        ["figure", "metric", "unit", "paper", "measured", "delta", "band"],
        [
            [e.get("figure"), e.get("metric"), e.get("unit"),
             _or_dash(e.get("paper")), e.get("measured"),
             _or_dash(e.get("delta"), "{:+.2f}"), _band_text(e.get("band"))]
            for e in entries
        ],
    )
    table_only = len(entries) - len(pct)
    if table_only:
        fig.note = (
            f"{table_only} claim{'' if table_only == 1 else 's'} "
            "(ratios/multipliers/counts, or no paper value) are "
            "table-only — mixed units never share an axis"
        )
    return fig


def _or_dash(value, fmt: str = "{}") -> str:
    return "—" if value is None else fmt.format(value)


def _band_text(band) -> str:
    """``[lo, hi]``, an open side as ``−∞``/``∞``."""
    lo, hi = band or (None, None)
    return f"[{'−∞' if lo is None else lo}, {'∞' if hi is None else hi}]"


# ----------------------------------------------------------------------
# 3. fuzz / guardrail campaigns
# ----------------------------------------------------------------------
def fuzz_figure(fuzz_records: Sequence) -> Figure:
    """Differential-fuzz campaign sizes and outcomes over time."""
    fig = Figure(
        figure_id="fuzz",
        title="Fuzz campaigns",
        subtitle=(
            "Differential/metamorphic fuzzer runs from the history: "
            "cases executed per campaign and whether every oracle held"
        ),
    )
    records = [r for r in fuzz_records if isinstance(r.payload, dict)]
    if not records:
        fig.empty = True
        fig.empty_reason = (
            "no fuzz records in the history — run `python -m repro fuzz`"
        )
        return fig

    labels, vals, texts, tips, rows = [], [], [], [], []
    for r in records:
        p = r.payload
        cases = int(p.get("cases_run") or 0)
        fails = p.get("failures") or []
        clean = bool(p.get("clean", not fails))
        labels.append(f"#{r.record_id.rpartition('-')[2]}")
        vals.append(cases)
        status = "✓ clean" if clean else f"✗ {len(fails)} failed"
        texts.append(f"{cases} · {status}")
        tips.append(
            f"{r.record_id} ({_short_sha(r.git_sha)}, {r.created_utc}): "
            f"{cases} cases at {p.get('cases_per_sec', '?')}/s, {status}"
        )
        rows.append(
            [r.record_id, r.created_utc, _short_sha(r.git_sha), cases,
             p.get("cases_per_sec", "-"),
             ", ".join(str(s) for s in p.get("schedulers", ())[:4])
             + ("…" if len(p.get("schedulers", ())) > 4 else ""),
             status]
        )

    fig.svg = grouped_hbar_svg(
        labels, {"cases": vals},
        value_label="cases run",
        tooltips={"cases": tips},
        value_texts={"cases": texts},
    )
    fig.table_html = data_table(
        ["record", "created (UTC)", "git", "cases", "cases/s",
         "schedulers", "outcome"],
        rows,
    )
    total_fail = sum(
        len(r.payload.get("failures") or []) for r in records
    )
    if total_fail:
        fig.note = (
            f"✗ {total_fail} oracle failure(s) across "
            f"{len(records)} campaign(s) — artifacts under results/fuzz/"
        )
    return fig


# ----------------------------------------------------------------------
# 4. scenario comparison matrix
# ----------------------------------------------------------------------
def scenario_matrix_figure(sweep_records: Sequence) -> Figure:
    """Sweep runs grouped by scenario: one row per declarative spec.

    Sweeps launched through ``repro scenario run`` stamp their scenario
    name and spec hash into the history payload
    (docs/scenarios.md); this view compares the latest run of each
    scenario — grid size, failures, cache reuse, simulation throughput —
    and flags a scenario whose spec hash changed since its previous run
    (same name, different resolved experiment).
    """
    fig = Figure(
        figure_id="scenarios",
        title="Scenario runs",
        subtitle=(
            "Latest sweep per declarative scenario spec (scenarios/), "
            "grouped by the scenario name stamped into the history"
        ),
    )
    by_name: dict[str, list] = {}
    for r in sweep_records:
        if not isinstance(r.payload, dict):
            continue
        name = r.payload.get("scenario_name") or ""
        if name:
            by_name.setdefault(name, []).append(r)

    if not by_name:
        fig.empty = True
        fig.empty_reason = (
            "no scenario-stamped sweeps in the history — run "
            "`python -m repro scenario run scenarios/<spec>.yaml`"
        )
        return fig

    labels, done_vals, cached_vals, tips_d, tips_c, rows = [], [], [], [], [], []
    respecced = []
    for name in sorted(by_name):
        runs = by_name[name]
        latest = runs[-1]
        p = latest.payload
        spec_hash = p.get("scenario_hash") or "-"
        prev_hashes = {
            r.payload.get("scenario_hash") for r in runs[:-1]
        } - {None, spec_hash}
        if prev_hashes:
            respecced.append(name)
        done = int(p.get("jobs_done") or 0)
        total = int(p.get("jobs_total") or 0)
        failed = int(p.get("jobs_failed") or 0)
        # Records older than the removal of `--resume` count its hits apart.
        cached = int(p.get("jobs_cached") or 0) + int(p.get("jobs_skipped") or 0)
        eps = float(p.get("events_per_sec") or 0.0)
        labels.append(name)
        done_vals.append(done)
        cached_vals.append(cached)
        status = "✓" if not failed else f"✗ {failed} failed"
        tip = (
            f"{latest.record_id} ({_short_sha(latest.git_sha)}, "
            f"{latest.created_utc}): {done}/{total} jobs, {cached} from "
            f"cache, spec {spec_hash} {status}"
        )
        tips_d.append(tip)
        tips_c.append(tip)
        rows.append([
            name, spec_hash, latest.record_id, p.get("scale", "-"),
            f"{done}/{total}", cached, failed,
            f"{eps / 1000.0:.0f}k" if eps else "-", len(runs),
        ])

    fig.svg = grouped_hbar_svg(
        labels,
        {"jobs done": done_vals, "from cache": cached_vals},
        value_label="jobs (latest run)",
        tooltips={"jobs done": tips_d, "from cache": tips_c},
    )
    fig.legend_html = legend_html(["jobs done", "from cache"])
    fig.table_html = data_table(
        ["scenario", "spec", "record", "scale", "done", "cached",
         "failed", "events/s", "runs"],
        rows,
    )
    if respecced:
        fig.note = (
            "spec hash changed since the previous run for: "
            + ", ".join(sorted(respecced))
        )
    return fig
