"""Dashboard assembly: benchmark results + history store + accuracy
export -> static HTML.

:func:`build_dashboard` loads ``bench/run.py`` result files, the run
history and the accuracy export, renders every figure recipe, and writes
one self-contained ``index.html`` — inline CSS and SVG, zero JavaScript,
zero network fetches — so the artifact can be opened from a CI tarball
or a local checkout identically.  The returned :class:`DashboardBuild`
lists which figures rendered and which came up empty, and ``problems``
names every unreadable input and every *required* figure without data,
so ``repro dashboard --check`` and the CI job can fail on a hollow build
instead of shipping a blank page.
"""

from __future__ import annotations

import html
import json
import os
import time
import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.dashboard.figures import (
    accuracy_figure,
    benchmark_figure,
    fuzz_figure,
    scenario_matrix_figure,
)
from repro.dashboard.svg import STYLE, Figure, stat_tiles
from repro.history.store import HistoryStore, git_sha

__all__ = [
    "DEFAULT_BENCH_RESULTS",
    "DashboardBuild",
    "REQUIRED_FIGURES",
    "build_dashboard",
]

#: Figures ``--check`` refuses to ship empty (the fuzz and scenario views
#: may be legitimately empty on a fresh checkout; these two may not).
REQUIRED_FIGURES = ("benchmark", "accuracy")

#: Where ``python3 bench/run.py`` writes its result by default.
DEFAULT_BENCH_RESULTS = (os.path.join("bench", "out", "result.json"),)

_TITLE = "DRAM latency divergence — experiment dashboard"


@dataclass
class DashboardBuild:
    """What one build produced, for callers that need to gate on it."""

    index_path: str
    figures: list[Figure] = field(default_factory=list)
    #: Required figures that rendered empty (reason included), plus any
    #: accuracy-file read errors.  Non-empty => the build is hollow.
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def summary(self) -> str:
        lines = [f"dashboard: {self.index_path}"]
        for fig in self.figures:
            state = f"EMPTY ({fig.empty_reason})" if fig.empty else "ok"
            lines.append(f"  {fig.figure_id:12s} {state}")
        for p in self.problems:
            lines.append(f"  PROBLEM: {p}")
        return "\n".join(lines)


def _load_accuracy(path: str) -> tuple[Optional[dict], Optional[str]]:
    """(accuracy doc, problem) — a missing file is not a problem here;
    the figure reports it as its empty reason."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        return None, None
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        return None, f"accuracy export {path} unreadable: {exc}"
    if not isinstance(doc, dict):
        return None, f"accuracy export {path} is not a JSON object"
    return doc, None


def _load_bench_results(
    paths: Sequence[str],
) -> tuple[list[tuple[str, dict]], list[str]]:
    """(``(path, result)`` pairs, problems): every named file must be a
    readable ``bench/run.py`` result; a missing one is a problem too."""
    results, problems = [], []
    for path in paths:
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as exc:
            problems.append(f"benchmark result {path} unreadable: {exc}")
            continue
        if not (isinstance(doc, dict) and isinstance(doc.get("workloads"), dict)):
            problems.append(
                f"benchmark result {path} is not a bench/run.py result "
                "(no 'workloads' object)"
            )
            continue
        results.append((path, doc))
    return results, problems


def build_dashboard(
    history_dir: str,
    out_dir: str,
    accuracy_path: Optional[str] = None,
    bench_paths: Sequence[str] = DEFAULT_BENCH_RESULTS,
    require: Sequence[str] = REQUIRED_FIGURES,
) -> DashboardBuild:
    """Render the dashboard into ``out_dir/index.html``.

    ``accuracy_path`` defaults to ``results/accuracy.json`` next to the
    history directory's parent (the conventional layout).
    ``bench_paths`` are ``bench/run.py`` result files, plotted in the
    given order.  ``require`` lists figure ids that must have data for
    the build to count as ok.
    """
    store = HistoryStore(history_dir)
    if accuracy_path is None:
        accuracy_path = os.path.join(
            os.path.dirname(history_dir.rstrip("/\\")) or ".",
            "accuracy.json",
        )
    accuracy, acc_problem = _load_accuracy(accuracy_path)
    bench_results, bench_problems = _load_bench_results(bench_paths)

    # The whole build runs under one warning trap: skipped-line warnings
    # from any read (including the hero tiles') land on the page instead
    # of the caller's stderr, and are never raised twice.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fuzz = store.records("fuzz")
        sweeps = store.records("sweep")
        skipped = sorted({str(w.message) for w in caught})

        figures = [
            benchmark_figure(bench_results),
            accuracy_figure(accuracy),
            # Not in REQUIRED_FIGURES: a history without scenario-stamped
            # sweeps is normal (scenarios are opt-in).
            scenario_matrix_figure(sweeps),
            fuzz_figure(fuzz),
        ]

        build = DashboardBuild(
            index_path=os.path.join(out_dir, "index.html")
        )
        build.figures = figures
        build.problems.extend(bench_problems)
        if acc_problem:
            build.problems.append(acc_problem)
        for fig in figures:
            if fig.empty and fig.figure_id in require:
                build.problems.append(
                    f"required figure '{fig.figure_id}' is empty: "
                    f"{fig.empty_reason}"
                )

        os.makedirs(out_dir, exist_ok=True)
        with open(build.index_path, "w") as fh:
            fh.write(_render_page(store, figures, accuracy, skipped))
    return build


# ----------------------------------------------------------------------
# page assembly
# ----------------------------------------------------------------------
def _esc(text: object) -> str:
    return html.escape(str(text), quote=True)


def _hero_tiles(
    store: HistoryStore, accuracy: Optional[dict]
) -> str:
    tiles = []
    n_records = sum(len(store.records(k)) for k in store.kinds())
    tiles.append({
        "label": "history records",
        "value": f"{n_records}",
        "note": ", ".join(store.kinds()) or "store is empty",
    })
    fuzz = store.latest("fuzz")
    if fuzz and isinstance(fuzz.payload, dict):
        clean = bool(fuzz.payload.get(
            "clean", not fuzz.payload.get("failures")
        ))
        tiles.append({
            "label": "latest fuzz campaign",
            "value": "✓ clean" if clean else "✗ failures",
            "tone": "ok" if clean else "bad",
            "note": f"{fuzz.payload.get('cases_run', '?')} cases",
        })
    entries = (accuracy or {}).get("entries") or []
    if entries:
        against_paper = [e for e in entries if e.get("delta") is not None]
        note = f"{len(against_paper)} with a paper value"
        if against_paper:
            worst = max(against_paper, key=lambda e: abs(float(e["delta"])))
            note += (
                f"; worst delta {float(worst['delta']):+.1f} "
                f"({worst['figure']} {worst['metric']})"
            )
        tiles.append({
            "label": "paper claims",
            "value": f"{len(entries)}",
            "note": note,
        })
    return stat_tiles(tiles)


def _render_page(
    store: HistoryStore,
    figures: Sequence[Figure],
    accuracy: Optional[dict],
    skipped_warnings: Sequence[str],
) -> str:
    now = time.strftime("%Y-%m-%d %H:%M UTC", time.gmtime())
    sha = git_sha()
    parts = [
        "<!doctype html>",
        '<html lang="en"><head><meta charset="utf-8">',
        '<meta name="viewport" content="width=device-width, initial-scale=1">',
        f"<title>{_esc(_TITLE)}</title>",
        f"<style>{STYLE}</style>",
        "</head><body><main>",
        f"<h1>{_esc(_TITLE)}</h1>",
        '<p class="sub">Managing DRAM Latency Divergence in Irregular '
        "GPGPU Applications — reproduction status</p>",
        f'<p class="meta">generated {_esc(now)} · git {_esc(sha[:12])} · '
        f"history: {_esc(store.root)}</p>",
        _hero_tiles(store, accuracy),
    ]
    parts.extend(fig.to_html() for fig in figures)
    if skipped_warnings:
        items = "".join(f"<li>{_esc(w)}</li>" for w in skipped_warnings)
        parts.append(
            '<section class="card"><h2>Skipped history lines</h2>'
            f'<ul class="sub">{items}</ul></section>'
        )
    parts.append(
        "<footer>Static build — no scripts, no network. "
        "Regenerate with <code>python -m repro dashboard</code>; "
        "benchmark with <code>python3 bench/run.py</code>; "
        "ingest runs via <code>python -m repro scenario run</code> / "
        "<code>fuzz</code> / <code>reproduce --out</code>.</footer>"
    )
    parts.append("</main></body></html>")
    return "\n".join(parts)
