"""Dashboard: every figure recipe renders from small fixtures (the
benchmark view from two committed ``bench/run.py`` results), the build
is self-contained, and the CLI gates on hollow builds."""

from __future__ import annotations

import json
import re
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.dashboard import REQUIRED_FIGURES, build_dashboard
from repro.dashboard.figures import (
    accuracy_figure,
    benchmark_figure,
    fuzz_figure,
)
from repro.dashboard.svg import (
    CATEGORICAL_SLOTS,
    fmt_num,
    grouped_hbar_svg,
    line_chart_svg,
    nice_ticks,
    series_var,
)
from repro.history.store import HistoryStore

#: The committed PAPER measurement of the paper's claims (read-only here).
ACCURACY = Path(__file__).resolve().parent.parent / "results" / "accuracy.json"

#: Two real ``bench/run.py`` results of one commit (read-only here).
BENCH_RESULTS = [
    str(Path(__file__).resolve().parent.parent / "bench" / "results"
        / f"same-commit-{arm}.json")
    for arm in ("a", "b")
]


# ----------------------------------------------------------------------
# fixtures
# ----------------------------------------------------------------------
def _bench_results() -> list[tuple[str, dict]]:
    return [(path, json.loads(Path(path).read_text())) for path in BENCH_RESULTS]


def _fuzz_payload(clean: bool) -> dict:
    return {
        "schema_version": 1, "campaign_seed": 3,
        "schedulers": ["gmc", "wg", "wg-m", "wg-bw", "wg-w"],
        "cases_run": 120, "wall_seconds": 30.0, "cases_per_sec": 4.0,
        "clean": clean,
        "failures": [] if clean else [
            {"case_index": 5, "oracle": "conservation", "scheduler": "wg",
             "detail": "lost request", "artifact_path": "a.json",
             "minimized_warps": 2},
        ],
    }


@pytest.fixture
def store(tmp_path, monkeypatch) -> HistoryStore:
    monkeypatch.setenv("REPRO_GIT_SHA", "feedc0de1234567")
    s = HistoryStore(str(tmp_path / "history"))
    s.append("fuzz", _fuzz_payload(clean=True))
    s.append("fuzz", _fuzz_payload(clean=False))
    return s


def _assert_valid_svg(svg: str) -> ET.Element:
    assert svg.startswith("<svg")
    return ET.fromstring(svg)


# ----------------------------------------------------------------------
# figure recipes
# ----------------------------------------------------------------------
def test_benchmark_figure_renders():
    results = _bench_results()
    workloads = list(results[0][1]["workloads"])
    assert len(workloads) == 5
    fig = benchmark_figure(results)
    assert not fig.empty
    _assert_valid_svg(fig.svg)
    # one point per (file, workload), files in the given order on x
    assert fig.svg.count("<circle") == len(results) * len(workloads)
    assert fig.svg.index("same-commit-a") < fig.svg.index("same-commit-b")
    for path, doc in results:
        label = Path(path).stem
        for w in workloads:
            sim = doc["workloads"][w]["end_to_end"]["simulate_s"]["median"]
            assert f"{w} · {label}: {sim:.3f} s" in fig.svg
    assert all(w in fig.legend_html for w in workloads)
    assert "simulate_s" in fig.svg


def test_benchmark_table_lists_end_to_end_medians():
    results = _bench_results()
    fig = benchmark_figure(results)
    # header + one row per (file, workload)
    assert fig.table_html.count("<tr>") == 1 + 2 * 5
    for metric in ("wall_s (s)", "setup_s (s)", "simulate_s (s)", "peak_rss_mb (MB)"):
        assert metric in fig.table_html
    e2e = results[1][1]["workloads"]["stream-gmc"]["end_to_end"]
    for metric in ("wall_s", "setup_s", "simulate_s", "peak_rss_mb"):
        assert f"{e2e[metric]['median']:.4g}" in fig.table_html


def test_benchmark_figure_empty():
    failed_run = ("r.json", {"workloads": {"nw-wgw": {"failed": 3}}})
    for results in ([], [failed_run]):
        fig = benchmark_figure(results)
        assert fig.empty and "bench/run.py" in fig.empty_reason


def test_benchmark_figure_folds_workloads_past_palette():
    path, doc = _bench_results()[0]
    one = doc["workloads"]["bfs-wg"]
    n = len(CATEGORICAL_SLOTS) + 2
    wide = {"workloads": {f"w{i}": one for i in range(n)}}
    fig = benchmark_figure([(path, wide)])
    assert not fig.empty
    assert "not plotted" in fig.note and "w8, w9" in fig.note
    # never more series than palette slots; the table keeps them all
    assert fig.svg.count("<circle") == len(CATEGORICAL_SLOTS)
    assert fig.table_html.count("<tr>") == 1 + n


def test_accuracy_figure_renders_real_export():
    doc = json.loads(ACCURACY.read_text())
    fig = accuracy_figure(doc)
    assert not fig.empty
    _assert_valid_svg(fig.svg)
    # signed tip labels survive the magnitude plot
    assert "-9.1" in fig.svg and "+8.1" in fig.svg
    assert "paper" in fig.legend_html and "measured" in fig.legend_html
    # only percent claims with a paper value are charted
    assert "WG-M speedup" in fig.svg
    assert "WG-Bw effective-latency change" not in fig.svg  # no paper value
    assert "requests per load" not in fig.svg  # not a percent
    # every claim lands in the table with its band, charted or not
    assert fig.table_html.count("<tr>") == 1 + len(doc["entries"])
    assert "[56.01, 61.91]" in fig.table_html and "[1.0, ∞]" in fig.table_html
    assert "table-only" in fig.note


def test_accuracy_figure_empty():
    for doc in (None, {}, {"entries": []}):
        fig = accuracy_figure(doc)
        assert fig.empty
        assert "repro reproduce --scale paper --out results/" in fig.empty_reason


def test_fuzz_figure_renders(store):
    fig = fuzz_figure(store.records("fuzz"))
    assert not fig.empty
    _assert_valid_svg(fig.svg)
    # outcome is icon + label, never color alone
    assert "✓ clean" in fig.svg and "✗ 1 failed" in fig.svg
    assert "1 oracle failure" in fig.note
    assert fig.table_html.count("<tr>") == 1 + 2


def test_fuzz_figure_empty():
    fig = fuzz_figure([])
    assert fig.empty and "repro fuzz" in fig.empty_reason


# ----------------------------------------------------------------------
# build
# ----------------------------------------------------------------------
def test_build_dashboard_self_contained(store, tmp_path):
    out = tmp_path / "dash"
    build = build_dashboard(
        store.root, str(out), accuracy_path=str(ACCURACY),
        bench_paths=BENCH_RESULTS,
    )
    assert build.ok, build.problems
    html = (out / "index.html").read_text()
    # one portable file: no scripts, no network fetches, inline SVG only
    assert "<script" not in html
    assert "http://" not in html and "https://" not in html.replace(
        "https://ui.perfetto.dev", ""
    )
    assert html.count("<svg") == 3
    for figure_id in ("benchmark", "accuracy", "fuzz"):
        assert f'id="{figure_id}"' in html
    # dark mode ships as its own validated steps, not an automatic flip
    assert "prefers-color-scheme: dark" in html
    assert "#2a78d6" in html and "#3987e5" in html
    # hero tiles and provenance stamp
    assert "history records" in html
    assert "feedc0de" in html


def test_build_dashboard_hollow_store_fails_check(tmp_path):
    missing = str(tmp_path / "no-result.json")
    build = build_dashboard(
        str(tmp_path / "nohistory"), str(tmp_path / "dash"),
        bench_paths=[missing],
    )
    assert not build.ok
    flagged = {
        p.split("'")[1] for p in build.problems
        if p.startswith("required figure")
    }
    assert flagged == set(REQUIRED_FIGURES) == {"benchmark", "accuracy"}
    assert any(missing in p and "unreadable" in p for p in build.problems)
    # the page is still written (with empty-state reasons) for debugging
    assert (tmp_path / "dash" / "index.html").exists()
    assert "EMPTY" in build.summary()


def test_build_dashboard_surfaces_skipped_lines(store, tmp_path):
    with open(store.path("fuzz"), "a") as fh:
        fh.write("not json at all\n")
    build_dashboard(
        store.root, str(tmp_path / "dash"), bench_paths=BENCH_RESULTS
    )
    html = (tmp_path / "dash" / "index.html").read_text()
    assert "Skipped history lines" in html
    assert "unparsable" in html


def test_build_dashboard_bad_accuracy_is_a_problem(store, tmp_path):
    acc = tmp_path / "accuracy.json"
    acc.write_text("{broken")
    build = build_dashboard(
        store.root, str(tmp_path / "dash"), accuracy_path=str(acc),
        bench_paths=BENCH_RESULTS,
    )
    assert any(
        p.startswith("accuracy export") and "unreadable" in p
        for p in build.problems
    )


# ----------------------------------------------------------------------
# SVG primitives
# ----------------------------------------------------------------------
def test_palette_is_never_cycled():
    with pytest.raises(ValueError):
        series_var(len(CATEGORICAL_SLOTS))
    too_many = {f"s{i}": [1.0] for i in range(len(CATEGORICAL_SLOTS) + 1)}
    with pytest.raises(ValueError, match="fold"):
        line_chart_svg(too_many, ["x"])
    with pytest.raises(ValueError, match="fold"):
        grouped_hbar_svg(["a"], too_many)


def test_line_chart_handles_gaps_and_escaping():
    svg = line_chart_svg(
        {"a<b": [1.0, None, 3.0]}, ["t0", "t1", "t2"], y_label="<v>"
    )
    root = ET.fromstring(svg)
    assert svg.count("<circle") == 2  # the None point draws nothing
    assert "a&lt;b" in svg and "&lt;v&gt;" in svg
    assert root.get("viewBox")


def test_grouped_hbar_value_texts_and_tooltips():
    svg = grouped_hbar_svg(
        ["row"], {"s": [2.0]},
        tooltips={"s": ["custom tip"]},
        value_texts={"s": ["+2.0%"]},
    )
    ET.fromstring(svg)
    assert "custom tip" in svg and "+2.0%" in svg
    assert "<title>" in svg


def test_empty_inputs_render_nothing():
    assert line_chart_svg({}, []) == ""
    assert grouped_hbar_svg([], {}) == ""


def test_nice_ticks_cover_range():
    for vmax in (0.013, 0.9, 1.0, 7.3, 42.0, 123_456.0):
        ticks = nice_ticks(vmax)
        assert ticks[0] == 0.0
        assert ticks[-1] >= vmax
        assert ticks == sorted(ticks)
        assert 3 <= len(ticks) <= 8
    assert nice_ticks(0.0) == [0.0, 1.0]


def test_fmt_num():
    assert fmt_num(0) == "0"
    assert fmt_num(7.25) == "7.25"
    assert fmt_num(950) == "950"
    assert fmt_num(12_500) == "12.5k"
    assert fmt_num(3_200_000) == "3.2M"
    assert fmt_num(0.013) == "0.013"


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_dashboard_check_gates(tmp_path, capsys):
    out = str(tmp_path / "dash")
    # A bench/run.py result plus an accuracy export is enough: the
    # history may be empty.
    args = ["dashboard", "--out", out, "--check",
            "--history-dir", str(tmp_path / "empty-history"),
            "--accuracy", str(ACCURACY)]
    assert main(args + ["--bench", BENCH_RESULTS[0]]) == 0
    err = capsys.readouterr().err
    assert re.search(r"benchmark\s+ok", err)
    assert re.search(r"accuracy\s+ok", err)

    missing = str(tmp_path / "result.json")
    assert main(args + ["--bench", missing]) == 1
    err = capsys.readouterr().err
    assert "hollow" in err and missing in err


def test_cli_history_list_show_diff(store, capsys):
    store.append("sweep", _sweep_payload("ci-tiny", "bbbbbbbbbbbb"))
    assert main(["history", "--dir", store.root, "list"]) == 0
    out = capsys.readouterr().out
    assert "sweep-0001" in out and "fuzz-0002" in out

    assert main(["history", "--dir", store.root, "list",
                 "--kind", "fuzz", "--limit", "1"]) == 0
    out = capsys.readouterr().out
    assert "fuzz-0002" in out and "fuzz-0001" not in out and "sweep" not in out

    assert main(["history", "--dir", store.root, "show", "fuzz-0002"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["id"] == "fuzz-0002"

    # Same-kind diff: changed scalars by value, structured keys by name.
    assert main(["history", "--dir", store.root,
                 "diff", "fuzz-0001", "fuzz-0002"]) == 0
    out = capsys.readouterr().out
    assert "clean: True -> False" in out
    assert "failures: differs" in out


def test_cli_history_errors(store, capsys):
    store.append("sweep", _sweep_payload("ci-tiny", "bbbbbbbbbbbb"))
    assert main(["history", "--dir", store.root, "show", "nope-0001"]) == 2
    assert "no record" in capsys.readouterr().err
    assert main(["history", "--dir", store.root,
                 "diff", "sweep-0001", "fuzz-0001"]) == 2
    assert "cannot diff" in capsys.readouterr().err


# ----------------------------------------------------------------------
# scenario matrix (sweeps stamped by repro scenario run / sweep --spec)
# ----------------------------------------------------------------------
def _sweep_payload(name, spec_hash, *, done=4, cached=0, failed=0):
    return {
        "schema_version": 1, "kind": "synthetic", "scale": "TINY",
        "scenario_name": name, "scenario_hash": spec_hash,
        "jobs_total": done + failed, "jobs_done": done,
        "jobs_failed": failed, "jobs_cached": cached,
        "events_per_sec": 52_000.0,
        "config_hash": "de61331da800", "jobs": [],
    }


def test_scenario_matrix_renders(store):
    from repro.dashboard.figures import scenario_matrix_figure

    store.append("sweep", _sweep_payload("fig8-baseline", "aaaaaaaaaaaa"))
    store.append("sweep", _sweep_payload("ci-tiny", "bbbbbbbbbbbb", cached=2))
    # Unstamped sweeps (`reproduce`, a direct `run_sweep`)
    # are ignored, not an error.
    store.append("sweep", {
        "schema_version": 1, "jobs_done": 1,
        "config_hash": "de61331da800", "jobs": [],
    })
    fig = scenario_matrix_figure(store.records("sweep"))
    assert not fig.empty
    _assert_valid_svg(fig.svg)
    assert "fig8-baseline" in fig.svg and "ci-tiny" in fig.svg
    assert fig.table_html.count("<tr>") == 1 + 2  # header + one per scenario
    assert "aaaaaaaaaaaa" in fig.table_html
    assert not fig.note  # no spec drift


def test_scenario_matrix_flags_spec_hash_drift(store):
    from repro.dashboard.figures import scenario_matrix_figure

    store.append("sweep", _sweep_payload("fig8-baseline", "aaaaaaaaaaaa"))
    store.append("sweep", _sweep_payload("fig8-baseline", "cccccccccccc"))
    fig = scenario_matrix_figure(store.records("sweep"))
    assert "spec hash changed" in fig.note
    assert "fig8-baseline" in fig.note
    # The latest run's hash is the one shown in the table.
    assert "cccccccccccc" in fig.table_html


def test_scenario_matrix_empty(store):
    from repro.dashboard.figures import scenario_matrix_figure

    fig = scenario_matrix_figure(store.records("sweep"))
    assert fig.empty and "scenario run" in fig.empty_reason
    # An empty scenario view must not hollow the build: it is not required.
    assert "scenarios" not in REQUIRED_FIGURES
