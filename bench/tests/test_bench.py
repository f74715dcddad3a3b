"""Tests of the benchmark itself: ``python -m pytest bench/tests``."""

from __future__ import annotations

import copy
import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import compare  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def test_benchmark_json_shape():
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [
        m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) and len(n) <= 64 for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_every_workload_has_an_implementation():
    import repeat

    assert [w["name"] for w in SPEC["workloads"]] == list(repeat.WORKLOADS)


@pytest.fixture(scope="module")
def bfs_run(tmp_path_factory):
    """One untraced and one traced repeat of bfs-wg, through ``run.main``."""
    out = tmp_path_factory.mktemp("bench") / "result.json"
    status = run.main(["--workload", "bfs-wg", "--repeats", "1", "--trace", "1",
                       "--out", str(out)])
    return status, json.loads(out.read_text())


def test_one_repeat_emits_every_declared_metric(bfs_run):
    status, result = bfs_run
    assert status == 0
    w = result["workloads"]["bfs-wg"]
    assert (w["attempted"], w["failed"]) == (2, 0)
    for m in SPEC["end_to_end"]:
        assert w["end_to_end"][m["name"]]["unit"] == m["unit"]
        assert w["end_to_end"][m["name"]]["median"] > 0
    for m in SPEC["per_layer"]:
        assert w["per_layer"][m["name"]]["unit"] == m["unit"]
    assert result["src_lines"] > 0


def test_traced_output_equals_untraced(bfs_run):
    _, result = bfs_run
    repeats = result["workloads"]["bfs-wg"]["repeats"]
    assert sorted(r["traced"] for r in repeats) == [False, True]
    assert len({(r["sha"], r["events"]) for r in repeats}) == 1


def test_layer_shares_sum_to_one(bfs_run):
    _, result = bfs_run
    per_layer = result["workloads"]["bfs-wg"]["per_layer"]
    shares = [v["value"] for k, v in per_layer.items() if k.endswith(".share")]
    assert len(shares) == 7
    assert sum(shares) == pytest.approx(1.0, abs=0.02)
    assert all(s >= 0 for s in shares)


def test_nondeterminism_fails_the_run(bfs_run, monkeypatch, tmp_path, capsys):
    _, result = bfs_run
    real = [r for r in result["workloads"]["bfs-wg"]["repeats"] if not r["traced"]][0]
    calls = []

    def fake_child(workload, seed, traced):
        record = copy.deepcopy(real)
        record.update(seed=seed, traced=traced)
        calls.append(record)
        if len(calls) == 7:  # the second repeat of one input differs
            record["sha"] = "0" * 16
        return record

    monkeypatch.setattr(run, "run_child", fake_child)
    out = tmp_path / "result.json"
    status = run.main(["--workload", "bfs-wg", "--repeats", "8", "--trace", "0",
                       "--out", str(out)])
    w = json.loads(out.read_text())["workloads"]["bfs-wg"]
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert sorted({r["seed"] for r in w["repeats"]}) == [1, 1001, 2001, 3001]
    assert status != 0
    assert w["failed_frac"] == pytest.approx(1 / 8)
    assert (last["correct"], last["attempted"], last["failed"]) == (False, 8, 1)


def test_missing_sources_exit_without_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--repeats", "1"]) != 0
    assert capsys.readouterr().out == ""


def _side(values):
    values = sorted(values)
    return {"median": values[len(values) // 2], "q1": values[1], "q3": values[-2],
            "values": values}


@pytest.mark.parametrize(
    "a, b, expected",
    [
        ([1.00, 1.01, 1.02, 1.03, 1.04], [1.00, 1.01, 1.02, 1.03, 1.04], "no-change"),
        ([1.00, 1.01, 1.02, 1.03, 1.04], [1.30, 1.31, 1.32, 1.33, 1.34], "worse"),
        ([1.00, 1.01, 1.02, 1.03, 1.04], [0.90, 0.91, 0.92, 0.93, 0.94], "better"),
        ([0.5, 0.8, 1.0, 1.3, 1.6], [0.6, 0.9, 1.1, 1.4, 1.7], "unresolved"),
    ],
)
def test_compare_verdicts(a, b, expected):
    assert compare.verdict(_side(a), _side(b), 0.2, lower_is_better=True) == expected
