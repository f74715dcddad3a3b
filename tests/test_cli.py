"""Tests for the ``python -m repro`` command-line interface."""

import fnmatch
import json
import os

import pytest

from repro.__main__ import main


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "bfs" in out and "wg-w" in out


def test_run_prints_summary(capsys):
    assert main(["run", "sad", "--scale", "tiny", "--scheduler", "gmc"]) == 0
    out = capsys.readouterr().out
    assert "ipc" in out
    assert "row_hit_rate" in out


def test_run_algorithmic_kind(capsys):
    assert main(
        ["run", "sad", "--scale", "tiny", "--kind", "algorithmic"]
    ) == 0
    assert "ipc" in capsys.readouterr().out


def test_rejects_unknown_benchmark():
    with pytest.raises(SystemExit):
        main(["run", "not-a-benchmark"])


@pytest.mark.parametrize("gone", ["sweep", "compare"])
def test_one_front_end_per_job(gone, capsys):
    """``scenario run`` is the grid runner and ``reproduce`` the
    evaluation runner; the duplicate front ends are not commands."""
    with pytest.raises(SystemExit) as exc_info:
        main([gone])
    assert exc_info.value.code == 2
    assert f"invalid choice: '{gone}'" in capsys.readouterr().err


def test_reproduce_only_table1_simulates_nothing(tmp_path, capsys):
    cache = tmp_path / "cache"
    assert main([
        "reproduce", "--scale", "tiny", "--seeds", "1",
        "--cache-dir", str(cache), "--only", "table1",
    ]) == 0
    assert "Table I - MERB values" in capsys.readouterr().out
    assert not cache.exists() or not os.listdir(cache)


def test_reproduce_only_writes_each_table(tmp_path, capsys):
    out_dir = tmp_path / "tables"
    cache = tmp_path / "cache"
    assert main([
        "reproduce", "--scale", "tiny", "--seeds", "1",
        "--cache-dir", str(cache),
        "--only", "table1", "fig2", "--out", str(out_dir),
    ]) == 0
    # Exactly the runs Fig. 2 reads: the irregular suite under GMC.
    names = os.listdir(cache)
    assert len(names) == 11
    assert all(
        fnmatch.fnmatch(n, "synthetic-*-gmc-TINY-s1-p0-*.json") for n in names
    ), names
    out = capsys.readouterr().out
    assert "Table I - MERB values" in out and "Fig. 2 - Coalescing" in out
    assert out.index("Table I") < out.index("Fig. 2")  # the order asked for
    for other in ("Fig. 3", "Fig. 4", "Fig. 8", "Sec VI"):
        assert other not in out
    assert sorted(os.listdir(out_dir)) == ["fig2.txt", "table1.txt"]
    for rid, title in (("table1", "Table I"), ("fig2", "Fig. 2")):
        text = (out_dir / f"{rid}.txt").read_text()
        assert title in text and text in out


def test_run_json_output(capsys):
    assert main(["run", "sad", "--scale", "tiny", "--json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert {"ipc", "row_hit_rate", "effective_latency_ns"} <= set(summary)
    assert all(isinstance(v, (int, float)) for v in summary.values())


def test_run_exports_metrics_and_trace(tmp_path, capsys):
    mpath = tmp_path / "m.json"
    tpath = tmp_path / "t.json"
    assert main([
        "run", "sad", "--scale", "tiny",
        "--metrics-out", str(mpath), "--trace-out", str(tpath),
    ]) == 0
    captured = capsys.readouterr()
    assert "events/s" in captured.err  # wall-clock report on stderr
    bundle = json.loads(mpath.read_text())
    assert bundle["schema_version"] == 1
    assert len(bundle["intervals"]) >= 2
    trace = json.loads(tpath.read_text())
    assert trace["displayTimeUnit"] == "ns"
    assert any(e["ph"] == "X" for e in trace["traceEvents"])


def test_run_metrics_csv(tmp_path):
    cpath = tmp_path / "m.csv"
    assert main([
        "run", "sad", "--scale", "tiny", "--metrics-out", str(cpath),
    ]) == 0
    header, *rows = cpath.read_text().strip().splitlines()
    assert "t_ps" in header.split(",")
    assert len(rows) >= 2


def test_run_profile_report(capsys):
    assert main(["run", "sad", "--scale", "tiny", "--profile"]) == 0
    err = capsys.readouterr().err
    assert "component" in err and "SMCore" in err


# ---------------------------------------------------------------------------
# runtime guardrail flags (docs/robustness.md)
# ---------------------------------------------------------------------------
def test_run_with_guardrails_enabled(capsys):
    assert main(
        ["run", "sad", "--scale", "tiny", "--invariants", "--audit", "--json"]
    ) == 0
    assert json.loads(capsys.readouterr().out)["ipc"] > 0


def test_run_checkpoint_then_restore_is_identical(tmp_path, capsys):
    ckpt = tmp_path / "snap.ckpt"
    assert main([
        "run", "sad", "--scale", "tiny", "--json",
        "--checkpoint-period", "1500", "--checkpoint-out", str(ckpt),
    ]) == 0
    full = json.loads(capsys.readouterr().out)
    assert ckpt.exists()  # a mid-run snapshot was left behind
    assert main(["run", "--restore-from", str(ckpt), "--json"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out) == full  # resumed == uninterrupted
    assert "restoring" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "sad", "--checkpoint-period", "100"],  # no --checkpoint-out
        ["run", "sad", "--checkpoint-out", "x.ckpt"],  # no period
        ["run", "sad", "--checkpoint-period", "100", "--checkpoint-out",
         "x.ckpt", "--metrics-out", "m.json"],  # telemetry can't checkpoint
        ["run", "sad", "--restore-from", "x.ckpt"],  # benchmark + restore
        ["run", "--restore-from", "x.ckpt", "--seed", "3"],  # baked-in knob
        ["run", "--restore-from", "x.ckpt", "--scheduler", "wg"],
        ["run", "--restore-from", "x.ckpt", "--audit"],  # mid-run guardrail
        ["run", "--restore-from", "x.ckpt", "--profile"],  # mid-run telemetry
        ["run"],  # no benchmark, no snapshot
        ["run", "--restore-from", "does-not-exist.ckpt"],  # missing file
    ],
    ids=lambda argv: " ".join(argv[1:]),
)
def test_run_rejects_nonsensical_flag_combinations(argv, capsys):
    assert main(argv) == 2
    assert "error" in capsys.readouterr().err


def test_checkpoint_period_must_be_positive():
    with pytest.raises(SystemExit):
        main(["run", "sad", "--checkpoint-period", "0",
              "--checkpoint-out", "x.ckpt"])


@pytest.mark.parametrize(
    "override, fragment",
    [
        ("dram_timing.tras_ns=5", "tRAS"),
        ("dram_timing.trc_ns=20", "tRC"),
        ("dram_timing.tfaw_ns=10", "tFAW"),
        ("mc.command_queue_depth=0", "positive queue size"),
        ("mc.write_queue_entries=-4", "positive queue size"),
        ("nonsense.field=1", "unknown config field"),
        ("seed=3", "unknown config field 'seed'"),
        ("dram_timing.tras_ns", "section.field=value"),
    ],
    ids=lambda v: v if "=" in str(v) else str(v),
)
def test_run_set_rejects_invalid_configs(override, fragment, capsys):
    assert main(["run", "sad", "--scale", "tiny", "--set", override]) == 2
    err = capsys.readouterr().err
    assert "invalid configuration" in err and fragment in err


def test_run_set_applies_valid_overrides(capsys):
    assert main([
        "run", "sad", "--scale", "tiny", "--json",
        "--set", "use_l1=false", "--set", "mc.command_queue_depth=2",
    ]) == 0
    assert "ipc" in capsys.readouterr().out


@pytest.mark.parametrize(
    "override, fragment",
    [
        # Three-level nested paths used to be rejected outright ("at most
        # one dot"); now they resolve through the whole config tree.
        ("gpu.l1.nonsense=1", "valid fields under 'gpu.l1'"),
        ("gpu.l1.size_bytes.extra=1", "goes one level too deep"),
        ("gpu.l1=8", "names a whole section"),
        ("dram_timing.tras_ps=30", "derived"),
    ],
)
def test_run_set_nested_path_errors_name_field_tree(override, fragment, capsys):
    assert main(["run", "sad", "--scale", "tiny", "--set", override]) == 2
    assert fragment in capsys.readouterr().err


def test_run_set_applies_three_level_override(capsys):
    assert main([
        "run", "sad", "--scale", "tiny", "--json",
        "--set", "gpu.l1.size_bytes=32768",
        "--set", "gpu.l2_slice.ways=16",
    ]) == 0
    assert "ipc" in capsys.readouterr().out


def test_run_set_sibling_watermarks_validate_together(capsys):
    """Regression: lowering both watermarks below their old values used
    to fail transiently when edits were applied one at a time."""
    assert main([
        "run", "sad", "--scale", "tiny", "--json",
        "--set", "mc.write_low_watermark=4",
        "--set", "mc.write_high_watermark=8",
    ]) == 0
    assert "ipc" in capsys.readouterr().out
