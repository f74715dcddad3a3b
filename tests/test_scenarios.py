"""Tests for declarative scenario specs (repro.scenarios).

Covers the whole tentpole path: YAML/JSON loading with file/line-accurate
errors, preset + override resolution through the real config validators,
the committed ``scenarios/`` library, sweep execution with scenario
stamping into the history store, cache bit-identity with hand-coded
sweeps, and the CLI surface (``repro scenario ...``).
"""

import dataclasses
import json
import os
import textwrap

import pytest

from repro.__main__ import main
from repro.analysis.runner import ExperimentRunner, config_hash
from repro.analysis.sweep import run_sweep
from repro.core.config import SimConfig
from repro.scenarios import (
    KNOWN_METRICS,
    ScenarioSpec,
    SpecError,
    find_specs,
    load_spec,
    run_scenario,
    validate_spec_file,
)
from repro.workloads.suite import Scale

from helpers import cache_entries, grid, input_trace

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LIBRARY = os.path.join(REPO, "scenarios")


def write_spec(tmp_path, body: str, name: str = "spec.yaml") -> str:
    path = tmp_path / name
    path.write_text(textwrap.dedent(body))
    return str(path)


TINY_SPEC = """\
spec_version: 1
name: t-tiny
workload:
  kind: synthetic
  benchmarks: [sad]
schedulers: [gmc, wg]
scale: tiny
seeds: [1]
figure:
  metric: ipc
  normalize_to: gmc
"""


# ---------------------------------------------------------------------------
# spec model
# ---------------------------------------------------------------------------
def test_known_metrics_exist_in_real_summaries(tmp_path):
    """Every spec-selectable metric is a key the runner actually emits."""
    r = ExperimentRunner(scale=Scale.TINY, seeds=(1,), cache_dir=str(tmp_path))
    r.run_job("sad", "gmc", 1, False, input_trace(r, "sad"))
    summary = r.run("sad", "gmc", 1)
    missing = [m for m in KNOWN_METRICS if m not in summary]
    assert not missing, f"spec metrics without a summary key: {missing}"


def test_spec_hash_covers_resolved_semantics(tmp_path):
    spec = load_spec(write_spec(tmp_path, TINY_SPEC))
    base = spec.spec_hash()
    assert len(base) == 12
    # Spelling the preset's own default as an explicit override changes
    # nothing semantically -> identical hash (it hashes the *resolved*
    # config, not the spelling).
    spelled = load_spec(write_spec(
        tmp_path,
        TINY_SPEC + "preset: gddr5\noverrides:\n  dram_timing.tras_ns: 28.0\n",
        "spelled.yaml",
    ))
    assert SimConfig().dram_timing.tras_ns == 28.0
    assert spelled.spec_hash() == base
    # A semantic change re-keys.
    changed = load_spec(write_spec(
        tmp_path,
        TINY_SPEC + "overrides:\n  mc.read_queue_entries: 96\n",
        "changed.yaml",
    ))
    assert changed.spec_hash() != base


def test_resolved_config_applies_preset_and_overrides(tmp_path):
    spec = load_spec(write_spec(
        tmp_path,
        TINY_SPEC + "preset: hbm2\noverrides:\n  mc.read_queue_entries: 96\n",
    ))
    cfg = spec.resolved_config()
    assert cfg.dram_org.row_size_bytes == 1024  # hbm2
    assert cfg.mc.read_queue_entries == 96


# ---------------------------------------------------------------------------
# loader validation: file/line-accurate one-line errors
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "mutation, line, field, fragment",
    [
        ("spec_version: 2", 1, "spec_version", "must be 1"),
        ("name: 'bad name'", 2, "name", "slug"),
        ("schedulers: [gmc, nope]", 6, r"schedulers\[1\]", "unknown scheduler"),
        ("scale: huge", 7, "scale", "tiny, quick"),
        ("seeds: [1, true]", 8, r"seeds\[1\]", "integer"),
    ],
)
def test_spec_errors_carry_file_line_and_field(
    tmp_path, mutation, line, field, fragment
):
    lines = [
        "spec_version: 1",
        "name: ok",
        "workload:",
        "  kind: synthetic",
        "  benchmarks: [sad]",
        "schedulers: [gmc]",
        "scale: tiny",
        "seeds: [1]",
    ]
    key = mutation.split(":")[0]
    body = "\n".join(
        mutation if ln.split(":")[0] == key else ln for ln in lines
    )
    path = write_spec(tmp_path, body + "\n")
    with pytest.raises(SpecError, match=fragment) as err:
        load_spec(path)
    rendered = str(err.value)
    assert rendered.startswith(f"{path}:{line}:")
    assert rendered.count("\n") == 0  # strictly one line
    import re

    assert re.search(field, rendered)


def test_bad_override_value_reports_spec_location_not_traceback(tmp_path):
    """Satellite: an invalid config *value* surfaces as a located spec
    error carrying the constructor's one-line physics message."""
    path = write_spec(
        tmp_path, TINY_SPEC + "overrides:\n  dram_timing.tras_ns: 1\n"
    )
    with pytest.raises(SpecError, match="tRAS") as err:
        load_spec(path)
    assert f"{path}:" in str(err.value)
    assert "Traceback" not in str(err.value)


def test_bad_override_path_names_field_tree(tmp_path):
    path = write_spec(
        tmp_path, TINY_SPEC + "overrides:\n  dram_timing.trasns: 3\n"
    )
    with pytest.raises(SpecError, match="valid fields under 'dram_timing'"):
        load_spec(path)


def test_unknown_top_level_key_is_rejected(tmp_path):
    path = write_spec(tmp_path, TINY_SPEC + "figgure: {}\n")
    with pytest.raises(SpecError, match="unknown key 'figgure'"):
        load_spec(path)


def test_synthetic_kind_rejects_unprofiled_benchmark(tmp_path):
    path = write_spec(
        tmp_path, TINY_SPEC.replace("[sad]", "[embgather]")
    )
    with pytest.raises(SpecError, match="kind: algorithmic"):
        load_spec(path)


def test_missing_trace_file_is_located(tmp_path):
    path = write_spec(tmp_path, """\
        spec_version: 1
        name: t
        workload:
          kind: trace
          traces:
            x: nowhere.trace.json
        schedulers: [gmc]
        """)
    with pytest.raises(SpecError, match="not found") as err:
        load_spec(path)
    assert ":6:" in str(err.value)  # the trace entry's own line


def test_json_specs_load_without_yaml(tmp_path):
    doc = {
        "spec_version": 1,
        "name": "from-json",
        "workload": {"kind": "synthetic", "benchmarks": ["sad"]},
        "schedulers": ["gmc"],
        "scale": "tiny",
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    spec = load_spec(str(path))
    assert spec.name == "from-json"
    # Malformed JSON still yields a located one-line SpecError.
    bad = tmp_path / "bad.json"
    bad.write_text('{"spec_version": 1,,}')
    with pytest.raises(SpecError, match="not valid JSON"):
        load_spec(str(bad))


def test_find_specs_skips_trace_payloads(tmp_path):
    (tmp_path / "a.yaml").write_text("x")
    (tmp_path / "b.json").write_text("x")
    (tmp_path / "c.trace.json").write_text("x")
    (tmp_path / "notes.txt").write_text("x")
    names = [os.path.basename(p) for p in find_specs(str(tmp_path))]
    assert names == ["a.yaml", "b.json"]


# ---------------------------------------------------------------------------
# committed library
# ---------------------------------------------------------------------------
def test_committed_library_is_valid():
    paths = find_specs(LIBRARY)
    assert len(paths) >= 7
    bad = {p: validate_spec_file(p) for p in paths}
    assert not {p: str(e) for p, e in bad.items() if e is not None}


def test_gddr5_spec_resolves_to_default_config_hash():
    """A committed spec on the gddr5 preset without overrides shares the
    Python-coded reproduce path's cache identity (same config_hash ->
    same cache files)."""
    spec = load_spec(os.path.join(LIBRARY, "modern_embedding_gather.yaml"))
    assert spec.preset == "gddr5" and not spec.overrides
    assert config_hash(spec.resolved_config()) == config_hash(SimConfig())


# ---------------------------------------------------------------------------
# execution: sweep integration, caching, history stamping
# ---------------------------------------------------------------------------
def test_run_scenario_reuses_hand_coded_sweep_cache(tmp_path):
    """A scenario resolving to a config some plain sweep already ran is
    served 100% from cache — bit-identical results, zero simulation."""
    cache = tmp_path / "cache"
    runner = ExperimentRunner(
        scale=Scale.TINY, seeds=(1,), cache_dir=str(cache)
    )
    run_sweep([(runner, grid(["sad"], ["gmc", "wg"]))], workers=0)
    entries_before = {p.name: p.read_bytes() for p in cache.iterdir()}
    spec = load_spec(write_spec(tmp_path, TINY_SPEC))
    result = run_scenario(spec, cache_dir=str(cache), workers=0)
    assert result.report.n_simulated == 0
    assert result.report.n_cached == 2
    assert result.config_hash == runner.config_hash
    for name, blob in entries_before.items():
        assert (cache / name).read_bytes() == blob  # untouched, reused
    # Figure recipe: gmc normalizes to exactly 1.0.
    assert result.figure["sad"]["gmc"] == pytest.approx(1.0)
    assert result.figure["sad"]["wg"] > 0


def test_run_scenario_stamps_history_record(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_HISTORY", "1")
    monkeypatch.setenv("REPRO_HISTORY_DIR", str(tmp_path / "hist"))
    spec = load_spec(write_spec(tmp_path, TINY_SPEC))
    result = run_scenario(spec, cache_dir=str(tmp_path / "c"), workers=0)
    from repro.history import default_store

    records = default_store().records("sweep")
    assert records
    payload = records[-1].payload
    assert payload["scenario_name"] == "t-tiny"
    assert payload["scenario_hash"] == result.spec_hash == spec.spec_hash()


def test_trace_kind_scenario_runs_and_fingerprints_cache(tmp_path):
    """A trace-kind spec replays its file under a fingerprinted cache
    name, and a worker process, which gets the sweep's runner, publishes
    the inline sweep's entry."""
    spec_dir = tmp_path / "specs"
    spec_dir.mkdir()
    from repro.workloads.trace import KernelTrace, MemOp, Segment, WarpTrace

    trace = KernelTrace("ext", [
        WarpTrace(s, w, [
            Segment(3, MemOp(False, [(w * 37 + i) * 128 for i in range(32)])),
            Segment(5, MemOp(True, [w * 4096 + i * 128 for i in range(32)])),
        ])
        for s in range(2) for w in range(6)
    ])
    trace.save_json(str(spec_dir / "ext.trace.json"))
    path = write_spec(spec_dir, """\
        spec_version: 1
        name: ext-replay
        workload:
          kind: trace
          traces:
            ext: ext.trace.json
        schedulers: [gmc]
        scale: tiny
        """)
    result = run_scenario(
        spec := load_spec(path), cache_dir=str(tmp_path / "c"), workers=0
    )
    assert result.report.n_done == 1
    assert spec.workload.names == ("ext",)
    entry = [
        p for p in (tmp_path / "c").iterdir()
        if p.name.startswith("trace-ext@")
    ]
    assert entry, "cache entry must embed the trace content fingerprint"
    assert result.metrics["ext"]["gmc"]["ipc"] > 0
    procs = run_scenario(spec, cache_dir=str(tmp_path / "procs"), workers=1)
    assert procs.report.n_simulated == 1
    assert cache_entries(tmp_path / "procs") == cache_entries(tmp_path / "c")


def test_run_scenario_scale_override(tmp_path):
    """A spec with its scale replaced, as ``scenario run --scale`` does,
    resolves to a runner at that scale."""
    from repro.scenarios import build_runner

    spec = load_spec(write_spec(tmp_path, TINY_SPEC.replace("tiny", "paper")))
    assert build_runner(spec, cache_dir=".").scale is Scale.PAPER
    tiny = dataclasses.replace(spec, scale="TINY")
    assert build_runner(tiny, cache_dir=".").scale is Scale.TINY


# ---------------------------------------------------------------------------
# CLI surfaces
# ---------------------------------------------------------------------------
def test_cli_scenario_validate_library_ok(capsys):
    assert main(["scenario", "validate", LIBRARY]) == 0
    out = capsys.readouterr().out
    assert "OK" in out and "INVALID" not in out


def test_cli_scenario_validate_broken_spec_fails(tmp_path, capsys):
    path = write_spec(
        tmp_path, TINY_SPEC + "overrides:\n  dram_timing.tras_ns: 1\n"
    )
    assert main(["scenario", "validate", path]) == 1
    out = capsys.readouterr().out
    assert "INVALID" in out and "tRAS" in out and f"{path}:" in out


def test_cli_scenario_rerun_is_served_from_cache(tmp_path, capsys):
    spec = write_spec(tmp_path, TINY_SPEC)
    docs = []
    for name in ("first.json", "second.json"):
        out_json = tmp_path / name
        rc = main([
            "scenario", "run", spec, "--cache-dir", str(tmp_path / "c"),
            "--workers", "0", "--out", str(out_json),
        ])
        assert rc == 0
        docs.append(json.loads(out_json.read_text()))
    first, second = docs
    assert first["scenario"] == "t-tiny"
    assert first["sweep"]["jobs_simulated"] == 2
    # The same spec again: everything is reused.
    assert second["sweep"]["jobs_simulated"] == 0
    assert second["sweep"]["jobs_cached"] == 2
    assert second["metrics"] == first["metrics"]


def test_cli_scenario_scale_override_names_the_scale_that_ran(tmp_path, capsys):
    """``--scale`` replaces the spec's scale before anything runs, so the
    ``--out`` document, its spec hash, its sweep report and every cache
    entry name the scale that ran."""
    path = write_spec(tmp_path, TINY_SPEC.replace("scale: tiny", "scale: quick"))
    out_json = tmp_path / "out.json"
    assert main([
        "scenario", "run", path, "--scale", "tiny", "--workers", "0",
        "--cache-dir", str(tmp_path / "c"), "--out", str(out_json),
    ]) == 0
    doc = json.loads(out_json.read_text())
    assert doc["scale"] == doc["sweep"]["scale"] == "TINY"
    quick = load_spec(path)
    assert doc["spec_hash"] == dataclasses.replace(quick, scale="TINY").spec_hash()
    assert doc["spec_hash"] != quick.spec_hash()
    ids = [job["id"] for job in doc["sweep"]["jobs"]]
    assert sorted(os.listdir(tmp_path / "c")) == sorted(f"{i}.json" for i in ids)
    assert all("-TINY-" in i for i in ids)


def test_cli_scenario_failed_job_still_writes_out(tmp_path, monkeypatch, capsys):
    """A failed job exits 1, and ``--out`` still gets the document with
    the sweep report, naming the failure's exception type, as the error
    line does."""
    monkeypatch.setenv("REPRO_CHAOS", "job-start=raise")
    spec = write_spec(
        tmp_path,
        TINY_SPEC.replace("[gmc, wg]", "[gmc]")
        + "sweep:\n  workers: 0\n  retries: 0\n",
    )
    out_json = tmp_path / "out.json"
    rc = main([
        "scenario", "run", spec, "--cache-dir", str(tmp_path / "c"),
        "--out", str(out_json),
    ])
    assert rc == 1
    doc = json.loads(out_json.read_text())
    assert doc["sweep"]["jobs_failed"] == 1
    (job,) = doc["sweep"]["jobs"]
    assert job["status"] == "failed" and job["error_type"] == "ChaosError"
    assert "ChaosError" in capsys.readouterr().err


def test_cli_scenario_run_bad_spec_is_usage_error(tmp_path, capsys):
    path = write_spec(tmp_path, TINY_SPEC + "schedulers: [zzz]\n")
    rc = main(["scenario", "run", path])
    assert rc == 2
    err = capsys.readouterr().err
    assert "unknown scheduler" in err and f"{path}:" in err


def test_cli_run_modern_bench_defaults_to_algorithmic(tmp_path, capsys):
    rc = main(["run", "embgather", "--scale", "tiny", "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ipc"] > 0


def test_cli_run_modern_bench_synthetic_kind_is_usage_error(capsys):
    rc = main(["run", "embgather", "--scale", "tiny", "--kind", "synthetic"])
    assert rc == 2
    assert "no synthetic profile" in capsys.readouterr().err


def test_cli_scenario_list_renders_table(capsys):
    assert main(["scenario", "list", LIBRARY]) == 0
    out = capsys.readouterr().out
    assert "ci-tiny" in out and "trace-replay-example" in out


# ---------------------------------------------------------------------------
# programmatic specs
# ---------------------------------------------------------------------------
def test_programmatic_spec_skips_loader(tmp_path):
    from repro.scenarios import WorkloadSpec

    spec = ScenarioSpec(
        name="inline",
        workload=WorkloadSpec(kind="synthetic", benchmarks=("sad",)),
        schedulers=("gmc",),
        scale="TINY",
        seeds=(1,),
    )
    result = run_scenario(spec, cache_dir=str(tmp_path), workers=0)
    assert result.report.n_done == 1
    assert result.metrics["sad"]["gmc"]["ipc"] > 0
