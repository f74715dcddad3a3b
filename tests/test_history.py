"""Run-history store: golden envelope schema, forward-compat, ingestion."""

from __future__ import annotations

import json
import os

import pytest

from repro.analysis.schema import (
    BENCH_SCHEMA,
    FUZZ_SCHEMA,
    HISTORY_SCHEMA,
    provenance_problems,
)
from repro.history import default_store, enabled, record_run
from repro.history.store import (
    HistoryError,
    HistoryRecord,
    HistoryStore,
    git_sha,
)

#: Every key a stored envelope line must carry, exactly — the on-disk
#: contract old dashboards rely on.  Extending it is a schema bump
#: (v2 added "worker" and "attempt").
ENVELOPE_KEYS = {
    "schema_version", "id", "kind", "created_utc", "git_sha",
    "config_hash", "host", "python", "worker", "attempt",
    "calibration_ops_per_sec", "payload",
}


def bench_payload(eps: float = 50_000.0) -> dict:
    return {
        "schema_version": BENCH_SCHEMA,
        "kind": "core",
        "calibration_ops_per_sec": 8.0e6,
        "events_per_sec": eps,
        "jobs": [
            {"id": "core/bfs/gmc/tiny/s1", "scheduler": "gmc",
             "scale": "TINY", "events_per_sec": eps},
        ],
    }


def fuzz_payload(clean: bool = True) -> dict:
    return {
        "schema_version": FUZZ_SCHEMA,
        "campaign_seed": 7,
        "schedulers": ["gmc", "wg"],
        "cases_run": 100,
        "clean": clean,
        "failures": [] if clean else [{"case_index": 3, "oracle": "x"}],
    }


@pytest.fixture
def store(tmp_path) -> HistoryStore:
    return HistoryStore(str(tmp_path / "history"))


# ----------------------------------------------------------------------
# append / read round trip
# ----------------------------------------------------------------------
def test_append_roundtrip_and_sequence_ids(store):
    r1 = store.append("bench", bench_payload(10.0))
    r2 = store.append("bench", bench_payload(20.0))
    assert (r1.record_id, r2.record_id) == ("bench-0001", "bench-0002")
    got = store.records("bench")
    assert [r.record_id for r in got] == ["bench-0001", "bench-0002"]
    assert got[0].payload == bench_payload(10.0)
    assert got[0].problems == []
    assert store.latest("bench").record_id == "bench-0002"
    assert store.get("bench-0001").payload["events_per_sec"] == 10.0
    assert store.get("bench-9999") is None


def test_envelope_golden_schema(store):
    store.append("bench", bench_payload())
    line = open(store.path("bench")).read().strip()
    doc = json.loads(line)
    assert set(doc) == ENVELOPE_KEYS
    assert doc["schema_version"] == HISTORY_SCHEMA
    assert doc["kind"] == "bench"
    assert doc["id"] == "bench-0001"
    # created_utc is ISO-8601 Zulu to the second
    assert len(doc["created_utc"]) == 20 and doc["created_utc"].endswith("Z")
    assert doc["calibration_ops_per_sec"] > 0
    # bench payloads donate their calibration score instead of re-measuring
    assert doc["calibration_ops_per_sec"] == pytest.approx(8.0e6)
    roundtrip = HistoryRecord.from_dict(doc)
    assert roundtrip.to_dict() == doc


def test_envelope_calibration_measured_for_other_kinds(store):
    record = store.append("fuzz", fuzz_payload())
    assert record.calibration_ops_per_sec > 0


def test_envelope_worker_stamp(store):
    local = store.append("bench", bench_payload())
    assert (local.worker, local.attempt) == ("", 0)
    explicit = store.append(
        "bench", bench_payload(), worker="other", attempt=2
    )
    assert (explicit.worker, explicit.attempt) == ("other", 2)
    got = store.records("bench")
    assert [(r.worker, r.attempt) for r in got] == [("", 0), ("other", 2)]


def test_schema_v1_lines_read_with_defaults(store):
    # A store written before the v2 bump has no worker/attempt keys.
    doc = store.append("bench", bench_payload()).to_dict()
    del doc["worker"], doc["attempt"]
    doc["schema_version"] = 1
    with open(store.path("bench"), "w") as fh:
        fh.write(json.dumps(doc) + "\n")
    (record,) = store.records("bench")
    assert (record.worker, record.attempt) == ("", 0)
    assert record.schema_version == 1


def test_kinds_ordering_known_first(store):
    store.append("zcustom", {"anything": 1})
    store.append("fuzz", fuzz_payload())
    store.append("bench", bench_payload())
    assert store.kinds() == ["bench", "fuzz", "zcustom"]
    merged = store.records()
    assert len(merged) == 3


def test_invalid_kind_rejected(store):
    for kind in ("", "a/b", ".hidden"):
        with pytest.raises(HistoryError):
            store.append(kind, {})


# ----------------------------------------------------------------------
# forward compatibility: bad lines are skipped with warnings, not crashes
# ----------------------------------------------------------------------
def test_unknown_schema_version_skipped_with_warning(store):
    store.append("bench", bench_payload())
    future = store.append("bench", bench_payload()).to_dict()
    future["schema_version"] = HISTORY_SCHEMA + 1
    with open(store.path("bench"), "a") as fh:
        fh.write(json.dumps(future) + "\n")
    with pytest.warns(UserWarning, match="unknown history schema_version"):
        records = store.records("bench")
    assert [r.record_id for r in records] == ["bench-0001", "bench-0002"]


def test_unparsable_line_skipped_with_warning(store):
    store.append("fuzz", fuzz_payload())
    with open(store.path("fuzz"), "a") as fh:
        fh.write("{truncated by a crash\n")
    with pytest.warns(UserWarning, match="unparsable"):
        records = store.records("fuzz")
    assert len(records) == 1


def test_missing_directory_reads_empty(tmp_path):
    store = HistoryStore(str(tmp_path / "never-created"))
    assert store.records() == []
    assert store.kinds() == []
    assert store.latest("bench") is None


# ----------------------------------------------------------------------
# concurrent writers
# ----------------------------------------------------------------------
def _torture_writer(root: str, writer: int, n: int) -> None:
    store = HistoryStore(root)
    payload = fuzz_payload()
    for i in range(n):
        store.append(
            "fuzz", payload, worker=f"w{writer}", attempt=i, strict=False
        )


def test_parallel_appends_never_garble_lines(tmp_path):
    """Satellite: O_APPEND single-write appends under real concurrency.

    Eight processes hammer one JSONL file; every line must parse, carry
    the full envelope, and every (writer, attempt) pair must land —
    nothing torn, spliced, or lost.
    """
    import multiprocessing

    root = str(tmp_path / "history")
    n_writers, n_each = 8, 25
    ctx = multiprocessing.get_context()
    procs = [
        ctx.Process(target=_torture_writer, args=(root, w, n_each))
        for w in range(n_writers)
    ]
    for p in procs:
        p.start()
    for p in procs:
        p.join(timeout=120)
        assert p.exitcode == 0
    lines = open(os.path.join(root, "fuzz.jsonl")).read().splitlines()
    assert len(lines) == n_writers * n_each
    seen = set()
    for line in lines:
        doc = json.loads(line)  # raises on any torn/spliced line
        assert set(doc) == ENVELOPE_KEYS
        seen.add((doc["worker"], doc["attempt"]))
    assert seen == {
        (f"w{w}", i) for w in range(n_writers) for i in range(n_each)
    }


# ----------------------------------------------------------------------
# provenance contracts
# ----------------------------------------------------------------------
def test_contract_violation_rejected_strict(store):
    with pytest.raises(HistoryError, match="schema_version"):
        store.append("bench", {"schema_version": 999})


def test_contract_violation_kept_when_not_strict(store):
    record = store.append("bench", {"schema_version": 999}, strict=False)
    assert record.problems
    # and the problems are recomputed at read time
    (read,) = store.records("bench")
    assert read.problems


def test_provenance_problems_shapes():
    assert provenance_problems("bench", bench_payload()) == []
    assert provenance_problems("bench", "not a dict")
    assert provenance_problems("fuzz", {"schema_version": FUZZ_SCHEMA})
    # unregistered kinds only require a dict payload
    assert provenance_problems("custom", {"x": 1}) == []


# ----------------------------------------------------------------------
# producer-facing plumbing
# ----------------------------------------------------------------------
def test_record_run_disabled_by_env(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_HISTORY", "0")
    monkeypatch.setenv("REPRO_HISTORY_DIR", str(tmp_path / "h"))
    assert not enabled()
    assert record_run("bench", bench_payload()) is None
    assert not (tmp_path / "h").exists()


def test_record_run_appends_to_env_dir(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_HISTORY", "1")
    monkeypatch.setenv("REPRO_HISTORY_DIR", str(tmp_path / "h"))
    record = record_run("fuzz", fuzz_payload())
    assert record is not None and record.record_id == "fuzz-0001"
    assert default_store().latest("fuzz").record_id == "fuzz-0001"


def test_record_run_never_raises(monkeypatch, tmp_path):
    # Point the store *inside a regular file*: makedirs must fail.
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    monkeypatch.setenv("REPRO_HISTORY", "1")
    monkeypatch.setenv("REPRO_HISTORY_DIR", str(blocker / "sub"))
    with pytest.warns(UserWarning, match="ingestion .* failed"):
        assert record_run("fuzz", fuzz_payload()) is None


def test_record_run_warns_on_contract_violation(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_HISTORY", "1")
    monkeypatch.setenv("REPRO_HISTORY_DIR", str(tmp_path / "h"))
    with pytest.warns(UserWarning, match="ingestion .* failed"):
        assert record_run("bench", {"schema_version": 999}) is None


def test_git_sha_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_GIT_SHA", "deadbeefcafe")
    assert git_sha() == "deadbeefcafe"


def test_git_sha_outside_checkout(monkeypatch, tmp_path):
    monkeypatch.delenv("REPRO_GIT_SHA", raising=False)
    assert git_sha(cwd=str(tmp_path)) == "unknown"


def test_producers_skip_history_under_test_suite():
    # tests/conftest.py pins REPRO_HISTORY=0 so simulations inside the
    # suite never write into the working tree.
    assert os.environ.get("REPRO_HISTORY") == "0"
