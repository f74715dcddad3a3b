"""Run-history store: golden envelope schema, forward-compat, ingestion."""

from __future__ import annotations

import json
import os

import pytest

from repro.analysis.schema import (
    FUZZ_SCHEMA,
    HISTORY_SCHEMA,
    SWEEP_SCHEMA,
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
#: contract old dashboards rely on.  Extending it is a schema bump.  (v2
#: added "worker" and "attempt"; nothing writes them any more, and lines
#: that carry them still read.)
ENVELOPE_KEYS = {
    "schema_version", "id", "kind", "created_utc", "git_sha",
    "config_hash", "host", "python",
    "calibration_ops_per_sec", "payload",
}


def sweep_payload(eps: float = 50_000.0) -> dict:
    return {
        "schema_version": SWEEP_SCHEMA,
        "config_hash": "de61331da800",
        "events_per_sec": eps,
        "jobs": [
            {"bench": "sad", "scheduler": "gmc", "status": "done",
             "events_per_sec": eps},
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
    r1 = store.append("sweep", sweep_payload(10.0))
    r2 = store.append("sweep", sweep_payload(20.0))
    assert (r1.record_id, r2.record_id) == ("sweep-0001", "sweep-0002")
    got = store.records("sweep")
    assert [r.record_id for r in got] == ["sweep-0001", "sweep-0002"]
    assert got[0].payload == sweep_payload(10.0)
    assert got[0].problems == []
    assert store.latest("sweep").record_id == "sweep-0002"
    assert store.get("sweep-0001").payload["events_per_sec"] == 10.0
    assert store.get("sweep-9999") is None


def test_envelope_golden_schema(store):
    store.append("sweep", sweep_payload())
    line = open(store.path("sweep")).read().strip()
    doc = json.loads(line)
    assert set(doc) == ENVELOPE_KEYS
    assert doc["schema_version"] == HISTORY_SCHEMA
    assert doc["kind"] == "sweep"
    assert doc["id"] == "sweep-0001"
    # created_utc is ISO-8601 Zulu to the second
    assert len(doc["created_utc"]) == 20 and doc["created_utc"].endswith("Z")
    assert doc["calibration_ops_per_sec"] > 0
    roundtrip = HistoryRecord.from_dict(doc)
    assert roundtrip.to_dict() == doc


def test_envelope_calibration_measured_for_other_kinds(store):
    record = store.append("fuzz", fuzz_payload())
    assert record.calibration_ops_per_sec > 0


def test_schema_v1_lines_read_with_defaults(store):
    # A store written before the v2 bump has no worker/attempt keys, and
    # one written by v2 code that stamped them carries both.
    v1 = store.append("sweep", sweep_payload(10.0)).to_dict()
    v1["schema_version"] = 1
    stamped = store.append("sweep", sweep_payload(20.0)).to_dict()
    stamped.update(worker="other", attempt=2)
    with open(store.path("sweep"), "w") as fh:
        fh.write(json.dumps(v1) + "\n" + json.dumps(stamped) + "\n")
    old, new = store.records("sweep")
    assert (old.schema_version, new.schema_version) == (1, HISTORY_SCHEMA)
    assert [old.record_id, new.record_id] == ["sweep-0001", "sweep-0002"]
    assert old.payload == sweep_payload(10.0)
    assert new.payload == sweep_payload(20.0)
    assert old.problems == [] and new.problems == []


def test_kinds_ordering_known_first(store):
    store.append("zcustom", {"anything": 1})
    store.append("fuzz", fuzz_payload())
    store.append("sweep", sweep_payload())
    assert store.kinds() == ["sweep", "fuzz", "zcustom"]
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
    store.append("sweep", sweep_payload())
    future = store.append("sweep", sweep_payload()).to_dict()
    future["schema_version"] = HISTORY_SCHEMA + 1
    with open(store.path("sweep"), "a") as fh:
        fh.write(json.dumps(future) + "\n")
    with pytest.warns(UserWarning, match="unknown history schema_version"):
        records = store.records("sweep")
    assert [r.record_id for r in records] == ["sweep-0001", "sweep-0002"]


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
    assert store.latest("sweep") is None


# ----------------------------------------------------------------------
# concurrent writers
# ----------------------------------------------------------------------
def _torture_writer(root: str, writer: int, n: int) -> None:
    store = HistoryStore(root)
    for i in range(n):
        store.append("fuzz", {**fuzz_payload(), "writer": writer, "seq": i})


def test_parallel_appends_never_garble_lines(tmp_path):
    """Satellite: O_APPEND single-write appends under real concurrency.

    Eight processes hammer one JSONL file; every line must parse, carry
    the full envelope, and every (writer, seq) pair must land —
    nothing torn, spliced, or lost — under its own record id.
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
    ids = set()
    for line in lines:
        doc = json.loads(line)  # raises on any torn/spliced line
        assert set(doc) == ENVELOPE_KEYS
        seen.add((doc["payload"]["writer"], doc["payload"]["seq"]))
        ids.add(doc["id"])
    assert seen == {(w, i) for w in range(n_writers) for i in range(n_each)}
    # Distinct and dense: each append numbered its line under the lock.
    assert ids == {f"fuzz-{n:04d}" for n in range(1, n_writers * n_each + 1)}


# ----------------------------------------------------------------------
# provenance contracts
# ----------------------------------------------------------------------
def test_contract_violation_rejected_strict(store):
    with pytest.raises(HistoryError, match="schema_version"):
        store.append("sweep", {"schema_version": 999})
    assert store.records("sweep") == []
    # A violating line already on disk (older code, a hand edit) still
    # reads, with its problems recomputed at read time.
    doc = store.append("sweep", sweep_payload()).to_dict()
    doc["payload"] = {"schema_version": 999}
    with open(store.path("sweep"), "w") as fh:
        fh.write(json.dumps(doc) + "\n")
    (read,) = store.records("sweep")
    assert read.problems


def test_provenance_problems_shapes():
    assert provenance_problems("sweep", sweep_payload()) == []
    assert provenance_problems("sweep", "not a dict")
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
    assert record_run("sweep", sweep_payload()) is None
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
        assert record_run("sweep", {"schema_version": 999}) is None


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
