"""Paper-accuracy export: EXPERIMENTS.md and results/accuracy.json must
never drift apart, and the export honors its provenance contract."""

from __future__ import annotations

import json
import os

from repro.analysis.experiments import (
    ACCURACY_ENTRIES,
    accuracy_doc,
    write_accuracy,
)
from repro.analysis.schema import ACCURACY_SCHEMA, provenance_problems
from repro.history.store import HistoryStore

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _doc_rows() -> list[str]:
    with open(os.path.join(REPO_ROOT, "EXPERIMENTS.md")) as fh:
        return [line for line in fh if line.startswith("|")]


def test_entries_well_formed():
    assert len(ACCURACY_ENTRIES) >= 15
    ids = [e["id"] for e in ACCURACY_ENTRIES]
    assert len(ids) == len(set(ids))
    # The export adds delta = measured - paper right after "measured",
    # the key order results/accuracy.json is written in.
    for e in accuracy_doc()["entries"]:
        assert list(e) == [
            "id", "figure", "metric", "unit", "paper", "measured",
            "delta", "paper_text", "measured_text",
        ], e["id"]
        assert e["unit"] in ("pct", "x", "count"), e["id"]
        assert e["delta"] == round(e["measured"] - e["paper"], 6), e["id"]


def test_doc_and_export_are_consistent():
    """Every entry's literal snippets appear in its EXPERIMENTS.md row.

    This is the drift guard: edit the doc table without updating
    ACCURACY_ENTRIES (or vice versa) and this test names the entry.
    """
    rows = _doc_rows()
    for e in ACCURACY_ENTRIES:
        row = next(
            (r for r in rows if r.startswith(f"| {e['figure']} ")), None
        )
        assert row is not None, f"{e['id']}: no table row for {e['figure']!r}"
        assert e["paper_text"] in row, (
            f"{e['id']}: paper snippet {e['paper_text']!r} not in the "
            f"{e['figure']} row — doc and export have drifted"
        )
        assert e["measured_text"] in row, (
            f"{e['id']}: measured snippet {e['measured_text']!r} not in "
            f"the {e['figure']} row — doc and export have drifted"
        )


def test_accuracy_doc_contract():
    doc = accuracy_doc()
    assert doc["schema_version"] == ACCURACY_SCHEMA
    assert doc["source"] == "EXPERIMENTS.md"
    assert provenance_problems("accuracy", doc) == []
    # the doc is a deep copy: mutating it must not poison the module table
    doc["entries"][0]["paper"] = -1
    assert ACCURACY_ENTRIES[0]["paper"] != -1


def test_write_accuracy_exports_and_ingests(tmp_path, monkeypatch):
    out = tmp_path / "accuracy.json"
    store = HistoryStore(str(tmp_path / "history"))
    monkeypatch.setenv("REPRO_HISTORY", "1")
    monkeypatch.setenv("REPRO_HISTORY_DIR", store.root)
    doc = write_accuracy(str(out))
    assert json.loads(out.read_text()) == doc
    record = store.latest("accuracy")
    assert record is not None and record.payload == doc


def test_committed_export_matches_generator():
    """results/accuracy.json in the tree is exactly accuracy_doc().

    Regenerate with ``python -m repro accuracy`` after touching either
    side.
    """
    path = os.path.join(REPO_ROOT, "results", "accuracy.json")
    assert os.path.exists(path), (
        "results/accuracy.json is not committed — run "
        "`python -m repro accuracy` and commit the result"
    )
    with open(path) as fh:
        committed = json.load(fh)
    assert committed == accuracy_doc()
