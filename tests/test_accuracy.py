"""The paper's claims: one table (``analysis/experiments.py::CLAIMS``),
measured by ``repro reproduce``.  The committed PAPER measurement,
results/accuracy.json, lists exactly those claims, each inside its band,
and EXPERIMENTS.md's claims block is rendered from it.

Run as a script, this module rewrites that block from the committed
file (``make reproduce-paper`` does, after measuring it)::

    PYTHONPATH=src python tests/test_accuracy.py
"""

from __future__ import annotations

import dataclasses
import json
import math
import zlib
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.analysis import experiments
from repro.analysis.experiments import (
    BANDED_RUN,
    CLAIMS,
    DRIVERS,
    accuracy_doc,
    outside_band,
)
from repro.analysis.runner import ExperimentRunner
from repro.analysis.schema import ACCURACY_SCHEMA, provenance_problems
from repro.history.store import HistoryStore
from repro.workloads.suite import Scale

REPO_ROOT = Path(__file__).resolve().parent.parent
COMMITTED = REPO_ROOT / "results" / "accuracy.json"
EXPERIMENTS_MD = REPO_ROOT / "EXPERIMENTS.md"
BEGIN = (
    "<!-- claims: rendered from results/accuracy.json by "
    "tests/test_accuracy.py; do not edit -->"
)
END = "<!-- /claims -->"
UNIT_FORMATS = {"pct": "{:.1f}%", "x": "{:.2f}×", "count": "{:.3g}"}


def claims_block(doc: dict) -> str:
    """EXPERIMENTS.md's paper-vs-measured table for an accuracy document."""
    lines = [
        "| Claim | Exp | Metric | Paper | Measured | Band |",
        "|---|---|---|---|---|---|",
    ]
    for e in doc["entries"]:
        fmt = UNIT_FORMATS[e["unit"]].format
        paper = "in words" if e["paper"] is None else fmt(e["paper"])
        lo, hi = e["band"]
        band = (
            f"≥ {lo:g}" if hi is None
            else f"≤ {hi:g}" if lo is None
            else f"{lo:g} … {hi:g}"
        )
        lines.append(
            f"| `{e['id']}` | {e['figure']} | {e['metric']} | {paper} "
            f"| {fmt(e['measured'])} | {band} |"
        )
    return "\n".join(lines)


def _committed() -> dict:
    return json.loads(COMMITTED.read_text())


class _StubRunner(ExperimentRunner):
    """Serves every run a made-up summary that differs per (benchmark,
    scheduler, perfect, key), so each driver renders without a sweep."""

    def __init__(self, scale: Scale, seeds: tuple[int, ...]) -> None:
        super().__init__(scale=scale, seeds=seeds, cache_dir="never-read")

    def mean(self, bench, scheduler, perfect=False):
        class Summary(dict):
            def __missing__(self, key):
                tag = f"{bench}/{scheduler}/{perfect}/{key}".encode()
                return 0.5 + zlib.crc32(tag) % 1000 / 1000

        return Summary()


def test_entries_well_formed():
    ids = [c.id for c in CLAIMS]
    assert len(ids) == len(set(ids))
    for c in CLAIMS:
        assert c.experiment in DRIVERS, c.id
        assert c.id.startswith(f"{c.experiment}-"), c.id
        assert c.unit in UNIT_FORMATS, c.id
        lo, hi = c.band
        assert (lo, hi) != (None, None), c.id
        assert lo is None or hi is None or lo < hi, c.id
    # in the paper's order: the experiments' order in DRIVERS
    order = list(DRIVERS)
    assert [order.index(c.experiment) for c in CLAIMS] == sorted(
        order.index(c.experiment) for c in CLAIMS
    )


@pytest.mark.parametrize("experiment", sorted({c.experiment for c in CLAIMS}))
def test_every_claim_reads_its_rendered_experiment(experiment, monkeypatch):
    """Each claim reads a number off its experiment's rendered result, at
    any scale: a misspelt headline key or benchmark name fails here."""
    # §VI-C's SBWAS alpha variants read the stub's runs too.
    monkeypatch.setattr(experiments, "_variant_runner", lambda runner, alpha: runner)
    result = DRIVERS[experiment].render(_StubRunner(scale=Scale.TINY, seeds=(1,)))
    for claim in CLAIMS:
        if claim.experiment == experiment:
            assert math.isfinite(claim.read(result)), claim.id


def test_accuracy_doc_contract():
    """The document holds the claims of the rendered experiments only, in
    the claims' order, and is gated only for the banded run."""
    runner = _StubRunner(scale=Scale.TINY, seeds=(1,))
    results = {rid: DRIVERS[rid].render(runner) for rid in ("table1", "fig2")}
    doc = accuracy_doc(runner, results)
    assert doc["schema_version"] == ACCURACY_SCHEMA
    assert provenance_problems("accuracy", doc) == []
    assert [e["id"] for e in doc["entries"]] == [
        c.id for c in CLAIMS if c.experiment in results
    ]
    assert doc["gated"] is False
    banded = _StubRunner(scale=Scale.PAPER, seeds=(1, 2))
    assert accuracy_doc(banded, results)["gated"] is True


def test_reproduce_checks_bands_only_at_the_banded_run(tmp_path, monkeypatch, capsys):
    util = next(c for c in CLAIMS if c.id == "table1-util")
    monkeypatch.setattr(
        experiments, "CLAIMS", (dataclasses.replace(util, band=(None, 50.0)),)
    )
    argv = [
        "reproduce", "--scale", "tiny", "--seeds", "1", "--only", "table1",
        "--cache-dir", str(tmp_path),
    ]
    assert main(argv) == 0  # a TINY run: no band is checked
    assert "bands not checked" in capsys.readouterr().err

    tiny = ExperimentRunner(
        scale=Scale.TINY, seeds=(1,), cache_dir=str(tmp_path)
    )
    monkeypatch.setattr(
        experiments, "BANDED_RUN",
        ("TINY", (1,), "synthetic", tiny.config_hash),
    )
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "1 claim(s) outside their band: table1-util 62.0121 not in [-inf, 50]" in err


def test_reproduce_out_exports_and_ingests(tmp_path, monkeypatch):
    store = HistoryStore(str(tmp_path / "history"))
    monkeypatch.setenv("REPRO_HISTORY", "1")
    monkeypatch.setenv("REPRO_HISTORY_DIR", store.root)
    assert main([
        "reproduce", "--scale", "tiny", "--seeds", "1", "--only", "table1",
        "--cache-dir", str(tmp_path / "cache"), "--out", str(tmp_path / "out"),
    ]) == 0
    doc = json.loads((tmp_path / "out" / "accuracy.json").read_text())
    assert provenance_problems("accuracy", doc) == []
    assert doc["gated"] is False
    assert doc["run"]["scale"] == "TINY" and doc["run"]["seeds"] == [1]
    [entry] = doc["entries"]
    assert entry == {
        "id": "table1-util", "figure": "Table I",
        "metric": "single-bank utilization bound", "unit": "pct",
        "paper": 62.0, "measured": 62.0121, "delta": 0.0121,
        "band": list(next(c for c in CLAIMS if c.id == "table1-util").band),
    }
    assert store.latest("accuracy").payload == doc


def test_committed_export_holds_every_claim():
    """results/accuracy.json is a gated PAPER measurement of exactly the
    claims, in order, each inside its band.

    Regenerate with ``make reproduce-paper`` after a change that moves
    a claim, moving its band in CLAIMS if the move is intended.
    """
    doc = _committed()
    assert doc["schema_version"] == ACCURACY_SCHEMA
    assert provenance_problems("accuracy", doc) == []
    run = doc["run"]
    assert (run["scale"], tuple(run["seeds"]), run["kind"], run["config_hash"]) == BANDED_RUN
    assert doc["gated"] is True
    assert [
        (e["id"], e["metric"], e["unit"], e["paper"], tuple(e["band"]))
        for e in doc["entries"]
    ] == [(c.id, c.metric, c.unit, c.paper, c.band) for c in CLAIMS]
    for e in doc["entries"]:
        delta = None if e["paper"] is None else round(e["measured"] - e["paper"], 4)
        assert e["delta"] == delta, e["id"]
    assert outside_band(doc) == []


def test_doc_and_export_are_consistent():
    """EXPERIMENTS.md's claims block is the rendering of the committed
    export, so the two never drift apart."""
    text = EXPERIMENTS_MD.read_text()
    block = text[text.index(BEGIN) + len(BEGIN):text.index(END)]
    assert block.strip("\n") == claims_block(_committed()), (
        "EXPERIMENTS.md's claims block is stale; rewrite it with "
        "`PYTHONPATH=src python tests/test_accuracy.py`"
    )


if __name__ == "__main__":
    text = EXPERIMENTS_MD.read_text()
    head, rest = text.split(BEGIN)
    tail = rest[rest.index(END):]
    EXPERIMENTS_MD.write_text(f"{head}{BEGIN}\n{claims_block(_committed())}\n{tail}")
    print(f"rewrote the claims block of {EXPERIMENTS_MD}")
