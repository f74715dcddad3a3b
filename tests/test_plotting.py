"""Terminal rendering helpers: analysis/report.py."""

from __future__ import annotations

import csv
import io

import pytest

from repro.analysis.report import bar, format_table, geomean, rows_to_csv


# ----------------------------------------------------------------------
# report helpers
# ----------------------------------------------------------------------
def test_format_table_alignment_and_title():
    out = format_table(
        ["name", "value"], [["bfs", 1.23456], ["a-long-one", 2]],
        title="T",
    )
    lines = out.splitlines()
    assert lines[0] == "T" and lines[1] == "="
    assert lines[2].endswith("value")
    assert "1.235" in out  # default float format
    assert "2" in lines[-1]
    # every row right-aligns to the same width
    assert len({len(l) for l in lines[2:]}) == 1


def test_rows_to_csv_roundtrip():
    text = rows_to_csv(["a", "b"], [[1, "x,y"], [2, "z"]])
    rows = list(csv.reader(io.StringIO(text)))
    assert rows == [["a", "b"], ["1", "x,y"], ["2", "z"]]


def test_geomean():
    assert geomean([2.0, 8.0]) == pytest.approx(4.0)
    assert geomean([]) == 0.0
    assert geomean([-1.0, 0.0]) == 0.0  # non-positive values drop out
    assert geomean([3.0, -5.0]) == pytest.approx(3.0)


def test_bar_clamps():
    assert bar(1.0, scale=10, maximum=2.0) == "#####"
    assert bar(5.0, scale=10, maximum=2.0) == "#" * 10
    assert bar(-1.0) == ""
