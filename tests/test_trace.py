"""Unit tests for trace containers, builders and persistence."""

import pytest

from repro.workloads.builder import ELEM_BYTES, Layout, TraceBuilder, WarpBuilder
from repro.workloads.trace import (
    KernelTrace,
    MemOp,
    Segment,
    TraceFormatError,
    WarpTrace,
)


def test_segment_instruction_count():
    assert Segment(5, None).instructions == 5
    assert Segment(5, MemOp(False, [0])).instructions == 6


def test_warp_trace_accounting():
    w = WarpTrace(0, 0, [
        Segment(3, MemOp(False, [0, 4])),
        Segment(2, MemOp(True, [8])),
        Segment(4, None),
    ])
    assert w.instructions() == 11
    assert w.memory_ops() == 2
    assert len(list(w.loads())) == 1


def test_kernel_by_sm_buckets_and_validation():
    k = KernelTrace("t", [WarpTrace(0, 0, []), WarpTrace(1, 0, []), WarpTrace(0, 1, [])])
    buckets = k.by_sm(2)
    assert len(buckets[0]) == 2 and len(buckets[1]) == 1
    with pytest.raises(ValueError):
        k.by_sm(1)


# -- load errors -------------------------------------------------------------
def test_load_rejects_missing_file(tmp_path):
    with pytest.raises(TraceFormatError, match="missing.trace.json"):
        KernelTrace.load_json(str(tmp_path / "missing.trace.json"))


def test_trace_format_error_is_value_error(tmp_path):
    # Callers that already catch ValueError keep working.
    assert issubclass(TraceFormatError, ValueError)


# -- builders -----------------------------------------------------------------
def test_layout_allocates_aligned_and_tracks():
    lay = Layout()
    a = lay.alloc("a", 100)
    b = lay.alloc("b", 10)
    assert a % 256 == 0 and b % 256 == 0
    assert b >= a + 100 * ELEM_BYTES
    assert set(lay.arrays) == {"a", "b"}


def test_layout_overflow():
    lay = Layout(capacity=1024)
    with pytest.raises(MemoryError):
        lay.alloc("big", 10_000)


def test_warp_builder_stream_and_compute():
    wb = WarpBuilder(0, 0)
    wb.compute(5).load_stream(0, 0).compute(3).store_stream(4096, 0)
    trace = wb.finish()
    assert len(trace.segments) == 2
    assert trace.segments[0].compute_cycles == 5
    assert not trace.segments[0].mem.is_write
    assert trace.segments[1].mem.is_write
    # A stream covers consecutive 4B elements (kept as a range).
    lanes = trace.segments[0].mem.lane_addrs
    assert list(lanes) == [4 * i for i in range(32)]


def test_stream_lanes_persist_as_lists(tmp_path):
    """Range lanes serialize to the plain lane lists of the JSON format,
    and load back as lists."""
    wb = WarpBuilder(0, 0)
    wb.compute(1).load_stream(256, 3).store_stream(8192, 0, elem_bytes=8)
    t = KernelTrace("streams", [wb.finish()])
    expected = [list(s.mem.lane_addrs) for s in t.warps[0].segments]
    assert expected[0] == [256 + 4 * (3 + i) for i in range(32)]
    assert t.to_json_dict()["warps"][0]["segments"][0][2] == expected[0]
    t.save_json(str(tmp_path / "s.json"))
    loaded = KernelTrace.load_json(str(tmp_path / "s.json"))
    assert [s.mem.lane_addrs for s in loaded.warps[0].segments] == expected


def test_warp_builder_gather_masks_missing_lanes():
    wb = WarpBuilder(0, 0)
    wb.load_gather(0, [1, None, 5])
    seg = wb.finish().segments[0]
    assert seg.mem.lane_addrs[0] == 4
    assert seg.mem.lane_addrs[1] is None
    assert seg.mem.lane_addrs[3] is None  # beyond provided indices


def test_warp_builder_trailing_compute_flushed():
    wb = WarpBuilder(0, 0)
    wb.compute(9)
    trace = wb.finish()
    assert trace.segments[-1].compute_cycles == 9
    assert trace.segments[-1].mem is None


def test_trace_builder_round_robin_sm_assignment():
    tb = TraceBuilder("t", num_sms=3)
    for _ in range(7):
        tb.new_warp().compute(1)
    k = tb.build()
    assert [w.sm_id for w in k.warps] == [0, 1, 2, 0, 1, 2, 0]
    # Per-SM warp ids are dense.
    assert [w.warp_id for w in k.warps] == [0, 0, 0, 1, 1, 1, 2]


# ---------------------------------------------------------------------------
# JSON interchange (export -> ingest round trip)
# ---------------------------------------------------------------------------
def _sample_trace() -> KernelTrace:
    return KernelTrace(
        "demo",
        [
            WarpTrace(0, 0, [
                Segment(4, MemOp(False, [128 * i for i in range(32)])),
                Segment(2, MemOp(True, [None] * 31 + [4096])),
                Segment(7, None),
            ]),
            WarpTrace(1, 1, [Segment(1, MemOp(False, [0] * 32))]),
        ],
    )


def test_json_roundtrip_is_identity(tmp_path):
    t = _sample_trace()
    path = tmp_path / "demo.trace.json"
    t.save_json(str(path))
    rt = KernelTrace.load_json(str(path))
    assert rt.name == t.name
    assert len(rt.warps) == len(t.warps)
    for a, b in zip(t.warps, rt.warps):
        assert (a.sm_id, a.warp_id) == (b.sm_id, b.warp_id)
        assert len(a.segments) == len(b.segments)
        for sa, sb in zip(a.segments, b.segments):
            assert sa.compute_cycles == sb.compute_cycles
            assert (sa.mem is None) == (sb.mem is None)
            if sa.mem is not None:
                assert sa.mem.is_write == sb.mem.is_write
                assert sa.mem.lane_addrs == sb.mem.lane_addrs


def test_json_export_format_header(tmp_path):
    import json as _json

    t = _sample_trace()
    path = tmp_path / "t.json"
    t.save_json(str(path))
    doc = _json.loads(path.read_text())
    assert doc["format"] == "repro-kernel-trace"
    assert doc["version"] == 1


@pytest.mark.parametrize(
    "mangle, fragment",
    [
        (lambda d: d.__setitem__("format", "other"), "format"),
        (lambda d: d.__setitem__("version", 99), "version"),
        (lambda d: d.__setitem__("name", ""), "name"),
        (lambda d: d.__setitem__("warps", []), "warps"),
        (lambda d: d["warps"][0]["segments"].append([-1]), r"segments\[3\]"),
        (
            lambda d: d["warps"][0]["segments"].append([0, 0, [None] * 32]),
            "lane",
        ),
    ],
)
def test_json_ingest_rejects_malformed_documents(tmp_path, mangle, fragment):
    import json as _json

    from repro.workloads.trace import KernelTrace as KT

    doc = _sample_trace().to_json_dict()
    mangle(doc)
    path = tmp_path / "bad.trace.json"
    path.write_text(_json.dumps(doc))
    with pytest.raises(TraceFormatError, match=fragment):
        KT.load_json(str(path))


def test_json_ingest_rejects_non_json(tmp_path):
    from repro.workloads.trace import KernelTrace as KT

    path = tmp_path / "bad.json"
    path.write_text("{truncated")
    with pytest.raises(TraceFormatError, match="bad.json"):
        KT.load_json(str(path))


def test_json_ingest_rejects_binary_file(tmp_path):
    """Bytes that are not UTF-8 (a binary file given as a trace) are a
    located format error, not a raw ``UnicodeDecodeError``."""
    path = tmp_path / "binary.trace.json"
    path.write_bytes(b"PK\x03\x04\x14\x00\xff\xfe binary payload")
    with pytest.raises(TraceFormatError, match="binary.trace.json"):
        KernelTrace.load_json(str(path))

