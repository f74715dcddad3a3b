"""Tests for the repro.telemetry subsystem.

Covers the acceptance criteria of the observability PR:

* with telemetry disabled, a run executes the same number of engine
  events and produces bit-identical summary metrics;
* enabling the full telemetry stack does not perturb the simulated
  machine (summary metrics stay bit-identical);
* the interval time-series has >= 2 samples with the stable schema;
* the Chrome trace export is schema-valid and carries per-warp
  request-lifecycle spans.
"""

import json

import pytest

from repro import Scale, SimConfig, TelemetryHub, build_benchmark, simulate
from repro.telemetry import EngineProfiler, RequestTracer
from repro.telemetry.sampler import IntervalSampler


def tiny_run(telemetry=None, scheduler="wg-w", bench="bfs"):
    cfg = SimConfig(scheduler=scheduler)
    trace = build_benchmark(bench, cfg, Scale.TINY, seed=1)
    return simulate(cfg, trace, telemetry=telemetry)


# ---------------------------------------------------------------------------
# hub unit behavior
# ---------------------------------------------------------------------------
def test_hub_feature_construction():
    hub = TelemetryHub(sample_period_ns=10.0, trace=True, profile=True)
    assert hub.sampling and hub.sample_period_ps == 10_000
    assert hub.tracer is not None and hub.profiler is not None
    with pytest.raises(ValueError):
        TelemetryHub(sample_period_ns=-1.0)


# ---------------------------------------------------------------------------
# non-perturbation (acceptance criterion)
# ---------------------------------------------------------------------------
def test_disabled_telemetry_is_bit_identical_to_no_telemetry():
    base = tiny_run(telemetry=None)
    off = tiny_run(telemetry=TelemetryHub())  # hub present, all features off
    assert off.events_processed == base.events_processed
    assert off.summary() == base.summary()


def test_enabled_telemetry_does_not_perturb_summary():
    base = tiny_run(telemetry=None)
    hub = TelemetryHub(sample_period_ns=100.0, trace=True, profile=True)
    tele = tiny_run(telemetry=hub)
    # Sampler events are extra engine events, but the simulated machine
    # must be untouched: every summary metric bit-identical.
    assert tele.summary() == base.summary()
    assert tele.events_processed >= base.events_processed


# ---------------------------------------------------------------------------
# interval sampler
# ---------------------------------------------------------------------------
def test_interval_series_schema_and_coverage():
    hub = TelemetryHub(sample_period_ns=100.0)
    stats = tiny_run(telemetry=hub)
    samples = stats.intervals
    assert len(samples) >= 2
    assert stats.interval_period_ps == 100_000
    num_ch = len(stats.channels)
    schema = set(IntervalSampler.SCHEMA_KEYS)
    for s in samples:
        assert set(s) == schema
        for key in ("queue_depth", "write_queue_depth", "cmdq_occupancy",
                    "drain_active", "reads", "writes", "row_hits",
                    "row_misses", "merb_deferrals", "bus_busy_ps"):
            assert len(s[key]) == num_ch
        assert len(s["bank_occupancy"]) == num_ch
        banks_per_channel = SimConfig().dram_org.banks_per_channel
        for per_bank in s["bank_occupancy"]:
            assert len(per_bank) == banks_per_channel
    # time axis strictly increasing, starting at 0
    times = [s["t_ps"] for s in samples]
    assert times[0] == 0
    assert times == sorted(times) and len(set(times)) == len(times)
    # interval deltas sum to the run totals
    assert sum(sum(s["reads"]) for s in samples) == sum(
        c.reads for c in stats.channels
    )
    assert sum(sum(s["row_hits"]) for s in samples) == sum(
        c.row_hits for c in stats.channels
    )


def test_interval_latencies_cover_every_dram_read():
    cfg = SimConfig(scheduler="gmc")
    trace = build_benchmark("bfs", cfg, Scale.TINY, seed=1)
    stats = simulate(cfg, trace, telemetry=TelemetryHub(sample_period_ns=100.0))
    # Every serviced DRAM read reached exactly one interval's histogram.
    total_reads = sum(c.reads for c in stats.channels)
    assert total_reads > 0
    assert sum(s["lat_count"] for s in stats.intervals) == total_reads
    assert max(s["lat_p50_ns"] for s in stats.intervals) > 0


def test_zero_div_followers_reach_every_latency_record():
    """Zero-div completes a group's followers on arrival, outside the
    command queues; they still count in the interval latencies and the
    sorter-wait/service breakdown, like every other DRAM read."""
    cfg = SimConfig(scheduler="zero-div")
    trace = build_benchmark("bfs", cfg, Scale.TINY, seed=1)
    stats = simulate(cfg, trace, telemetry=TelemetryHub(sample_period_ns=100.0))
    assert sum(c.reads for c in stats.channels) == 1289
    assert sum(s["lat_count"] for s in stats.intervals) == 1289
    assert sum(c.sorter_wait.count for c in stats.channels) == 1289
    assert sum(c.service_time.count for c in stats.channels) == 1289


def test_metrics_json_and_csv_export(tmp_path):
    hub = TelemetryHub(sample_period_ns=100.0)
    stats = tiny_run(telemetry=hub)
    jpath = tmp_path / "m.json"
    stats.write_metrics(str(jpath))
    bundle = json.loads(jpath.read_text())
    assert bundle["schema_version"] == 1
    assert bundle["summary"] == stats.summary()
    assert len(bundle["intervals"]) == len(stats.intervals)
    cpath = tmp_path / "m.csv"
    stats.write_metrics(str(cpath))
    lines = cpath.read_text().strip().splitlines()
    assert len(lines) == len(stats.intervals) + 1  # header + rows
    header = lines[0].split(",")
    assert "t_ps" in header and "queue_depth_0" in header
    assert "bank_occupancy_0_0" in header
    assert all(len(line.split(",")) == len(header) for line in lines[1:])


# ---------------------------------------------------------------------------
# request tracer / chrome trace export
# ---------------------------------------------------------------------------
def test_chrome_trace_schema():
    hub = TelemetryHub(sample_period_ns=100.0, trace=True)
    stats = tiny_run(telemetry=hub)
    doc = hub.tracer.chrome_trace(stats.intervals)
    assert set(doc) == {"traceEvents", "displayTimeUnit", "metadata"}
    events = doc["traceEvents"]
    assert events
    json.dumps(doc)  # must be serializable as-is
    slices = [e for e in events if e["ph"] == "X"]
    counters = [e for e in events if e["ph"] == "C"]
    meta = [e for e in events if e["ph"] == "M"]
    assert slices and counters and meta
    for e in slices:
        assert e["cat"] == "request"
        assert e["ts"] >= 0 and e["dur"] >= 0
        assert isinstance(e["pid"], int) and isinstance(e["tid"], int)
        assert e["name"] in {
            "xbar+l2", "mc-queue", "cmd-queue", "return",
            "l2-hit", "l2-merge", "wq-forward",
        }
    # DRAM-serviced requests contribute the full 4-phase lifecycle.
    names = {e["name"] for e in slices}
    assert {"xbar+l2", "mc-queue", "cmd-queue", "return"} <= names
    # Per-warp lanes: thread metadata names every (pid, tid) used by slices.
    named_tids = {
        (e["pid"], e["tid"]) for e in meta if e["name"] == "thread_name"
    }
    assert {(e["pid"], e["tid"]) for e in slices} <= named_tids


def test_trace_phases_are_contiguous_per_request():
    hub = TelemetryHub(trace=True)
    tiny_run(telemetry=hub)
    for req in hub.tracer.requests[:200]:
        phases = RequestTracer._phases(req)
        for (_, end, _), (start, _, _) in zip(phases, phases[1:]):
            assert end == start  # lifecycle phases tile the request's span
        for t0, t1, _ in phases:
            assert t1 >= t0 >= 0


def test_tracer_lane_assignment_separates_concurrent_requests():
    hub = TelemetryHub(trace=True)
    tiny_run(telemetry=hub)
    doc = hub.tracer.chrome_trace()
    busy: dict[tuple, list] = {}
    for e in doc["traceEvents"]:
        if e["ph"] != "X":
            continue
        busy.setdefault((e["pid"], e["tid"]), []).append(
            (e["ts"], e["ts"] + e["dur"], e["args"]["req"])
        )
    for spans in busy.values():
        spans.sort()
        for (s0, e0, r0), (s1, e1, r1) in zip(spans, spans[1:]):
            if r0 != r1:  # different requests on one lane must not overlap
                assert s1 >= e0 - 1e-9


# ---------------------------------------------------------------------------
# engine profiler
# ---------------------------------------------------------------------------
def test_profiler_attributes_time_to_components():
    hub = TelemetryHub(profile=True)
    tiny_run(telemetry=hub)
    prof = hub.profiler
    assert prof.total_seconds() > 0
    components = dict((name, calls) for name, calls, _ in prof.rows())
    # The SM issue loop and the controller pump dominate any run.
    assert any("SMCore" in name for name in components)
    assert any("MemoryController._pump" in name for name in components)
    # Lambda trampolines are charged to their enclosing method.
    assert not any("<locals>" in name for name in components)
    table = prof.format()
    assert "component" in table and "share" in table


def test_profiler_component_labels():
    from repro.telemetry.profiler import component_of

    def outer():
        return lambda: None

    # Closures and nested functions collapse to the enclosing callable.
    assert component_of(outer()) == "test_profiler_component_labels"
    assert component_of(outer) == "test_profiler_component_labels"
    prof = EngineProfiler()
    prof.note(outer(), 0.5)
    prof.note(outer(), 0.25)
    ((name, calls, sec),) = prof.rows()
    assert name == "test_profiler_component_labels"
    assert calls == 2 and abs(sec - 0.75) < 1e-12
