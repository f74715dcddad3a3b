"""Tests for the runtime guardrails (repro.guardrails): non-perturbation,
invariant detection of every injected fault class, and bit-identical
checkpoint/restore."""

import dataclasses
import json
import pickle

import pytest

from repro.core.config import SimConfig
from repro.dram.commands import CommandKind
from repro.dram.validate import (
    CommandLog,
    ProtocolViolationError,
    StreamingAuditor,
    audit_command_log,
)
from repro.gpu.system import GPUSystem, simulate
from repro.guardrails import (
    CheckpointError,
    FaultInjectionError,
    FaultSpec,
    GuardrailConfig,
    InvariantViolation,
    load_checkpoint,
    peek_checkpoint,
    save_checkpoint,
)
from repro.guardrails.checkpoint import CHECKPOINT_FORMAT, CHECKPOINT_VERSION
from repro.mc.registry import SCHEDULERS
from repro.telemetry import TelemetryHub
from repro.workloads.profiles import IRREGULAR_PROFILES
from repro.workloads.synthetic import synthetic_trace

# A small irregular workload: ~4000 ns simulated, every queue exercised.
PROFILE = dataclasses.replace(IRREGULAR_PROFILES["bfs"], warps=48, loads_per_warp=6)


def cfg_for(scheduler: str) -> SimConfig:
    return SimConfig().small().with_scheduler(scheduler)


def trace_for(cfg: SimConfig):
    return synthetic_trace(PROFILE, cfg, seed=1)


_BASELINE: dict[str, dict] = {}


def baseline(scheduler: str) -> dict:
    """Plain-run summary, computed once per scheduler per session."""
    if scheduler not in _BASELINE:
        cfg = cfg_for(scheduler)
        _BASELINE[scheduler] = simulate(cfg, trace_for(cfg)).summary()
    return _BASELINE[scheduler]


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------
def test_guardrail_config_validation():
    with pytest.raises(ValueError):
        GuardrailConfig(check_period_ns=0)
    with pytest.raises(ValueError):
        GuardrailConfig(stale_request_ns=-1)
    with pytest.raises(ValueError):
        GuardrailConfig(checkpoint_period_ns=100)  # no path
    g = GuardrailConfig(faults=[FaultSpec("crash", at_ns=1)])
    assert isinstance(g.faults, tuple)  # list coerced
    assert g.active and g.needs_driver


def test_guardrail_config_layer_flags():
    assert not GuardrailConfig().active
    audit_only = GuardrailConfig(audit=True)
    assert audit_only.active and not audit_only.needs_driver
    inv = GuardrailConfig(invariants=True)
    assert inv.active and inv.needs_driver


def test_fault_spec_validation():
    with pytest.raises(ValueError):
        FaultSpec("eat_flash", at_ns=1)
    with pytest.raises(ValueError):
        FaultSpec("crash", at_ns=-1)
    with pytest.raises(ValueError):
        FaultSpec("delay_response", at_ns=1)  # needs delay_ns > 0
    spec = FaultSpec("delay_response", at_ns=1.5, delay_ns=2.5)
    assert spec.at_ps == 1500 and spec.delay_ps == 2500


# ---------------------------------------------------------------------------
# non-perturbation: guardrails on == guardrails off, bit for bit
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("scheduler", ["wg", "frfcfs"])
def test_guardrails_do_not_perturb_the_simulation(scheduler):
    cfg = cfg_for(scheduler)
    guarded = simulate(
        cfg,
        trace_for(cfg),
        guardrails=GuardrailConfig(invariants=True, audit=True, check_period_ns=200),
    )
    assert guarded.summary() == baseline(scheduler)


# ---------------------------------------------------------------------------
# checkpoint / restore
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
def test_checkpoint_restore_is_bit_identical(tmp_path, scheduler):
    """A run finished from a mid-run snapshot reports the same statistics
    as an uninterrupted one — monitor ledger included."""
    ckpt = str(tmp_path / "snap.ckpt")
    cfg = cfg_for(scheduler)
    guardrails = GuardrailConfig(
        invariants=True,
        check_period_ns=200,
        checkpoint_period_ns=1500,
        checkpoint_path=ckpt,
    )
    full = simulate(cfg, trace_for(cfg), guardrails=guardrails)
    assert full.summary() == baseline(scheduler)

    meta = peek_checkpoint(ckpt)  # the last periodic snapshot, mid-run
    assert meta["scheduler"] == scheduler
    assert 0 < meta["warps_done"] < PROFILE.warps

    system = load_checkpoint(ckpt)
    assert system.config == cfg  # a restore resumes its own config
    resumed = system.resume()
    assert resumed.summary() == baseline(scheduler)


def header_line(**changes) -> bytes:
    """A checkpoint header line; ``changes`` edit or (with None) drop keys."""
    header = {
        "format": CHECKPOINT_FORMAT, "version": CHECKPOINT_VERSION,
        "scheduler": "wg", "now_ps": 1000, "events_processed": 10,
        "warps_done": 1, "next_req_id": 7,
    }
    header.update(changes)
    header = {k: v for k, v in header.items() if v is not None}
    return json.dumps(header).encode() + b"\n"


def snapshot_payload(ckpt) -> bytes:
    """The pickle after the header line of a snapshot file."""
    return ckpt.read_bytes().split(b"\n", 1)[1]


def test_checkpoint_rejects_version_and_format_mismatch(tmp_path):
    ckpt = tmp_path / "snap.ckpt"
    cfg = cfg_for("wg")
    save_checkpoint(GPUSystem(cfg, trace_for(cfg)), str(ckpt))
    ckpt.write_bytes(header_line(version=999) + snapshot_payload(ckpt))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(str(ckpt))

    not_ours = tmp_path / "other.ckpt"
    not_ours.write_bytes(pickle.dumps({"hello": "world"}))
    # Header lines arrived in version 3, whatever the current version.
    with pytest.raises(
        CheckpointError, match="no checkpoint header.*written before version 3"
    ):
        load_checkpoint(str(not_ours))

    garbage = tmp_path / "garbage.ckpt"
    garbage.write_text("this is not a pickle")
    with pytest.raises(CheckpointError):
        load_checkpoint(str(garbage))

    with pytest.raises(CheckpointError, match="no checkpoint"):
        load_checkpoint(str(tmp_path / "missing.ckpt"))


def test_checkpoint_refuses_version_1_snapshot(tmp_path):
    """Version 1 snapshots pickled the engine's former two-store layout;
    this build refuses them with an error naming both versions."""
    ckpt = tmp_path / "v1.ckpt"
    cfg = cfg_for("wg")
    save_checkpoint(GPUSystem(cfg, trace_for(cfg)), str(ckpt))
    ckpt.write_bytes(header_line(version=1) + snapshot_payload(ckpt))
    with pytest.raises(
        CheckpointError,
        match=f"version 1, this build reads version {CHECKPOINT_VERSION}",
    ):
        load_checkpoint(str(ckpt))


def test_other_version_is_refused_before_its_payload_is_read(tmp_path):
    """A snapshot of another build names both versions even when its
    payload would not unpickle here (it names a class this build lacks)."""
    old_payloads = {
        2: b"crepro.core.config\nTimingLegality\n.",
        3: b"crepro.gpu.coalescer\nCoalescerStats\n.",
    }
    for version, payload in old_payloads.items():
        with pytest.raises(AttributeError):
            pickle.loads(payload)
        ckpt = tmp_path / f"v{version}.ckpt"
        ckpt.write_bytes(header_line(version=version) + payload)
        for read in (peek_checkpoint, load_checkpoint):
            with pytest.raises(
                CheckpointError,
                match=f"version {version}, this build reads version "
                f"{CHECKPOINT_VERSION}",
            ):
                read(str(ckpt))


_SIDE_EFFECTS: list[str] = []


def _record_side_effect(tag: str) -> str:
    _SIDE_EFFECTS.append(tag)
    return tag


class _Foreign:
    def __reduce__(self):
        return (_record_side_effect, ("unpickled",))


def test_foreign_pickle_is_refused_without_running_it(tmp_path):
    """A file that is not a snapshot is refused at its header: none of
    its objects is built, so its ``__reduce__`` never runs."""
    foreign = tmp_path / "foreign.ckpt"
    foreign.write_bytes(pickle.dumps(_Foreign()))
    _SIDE_EFFECTS.clear()
    for read in (peek_checkpoint, load_checkpoint):
        with pytest.raises(CheckpointError) as refused:
            read(str(foreign))
        assert _SIDE_EFFECTS == [], read.__name__
        assert "no checkpoint header" in str(refused.value)


def test_peek_reads_only_the_header(tmp_path):
    """``peek_checkpoint`` reports a valid header even when the payload
    behind it is garbage; only ``load_checkpoint`` reads the payload."""
    ckpt = tmp_path / "snap.ckpt"
    ckpt.write_bytes(header_line() + b"\x93 not a pickle at all")
    meta = peek_checkpoint(str(ckpt))
    assert meta["scheduler"] == "wg" and meta["next_req_id"] == 7
    with pytest.raises(CheckpointError, match="unreadable checkpoint"):
        load_checkpoint(str(ckpt))


def test_corrupt_checkpoints_surface_as_checkpoint_error(tmp_path):
    """Every flavor of damaged snapshot raises ``CheckpointError`` —
    never a raw pickle or JSON exception.  Header damage is caught by
    both readers; payload damage only by ``load_checkpoint``."""
    header_cases = {
        "garbage.ckpt": b"\x93NUMPY\x01\x00 this is not a pickle",
        "empty.ckpt": b"",
        "pre-header.ckpt": pickle.dumps({
            "format": CHECKPOINT_FORMAT, "version": CHECKPOINT_VERSION,
            "next_req_id": 1, "system": list(range(10000)),
        }),
        "truncated-header.ckpt": header_line()[:40],
        "not-an-object.ckpt": b"[1, 2, 3]\n",
        "wrong-format.ckpt": header_line(format="other"),
        "wrong-version.ckpt": header_line(version=999),
        "missing-keys.ckpt": header_line(next_req_id=None),
    }
    payload_cases = {
        "truncated.ckpt": header_line() + pickle.dumps(list(range(10000)))[:80],
        "no-payload.ckpt": header_line(),
        "not-a-system.ckpt": header_line() + pickle.dumps([1, 2, 3]),
    }
    for name, blob in {**header_cases, **payload_cases}.items():
        path = tmp_path / name
        path.write_bytes(blob)
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))
        if name in header_cases:
            with pytest.raises(CheckpointError):
                peek_checkpoint(str(path))
        else:
            assert peek_checkpoint(str(path))["version"] == CHECKPOINT_VERSION
    with pytest.raises(CheckpointError, match="no checkpoint"):
        peek_checkpoint(str(tmp_path / "never-written.ckpt"))


def test_checkpoint_rejects_attached_telemetry(tmp_path):
    cfg = cfg_for("wg")
    system = GPUSystem(
        cfg, trace_for(cfg), telemetry=TelemetryHub(sample_period_ns=100.0)
    )
    with pytest.raises(CheckpointError, match="telemetry"):
        save_checkpoint(system, str(tmp_path / "snap.ckpt"))


# ---------------------------------------------------------------------------
# fault injection: every fault class is caught by its guardrail
# ---------------------------------------------------------------------------
def run_with_faults(*faults, audit=False, invariants=True):
    cfg = cfg_for("wg")
    guardrails = GuardrailConfig(
        invariants=invariants,
        audit=audit,
        # Tight watchdogs, scaled to the ~4000 ns run: the stale bound
        # still clears the longest natural request age (~1700 ns).
        check_period_ns=100,
        stale_request_ns=2500,
        stuck_mc_ns=400,
        faults=faults,
    )
    return simulate(cfg, trace_for(cfg), guardrails=guardrails)


def test_tight_watchdogs_pass_a_clean_run():
    """The fault tests' watchdog bounds do not false-positive."""
    assert run_with_faults().summary() == baseline("wg")


@pytest.mark.parametrize(
    "spec, law",
    [
        (FaultSpec("drop_response", at_ns=400), "stale-request"),
        (FaultSpec("delay_response", at_ns=400, delay_ns=4000), "stale-request"),
        (FaultSpec("duplicate_response", at_ns=400), "conservation"),
        (FaultSpec("stuck_mc", at_ns=800, channel=0), "stuck-mc"),
        (FaultSpec("corrupt_queue", at_ns=800, channel=0), "occupancy"),
    ],
    ids=lambda x: getattr(x, "kind", x),
)
def test_fault_is_caught_by_invariant(spec, law):
    with pytest.raises(InvariantViolation) as exc_info:
        run_with_faults(spec)
    assert exc_info.value.law == law
    assert exc_info.value.time_ps >= spec.at_ps


@pytest.mark.parametrize(
    "scheduler, desync",
    [
        ("wg", lambda mc: mc.cq.full.add(3)),
        ("gmc", lambda mc: mc.cq.full.add(0)),
        ("gmc", lambda mc: mc.sorter.pending.add(5)),
    ],
    ids=["wg-full", "gmc-full", "gmc-pending"],
)
def test_desynced_room_sets_are_occupancy_violations(scheduler, desync):
    cfg = cfg_for(scheduler)
    system = GPUSystem(cfg, trace_for(cfg), guardrails=GuardrailConfig(invariants=True))
    system.monitor.check(system, 0)  # consistent as constructed
    desync(system.mcs[0])
    with pytest.raises(InvariantViolation) as exc_info:
        system.monitor.check(system, 0)
    assert exc_info.value.law == "occupancy"
    assert "channel 0" in exc_info.value.detail


def test_illegal_command_caught_by_streaming_audit():
    with pytest.raises(ProtocolViolationError) as exc_info:
        run_with_faults(
            FaultSpec("illegal_command", at_ns=800, channel=0),
            audit=True,
            invariants=False,
        )
    assert exc_info.value.channel_id == 0


def test_crash_fault_raises():
    with pytest.raises(FaultInjectionError):
        run_with_faults(FaultSpec("crash", at_ns=800))


def test_dropped_response_without_watchdog_fails_final_conservation():
    """Even with watchdogs effectively off, the end-of-run ledger check
    still refuses to bless a run that lost a response."""
    cfg = cfg_for("wg")
    guardrails = GuardrailConfig(
        invariants=True,
        check_period_ns=100,
        stale_request_ns=10**6,
        stuck_mc_ns=10**6,
        faults=(FaultSpec("drop_response", at_ns=400),),
    )
    with pytest.raises((InvariantViolation, RuntimeError)) as exc_info:
        simulate(cfg, trace_for(cfg), guardrails=guardrails)
    if isinstance(exc_info.value, InvariantViolation):
        assert exc_info.value.law == "conservation"


# ---------------------------------------------------------------------------
# streaming auditor == offline auditor
# ---------------------------------------------------------------------------
def test_streaming_auditor_matches_offline_audit():
    T = SimConfig().dram_timing
    ORG = SimConfig().dram_org
    # A sequence with two deliberate violations (tRCD, tRRD) amid legal
    # commands; the collecting streaming auditor must report exactly what
    # the offline replay reports.
    rd = T.tck_ps
    cmds = [
        (0, CommandKind.ACT, 0, 5),
        (rd, CommandKind.RD, 0, 5, rd + T.tcas_ps, rd + T.tcas_ps + T.tburst_ps),
        (rd + T.tck_ps, CommandKind.ACT, 1, 7),
    ]
    log = CommandLog()
    streaming = StreamingAuditor(T, ORG, channel_id=3, collect=True)
    for c in cmds:
        log.record(*c)
        streaming.record(*c)
    offline = audit_command_log(log, T, ORG)
    assert streaming.violations == offline
    assert {v.rule for v in offline} >= {"ACT_TO_COL", "ACT_TO_ACT_DIFF"}
    assert streaming.commands_checked == len(cmds)


def test_streaming_auditor_raises_on_first_violation():
    T = SimConfig().dram_timing
    ORG = SimConfig().dram_org
    auditor = StreamingAuditor(T, ORG, channel_id=1)
    auditor.record(0, CommandKind.ACT, 0, 5)
    with pytest.raises(ProtocolViolationError) as exc_info:
        auditor.record(T.tck_ps, CommandKind.RD, 0, 5)
    assert exc_info.value.violation.rule == "ACT_TO_COL"
    assert exc_info.value.channel_id == 1
