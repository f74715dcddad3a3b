"""Tests for the differential/metamorphic fuzzer (repro.fuzz).

The regression tests re-introduce real bugs this codebase shipped and
later fixed (overflow writes invisible to forwarding; MERB gate
overfilling the command queue; a drifting incremental scorer; a pick
that ignores queue room).  Each picks its seed-0 case by what its bug
needs, not by position in the case stream: the first case whose healthy
run exercises the mechanism the bug breaks, at a point where the buggy
code would act differently.  The test then asserts the campaign catches
the bug on that case, writes an artifact that replays deterministically,
and stops reproducing once the patch is reverted.
"""

import dataclasses
import json
import os

import pytest

import repro.mc.base as mc_base
import repro.mc.wg as mc_wg
import repro.mc.wgbw as mc_wgbw
from repro.__main__ import main
from repro.analysis.runner import config_hash
from repro.core.config import SimConfig
from repro.fuzz import (
    CaseGenerator,
    load_artifact,
    minimize,
    run_campaign,
    run_oracle,
    save_artifact,
)
from repro.fuzz.artifact import (
    ArtifactError,
    build_artifact,
    config_from_dict,
)
from repro.fuzz.oracles import ORACLES
from repro.gpu.system import GPUSystem
from repro.mc.warp_sorter import WarpGroupEntry, WarpSorter
from repro.mc.wgbw import ORPHAN_LIMIT
from repro.workloads.mutate import (
    MUTATORS,
    churn_lane_masks,
    flip_address_bits,
    flip_read_write,
    mutate_trace,
    truncate_warps,
)
from repro.workloads.trace import KernelTrace, MemOp, Segment, WarpTrace

import numpy as np


# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------
def test_generator_is_deterministic():
    a, b = CaseGenerator(3), CaseGenerator(3)
    for i in (0, 1, 5):
        ca, cb = a.case(i), b.case(i)
        assert config_hash(ca.config) == config_hash(cb.config)
        assert ca.trace.to_json_dict() == cb.trace.to_json_dict()
        assert ca.recipe == cb.recipe


def test_generator_seeds_diverge():
    h0 = [config_hash(CaseGenerator(0).case(i).config) for i in range(4)]
    h1 = [config_hash(CaseGenerator(1).case(i).config) for i in range(4)]
    assert h0 != h1


def test_generated_cases_are_valid_and_labelled():
    g = CaseGenerator(11)
    recipes = set()
    for i in range(12):
        case = g.case(i)
        case.config.validate()  # never raises: the generator filters
        assert case.trace.warps, "generated kernels must have work"
        recipes.add(case.recipe["config_recipe"])
        if case.recipe["config_recipe"] == "mc-stress":
            # Stress cases force cacheless, tiny-write-queue traffic.
            assert not case.config.use_l1 and not case.config.use_l2
            assert case.config.mc.write_queue_entries <= 4
    assert recipes == {"sampled", "mc-stress"}


# ---------------------------------------------------------------------------
# mutation operators
# ---------------------------------------------------------------------------
def _toy_trace() -> KernelTrace:
    return KernelTrace("toy", [
        WarpTrace(0, 0, [
            Segment(3, MemOp(False, [64, 128, None, 192])),
            Segment(2, MemOp(True, [256])),
        ]),
        WarpTrace(0, 1, [Segment(1, MemOp(False, [512, 576]))]),
        WarpTrace(1, 0, [Segment(4, None), Segment(1, MemOp(False, [1024]))]),
    ])


def test_truncate_warps_keeps_selected():
    t = truncate_warps(_toy_trace(), [0, 2])
    assert len(t.warps) == 2
    assert (t.warps[0].sm_id, t.warps[0].warp_id) == (0, 0)
    assert (t.warps[1].sm_id, t.warps[1].warp_id) == (1, 0)


def test_churn_lane_masks_keeps_a_live_lane():
    rng = np.random.default_rng(5)
    for _ in range(20):
        t = churn_lane_masks(_toy_trace(), rng)
        for w in t.warps:
            for s in w.segments:
                if s.mem is not None:
                    assert s.mem.active_lanes() >= 1


def test_flip_read_write_changes_direction():
    rng = np.random.default_rng(5)
    before = [s.mem.is_write for w in _toy_trace().warps
              for s in w.segments if s.mem]
    flipped = False
    for _ in range(10):
        t = flip_read_write(_toy_trace(), rng)
        after = [s.mem.is_write for w in t.warps for s in w.segments if s.mem]
        flipped = flipped or after != before
    assert flipped


def test_flip_address_bits_stays_nonnegative():
    rng = np.random.default_rng(5)
    for _ in range(20):
        t = flip_address_bits(_toy_trace(), rng)
        addrs = [a for w in t.warps for s in w.segments if s.mem
                 for a in s.mem.lane_addrs if a is not None]
        assert all(a >= 0 for a in addrs)


def test_mutate_trace_does_not_modify_input():
    original = _toy_trace()
    reference = original.to_json_dict()
    rng = np.random.default_rng(9)
    mutate_trace(original, rng, sorted(MUTATORS))
    assert original.to_json_dict() == reference


# ---------------------------------------------------------------------------
# minimizer
# ---------------------------------------------------------------------------
def test_minimizer_shrinks_to_the_culprit_warp():
    warps = [
        WarpTrace(0, i, [Segment(2, MemOp(False, [64 * i + 64]))])
        for i in range(8)
    ]
    warps[5] = WarpTrace(0, 5, [
        Segment(2, MemOp(True, [0xDEAD00])),
        Segment(1, MemOp(False, [128])),
    ])
    trace = KernelTrace("t", warps)

    def predicate(_config, t):
        return any(
            s.mem and s.mem.is_write and 0xDEAD00 in s.mem.lane_addrs
            for w in t.warps for s in w.segments
        )

    cfg = dataclasses.replace(SimConfig(), mc=dataclasses.replace(
        SimConfig().mc, age_threshold_ns=123.0))
    result = minimize(cfg, trace, predicate, max_evals=100)
    assert len(result.trace.warps) == 1
    assert result.trace.warps[0].warp_id == 5
    assert len(result.trace.warps[0].segments) == 1
    # The config delta was irrelevant to the failure -> neutralized.
    assert "mc.age_threshold_ns" in result.neutralized
    assert result.config.mc.age_threshold_ns == SimConfig().mc.age_threshold_ns
    assert 0 < result.evals <= 100


def test_minimizer_never_returns_empty_trace():
    trace = KernelTrace("t", [WarpTrace(0, 0, [Segment(1, MemOp(False, [64]))])])
    result = minimize(SimConfig(), trace, lambda _c, _t: True, max_evals=20)
    assert len(result.trace.warps) == 1


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------
def _artifact_for(case, oracle="determinism", scheduler="frfcfs"):
    return build_artifact(
        campaign_seed=case.campaign_seed,
        case_index=case.index,
        oracle=oracle,
        scheduler=scheduler,
        schedulers=[scheduler],
        detail="demo",
        config=case.config,
        trace=case.trace,
        recipe=case.recipe,
        minimized=False,
        minimize_evals=0,
        neutralized=[],
        original_warps=len(case.trace.warps),
    )


def test_artifact_roundtrip(tmp_path):
    case = CaseGenerator(7).case(0)
    path = str(tmp_path / "a.json")
    save_artifact(path, _artifact_for(case))
    loaded = load_artifact(path)
    assert loaded["oracle"] == "determinism"
    assert loaded["config_hash"] == config_hash(case.config)
    rebuilt = config_from_dict(loaded["config"])
    assert config_hash(rebuilt) == config_hash(case.config)
    assert KernelTrace.from_json_dict(loaded["trace"]).to_json_dict() \
        == case.trace.to_json_dict()


def test_artifact_rejects_tampered_config(tmp_path):
    case = CaseGenerator(7).case(0)
    path = tmp_path / "a.json"
    save_artifact(str(path), _artifact_for(case))
    doc = json.loads(path.read_text())
    doc["config"]["use_l1"] = not doc["config"]["use_l1"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ArtifactError, match="hash"):
        load_artifact(str(path))


def test_artifact_rejects_wrong_format(tmp_path):
    path = tmp_path / "a.json"
    path.write_text(json.dumps({"format": "something-else", "version": 1}))
    with pytest.raises(ArtifactError, match="repro-fuzz-repro"):
        load_artifact(str(path))
    path.write_text("not json at all")
    with pytest.raises(ArtifactError):
        load_artifact(str(path))


def test_oracle_catalogue_is_documented():
    assert set(ORACLES) >= {
        "invariants", "forwarding-consistency", "merb-gate-contract",
        "load-latency-bounds", "scorer-differential", "pick-differential",
        "differential-totals",
        "trace-equivalence", "determinism", "telemetry-perturbation",
        "checkpoint-restore", "timing-scale",
    }
    assert all(isinstance(doc, str) and doc for doc in ORACLES.values())


# ---------------------------------------------------------------------------
# campaigns
# ---------------------------------------------------------------------------
def test_clean_mini_campaign():
    report = run_campaign(
        seed=0, iterations=2, schedulers=["frfcfs", "wg"], artifact_dir=None,
    )
    assert report.clean
    assert report.cases_run == 2


def test_campaign_requires_a_bound():
    with pytest.raises(ValueError):
        run_campaign(seed=0)


# ---------------------------------------------------------------------------
# regression tests: cases picked by the mechanism their bug breaks
# ---------------------------------------------------------------------------
_CASE_LIMIT = 16


def _first_case_exercising(scheduler: str, watch):
    """The first seed-0 case whose healthy run under ``scheduler`` reaches
    the mechanism ``watch`` looks for.

    ``watch(mc, seen)`` wraps methods of one controller instance and
    appends to ``seen`` each time the mechanism runs in a state where the
    buggy code would act differently.  Up to that moment the buggy and
    healthy runs are identical, so the bug must surface in this case.
    """
    generator = CaseGenerator(0)
    for index in range(_CASE_LIMIT):
        case = generator.case(index)
        system = GPUSystem(case.config.with_scheduler(scheduler), case.trace)
        seen: list = []
        for mc in system.mcs:
            watch(mc, seen)
        system.run()
        if seen:
            return case
    pytest.fail(
        f"none of the first {_CASE_LIMIT} seed-0 cases exercises the mechanism"
    )


def _campaign_through(case, scheduler: str, tmp_path, do_minimize: bool):
    """Run the campaign up to and including ``case``; return its failure."""
    report = run_campaign(
        seed=0, iterations=case.index + 1, schedulers=[scheduler],
        artifact_dir=str(tmp_path), do_minimize=do_minimize,
    )
    assert [f.case_index for f in report.failures] == [case.index]
    return report.failures[0]


# ---------------------------------------------------------------------------
# regression: PR 2 bug A — overflowed writes invisible to read forwarding
# ---------------------------------------------------------------------------
def _buggy_receive_write(self, req):
    """Pre-fix behavior: overflowed writes were never indexed."""
    req.t_mc_arrival = self.engine.now
    if len(self.write_queue) >= self.mc.write_queue_entries or self._write_overflow:
        self._write_overflow.append(req)
    else:
        self._wq_index[req.addr] = req
        self._admit_write(req)
    self._kick()


def _watch_overflow_forwarding(mc, seen):
    """A read the pre-fix index answers differently.  That index held, per
    line, the newest write admitted straight to the queue until it
    drained, and never a write parked in the overflow."""
    receive_write, receive_read = mc.receive_write, mc.receive_read
    direct = {}  # line -> newest write admitted straight to the queue

    def watched_write(req):
        receive_write(req)
        if req not in mc._write_overflow:
            direct[req.addr] = req

    def watched_read(req):
        write = direct.get(req.addr)
        pre_fix = write is not None and write in mc.write_queue
        if pre_fix != (req.addr in mc._wq_index):
            seen.append(req)
        receive_read(req)

    mc.receive_write = watched_write
    mc.receive_read = watched_read


def test_fuzzer_catches_overflow_forwarding_regression(tmp_path, monkeypatch):
    case = _first_case_exercising("fcfs", _watch_overflow_forwarding)
    monkeypatch.setattr(
        mc_base.MemoryController, "receive_write", _buggy_receive_write
    )
    failure = _campaign_through(case, "fcfs", tmp_path, do_minimize=True)
    assert failure.oracle == "forwarding-consistency"
    assert failure.artifact_path and os.path.exists(failure.artifact_path)
    assert failure.minimized_warps is not None

    artifact = load_artifact(failure.artifact_path)
    assert artifact["minimized"]
    assert artifact["original_warps"] >= failure.minimized_warps
    config = config_from_dict(artifact["config"])
    trace = KernelTrace.from_json_dict(artifact["trace"])

    # Deterministic replay: the minimized artifact trips the same oracle
    # every time while the bug is present ...
    for _ in range(2):
        replayed = run_oracle(
            artifact["oracle"], config, trace, artifact["schedulers"]
        )
        assert replayed is not None
        assert replayed.oracle == "forwarding-consistency"

    # ... and stops reproducing the moment the fix is restored.
    monkeypatch.undo()
    assert run_oracle(
        artifact["oracle"], config, trace, artifact["schedulers"]
    ) is None


# ---------------------------------------------------------------------------
# regression: PR 2 bug B — MERB gate overfilling the command queue
# ---------------------------------------------------------------------------
def _buggy_merb_gate(self, bank, open_row, now):
    """Pre-fix behavior: fillers and orphan rescues ignored queue space."""
    busy = self.cq.busy_banks()
    if not self.cq.queues[bank]:
        busy += 1
    busy = max(1, min(busy, len(self._merb) - 1))
    need = self._merb[busy]
    pending = self.sorter.pending_hits(bank, open_row)
    while pending and self.cq.hits_since_row_change[bank] < need:
        filler = pending[0]
        self.sorter.remove_request(filler)
        self.cq.insert(filler, now)
        self.stats.merb_deferrals += 1
        pending = self.sorter.pending_hits(bank, open_row)
    pending = self.sorter.pending_hits(bank, open_row)
    if 0 < len(pending) <= ORPHAN_LIMIT:
        for filler in list(pending):
            self.sorter.remove_request(filler)
            self.cq.insert(filler, now)
            self.stats.orphan_rescues += 1


def _watch_capped_merb_gate(mc, seen):
    """A gate call the queue-room cap cut short: hits it would still have
    pulled (below the MERB threshold, or orphans) are left with no slot.
    The uncapped pre-fix gate inserts them past the bound."""
    gate = mc._merb_gate

    def watched(bank, open_row, now):
        cq = mc.cq
        busy = cq.busy_banks() + (0 if cq.queues[bank] else 1)
        need = mc._merb[max(1, min(busy, len(mc._merb) - 1))]
        gate(bank, open_row, now)
        left = len(mc.sorter.pending_hits(bank, open_row))
        if left and cq.space(bank) - 1 <= 0 and (
            cq.hits_since_row_change[bank] < need or left <= ORPHAN_LIMIT
        ):
            seen.append(bank)

    mc._merb_gate = watched


def test_fuzzer_catches_uncapped_merb_regression(tmp_path, monkeypatch):
    case = _first_case_exercising("wg-bw", _watch_capped_merb_gate)
    monkeypatch.setattr(
        mc_wgbw.WGBwController, "_merb_gate", _buggy_merb_gate
    )
    failure = _campaign_through(case, "wg-bw", tmp_path, do_minimize=True)
    assert failure.oracle == "merb-gate-contract"
    assert failure.artifact_path and os.path.exists(failure.artifact_path)

    artifact = load_artifact(failure.artifact_path)
    config = config_from_dict(artifact["config"])
    trace = KernelTrace.from_json_dict(artifact["trace"])
    replayed = run_oracle(
        artifact["oracle"], config, trace, artifact["schedulers"]
    )
    assert replayed is not None and replayed.oracle == "merb-gate-contract"

    monkeypatch.undo()
    assert run_oracle(
        artifact["oracle"], config, trace, artifact["schedulers"]
    ) is None


# ---------------------------------------------------------------------------
# regression: incremental BASJF state drifting from the naive walk (PR 5)
# ---------------------------------------------------------------------------
def _buggy_entry_add(self, req):
    """Corrupted maintenance: chain contributions are never folded in."""
    bank = req.bank
    reqs = self.by_bank.get(bank)
    if reqs is None:
        self.by_bank[bank] = [req]
        self.bank_stats[bank] = [req.row, 0, 0]
    else:
        reqs.append(req)  # stats[1]/stats[2] silently go stale
    self.n_requests += 1
    self.received += 1


def _watch_chained_groups(mc, seen):
    """A pick that scores a complete group with two or more requests on
    one bank: only there do the chain terms the bug drops count."""
    pick = mc._pick_with_room

    def watched(now):
        for entry in mc.sorter.complete_groups():
            if any(len(reqs) > 1 for reqs in entry.by_bank.values()):
                seen.append(entry.key)
        return pick(now)

    mc._pick_with_room = watched


def test_fuzzer_catches_incremental_scorer_drift(tmp_path, monkeypatch):
    case = _first_case_exercising("wg", _watch_chained_groups)
    monkeypatch.setattr(WarpGroupEntry, "add", _buggy_entry_add)
    failure = _campaign_through(case, "wg", tmp_path, do_minimize=False)
    assert failure.oracle == "scorer-differential"
    assert failure.artifact_path and os.path.exists(failure.artifact_path)

    artifact = load_artifact(failure.artifact_path)
    config = config_from_dict(artifact["config"])
    trace = KernelTrace.from_json_dict(artifact["trace"])
    replayed = run_oracle(
        artifact["oracle"], config, trace, artifact["schedulers"]
    )
    assert replayed is not None and replayed.oracle == "scorer-differential"

    # The healthy maintenance passes the same case.
    monkeypatch.undo()
    assert run_oracle(
        artifact["oracle"], config, trace, artifact["schedulers"]
    ) is None


# ---------------------------------------------------------------------------
# regression: the WG pick choosing a group whose bank queue is full
# ---------------------------------------------------------------------------
def _roomless_pick(self, now):
    """Broken pick: the best-ranked complete group, room or not."""
    best = None
    for e in self.sorter.complete_groups():
        score, hits = WarpSorter.score(e, self.cq)
        key = self._rank_key(e, score, hits, now)
        if best is None or key < best[0]:
            best = (key, e, score)
    return None if best is None else best[1:]


def _watch_roomless_best(mc, seen):
    """A pick whose best-ranked complete group touches a full bank queue,
    so a pick that ignores room would take it."""
    pick = mc._pick_with_room

    def watched(now):
        best = _roomless_pick(mc, now)
        if best is not None and not mc.cq.full.isdisjoint(best[0].by_bank):
            seen.append(best[0].key)
        return pick(now)

    mc._pick_with_room = watched


def test_fuzzer_catches_a_pick_that_ignores_room(tmp_path, monkeypatch):
    case = _first_case_exercising("wg", _watch_roomless_best)
    monkeypatch.setattr(mc_wg.WGController, "_pick_with_room", _roomless_pick)
    failure = _campaign_through(case, "wg", tmp_path, do_minimize=False)
    assert failure.oracle == "pick-differential"
    assert failure.artifact_path and os.path.exists(failure.artifact_path)

    artifact = load_artifact(failure.artifact_path)
    config = config_from_dict(artifact["config"])
    trace = KernelTrace.from_json_dict(artifact["trace"])
    replayed = run_oracle(
        artifact["oracle"], config, trace, artifact["schedulers"]
    )
    assert replayed is not None and replayed.oracle == "pick-differential"

    # The room-aware pick passes the same case.
    monkeypatch.undo()
    assert run_oracle(
        artifact["oracle"], config, trace, artifact["schedulers"]
    ) is None


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
def test_cli_fuzz_requires_a_bound(capsys):
    assert main(["fuzz"]) == 2
    assert "iterations" in capsys.readouterr().err


def test_cli_fuzz_replay_rejects_campaign_flags(capsys):
    assert main(["fuzz", "--replay", "x.json", "--iterations", "1"]) == 2


def test_cli_fuzz_replay_missing_artifact(capsys):
    assert main(["fuzz", "--replay", "no-such-file.json"]) == 2


def test_cli_fuzz_smoke_campaign(tmp_path, capsys):
    rc = main([
        "fuzz", "--iterations", "1", "--seed", "0",
        "--schedulers", "frfcfs", "--artifact-dir", str(tmp_path), "--quiet",
    ])
    assert rc == 0
    assert "clean" in capsys.readouterr().err


def test_cli_fuzz_replay_fixed_build_exits_3(tmp_path, capsys):
    # An artifact whose oracle passes on this build: exit 3, not 0.
    case = CaseGenerator(7).case(0)
    path = str(tmp_path / "stale.json")
    save_artifact(path, _artifact_for(case, oracle="determinism"))
    assert main(["fuzz", "--replay", path, "--quiet"]) == 3
    assert "did NOT reproduce" in capsys.readouterr().err


def test_cli_fuzz_replay_rejects_fully_masked_memory_op(tmp_path, capsys):
    """``--replay`` reads the artifact's trace with the validating
    interchange reader: a memory op with every lane masked off is a
    usage error (exit 2), not a silent "did NOT reproduce"."""
    case = CaseGenerator(7).case(0)
    first = next(s.mem for w in case.trace.warps for s in w.segments if s.mem)
    first.lane_addrs = [None] * len(first.lane_addrs)
    path = str(tmp_path / "masked.json")
    save_artifact(path, _artifact_for(case, oracle="determinism"))
    assert main(["fuzz", "--replay", path, "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "every lane is masked off" in err and path in err
