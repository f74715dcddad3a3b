"""The fuzzing oracle catalogue (see docs/robustness.md).

Three families of checks, all deterministic:

**Guarded-run oracles** (``invariants``) — every case runs under PR 3's
:class:`InvariantMonitor` + :class:`StreamingAuditor`, plus *inline
consistency probes* attached to controller instances:

* ``forwarding-consistency`` — a read is answered from the write buffer
  iff a write to its line is buffered anywhere (queue *or* overflow);
  this is the ground-truth restatement of the PR 2 overflow-forwarding
  bug, checked on every single read.
* ``merb-gate-contract`` — one ``_merb_gate`` call may insert at most
  ``space_before - 1`` commands (one slot stays reserved for the
  row-miss the caller is about to insert); the PR 2 uncapped-filler bug
  breaks exactly this bound, which the occupancy invariant's warp-group
  slack is too loose to see.
* ``load-latency-bounds`` — every completed vector load respects the
  protocol floor (a DRAM-serviced load cannot return before tCAS) and
  the watchdog ceiling.
* ``scorer-differential`` — at every transaction-scheduler pick, the
  incrementally maintained BASJF score of every complete warp-group
  (:meth:`WarpSorter.score`) must equal the naive walk-every-request
  reference kept here (:func:`_score_naive`); any drift in the
  maintained per-bank chain state surfaces here at the exact decision
  that would have used it.
* ``pick-differential`` — at the same picks, the fast min-scan over the
  groups that touch no full bank (:meth:`WGController._pick_with_room`)
  must return the same (group, score) as the reference kept here
  (:func:`_pick_reference`): rank every complete group, then take the
  first whose touched queues all have ``len < depth``.

**Differential oracles** — quantities fixed at *injection* (before any
scheduling): instruction, load, and coalesced-request totals plus the
per-load request-count multiset must be identical across all schedulers
(``differential-totals``); WG and WG-M must produce bit-identical
summaries on a single-channel config, where coordination has nothing to
coordinate (``trace-equivalence``).

**Metamorphic oracles** — on one scheduler: same seed ⇒ bit-identical
summary (``determinism``); attaching telemetry must not perturb results
(``telemetry-perturbation``); checkpoint mid-run + restore ⇒ identical
final stats (``checkpoint-restore``); scaling every timing by k scales
time-valued metrics by exactly k and leaves dimensionless ones untouched
(``timing-scale``).
"""

from __future__ import annotations

import dataclasses
import os
import tempfile
from operator import itemgetter
from typing import Callable, Optional

from repro.core.config import SimConfig
from repro.core.stats import SimStats
from repro.gpu.system import GPUSystem
from repro.guardrails.checkpoint import load_checkpoint
from repro.guardrails.config import GuardrailConfig
from repro.guardrails.invariants import InvariantViolation
from repro.dram.validate import ProtocolViolationError
from repro.mc.command_queue import SCORE_HIT, SCORE_MISS, CommandQueues
from repro.mc.warp_sorter import WarpGroupEntry, WarpSorter
from repro.telemetry.hub import TelemetryHub
from repro.workloads.trace import KernelTrace

__all__ = [
    "OracleFailure",
    "ORACLES",
    "attach_consistency_probes",
    "run_guarded",
    "run_plain",
    "check_case",
    "check_load_records",
    "differential_check",
    "trace_equivalence_check",
    "check_determinism",
    "check_telemetry",
    "check_checkpoint",
    "check_timing_scale",
    "scale_timings",
    "run_oracle",
]


class OracleFailure(Exception):
    """A fuzz oracle found an inconsistency.

    ``oracle`` is the stable catalogue name (used to key replay),
    ``scheduler`` the policy under test (or a comma-joined list for the
    cross-scheduler oracles), ``detail`` a diagnostic.
    """

    def __init__(self, oracle: str, detail: str, scheduler: str = "") -> None:
        self.oracle = oracle
        self.detail = detail
        self.scheduler = scheduler
        where = f" [{scheduler}]" if scheduler else ""
        super().__init__(f"{oracle}{where}: {detail}")


# Tight sweep cadence: fuzz cases are tiny, so the occupancy/watchdog
# sweeps can afford to look every 500 simulated ns.
_GUARDRAILS = GuardrailConfig(invariants=True, audit=True, check_period_ns=500.0)


# ----------------------------------------------------------------------
# inline consistency probes
# ----------------------------------------------------------------------
def _score_naive(entry: WarpGroupEntry, cq: CommandQueues) -> tuple[int, int]:
    """Reference BASJF score: re-walk every request of the group.

    The per-bank walk threads the predicted open row through the group's
    own requests, so four same-row requests behind a foreign row cost
    3+1+1+1, not 3+3+3+3.  Semantically identical to
    :meth:`WarpSorter.score`; the scorer-differential probe holds them
    to that.
    """
    worst = 0
    hits = 0
    for bank, reqs in entry.by_bank.items():
        predicted = cq.last_sched_row[bank]
        bank_score = cq.queue_score[bank]
        for req in reqs:
            if req.row == predicted:
                bank_score += SCORE_HIT
                hits += 1
            else:
                bank_score += SCORE_MISS
            predicted = req.row
        if bank_score > worst:
            worst = bank_score
    score = worst
    if entry.remote_score is not None and entry.remote_score < score:
        score = max(0, entry.remote_score)
    return score, hits


def _ranked_groups(mc, now: int) -> list[tuple[tuple, WarpGroupEntry, int]]:
    """(rank key, entry, score) of every complete group, best first."""
    ranked = []
    for e in mc.sorter.complete_groups():
        score, hits = _score_naive(e, mc.cq)
        ranked.append((mc._rank_key(e, score, hits, now), e, score))
    ranked.sort(key=itemgetter(0))
    return ranked


def _pick_reference(mc, now: int) -> Optional[tuple[WarpGroupEntry, int]]:
    """Reference pick: the first ranked group with room in every queue
    it touches, read from the queue lengths (not ``CommandQueues.full``).
    """
    queues, depth = mc.cq.queues, mc.cq.depth
    for _, entry, score in _ranked_groups(mc, now):
        if all(len(queues[bank]) < depth for bank in entry.by_bank):
            return entry, score
    return None


def _show_pick(pick: Optional[tuple[WarpGroupEntry, int]]) -> str:
    return "no group" if pick is None else f"group {pick[0].key} (score {pick[1]})"


def attach_consistency_probes(system: GPUSystem) -> None:
    """Wrap controller entry points with ground-truth contract checks.

    Pure observation: each wrapper recomputes the expected outcome from
    queue state, delegates to the original bound method, then compares.
    Wrappers are instance attributes (closures), so probed systems are
    not picklable — the checkpoint oracle runs without them.
    """
    scheduler = system.config.scheduler
    for mc in system.mcs:
        if hasattr(mc, "_wq_index") and hasattr(mc, "write_queue"):
            orig_read = mc.receive_read

            def receive_read(req, _mc=mc, _orig=orig_read):
                buffered = {w.addr for w in _mc.write_queue}
                buffered.update(w.addr for w in _mc._write_overflow)
                _orig(req)
                forwarded = req.serviced_by == "wq"
                if forwarded != (req.addr in buffered):
                    raise OracleFailure(
                        "forwarding-consistency",
                        f"channel {_mc.channel_id}: read {req.req_id} to "
                        f"addr {req.addr:#x} serviced_by={req.serviced_by!r} "
                        f"but a write to that line "
                        f"{'is' if req.addr in buffered else 'is not'} buffered "
                        f"(queue {len(_mc.write_queue)}, "
                        f"overflow {len(_mc._write_overflow)})",
                        scheduler,
                    )

            mc.receive_read = receive_read
        if hasattr(mc, "_merb_gate"):
            orig_gate = mc._merb_gate

            def merb_gate(bank, open_row, now, _mc=mc, _orig=orig_gate):
                space_before = _mc.cq.space(bank)
                len_before = len(_mc.cq.queues[bank])
                _orig(bank, open_row, now)
                inserted = len(_mc.cq.queues[bank]) - len_before
                allowed = max(0, space_before - 1)
                if inserted > allowed:
                    raise OracleFailure(
                        "merb-gate-contract",
                        f"channel {_mc.channel_id} bank {bank}: MERB gate "
                        f"inserted {inserted} commands with only "
                        f"{space_before} slots free (max {allowed}: one slot "
                        f"is reserved for the pending row-miss)",
                        scheduler,
                    )

            mc._merb_gate = merb_gate
        if hasattr(mc, "sorter") and hasattr(mc, "_pick_with_room"):
            orig_pick = mc._pick_with_room

            def pick_with_room(now, _mc=mc, _orig=orig_pick):
                cq = _mc.cq
                for entry in _mc.sorter.complete_groups():
                    fast = WarpSorter.score(entry, cq)
                    slow = _score_naive(entry, cq)
                    if fast != slow:
                        raise OracleFailure(
                            "scorer-differential",
                            f"channel {_mc.channel_id}: warp-group "
                            f"{entry.key} scores (score, hits)={fast} "
                            f"incrementally but {slow} by the naive walk "
                            f"(stats {entry.bank_stats})",
                            scheduler,
                        )
                slow = _pick_reference(_mc, now)
                fast = _orig(now)
                if fast != slow:
                    raise OracleFailure(
                        "pick-differential",
                        f"channel {_mc.channel_id}: the fast pick took "
                        f"{_show_pick(fast)} but the ranked reference takes "
                        f"{_show_pick(slow)} (queue lengths "
                        f"{[len(q) for q in cq.queues]}, depth {cq.depth})",
                        scheduler,
                    )
                return fast

            mc._pick_with_room = pick_with_room


# ----------------------------------------------------------------------
# run helpers
# ----------------------------------------------------------------------
def run_guarded(config: SimConfig, trace: KernelTrace, scheduler: str) -> SimStats:
    """One fully guarded + probed run; raises :class:`OracleFailure`."""
    cfg = config.with_scheduler(scheduler)
    system = GPUSystem(cfg, trace, guardrails=_GUARDRAILS)
    attach_consistency_probes(system)
    try:
        stats = system.run()
    except OracleFailure:
        raise
    except (InvariantViolation, ProtocolViolationError, RuntimeError) as exc:
        raise OracleFailure("invariants", str(exc), scheduler) from exc
    check_load_records(stats, cfg, scheduler)
    return stats


def run_plain(config: SimConfig, trace: KernelTrace, scheduler: str,
              telemetry: Optional[TelemetryHub] = None) -> SimStats:
    return GPUSystem(config.with_scheduler(scheduler), trace, telemetry=telemetry).run()


# ----------------------------------------------------------------------
# per-run oracles
# ----------------------------------------------------------------------
def check_load_records(stats: SimStats, config: SimConfig, scheduler: str) -> None:
    """Structural + latency-bound sanity of every completed vector load."""
    tcas_ps = config.dram_timing.tcas_ps
    bound_ps = int(_GUARDRAILS.stale_request_ns * 1000)
    for rec in stats.load_records:
        if not rec.t_issue <= rec.t_first_return <= rec.t_last_return:
            raise OracleFailure(
                "load-latency-bounds",
                f"load (sm={rec.sm_id}, warp={rec.warp_id}) returned out of "
                f"order: issue={rec.t_issue} first={rec.t_first_return} "
                f"last={rec.t_last_return}",
                scheduler,
            )
        if rec.t_last_dram >= 0 and rec.t_last_dram - rec.t_issue < tcas_ps:
            raise OracleFailure(
                "load-latency-bounds",
                f"load (sm={rec.sm_id}, warp={rec.warp_id}) got DRAM data "
                f"{rec.t_last_dram - rec.t_issue}ps after issue, below the "
                f"tCAS floor of {tcas_ps}ps",
                scheduler,
            )
        if rec.t_last_return - rec.t_issue > bound_ps:
            raise OracleFailure(
                "load-latency-bounds",
                f"load (sm={rec.sm_id}, warp={rec.warp_id}) took "
                f"{(rec.t_last_return - rec.t_issue) / 1000:.0f}ns, beyond "
                f"the {bound_ps / 1000:.0f}ns watchdog ceiling",
                scheduler,
            )


def _injection_signature(stats: SimStats, include_coalescing: bool) -> dict:
    sig = {
        "warp_instructions": stats.warp_instructions,
        "loads_issued": stats.loads_issued,
    }
    if include_coalescing:
        sig["requests_issued"] = stats.requests_issued
        sig["load_multiset"] = sorted(
            (r.sm_id, r.warp_id, r.n_requests) for r in stats.load_records
        )
    return sig


def differential_check(results: dict[str, SimStats], config: SimConfig) -> None:
    """Injection-time totals must be identical under every scheduler.

    Instruction and load counts come straight from the trace's program
    order, so they always participate.  ``requests_issued`` and per-load
    request counts additionally include TLB page-walk lines, whose
    hit/miss pattern depends on warp interleaving (scheduler-dependent),
    so coalescing-level signatures only participate when the TLB is off.
    """
    if len(results) < 2:
        return
    include_coalescing = not config.use_tlb
    ref_name = next(iter(results))
    ref = _injection_signature(results[ref_name], include_coalescing)
    for name, stats in results.items():
        sig = _injection_signature(stats, include_coalescing)
        for key in ref:
            if sig[key] != ref[key]:
                detail_a, detail_b = ref[key], sig[key]
                if key == "load_multiset":
                    diff = set(map(tuple, detail_b)) ^ set(map(tuple, detail_a))
                    detail_a = f"{len(ref[key])} loads"
                    detail_b = f"{len(sig[key])} loads (sym. diff {sorted(diff)[:4]})"
                raise OracleFailure(
                    "differential-totals",
                    f"{key} diverges across schedulers: "
                    f"{ref_name}={detail_a} vs {name}={detail_b}",
                    f"{ref_name},{name}",
                )


def trace_equivalence_check(results: dict[str, SimStats], config: SimConfig) -> None:
    """WG and WG-M must match bit-for-bit on a single controller.

    WG-M only adds cross-controller coordination; with one channel there
    are no peers, so any divergence is a bug in the coordination plumbing
    itself.
    """
    if config.dram_org.num_channels != 1:
        return
    if "wg" not in results or "wg-m" not in results:
        return
    a, b = results["wg"].summary(), results["wg-m"].summary()
    if a != b:
        keys = [k for k in a if a[k] != b[k]]
        raise OracleFailure(
            "trace-equivalence",
            f"wg vs wg-m differ on a single channel: "
            + ", ".join(f"{k}: {a[k]!r} != {b[k]!r}" for k in keys[:4]),
            "wg,wg-m",
        )


# ----------------------------------------------------------------------
# metamorphic oracles
# ----------------------------------------------------------------------
def check_determinism(config: SimConfig, trace: KernelTrace, scheduler: str,
                      baseline: Optional[SimStats] = None) -> None:
    first = baseline.summary() if baseline is not None else run_plain(
        config, trace, scheduler).summary()
    second = run_plain(config, trace, scheduler).summary()
    if first != second:
        keys = [k for k in first if first[k] != second[k]]
        raise OracleFailure(
            "determinism",
            "re-running the same case changed the summary: "
            + ", ".join(f"{k}: {first[k]!r} != {second[k]!r}" for k in keys[:4]),
            scheduler,
        )


def check_telemetry(config: SimConfig, trace: KernelTrace, scheduler: str,
                    baseline: Optional[SimStats] = None) -> None:
    plain = baseline.summary() if baseline is not None else run_plain(
        config, trace, scheduler).summary()
    hub = TelemetryHub(sample_period_ns=1000.0)
    instrumented = run_plain(config, trace, scheduler, telemetry=hub).summary()
    if plain != instrumented:
        keys = [k for k in plain if plain[k] != instrumented[k]]
        raise OracleFailure(
            "telemetry-perturbation",
            "attaching telemetry changed the results: "
            + ", ".join(f"{k}: {plain[k]!r} != {instrumented[k]!r}" for k in keys[:4]),
            scheduler,
        )


def check_checkpoint(config: SimConfig, trace: KernelTrace, scheduler: str,
                     baseline: Optional[SimStats] = None) -> None:
    """Checkpoint mid-run, restore in a fresh object graph, finish, compare."""
    base = baseline if baseline is not None else run_plain(config, trace, scheduler)
    expected = base.summary()
    elapsed_ns = base.elapsed_ps / 1000.0
    period_ns = max(1.0, elapsed_ns / 3.0)  # ~2 snapshots before the end
    cfg = config.with_scheduler(scheduler)
    with tempfile.TemporaryDirectory(prefix="fuzz-ckpt-") as tmp:
        path = os.path.join(tmp, "case.ckpt")
        g = GuardrailConfig(checkpoint_period_ns=period_ns, checkpoint_path=path)
        ckpt_run = GPUSystem(cfg, trace, guardrails=g).run().summary()
        if ckpt_run != expected:
            keys = [k for k in expected if expected[k] != ckpt_run[k]]
            raise OracleFailure(
                "checkpoint-restore",
                "periodic checkpointing perturbed the run: "
                + ", ".join(f"{k}: {expected[k]!r} != {ckpt_run[k]!r}" for k in keys[:4]),
                scheduler,
            )
        if not os.path.exists(path):
            return  # run finished inside the first period; nothing to restore
        restored = load_checkpoint(path).resume().summary()
    if restored != expected:
        keys = [k for k in expected if expected[k] != restored[k]]
        raise OracleFailure(
            "checkpoint-restore",
            "restored run diverged from the uninterrupted one: "
            + ", ".join(f"{k}: {expected[k]!r} != {restored[k]!r}" for k in keys[:4]),
            scheduler,
        )


_TIME_SCALED_KEYS = ("elapsed_ns", "effective_latency_ns", "divergence_ns")
_INVERSE_SCALED_KEYS = ("ipc",)


def scale_timings(config: SimConfig, k: int) -> SimConfig:
    """Scale every time-valued parameter by integer ``k``."""
    t = config.dram_timing
    gpu = config.gpu
    return dataclasses.replace(
        config,
        dram_timing=dataclasses.replace(
            t,
            tck_ns=t.tck_ns * k, trc_ns=t.trc_ns * k, trcd_ns=t.trcd_ns * k,
            trp_ns=t.trp_ns * k, tcas_ns=t.tcas_ns * k, tras_ns=t.tras_ns * k,
            trrd_ns=t.trrd_ns * k, twtr_ns=t.twtr_ns * k, tfaw_ns=t.tfaw_ns * k,
            trtp_ns=t.trtp_ns * k, twr_ns=t.twr_ns * k,
            trefi_ns=t.trefi_ns * k, trfc_ns=t.trfc_ns * k,
        ),
        gpu=dataclasses.replace(
            gpu,
            core_clock_ghz=1000.0 / (k * gpu.core_cycle_ps),
            l1=dataclasses.replace(gpu.l1, hit_latency_ns=gpu.l1.hit_latency_ns * k),
            l2_slice=dataclasses.replace(
                gpu.l2_slice, hit_latency_ns=gpu.l2_slice.hit_latency_ns * k
            ),
            xbar_latency_ns=gpu.xbar_latency_ns * k,
            xbar_bytes_per_ns=gpu.xbar_bytes_per_ns / k,
        ),
        mc=dataclasses.replace(config.mc, age_threshold_ns=config.mc.age_threshold_ns * k),
    )


def _derived_ps(config: SimConfig) -> list[int]:
    """Every integer-ps quantity the simulator derives from the config."""
    t = config.dram_timing
    gpu = config.gpu
    org = config.dram_org
    values = [getattr(t, name) for name in dir(type(t)) if name.endswith("_ps")]
    values.append(gpu.core_cycle_ps)
    values.append(int(gpu.l1.hit_latency_ns * 1000))
    values.append(int(gpu.l2_slice.hit_latency_ns * 1000))
    values.append(int(gpu.xbar_latency_ns * 1000))
    values.append(max(1, int(org.line_bytes / gpu.xbar_bytes_per_ns * 1000)))
    values.append(int(config.mc.age_threshold_ns * 1000))
    return values


def check_timing_scale(config: SimConfig, trace: KernelTrace, scheduler: str,
                       baseline: Optional[SimStats] = None, k: int = 2) -> None:
    from repro.mc.registry import coordinated_schedulers

    if scheduler in coordinated_schedulers() and config.dram_org.num_channels > 1:
        # The coordination network's fixed message delay is architectural,
        # not a config timing, so it does not scale with k and the
        # metamorphic relation is void (with one channel no messages flow).
        return
    scaled = scale_timings(config, k)
    base_ps, scaled_ps = _derived_ps(config), _derived_ps(scaled)
    if any(s != b * k for b, s in zip(base_ps, scaled_ps)):
        return  # float rounding broke exact derivation; metamorphic relation void
    base = (baseline.summary() if baseline is not None
            else run_plain(config, trace, scheduler).summary())
    slow = run_plain(scaled, trace, scheduler).summary()
    mismatches = []
    for key, value in base.items():
        expect = value
        if key in _TIME_SCALED_KEYS:
            expect = value * k
        elif key in _INVERSE_SCALED_KEYS:
            expect = value / k
        if slow[key] != expect:
            mismatches.append(f"{key}: expected {expect!r}, got {slow[key]!r}")
    if mismatches:
        raise OracleFailure(
            "timing-scale",
            f"scaling all timings by {k} broke the latency-scaling relation: "
            + "; ".join(mismatches[:4]),
            scheduler,
        )


_METAMORPHIC = (check_determinism, check_telemetry, check_checkpoint,
                check_timing_scale)

#: Stable catalogue (oracle name -> short description) for docs/CLI.
ORACLES = {
    "invariants": "guarded run: invariant monitor, protocol audit, stall detection",
    "forwarding-consistency": "read forwarded iff its line is buffered (queue or overflow)",
    "merb-gate-contract": "one MERB gate call inserts at most space-1 commands",
    "load-latency-bounds": "per-load latency within [tCAS floor, watchdog ceiling]",
    "scorer-differential": "incremental BASJF score == naive walk at every pick",
    "pick-differential": "fast WG pick == first ranked group with room at every pick",
    "differential-totals": "injection-time totals identical across schedulers",
    "trace-equivalence": "wg == wg-m bit-for-bit on a single channel",
    "determinism": "same seed, same summary",
    "telemetry-perturbation": "telemetry on/off does not change results",
    "checkpoint-restore": "checkpoint + restore reproduces the uninterrupted run",
    "timing-scale": "scaling timings by k scales time metrics by k",
}


# ----------------------------------------------------------------------
# whole-case check (the campaign inner loop)
# ----------------------------------------------------------------------
def check_case(config: SimConfig, trace: KernelTrace, schedulers: list[str],
               case_index: int = 0) -> None:
    """Run every oracle family on one case; raises the first failure.

    The four metamorphic oracles rotate over ``case_index`` (one per
    case, on a rotating designated scheduler) to keep per-case cost at
    roughly ``len(schedulers) + 2`` simulations.
    """
    results: dict[str, SimStats] = {}
    for scheduler in schedulers:
        results[scheduler] = run_guarded(config, trace, scheduler)
    differential_check(results, config)
    trace_equivalence_check(results, config)
    meta = _METAMORPHIC[case_index % len(_METAMORPHIC)]
    designated = schedulers[case_index % len(schedulers)]
    # The guarded baseline is probe-wrapped but statistically identical
    # to a plain run; metamorphic replicas re-run plain for a clean pair.
    meta(config, trace, designated)


# ----------------------------------------------------------------------
# targeted replay (used by --replay and by the minimizer predicate)
# ----------------------------------------------------------------------
def run_oracle(oracle: str, config: SimConfig, trace: KernelTrace,
               schedulers: list[str]) -> Optional[OracleFailure]:
    """Re-run exactly one catalogue oracle; returns its failure or None."""
    try:
        if oracle in ("invariants", "forwarding-consistency",
                      "merb-gate-contract", "load-latency-bounds",
                      "scorer-differential", "pick-differential"):
            for scheduler in schedulers:
                run_guarded(config, trace, scheduler)
        elif oracle == "differential-totals":
            results = {s: run_guarded(config, trace, s) for s in schedulers}
            differential_check(results, config)
        elif oracle == "trace-equivalence":
            results = {s: run_guarded(config, trace, s) for s in ("wg", "wg-m")}
            trace_equivalence_check(results, config)
        elif oracle == "determinism":
            check_determinism(config, trace, schedulers[0])
        elif oracle == "telemetry-perturbation":
            check_telemetry(config, trace, schedulers[0])
        elif oracle == "checkpoint-restore":
            check_checkpoint(config, trace, schedulers[0])
        elif oracle == "timing-scale":
            check_timing_scale(config, trace, schedulers[0])
        else:
            raise ValueError(f"unknown oracle {oracle!r}; known: {sorted(ORACLES)}")
    except OracleFailure as failure:
        return failure
    return None
