"""Command-line interface: ``python -m repro``.

Subcommands:

* ``run BENCH``   — simulate one benchmark under one scheduler and print
  the summary metrics (``--json`` for machine-readable output;
  ``--metrics-out`` / ``--trace-out`` to export telemetry;
  ``--audit`` / ``--invariants`` for runtime guardrails;
  ``--checkpoint-period`` / ``--restore-from`` for snapshots — see
  docs/robustness.md);
* ``scenario``    — work with the declarative scenario library
  (``run``/``list``/``validate``) — see docs/scenarios.md and the
  committed ``scenarios/`` directory.  ``scenario run SPEC`` is the
  (benchmark x scheduler x seed) grid runner: worker processes, retries,
  live progress, a machine-readable sweep report (``--out``); jobs
  already in the cache are not rerun, so rerunning a killed run
  finishes it;
* ``reproduce``   — sweep the runs the paper's tables and figures read,
  render them and measure the paper's claims on them (``--only`` for a
  subset, ``--out DIR`` for the tables and ``accuracy.json``); a PAPER
  run at seeds 1 and 2 exits 1 when a claim leaves its band;
* ``fuzz``        — differential/metamorphic fuzzing campaign over random
  configs and workloads, with failure minimization and replayable repro
  artifacts (``--replay``) — see docs/robustness.md;
* ``history``     — inspect the append-only run-history store
  (``list``/``show``/``diff``) — see docs/observability.md;
* ``dashboard``   — render the self-contained static HTML dashboard
  (``bench/run.py`` results, paper accuracy, scenario runs, fuzz stats)
  from benchmark result files and the run history;
* ``list``        — available benchmarks and schedulers.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from repro import (
    ALL_PROFILES,
    SCHEDULERS,
    Scale,
    SimConfig,
    benchmark_names,
    simulate,
)
from repro.analysis import format_table
from repro.analysis.experiments import (
    DRIVERS,
    accuracy_doc,
    declared_sweeps,
    outside_band,
)
from repro.analysis.runner import ExperimentRunner, build_trace
from repro.analysis.sweep import run_sweep
from repro.core.atomic import atomic_write_json
from repro.core.overrides import (
    apply_overrides as apply_config_overrides,
    parse_assignment,
)
from repro.dram.validate import ProtocolViolationError
from repro.guardrails import (
    CheckpointError,
    GuardrailConfig,
    InvariantViolation,
    load_checkpoint,
    peek_checkpoint,
)
from repro.history import record_run
from repro.telemetry import TelemetryHub


def _make_hub(args) -> TelemetryHub | None:
    """A hub matching the telemetry flags, or None when everything is off."""
    want_trace = args.trace_out is not None
    want_sample = args.metrics_out is not None or want_trace
    want_profile = args.profile
    if not (want_trace or want_sample or want_profile):
        return None
    return TelemetryHub(
        sample_period_ns=args.metrics_period if want_sample else 0.0,
        trace=want_trace,
        profile=want_profile,
    )


def _report_run(stats, hub: TelemetryHub | None) -> None:
    """Wall-clock profiling summary, printed at the end of every run.

    Goes to stderr so ``--json`` / metrics output on stdout stays clean.
    """
    rate = stats.events_processed / stats.wall_seconds if stats.wall_seconds else 0.0
    print(
        f"[repro] {stats.events_processed} events in {stats.wall_seconds:.2f} s "
        f"({rate / 1000.0:.0f}k events/s)",
        file=sys.stderr,
    )
    if hub is not None and hub.profiler is not None:
        print(hub.profiler.format(), file=sys.stderr)


def _write_outputs(args, stats, hub: TelemetryHub | None) -> None:
    if args.metrics_out:
        stats.write_metrics(args.metrics_out)
        print(f"[repro] interval metrics -> {args.metrics_out}", file=sys.stderr)
    if args.trace_out and hub is not None and hub.tracer is not None:
        hub.tracer.write(args.trace_out, stats.intervals)
        print(
            f"[repro] chrome trace -> {args.trace_out} "
            "(open at https://ui.perfetto.dev)",
            file=sys.stderr,
        )


def _check_run_flags(args) -> str | None:
    """Reject nonsensical ``run`` flag combinations (message, or None)."""
    telemetry = [
        flag
        for flag, on in (
            ("--metrics-out", args.metrics_out is not None),
            ("--trace-out", args.trace_out is not None),
            ("--profile", args.profile),
        )
        if on
    ]
    if args.checkpoint_period is not None and args.checkpoint_out is None:
        return "--checkpoint-period needs --checkpoint-out PATH"
    if args.checkpoint_out is not None and args.checkpoint_period is None:
        return "--checkpoint-out needs --checkpoint-period NS"
    if args.checkpoint_period is not None and telemetry:
        return (
            "checkpoints cannot carry telemetry state (live file handles); "
            f"drop {', '.join(telemetry)} or the checkpoint flags"
        )
    if args.restore_from is None:
        if args.benchmark is None:
            return "a benchmark is required (or --restore-from SNAPSHOT)"
        return None
    # --restore-from resumes a finished snapshot: the workload, seed and
    # scale are baked into it, so flags that would pick a different run
    # are contradictions, not modifiers.
    if args.benchmark is not None:
        return "--restore-from resumes a snapshot; drop the benchmark argument"
    for flag, given in (
        ("--seed", args.seed is not None),
        ("--scale", args.scale is not None),
        ("--kind", args.kind is not None),
        ("--scheduler", args.scheduler is not None),
    ):
        if given:
            return f"{flag} is baked into the snapshot; drop it with --restore-from"
    if args.audit or args.invariants:
        return (
            "--audit/--invariants cannot attach mid-run; the snapshot resumes "
            "with the guardrails it was taken with"
        )
    if telemetry:
        return f"telemetry cannot attach mid-run; drop {', '.join(telemetry)}"
    return None


def _guardrails_from_args(args) -> GuardrailConfig | None:
    if not (args.audit or args.invariants or args.checkpoint_period):
        return None
    return GuardrailConfig(
        invariants=args.invariants,
        audit=args.audit,
        checkpoint_period_ns=args.checkpoint_period or 0.0,
        checkpoint_path=args.checkpoint_out,
    )


def _print_summary(args, stats) -> None:
    if args.json:
        print(json.dumps(stats.summary(), indent=2))
    else:
        for key, value in stats.summary().items():
            print(f"{key:24s} {value:.4f}")


def _run_restored(args) -> int:
    """``run --restore-from``: rehydrate a snapshot and finish the run."""
    meta = peek_checkpoint(args.restore_from)
    print(
        f"[repro] restoring {args.restore_from}: scheduler={meta['scheduler']} "
        f"t={meta['now_ps'] / 1000:.1f}ns "
        f"({meta['warps_done']} warps done, "
        f"{meta['events_processed']} events processed)",
        file=sys.stderr,
    )
    system = load_checkpoint(args.restore_from)
    # A fresh guardrail config replaces the pickled one: pending faults
    # must not re-fire, and the caller may want new checkpoints.
    system.guardrails = _guardrails_from_args(args)
    system.injector = None
    stats = system.resume()
    _print_summary(args, stats)
    _report_run(stats, None)
    return 0


def _apply_overrides(cfg: SimConfig, overrides: list[str]) -> SimConfig:
    """Apply ``--set section.field=value`` edits at any nesting depth
    (``use_l1``, ``dram_timing.tras_ns``, ``gpu.l1.size_bytes``); bad
    paths report the valid field tree, and every edit re-validates
    through the dataclass constructors (:mod:`repro.core.overrides`)."""
    pairs: dict[str, object] = {}
    for item in overrides:
        key, value = parse_assignment(item)
        pairs[key] = value  # repeated --set of one key: last one wins
    return apply_config_overrides(cfg, pairs)


def cmd_run(args) -> int:
    problem = _check_run_flags(args)
    if problem:
        print(f"repro run: error: {problem}", file=sys.stderr)
        return 2
    try:
        if args.restore_from is not None:
            return _run_restored(args)
        # SimConfig.validate() runs at construction and on every --set
        # replace; surface its one-line physical-consistency errors as
        # usage errors, not tracebacks.
        try:
            cfg = SimConfig(scheduler=args.scheduler or "wg-w")
            cfg = _apply_overrides(cfg, args.set or [])
        except (ValueError, TypeError) as exc:
            print(f"repro run: invalid configuration: {exc}", file=sys.stderr)
            return 2
        kind = args.kind or (
            "synthetic" if args.benchmark in ALL_PROFILES else "algorithmic")
        try:
            trace = build_trace(
                kind, args.benchmark, cfg, Scale[(args.scale or "quick").upper()],
                1 if args.seed is None else args.seed,
            )
        except ValueError as exc:
            print(f"repro run: error: {exc}", file=sys.stderr)
            return 2
        hub = _make_hub(args)
        stats = simulate(
            cfg, trace, telemetry=hub,
            guardrails=_guardrails_from_args(args),
        )
    except CheckpointError as exc:
        print(f"repro run: error: {exc}", file=sys.stderr)
        return 2
    except (InvariantViolation, ProtocolViolationError) as exc:
        print(f"repro run: guardrail tripped: {exc}", file=sys.stderr)
        return 1
    _print_summary(args, stats)
    _write_outputs(args, stats, hub)
    _report_run(stats, hub)
    return 0


def cmd_scenario(args) -> int:
    from repro.scenarios import (
        ScenarioError,
        SpecError,
        find_specs,
        load_spec,
        run_scenario,
        validate_spec_file,
    )

    if args.action == "validate":
        paths: list[str] = []
        try:
            for target in args.paths:
                paths.extend(
                    find_specs(target) if os.path.isdir(target) else [target]
                )
        except SpecError as exc:
            print(f"repro scenario: error: {exc}", file=sys.stderr)
            return 2
        if not paths:
            print(
                f"repro scenario: error: no spec files under "
                f"{', '.join(args.paths)}",
                file=sys.stderr,
            )
            return 2
        n_bad = 0
        for path in paths:
            err = validate_spec_file(path)
            if err is None:
                print(f"[scenario] OK      {path}")
            else:
                n_bad += 1
                print(f"[scenario] INVALID {err}")
        print(
            f"[scenario] {len(paths) - n_bad}/{len(paths)} spec(s) valid",
            file=sys.stderr,
        )
        return 1 if n_bad else 0

    if args.action == "list":
        try:
            paths = find_specs(args.dir)
        except SpecError as exc:
            print(f"repro scenario: error: {exc}", file=sys.stderr)
            return 2
        rows = []
        for path in paths:
            try:
                spec = load_spec(path)
            except SpecError:
                rows.append([os.path.basename(path), "INVALID", "-", "-", "-"])
                continue
            rows.append([
                spec.name, spec.preset, spec.workload.kind,
                str(spec.n_jobs), spec.description[:44],
            ])
        if not rows:
            print(f"[scenario] no specs under {args.dir}", file=sys.stderr)
            return 0
        print(format_table(
            ["name", "preset", "kind", "jobs", "description"], rows,
            title=f"scenario library ({args.dir})",
        ))
        return 0

    # run SPEC
    try:
        spec = load_spec(args.spec)
    except SpecError as exc:
        print(f"repro scenario: error: {exc}", file=sys.stderr)
        return 2
    if args.scale:
        # One spec serves CI (tiny) and real runs; the spec that runs,
        # and so its hash and --out document, names the scale it ran at.
        spec = dataclasses.replace(spec, scale=args.scale.upper())
    print(
        f"[scenario] {spec.name}: preset {spec.preset}, "
        f"{spec.n_jobs} jobs at {spec.scale} "
        f"(spec {spec.spec_hash()})",
        file=sys.stderr,
    )
    try:
        result = run_scenario(
            spec,
            cache_dir=args.cache_dir,
            workers=args.workers,
            progress=lambda msg: print(msg, file=sys.stderr),
        )
    except ScenarioError as exc:
        if args.out:
            exc.result.write(args.out)
            print(f"[scenario] sweep report -> {args.out}", file=sys.stderr)
        print(f"repro scenario: error: {exc}", file=sys.stderr)
        return 1
    print(result.format())
    if args.out:
        result.write(args.out)
        print(f"[scenario] results -> {args.out}", file=sys.stderr)
    return 0


def cmd_reproduce(args) -> int:
    runner = ExperimentRunner(
        scale=Scale[args.scale.upper()], seeds=tuple(args.seeds),
        kind=args.kind, cache_dir=args.cache_dir,
    )
    experiments = args.only or list(DRIVERS)
    # One sweep of exactly the runs the experiments read (Table I: none).
    sweeps = declared_sweeps(runner, experiments)
    if sweeps:
        run_sweep(
            sweeps, workers=args.workers,
            progress=lambda msg: print(msg, file=sys.stderr),
        ).raise_on_failure()
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    results = {}
    for rid in experiments:
        res = results[rid] = DRIVERS[rid].render(runner)
        print()
        print(res)
        if args.out:
            with open(os.path.join(args.out, f"{rid}.txt"), "w") as fh:
                fh.write(f"{res}\n")
    doc = accuracy_doc(runner, results)
    if args.out:
        atomic_write_json(os.path.join(args.out, "accuracy.json"), doc)
        record_run("accuracy", doc)
    misses = outside_band(doc) if doc["gated"] else []
    if misses:
        print(
            f"repro reproduce: {len(misses)} claim(s) outside their band: "
            + "; ".join(misses),
            file=sys.stderr,
        )
        return 1
    print(
        f"[accuracy] {len(doc['entries'])} claims, " + (
            "all inside their bands" if doc["gated"] else
            "bands not checked: they hold only for the run they were "
            "measured at (analysis/experiments.py::BANDED_RUN)"
        ),
        file=sys.stderr,
    )
    return 0


def cmd_fuzz(args) -> int:
    from repro.fuzz import load_artifact, run_campaign, run_oracle
    from repro.fuzz.artifact import ArtifactError, config_from_dict
    from repro.workloads.trace import KernelTrace, TraceFormatError

    log = (lambda _msg: None) if args.quiet else (
        lambda msg: print(f"[fuzz] {msg}", file=sys.stderr)
    )
    if args.replay is not None:
        if args.iterations is not None or args.time_budget is not None:
            print("repro fuzz: error: --replay takes no campaign flags",
                  file=sys.stderr)
            return 2
        try:
            artifact = load_artifact(args.replay)
        except ArtifactError as exc:
            print(f"repro fuzz: error: {exc}", file=sys.stderr)
            return 2
        try:
            config = config_from_dict(artifact["config"])
        except (ValueError, TypeError, KeyError) as exc:
            print(f"repro fuzz: error: artifact config invalid: {exc}",
                  file=sys.stderr)
            return 2
        try:
            trace = KernelTrace.from_json_dict(artifact["trace"], source=args.replay)
        except TraceFormatError as exc:
            print(f"repro fuzz: error: artifact trace invalid: {exc}",
                  file=sys.stderr)
            return 2
        log(
            f"replaying {args.replay}: oracle={artifact['oracle']} "
            f"schedulers={','.join(artifact['schedulers'])} "
            f"config={artifact['config_hash']} "
            f"(campaign seed {artifact['campaign_seed']}, "
            f"case {artifact['case_index']})"
        )
        failure = run_oracle(
            artifact["oracle"], config, trace, artifact["schedulers"]
        )
        if failure is None:
            print(
                f"[fuzz] did NOT reproduce: oracle {artifact['oracle']} "
                "passed on this build (bug fixed, or artifact stale)",
                file=sys.stderr,
            )
            return 3
        print(f"[fuzz] reproduced: {failure}", file=sys.stderr)
        return 0

    if args.iterations is None and args.time_budget is None:
        print("repro fuzz: error: bound the campaign with --iterations "
              "and/or --time-budget (or use --replay)", file=sys.stderr)
        return 2
    report = run_campaign(
        seed=args.seed,
        iterations=args.iterations,
        time_budget_s=args.time_budget,
        schedulers=args.schedulers,
        artifact_dir=args.artifact_dir,
        do_minimize=not args.no_minimize,
        log=log,
    )
    verdict = "clean" if report.clean else f"{len(report.failures)} failure(s)"
    print(
        f"[fuzz] seed {report.campaign_seed}: {report.cases_run} cases, "
        f"{len(report.schedulers)} schedulers, {verdict} "
        f"({report.wall_seconds:.1f}s)",
        file=sys.stderr,
    )
    for failure in report.failures:
        where = f" -> {failure.artifact_path}" if failure.artifact_path else ""
        print(
            f"[fuzz] case {failure.case_index} [{failure.oracle}] "
            f"{failure.detail}{where}",
            file=sys.stderr,
        )
    return 0 if report.clean else 1


def cmd_list(_args) -> int:
    from repro.dram.timing import DRAM_PRESETS
    from repro.workloads.suite import IRREGULAR_SUITE, MODERN_SUITE, REGULAR_SUITE

    print("irregular benchmarks:", ", ".join(IRREGULAR_SUITE))
    print("regular benchmarks:  ", ", ".join(REGULAR_SUITE))
    print("modern benchmarks:   ", ", ".join(MODERN_SUITE),
          "(algorithmic kind only)")
    print("schedulers:          ", ", ".join(sorted(SCHEDULERS)))
    print("dram presets:        ", ", ".join(sorted(DRAM_PRESETS)))
    return 0


def _history_store(args):
    from repro.history import default_store
    from repro.history.store import HistoryStore

    if getattr(args, "dir", None):
        return HistoryStore(args.dir)
    store = default_store()
    if not os.path.isdir(store.root):
        print(
            f"repro history: note: {store.root} does not exist yet — "
            "scenario/reproduce/fuzz runs create it (REPRO_HISTORY_DIR overrides)",
            file=sys.stderr,
        )
    return store


def _history_summary(record) -> str:
    p = record.payload if isinstance(record.payload, dict) else {}
    if record.kind == "sweep":
        return (
            f"{p.get('jobs_total', '?')} jobs "
            f"({p.get('jobs_failed', 0)} failed), scale {p.get('scale', '?')}"
        )
    if record.kind == "fuzz":
        state = "clean" if p.get("clean") else f"{len(p.get('failures') or [])} failed"
        return f"{p.get('cases_run', '?')} cases, {state}"
    if record.kind == "accuracy":
        return f"{len(p.get('entries') or [])} entries"
    return f"{len(p)} payload keys"


def cmd_history(args) -> int:
    store = _history_store(args)

    if args.action == "list":
        records = store.records(args.kind, limit=args.limit)
        if not records:
            print("[history] no records", file=sys.stderr)
            return 0
        rows = [
            [r.record_id, r.created_utc,
             r.git_sha[:9] if r.git_sha != "unknown" else "-",
             f"{r.calibration_ops_per_sec / 1e6:.1f}M",
             _history_summary(r) + (" [INVALID]" if r.problems else "")]
            for r in records
        ]
        print(format_table(
            ["record", "created (UTC)", "git", "calib", "summary"], rows,
            title=f"run history ({store.root})",
        ))
        return 0

    if args.action == "show":
        record = store.get(args.record_id)
        if record is None:
            print(
                f"repro history: error: no record {args.record_id!r} in "
                f"{store.root} (try `repro history list`)",
                file=sys.stderr,
            )
            return 2
        print(json.dumps(record.to_dict(), indent=2, sort_keys=True))
        if record.problems:
            print(
                f"[history] provenance problems: {'; '.join(record.problems)}",
                file=sys.stderr,
            )
        return 0

    # diff OLD NEW
    old, new = store.get(args.record_a), store.get(args.record_b)
    missing = [
        rid for rid, r in ((args.record_a, old), (args.record_b, new))
        if r is None
    ]
    if missing:
        print(
            f"repro history: error: no record {', '.join(map(repr, missing))} "
            f"in {store.root} (try `repro history list`)",
            file=sys.stderr,
        )
        return 2
    if old.kind != new.kind:
        print(
            f"repro history: error: cannot diff {old.kind!r} against "
            f"{new.kind!r} records",
            file=sys.stderr,
        )
        return 2
    # Shallow scalar payload diff.
    keys = sorted(set(old.payload) | set(new.payload))
    for key in keys:
        a, b = old.payload.get(key), new.payload.get(key)
        if isinstance(a, (dict, list)) or isinstance(b, (dict, list)):
            if a != b:
                print(f"{key}: differs (structured; see `history show`)")
        elif a != b:
            print(f"{key}: {a} -> {b}")
    return 0


def cmd_dashboard(args) -> int:
    from repro.dashboard import build_dashboard
    from repro.history import DEFAULT_HISTORY_DIR

    history_dir = args.history_dir or os.environ.get(
        "REPRO_HISTORY_DIR", DEFAULT_HISTORY_DIR
    )
    build = build_dashboard(
        history_dir, args.out, accuracy_path=args.accuracy,
        bench_paths=args.bench,
    )
    print(build.summary(), file=sys.stderr)
    if args.check and not build.ok:
        print(
            "repro dashboard: error: build is hollow (see PROBLEM lines); "
            "run `python3 bench/run.py` / `python -m repro reproduce "
            "--scale paper --out results/` to produce its inputs",
            file=sys.stderr,
        )
        return 1
    if args.open:
        import webbrowser

        webbrowser.open(f"file://{os.path.abspath(build.index_path)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p):
        # Defaults resolve in cmd_run (the kind per benchmark); None here
        # lets ``run --restore-from`` tell "explicitly given" from "default".
        p.add_argument("--scale", default=None,
                       choices=[s.name.lower() for s in Scale],
                       help="workload scale (default quick)")
        p.add_argument("--seed", type=int, default=None,
                       help="trace RNG seed (default 1)")
        p.add_argument("--kind", default=None,
                       choices=["synthetic", "algorithmic"],
                       help="trace generator (default synthetic, or "
                            "algorithmic for a benchmark without a synthetic profile)")

    def positive_ns(text: str) -> float:
        period = float(text)
        if period <= 0:
            raise argparse.ArgumentTypeError(
                f"period must be > 0 ns, got {text}"
            )
        return period

    p_run = sub.add_parser("run", help="simulate one benchmark")
    p_run.add_argument("benchmark", nargs="?", default=None,
                       choices=sorted(benchmark_names()))
    p_run.add_argument("--scheduler", default=None, choices=sorted(SCHEDULERS),
                       help="memory scheduler (default wg-w)")
    common(p_run)
    p_run.add_argument("--metrics-out", default=None, metavar="PATH",
                       help="write interval metrics (JSON, or CSV for .csv)")
    p_run.add_argument("--trace-out", default=None, metavar="PATH",
                       help="write a Chrome trace-event JSON (Perfetto)")
    p_run.add_argument("--metrics-period", type=positive_ns, default=100.0,
                       metavar="NS", help="sampling period in ns (default 100)")
    p_run.add_argument("--set", action="append", metavar="FIELD=VALUE",
                       help="override a config field, e.g. "
                            "--set dram_timing.tras_ns=30 --set use_l1=false "
                            "(validated; bad combinations are rejected)")
    p_run.add_argument("--json", action="store_true",
                       help="print the summary as JSON instead of a table")
    p_run.add_argument("--profile", action="store_true",
                       help="attribute wall-clock time to model components")
    guard = p_run.add_argument_group(
        "runtime guardrails (docs/robustness.md)"
    )
    guard.add_argument("--invariants", action="store_true",
                       help="online invariant monitor: conservation, "
                            "occupancy, forward-progress watchdogs")
    guard.add_argument("--audit", action="store_true",
                       help="stream-audit every DRAM command against the "
                            "GDDR5 protocol rules; abort on violation")
    guard.add_argument("--checkpoint-period", type=positive_ns, default=None,
                       metavar="NS",
                       help="snapshot the full simulator state every NS of "
                            "simulated time (needs --checkpoint-out)")
    guard.add_argument("--checkpoint-out", default=None, metavar="PATH",
                       help="where periodic snapshots are written "
                            "(atomically overwritten in place)")
    guard.add_argument("--restore-from", default=None, metavar="PATH",
                       help="resume a snapshot to completion instead of "
                            "starting a benchmark")
    p_run.set_defaults(fn=cmd_run)

    p_sc = sub.add_parser(
        "scenario",
        help="declarative scenario specs: run/list/validate (docs/scenarios.md)",
    )
    sc_sub = p_sc.add_subparsers(dest="action", required=True)
    sc_run = sc_sub.add_parser("run", help="execute one spec end to end")
    sc_run.add_argument("spec", metavar="SPEC", help="spec file (.yaml/.json)")
    sc_run.add_argument("--cache-dir", default=".repro-results")
    sc_run.add_argument("--workers", type=int, default=None,
                        help="worker processes (default: the spec's; 0 = inline)")
    sc_run.add_argument("--scale", default=None,
                        choices=[s.name.lower() for s in Scale],
                        help="override the spec's scale (e.g. tiny for CI)")
    sc_run.add_argument("--out", default=None, metavar="PATH",
                        help="write the full result document as JSON")
    sc_list = sc_sub.add_parser("list", help="tabulate a spec directory")
    sc_list.add_argument("dir", nargs="?", default="scenarios",
                         help="spec directory (default scenarios/)")
    sc_val = sc_sub.add_parser(
        "validate",
        help="validate spec files/directories; exit 1 on any invalid spec",
    )
    sc_val.add_argument("paths", nargs="+", metavar="PATH",
                        help="spec files or directories of specs")
    p_sc.set_defaults(fn=cmd_scenario)

    p_rep = sub.add_parser("reproduce", help="regenerate the paper's evaluation")
    p_rep.add_argument("--scale", default="quick",
                       choices=[s.name.lower() for s in Scale])
    p_rep.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    p_rep.add_argument("--kind", default="synthetic",
                       choices=["synthetic", "algorithmic"])
    p_rep.add_argument("--cache-dir", default=".repro-results")
    p_rep.add_argument("--workers", type=int, default=0,
                       help="sweep with N worker processes (default 0: inline)")
    p_rep.add_argument("--only", nargs="+", metavar="EXP", default=None,
                       choices=list(DRIVERS),
                       help="run these experiments only (default: all, "
                            f"in the paper's order: {' '.join(DRIVERS)})")
    p_rep.add_argument("--out", default=None, metavar="DIR",
                       help="also write each table to DIR/EXP.txt and the "
                            "measured claims to DIR/accuracy.json")
    p_rep.set_defaults(fn=cmd_reproduce)

    p_fz = sub.add_parser(
        "fuzz",
        help="differential/metamorphic fuzzing with failure minimization",
    )
    p_fz.add_argument("--iterations", type=int, default=None, metavar="N",
                      help="number of cases to draw (deterministic in --seed)")
    p_fz.add_argument("--time-budget", type=float, default=None, metavar="S",
                      help="stop drawing new cases after S wall-clock seconds")
    p_fz.add_argument("--seed", type=int, default=0,
                      help="campaign seed; fixes the whole case stream "
                           "(default 0)")
    p_fz.add_argument("--schedulers", nargs="+", metavar="SCHED", default=None,
                      choices=sorted(SCHEDULERS),
                      help="schedulers under test (default: every "
                           "registered policy)")
    p_fz.add_argument("--artifact-dir", default="fuzz-artifacts", metavar="DIR",
                      help="where minimized repro artifacts are written "
                           "(default fuzz-artifacts/)")
    p_fz.add_argument("--no-minimize", action="store_true",
                      help="write failures as-is, skip delta debugging")
    p_fz.add_argument("--replay", default=None, metavar="ARTIFACT",
                      help="re-run one repro artifact's oracle instead of "
                           "a campaign (exit 0 = reproduced, 3 = not)")
    p_fz.add_argument("--quiet", action="store_true",
                      help="suppress per-case progress on stderr")
    p_fz.set_defaults(fn=cmd_fuzz)

    p_h = sub.add_parser(
        "history", help="inspect the run-history store (docs/observability.md)"
    )
    p_h.add_argument("--dir", default=None, metavar="DIR",
                     help="history directory (default results/history or "
                          "$REPRO_HISTORY_DIR)")
    h_sub = p_h.add_subparsers(dest="action", required=True)
    h_list = h_sub.add_parser("list", help="tabulate stored records")
    h_list.add_argument("--kind", default=None,
                        help="only one record kind (sweep, fuzz, accuracy, ...)")
    h_list.add_argument("--limit", type=int, default=None, metavar="N",
                        help="newest N records only")
    h_show = h_sub.add_parser("show", help="print one record as JSON")
    h_show.add_argument("record_id", metavar="RECORD",
                        help="record id, e.g. sweep-0003")
    h_diff = h_sub.add_parser(
        "diff", help="compare two records' scalar payload keys"
    )
    h_diff.add_argument("record_a", metavar="OLD")
    h_diff.add_argument("record_b", metavar="NEW")
    p_h.set_defaults(fn=cmd_history)

    from repro.dashboard import DEFAULT_BENCH_RESULTS

    p_d = sub.add_parser(
        "dashboard",
        help="build the static HTML dashboard from benchmark results "
             "and the run history",
    )
    p_d.add_argument("--out", default="dashboard", metavar="DIR",
                     help="output directory (default dashboard/)")
    p_d.add_argument("--history-dir", default=None, metavar="DIR",
                     help="history to render (default results/history or "
                          "$REPRO_HISTORY_DIR)")
    p_d.add_argument("--accuracy", default=None, metavar="PATH",
                     help="accuracy export (default <history>/../accuracy.json)")
    p_d.add_argument("--bench", nargs="+", default=list(DEFAULT_BENCH_RESULTS),
                     metavar="PATH",
                     help="bench/run.py result files, plotted in this order "
                          f"(default {DEFAULT_BENCH_RESULTS[0]})")
    p_d.add_argument("--check", action="store_true",
                     help="exit 1 when an input is unreadable or a "
                          "required figure has no data")
    p_d.add_argument("--open", action="store_true",
                     help="open the built page in a browser")
    p_d.set_defaults(fn=cmd_dashboard)

    p_list = sub.add_parser("list", help="available benchmarks and schedulers")
    p_list.set_defaults(fn=cmd_list)

    args = ap.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
