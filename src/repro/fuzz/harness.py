"""The fuzzing campaign loop: generate, check, minimize, persist.

``run_campaign`` iterates the deterministic case stream of a campaign
seed, runs the full oracle catalogue on each case, and for every failure
produces a minimized, replayable JSON artifact.  The wall-clock budget
only decides *when to stop drawing cases* — it never influences what any
case contains, so a campaign is reproducible by seed + iteration count.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.fuzz.artifact import build_artifact, save_artifact
from repro.fuzz.generator import CaseGenerator, FuzzCase
from repro.fuzz.minimizer import minimize
from repro.fuzz.oracles import OracleFailure, check_case, run_oracle
from repro.mc.registry import SCHEDULERS

__all__ = ["FuzzFailure", "FuzzReport", "run_campaign", "default_schedulers"]

_MINIMIZE_EVALS = 200


@dataclass
class FuzzFailure:
    case_index: int
    oracle: str
    scheduler: str
    detail: str
    artifact_path: Optional[str] = None
    minimized_warps: Optional[int] = None


@dataclass
class FuzzReport:
    campaign_seed: int
    schedulers: list[str]
    cases_run: int = 0
    failures: list[FuzzFailure] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def clean(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        """Machine-readable campaign summary (history/dashboard food)."""
        from repro.analysis.schema import FUZZ_SCHEMA

        return {
            "schema_version": FUZZ_SCHEMA,
            "campaign_seed": self.campaign_seed,
            "schedulers": list(self.schedulers),
            "cases_run": self.cases_run,
            "wall_seconds": round(self.wall_seconds, 3),
            "cases_per_sec": round(
                self.cases_run / self.wall_seconds, 3
            ) if self.wall_seconds > 0 else 0.0,
            "clean": self.clean,
            "failures": [
                {
                    "case_index": f.case_index,
                    "oracle": f.oracle,
                    "scheduler": f.scheduler,
                    "detail": f.detail,
                    "artifact_path": f.artifact_path,
                    "minimized_warps": f.minimized_warps,
                }
                for f in self.failures
            ],
        }


def default_schedulers() -> list[str]:
    """Every registered policy, idealized ones included, in stable order."""
    return sorted(SCHEDULERS)


def _replay_schedulers(failure: OracleFailure, schedulers: list[str]) -> list[str]:
    """The scheduler list a targeted replay of this failure needs."""
    if failure.oracle == "differential-totals":
        return list(schedulers)
    if failure.oracle == "trace-equivalence":
        return ["wg", "wg-m"]
    if failure.scheduler and "," not in failure.scheduler:
        return [failure.scheduler]
    return list(schedulers)


def _handle_failure(
    case: FuzzCase,
    failure: OracleFailure,
    schedulers: list[str],
    artifact_dir: Optional[str],
    do_minimize: bool,
    log: Callable[[str], None],
) -> FuzzFailure:
    replay_scheds = _replay_schedulers(failure, schedulers)
    config, trace = case.config, case.trace
    evals, neutralized = 0, []
    original_warps = len(trace.warps)
    if do_minimize:
        def still_fails(cand_config, cand_trace) -> bool:
            return run_oracle(
                failure.oracle, cand_config, cand_trace, replay_scheds
            ) is not None

        result = minimize(config, trace, still_fails, max_evals=_MINIMIZE_EVALS)
        config, trace = result.config, result.trace
        evals, neutralized = result.evals, result.neutralized
        log(
            f"  minimized case {case.index}: {original_warps} -> "
            f"{len(trace.warps)} warps in {evals} evaluations"
        )
    record = FuzzFailure(
        case_index=case.index,
        oracle=failure.oracle,
        scheduler=failure.scheduler,
        detail=failure.detail,
        minimized_warps=len(trace.warps) if do_minimize else None,
    )
    if artifact_dir is not None:
        os.makedirs(artifact_dir, exist_ok=True)
        path = os.path.join(
            artifact_dir, f"case-{case.index:04d}-{failure.oracle}.json"
        )
        save_artifact(path, build_artifact(
            campaign_seed=case.campaign_seed,
            case_index=case.index,
            oracle=failure.oracle,
            scheduler=failure.scheduler,
            schedulers=replay_scheds,
            detail=failure.detail,
            config=config,
            trace=trace,
            recipe=case.recipe,
            minimized=do_minimize,
            minimize_evals=evals,
            neutralized=neutralized,
            original_warps=original_warps,
        ))
        record.artifact_path = path
        log(f"  wrote repro artifact {path}")
    return record


def run_campaign(
    seed: int = 0,
    iterations: Optional[int] = None,
    time_budget_s: Optional[float] = None,
    schedulers: Optional[list[str]] = None,
    artifact_dir: Optional[str] = "fuzz-artifacts",
    do_minimize: bool = True,
    log: Callable[[str], None] = lambda _msg: None,
) -> FuzzReport:
    """Run one fuzzing campaign; returns the report (never raises on bugs).

    Either ``iterations`` or ``time_budget_s`` (or both) must bound the
    campaign.  The budget check happens only *between* cases: case ``i``
    is always the same case regardless of machine speed.

    The campaign report is appended to the run-history store
    (docs/observability.md) unless ``REPRO_HISTORY=0``, so dashboard
    fuzz stats survive the CI run that produced them.
    """
    if iterations is None and time_budget_s is None:
        raise ValueError("bound the campaign with iterations or time_budget_s")
    schedulers = list(schedulers) if schedulers else default_schedulers()
    generator = CaseGenerator(seed)
    report = FuzzReport(campaign_seed=seed, schedulers=schedulers)
    t0 = time.monotonic()
    index = 0
    while True:
        if iterations is not None and index >= iterations:
            break
        if time_budget_s is not None and time.monotonic() - t0 >= time_budget_s:
            break
        case = generator.case(index)
        kind = case.recipe.get("workload", "?")
        label = case.recipe.get("benchmark") or case.recipe.get("profile") or "?"
        log(
            f"case {index}: {kind}/{label}, {len(case.trace.warps)} warps, "
            f"{case.config.dram_org.num_channels}ch/"
            f"{case.config.gpu.num_sms}sm"
        )
        try:
            check_case(case.config, case.trace, schedulers, case_index=index)
        except OracleFailure as failure:
            log(f"  FAILURE [{failure.oracle}] {failure.detail}")
            report.failures.append(_handle_failure(
                case, failure, schedulers, artifact_dir, do_minimize, log
            ))
        report.cases_run += 1
        index += 1
    report.wall_seconds = time.monotonic() - t0
    from repro.history import record_run

    record = record_run("fuzz", report.to_dict())
    if record is not None:
        log(f"history record {record.record_id} appended")
    return report
