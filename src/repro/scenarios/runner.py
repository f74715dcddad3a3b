"""Execute a validated :class:`ScenarioSpec` through the sweep harness.

``run_scenario`` is the one spec runner (``repro scenario run``): it
builds the resolved-config :class:`ExperimentRunner`, drives
``run_sweep`` with the scenario's name+hash stamped into the report (and
so into the history store), then reads the spec's kept metrics from the
swept runs into a per-benchmark × per-scheduler table — including the
optional figure recipe's normalized view.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Optional

from repro.analysis import format_table
from repro.analysis.runner import ExperimentRunner
from repro.analysis.sweep import SweepReport, run_sweep
from repro.core.atomic import atomic_write_json
from repro.scenarios.spec import ScenarioSpec
from repro.workloads.suite import Scale

__all__ = ["ScenarioError", "ScenarioResult", "build_runner", "run_scenario"]

#: Metrics kept when a spec's ``metrics:`` list is empty.
DEFAULT_METRICS = (
    "ipc",
    "effective_latency_ns",
    "divergence_ns",
    "row_hit_rate",
    "bandwidth_utilization",
)


@dataclass
class ScenarioResult:
    """Everything one scenario execution produced."""

    spec: ScenarioSpec
    spec_hash: str
    config_hash: str
    report: SweepReport
    #: benchmark -> scheduler -> metric -> seed-mean value.
    metrics: dict[str, dict[str, dict[str, float]]] = field(default_factory=dict)
    #: figure recipe values (normalized when the recipe asks for it):
    #: benchmark -> scheduler -> value.  Empty without a ``figure:`` block.
    figure: dict[str, dict[str, float]] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "scenario": self.spec.name,
            "description": self.spec.description,
            "spec_hash": self.spec_hash,
            "config_hash": self.config_hash,
            "preset": self.spec.preset,
            "scale": self.spec.scale,
            "metrics": self.metrics,
            "figure": self.figure,
            "sweep": self.report.to_dict(),
        }

    def write(self, path: str) -> None:
        atomic_write_json(path, self.to_dict())

    def format(self) -> str:
        """Human tables: kept metrics per benchmark, plus the figure."""
        kept = list(self.spec.metrics or DEFAULT_METRICS)
        blocks = []
        for bench, per_sched in self.metrics.items():
            rows = [
                [sched, *(per_sched[sched].get(m, 0.0) for m in kept)]
                for sched in self.spec.schedulers
                if sched in per_sched
            ]
            blocks.append(
                format_table(
                    ["scheduler", *kept], rows,
                    title=f"{self.spec.name}: {bench}",
                )
            )
        if self.figure:
            recipe = self.spec.figure
            label = recipe.metric + (
                f" (vs {recipe.normalize_to})" if recipe.normalize_to else ""
            )
            rows = [
                [bench, *(per_sched.get(s, 0.0) for s in self.spec.schedulers)]
                for bench, per_sched in self.figure.items()
            ]
            blocks.append(
                format_table(
                    ["benchmark", *self.spec.schedulers], rows,
                    title=recipe.title or f"{self.spec.name}: {label}",
                )
            )
        return "\n\n".join(blocks)


class ScenarioError(RuntimeError):
    """A scenario's sweep had failed jobs.  ``result`` holds the sweep
    report, with each failed job's error, and no metrics."""

    def __init__(self, message: str, result: ScenarioResult) -> None:
        super().__init__(message)
        self.result = result


def build_runner(
    spec: ScenarioSpec,
    *,
    cache_dir: str = ".repro-results",
    scale: Optional[str] = None,
) -> ExperimentRunner:
    """The :class:`ExperimentRunner` a scenario resolves to.

    ``scale`` overrides the spec's scale (a Scale name) — the CLI's
    ``--scale`` lets one spec serve CI (tiny) and real runs unchanged.
    """
    return ExperimentRunner(
        config=spec.resolved_config(),
        scale=Scale[(scale or spec.scale).upper()],
        seeds=spec.seeds,
        kind=spec.workload.kind,
        cache_dir=cache_dir,
        trace_paths=spec.workload.traces or None,
    )


def _collect_metrics(
    spec: ScenarioSpec, runner: ExperimentRunner
) -> dict[str, dict[str, dict[str, float]]]:
    kept = spec.metrics or DEFAULT_METRICS
    out: dict[str, dict[str, dict[str, float]]] = {}
    for bench in spec.workload.names:
        per_sched: dict[str, dict[str, float]] = {}
        for sched in spec.schedulers:
            mean = runner.mean(bench, sched, spec.perfect)
            per_sched[sched] = {m: mean.get(m, 0.0) for m in kept}
        out[bench] = per_sched
    return out


def _collect_figure(
    spec: ScenarioSpec, metrics: dict[str, dict[str, dict[str, float]]]
) -> dict[str, dict[str, float]]:
    if spec.figure is None:
        return {}
    recipe = spec.figure
    out: dict[str, dict[str, float]] = {}
    for bench, per_sched in metrics.items():
        base = 1.0
        if recipe.normalize_to:
            base = per_sched[recipe.normalize_to].get(recipe.metric, 0.0) or 1.0
        out[bench] = {
            sched: vals.get(recipe.metric, 0.0) / base
            for sched, vals in per_sched.items()
        }
    return out


def run_scenario(
    spec: ScenarioSpec,
    *,
    cache_dir: str = ".repro-results",
    workers: Optional[int] = None,
    scale: Optional[str] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> ScenarioResult:
    """Run the scenario's full grid and collect its kept metrics.

    Caching and identity are exactly the plain sweep's: the resolved
    config's content hash keys every cache entry, so a scenario that
    resolves to a config some earlier run (spec'd or hand-coded) already
    swept is served bit-identically from cache.  Failed jobs raise
    :class:`ScenarioError` (the scenario's tables would silently hold
    zeros otherwise).
    """
    runner = build_runner(spec, cache_dir=cache_dir, scale=scale)
    spec_hash = spec.spec_hash()
    report = run_sweep(
        [(runner, product(spec.workload.names, spec.schedulers, [spec.perfect]))],
        workers=spec.workers if workers is None else workers,
        timeout_s=spec.timeout_s,
        retries=spec.retries,
        progress=progress,
        scenario_name=spec.name,
        scenario_hash=spec_hash,
    )
    result = ScenarioResult(
        spec=spec, spec_hash=spec_hash, config_hash=runner.config_hash,
        report=report,
    )
    try:
        report.raise_on_failure()
    except RuntimeError as exc:
        raise ScenarioError(str(exc), result) from None
    result.metrics = _collect_metrics(spec, runner)
    result.figure = _collect_figure(spec, result.metrics)
    return result
