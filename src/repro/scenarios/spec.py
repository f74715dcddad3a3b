"""Scenario spec model: what a declarative experiment *is*.

A scenario is one sweep expressed as data — DRAM preset + config
overrides, a workload recipe, a scheduler list, scale and seeds, which
summary metrics to keep, and an optional figure recipe.  The YAML/JSON
surface and its validation live in :mod:`repro.scenarios.loader`; this
module holds the validated in-memory form and the error type both share.

``spec_version`` is the compatibility contract: a build only runs specs
whose version it knows (:data:`SPEC_VERSION`), so a future breaking spec
change cannot be silently misread.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.runner import config_hash
from repro.core.config import SimConfig

__all__ = [
    "KNOWN_METRICS",
    "SPEC_VERSION",
    "FigureRecipe",
    "ScenarioSpec",
    "SpecError",
    "WorkloadSpec",
]

SPEC_VERSION = 1

WORKLOAD_KINDS = ("synthetic", "algorithmic", "trace")

#: Summary keys a spec's ``metrics:`` list may select — the simulator's
#: headline summary plus the runner's figure extras.  Pinned against the
#: real summary keys by ``tests/test_scenarios.py``.
KNOWN_METRICS = (
    "ipc",
    "effective_latency_ns",
    "divergence_ns",
    "frac_divergent_loads",
    "requests_per_load",
    "requests_issued",
    "channels_per_warp",
    "bandwidth_utilization",
    "row_hit_rate",
    "last_over_first",
    "write_intensity",
    "elapsed_ns",
    "l1_hits",
    "l2_hits",
    "unit_group_frac",
    "banks_per_warp",
    "activates",
    "reads",
    "writes",
)


class SpecError(ValueError):
    """A scenario spec is malformed, with file/line-accurate location.

    ``str()`` renders one line — ``file.yaml:12: workload.kind: ...`` —
    which is exactly what ``repro scenario validate`` prints; the CLI
    never shows a traceback for a bad spec.
    """

    def __init__(
        self,
        message: str,
        *,
        path: str = "",
        line: Optional[int] = None,
        spec_field: str = "",
    ) -> None:
        self.path = path
        self.line = line
        self.spec_field = spec_field
        prefix = path or "<spec>"
        if line is not None:
            prefix += f":{line}"
        if spec_field:
            prefix += f": {spec_field}"
        super().__init__(f"{prefix}: {message}")


@dataclass(frozen=True)
class WorkloadSpec:
    """What the sweep runs: suite benchmarks or external trace files."""

    kind: str  # synthetic | algorithmic | trace
    benchmarks: tuple[str, ...] = ()
    #: ``trace`` kind: name -> file path (resolved relative to the spec).
    traces: dict[str, str] = field(default_factory=dict)

    @property
    def names(self) -> tuple[str, ...]:
        return self.benchmarks if self.kind != "trace" else tuple(self.traces)


@dataclass(frozen=True)
class FigureRecipe:
    """Optional per-scenario figure: one metric, optionally normalized."""

    metric: str
    normalize_to: str = ""  # scheduler name, "" = absolute values
    title: str = ""


@dataclass(frozen=True)
class ScenarioSpec:
    """A fully validated scenario (see docs/scenarios.md for the schema)."""

    name: str
    workload: WorkloadSpec
    schedulers: tuple[str, ...]
    description: str = ""
    preset: str = "gddr5"
    overrides: dict[str, object] = field(default_factory=dict)
    scale: str = "QUICK"  # Scale enum name
    seeds: tuple[int, ...] = (1,)
    perfect: bool = False
    metrics: tuple[str, ...] = ()
    figure: Optional[FigureRecipe] = None
    workers: int = 4
    timeout_s: Optional[float] = None
    retries: int = 1
    #: Where the spec was loaded from ("" for programmatic specs); trace
    #: paths are resolved relative to this file's directory.
    source: str = ""

    def resolved_config(self) -> SimConfig:
        """Preset + overrides -> the sweep's base :class:`SimConfig`.

        Raises the config tree's own errors; :func:`repro.scenarios.load_spec`
        reports them as a :class:`SpecError` located at ``overrides``.
        """
        from repro.core.overrides import apply_overrides
        from repro.dram.timing import get_preset

        preset = get_preset(self.preset)
        cfg = SimConfig(dram_timing=preset.timing, dram_org=preset.org)
        return apply_overrides(cfg, self.overrides)

    def spec_hash(self) -> str:
        """12-hex content hash over the *resolved* scenario.

        Covers the resolved config (via :func:`config_hash`, the same
        identity the sweep cache uses) plus every run coordinate, so two
        spellings of the same experiment — a preset name vs. equivalent
        overrides — hash identically, and any semantic change re-keys.
        """
        doc = {
            "spec_version": SPEC_VERSION,
            "name": self.name,
            "config_hash": config_hash(self.resolved_config()),
            "workload": {
                "kind": self.workload.kind,
                "benchmarks": list(self.workload.benchmarks),
                "traces": dict(sorted(self.workload.traces.items())),
            },
            "schedulers": list(self.schedulers),
            "scale": self.scale,
            "seeds": list(self.seeds),
            "perfect": self.perfect,
            "metrics": list(self.metrics),
            "figure": dataclasses.asdict(self.figure) if self.figure else None,
        }
        payload = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]

    @property
    def n_jobs(self) -> int:
        return (
            len(self.workload.names) * len(self.schedulers) * len(self.seeds)
        )
