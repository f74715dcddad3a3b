"""Declarative scenario specs (docs/scenarios.md).

A scenario is one experiment expressed as data — DRAM preset + config
overrides, workload recipe, scheduler list, scale/seeds, kept metrics
and an optional figure — in a versioned YAML/JSON file.  The committed
library lives in ``scenarios/``; ``repro scenario run|list|validate``
consumes them.
"""

from repro.scenarios.loader import find_specs, load_spec, validate_spec_file
from repro.scenarios.runner import (
    ScenarioError, ScenarioResult, build_runner, run_scenario,
)
from repro.scenarios.spec import (
    KNOWN_METRICS,
    SPEC_VERSION,
    FigureRecipe,
    ScenarioSpec,
    SpecError,
    WorkloadSpec,
)

__all__ = [
    "KNOWN_METRICS",
    "SPEC_VERSION",
    "FigureRecipe",
    "ScenarioError",
    "ScenarioResult",
    "ScenarioSpec",
    "SpecError",
    "WorkloadSpec",
    "build_runner",
    "find_specs",
    "load_spec",
    "run_scenario",
    "validate_spec_file",
]
