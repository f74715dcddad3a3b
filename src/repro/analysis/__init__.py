"""Experiment drivers and reporting for the paper's evaluation.

Each experiment is an entry of :data:`repro.analysis.experiments.DRIVERS`;
:func:`repro.analysis.sweep.run_sweep` simulates the runs it declares.
"""

from repro.analysis.experiments import DRIVERS, ExperimentResult
from repro.analysis.report import format_table, geomean
from repro.analysis.runner import ExperimentRunner, config_hash
from repro.analysis.sweep import run_sweep

__all__ = [
    "DRIVERS",
    "ExperimentResult",
    "ExperimentRunner",
    "config_hash",
    "format_table",
    "geomean",
    "run_sweep",
]
