"""Experiment drivers and reporting for the paper's evaluation."""

from repro.analysis.experiments import (
    ExperimentResult,
    fig2_coalescing,
    fig3_divergence,
    fig4_opportunity,
    fig8_ipc,
    fig9_latency,
    fig10_divergence,
    fig11_bandwidth,
    fig12_writes,
    run_all,
    sec6a_regular,
    sec6b_power,
    sec6c_comparison,
    table1_merb,
)
from repro.analysis.report import format_table, geomean
from repro.analysis.runner import ExperimentRunner, atomic_write_json, config_hash
from repro.analysis.sweep import SweepJob, SweepReport, run_sweep

__all__ = [
    "ExperimentResult",
    "ExperimentRunner",
    "SweepJob",
    "SweepReport",
    "atomic_write_json",
    "config_hash",
    "run_sweep",
    "fig10_divergence",
    "fig11_bandwidth",
    "fig12_writes",
    "fig2_coalescing",
    "fig3_divergence",
    "fig4_opportunity",
    "fig8_ipc",
    "fig9_latency",
    "format_table",
    "geomean",
    "run_all",
    "sec6a_regular",
    "sec6b_power",
    "sec6c_comparison",
    "table1_merb",
]
