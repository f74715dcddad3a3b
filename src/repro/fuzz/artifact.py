"""Replayable JSON repro artifacts.

An artifact is everything ``python -m repro fuzz --replay`` needs to
re-run one failing oracle standalone: the full (minimized) ``SimConfig``
as a dict plus its :func:`config_hash`, the (minimized) kernel trace,
the campaign seed / case index that generated it, the oracle name, and
the failure detail observed when it was written.  No timestamps and no
environment data — two artifacts for the same failure are byte-identical.

Schema (``format: repro-fuzz-repro``, ``version: 3``)::

    {"format": "repro-fuzz-repro", "version": 3,
     "campaign_seed": 0, "case_index": 17,
     "oracle": "merb-gate-contract", "scheduler": "wg-bw",
     "schedulers": ["wg-bw"], "detail": "...",
     "config": {...SimConfig asdict...}, "config_hash": "4f0c...",
     "recipe": {...generator recipe...},
     "minimized": true, "minimize_evals": 121,
     "neutralized": ["mc.command_queue_depth"],
     "original_warps": 48, "trace": {...KernelTrace.to_json_dict()...}}

The trace is stored in the trace interchange format
(:meth:`KernelTrace.to_json_dict`), and ``--replay`` reads it back with
the same validating reader as any external trace.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Optional

from repro.analysis.runner import config_hash
from repro.core.atomic import atomic_write_json
from repro.core.config import (
    CacheConfig,
    DRAMOrgConfig,
    DRAMTimingConfig,
    GPUConfig,
    MCConfig,
    SimConfig,
)
from repro.workloads.trace import KernelTrace

__all__ = [
    "ARTIFACT_FORMAT",
    "ARTIFACT_VERSION",
    "ArtifactError",
    "build_artifact",
    "save_artifact",
    "load_artifact",
    "config_from_dict",
]

ARTIFACT_FORMAT = "repro-fuzz-repro"
# v2: the trace is KernelTrace.to_json_dict(), and MCConfig lost its two
# sorter-size fields.  v3: SimConfig lost ``seed``, and CacheConfig lost
# ``line_bytes`` and ``mshr_entries``.
ARTIFACT_VERSION = 3


class ArtifactError(ValueError):
    """A repro artifact is malformed or from an incompatible version."""


# ----------------------------------------------------------------------
# config <-> dict
# ----------------------------------------------------------------------
def config_from_dict(data: dict) -> SimConfig:
    gpu = dict(data["gpu"])
    gpu["l1"] = CacheConfig(**gpu["l1"])
    gpu["l2_slice"] = CacheConfig(**gpu["l2_slice"])
    return SimConfig(
        gpu=GPUConfig(**gpu),
        dram_timing=DRAMTimingConfig(**data["dram_timing"]),
        dram_org=DRAMOrgConfig(**data["dram_org"]),
        mc=MCConfig(**data["mc"]),
        scheduler=data["scheduler"],
        use_l1=data["use_l1"],
        use_l2=data["use_l2"],
        use_tlb=data["use_tlb"],
    )


# ----------------------------------------------------------------------
# artifact assembly / persistence
# ----------------------------------------------------------------------
def build_artifact(
    *,
    campaign_seed: int,
    case_index: int,
    oracle: str,
    scheduler: str,
    schedulers: list[str],
    detail: str,
    config: SimConfig,
    trace: KernelTrace,
    recipe: Optional[dict] = None,
    minimized: bool = False,
    minimize_evals: int = 0,
    neutralized: Optional[list[str]] = None,
    original_warps: Optional[int] = None,
) -> dict:
    return {
        "format": ARTIFACT_FORMAT,
        "version": ARTIFACT_VERSION,
        "campaign_seed": campaign_seed,
        "case_index": case_index,
        "oracle": oracle,
        "scheduler": scheduler,
        "schedulers": list(schedulers),
        "detail": detail,
        "config": dataclasses.asdict(config),
        "config_hash": config_hash(config),
        "recipe": recipe or {},
        "minimized": minimized,
        "minimize_evals": minimize_evals,
        "neutralized": neutralized or [],
        "original_warps": (
            original_warps if original_warps is not None else len(trace.warps)
        ),
        "trace": trace.to_json_dict(),
    }


def save_artifact(path: str, artifact: dict) -> None:
    atomic_write_json(path, artifact)


def load_artifact(path: str) -> dict:
    try:
        with open(path) as fh:
            artifact = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ArtifactError(f"{path}: unreadable repro artifact ({exc})") from exc
    if not isinstance(artifact, dict) or artifact.get("format") != ARTIFACT_FORMAT:
        raise ArtifactError(f"{path}: not a {ARTIFACT_FORMAT} file")
    if artifact.get("version") != ARTIFACT_VERSION:
        raise ArtifactError(
            f"{path}: artifact version {artifact.get('version')}, "
            f"this build reads version {ARTIFACT_VERSION}"
        )
    for key in ("config", "trace", "oracle", "schedulers"):
        if key not in artifact:
            raise ArtifactError(f"{path}: missing required key {key!r}")
    recorded = artifact.get("config_hash")
    rebuilt = config_from_dict(artifact["config"])
    actual = config_hash(rebuilt)
    if recorded is not None and recorded != actual:
        raise ArtifactError(
            f"{path}: config hash mismatch (recorded {recorded}, "
            f"rebuilt {actual}) — artifact edited or from a different build"
        )
    return artifact
