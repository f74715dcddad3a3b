"""Scheduler registry: policy name -> controller class.

Names follow the paper's nomenclature:

============  ==============================================================
name          policy
============  ==============================================================
``gmc``       throughput-optimized baseline (§II-C; all results normalized
              to it)
``fcfs``      naive first-come first-served
``frfcfs``    first-ready FCFS (Rixner et al.)
``wafcfs``    warp-groups in completion order, in-order (Yuan et al.)
``sbwas``     single-bank warp-aware potential function (Lakshminarayana)
``wg``        warp-group BASJF, single controller (§IV-B)
``wg-m``      + multi-controller coordination (§IV-C)
``wg-bw``     + MERB bandwidth governor (§IV-D)
``wg-w``      + warp-aware write drain (§IV-E) — the paper's best policy
``zero-div``  zero-latency-divergence bound (Fig. 4), not a real policy
============  ==============================================================
"""

from __future__ import annotations

from typing import Type

from repro.mc.base import MemoryController
from repro.mc.fcfs import FCFSController
from repro.mc.frfcfs import FRFCFSController
from repro.mc.gmc import GMCController
from repro.mc.sbwas import SBWASController
from repro.mc.wafcfs import WAFCFSController
from repro.mc.wg import WGController
from repro.mc.wgbw import WGBwController
from repro.mc.wgm import WGMController
from repro.mc.wgshare import WGShareController
from repro.mc.wgw import WGWController
from repro.mc.zerodiv import ZeroDivergenceController

__all__ = [
    "SCHEDULERS",
    "controller_class",
    "coordinated_schedulers",
]

SCHEDULERS: dict[str, Type[MemoryController]] = {
    cls.name: cls
    for cls in (
        GMCController,
        FCFSController,
        FRFCFSController,
        WAFCFSController,
        SBWASController,
        WGController,
        WGMController,
        WGBwController,
        WGWController,
        WGShareController,  # the conclusion's future-work extension
        ZeroDivergenceController,  # Fig. 4's idealized bound
    )
}

# Policies that participate in the §IV-C coordination network.
_COORDINATED = {"wg-m", "wg-bw", "wg-w", "wg-share"}


def controller_class(name: str) -> Type[MemoryController]:
    try:
        return SCHEDULERS[name]
    except KeyError:
        raise ValueError(
            f"unknown scheduler {name!r}; choose from {sorted(SCHEDULERS)}"
        ) from None


def coordinated_schedulers() -> frozenset[str]:
    return frozenset(_COORDINATED)
