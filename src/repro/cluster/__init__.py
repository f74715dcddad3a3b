"""Fault-tolerant distributed sweep backend (lease-based workers).

Independent worker processes cooperatively drain one sweep through a
shared-filesystem job store — no coordinator, no sockets, no queues.
Crashes, stalls, and torn files are first-class states with recovery
paths, exercised on purpose by :mod:`repro.cluster.chaos` and pinned by
``tests/test_cluster_chaos.py``.  See ``docs/distributed.md`` for the
lease protocol and the failure-mode table.

Layout:

* :mod:`repro.cluster.chaos` — env-armed chaos points + corruption
  helpers (stdlib-only; safe to import from anywhere).
* :mod:`repro.cluster.retry` — the seeded :class:`RetryPolicy` shared
  with local sweeps.
* :mod:`repro.cluster.lease` — atomic claim/renew/steal lease files.
* :mod:`repro.cluster.store` — the per-job record/outcome/failure store
  and manifest compaction.
* :mod:`repro.cluster.worker` — the claim-heartbeat-simulate-publish
  drain loop.
* :mod:`repro.cluster.cli` — ``repro cluster init|worker|drain|status``.

This ``__init__`` is deliberately lazy (PEP 562): ``repro.core.atomic``
imports ``repro.cluster.chaos``, which executes this module — eagerly
importing the worker here would cycle back through the analysis stack.
"""

from __future__ import annotations

__all__ = [
    "ClusterError",
    "ClusterWorker",
    "JobStore",
    "Lease",
    "LeaseInfo",
    "RetryPolicy",
    "WorkerStats",
    "chaos_armed",
    "chaos_point",
    "compact_manifest",
    "corrupt_file",
    "default_worker_id",
    "job_slug",
    "truncate_file",
]

_HOMES = {
    "ClusterError": "repro.cluster.store",
    "ClusterWorker": "repro.cluster.worker",
    "JobStore": "repro.cluster.store",
    "Lease": "repro.cluster.lease",
    "LeaseInfo": "repro.cluster.lease",
    "RetryPolicy": "repro.cluster.retry",
    "WorkerStats": "repro.cluster.worker",
    "chaos_armed": "repro.cluster.chaos",
    "chaos_point": "repro.cluster.chaos",
    "compact_manifest": "repro.cluster.store",
    "corrupt_file": "repro.cluster.chaos",
    "default_worker_id": "repro.cluster.worker",
    "job_slug": "repro.cluster.store",
    "truncate_file": "repro.cluster.chaos",
}


def __getattr__(name: str):
    try:
        home = _HOMES[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    return getattr(importlib.import_module(home), name)


def __dir__() -> list[str]:
    return sorted(__all__)
