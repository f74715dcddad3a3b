"""Run-history store: append-only JSONL records of every measurement.

The store itself lives in :mod:`repro.history.store`; this package front
door adds the environment-driven default plumbing the producers use:

* :func:`default_store` — the store rooted at ``$REPRO_HISTORY_DIR``
  (default ``results/history`` under the current directory);
* :func:`enabled` — ``False`` when ``REPRO_HISTORY=0`` (the test suite
  disables ingestion globally so simulations inside tests don't write
  into the working tree);
* :func:`record_run` — best-effort append used by every producer
  (the sweep harness, the fuzzer, ``reproduce --out``'s claim
  measurement): silently skips when disabled, *warns* instead of raising
  on any store problem, so observability can never fail a measurement.

See docs/observability.md ("Run history & dashboard") for the record
schema and retention story.
"""

from __future__ import annotations

import os
import warnings
from typing import Optional

from repro.history.store import (
    HistoryError,
    HistoryRecord,
    HistoryStore,
    git_sha,
)

__all__ = [
    "DEFAULT_HISTORY_DIR",
    "HistoryError",
    "HistoryRecord",
    "HistoryStore",
    "default_store",
    "enabled",
    "git_sha",
    "record_run",
]

DEFAULT_HISTORY_DIR = os.path.join("results", "history")


def enabled() -> bool:
    """Whether producers should ingest runs (``REPRO_HISTORY=0`` kills it)."""
    return os.environ.get("REPRO_HISTORY", "1") != "0"


def default_store() -> HistoryStore:
    return HistoryStore(
        os.environ.get("REPRO_HISTORY_DIR", DEFAULT_HISTORY_DIR)
    )


def record_run(
    kind: str, payload: dict, *, config_hash: str = ""
) -> Optional[HistoryRecord]:
    """Append one record to :func:`default_store`; never raises.

    Returns the stored record, or ``None`` when ingestion is disabled or
    failed (an unwritable directory, a payload violating its contract —
    both reported as warnings).
    """
    if not enabled():
        return None
    try:
        return default_store().append(kind, payload, config_hash=config_hash)
    except Exception as exc:  # noqa: BLE001 - by contract: warn, don't raise
        warnings.warn(
            f"history ingestion of a {kind!r} record failed: {exc}",
            stacklevel=2,
        )
        return None
