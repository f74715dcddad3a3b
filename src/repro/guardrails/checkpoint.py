"""Versioned, deterministic checkpoint/restore for whole simulations.

A checkpoint is a pickle of the entire :class:`~repro.gpu.system.GPUSystem`
— event queue, controller queues, bank/channel timing, warp scoreboards,
statistics, histogram RNGs — wrapped in an envelope that makes restores
refuse to lie:

* a **format marker** and **version** (mismatched snapshots fail loudly
  instead of deserializing garbage);
* the **config hash** of the run that wrote it (a snapshot restored
  under a different :class:`SimConfig` would silently simulate a hybrid
  machine; we reject it);
* the **request-id cursor** (request ids break scheduler sort-key ties,
  so a resumed process must continue the id sequence exactly where the
  original left off to stay bit-identical).

Restores are proven bit-identical by the regression tests in
``tests/test_guardrails.py``: checkpoint mid-run, reload in a fresh
object graph, run both to completion, compare ``SimStats.summary()``.

Writes are atomic (tempfile + ``os.replace``) so a crash mid-write
never corrupts the last good snapshot — which is exactly when the sweep
harness needs it.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.gpu.system import GPUSystem

__all__ = [
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "load_checkpoint",
    "peek_checkpoint",
    "save_checkpoint",
]

CHECKPOINT_FORMAT = "repro-checkpoint"
CHECKPOINT_VERSION = 2


class CheckpointError(RuntimeError):
    """A snapshot could not be written, read, or trusted."""


def _config_hash(config: Any) -> str:
    # Imported lazily: analysis.runner imports the system module, which
    # imports this package.
    from repro.analysis.runner import config_hash

    return config_hash(config)


def save_checkpoint(system: "GPUSystem", path: str) -> dict:
    """Snapshot ``system`` to ``path`` atomically; returns the envelope.

    The system must be quiescent between events (the guardrails drive
    loop calls this between ``Engine.run`` segments) and must not hold
    unpicklable attachments — telemetry hubs own open file handles, so
    checkpointing a telemetered run is rejected up front.
    """
    if system.telemetry is not None:
        raise CheckpointError(
            "cannot checkpoint a run with telemetry attached "
            "(file-handle-backed sinks do not serialize); "
            "drop --metrics-out/--trace-out/--profile or checkpointing"
        )
    from repro.core import request as request_mod

    envelope = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "config_hash": _config_hash(system.config),
        "scheduler": system.config.scheduler,
        "now_ps": system.engine.now,
        "events_processed": system.engine.events_processed,
        "warps_done": system.warps_done,
        "next_req_id": request_mod._req_ids.next_id,
        "system": system,
    }
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ckpt-", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            pickle.dump(envelope, fh, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    meta = {k: v for k, v in envelope.items() if k != "system"}
    return meta


def _read_envelope(path: str) -> dict:
    """Unpickle and sanity-check an envelope; corruption never escapes.

    Truncated pickles raise ``EOFError``, bit-flipped ones anything from
    ``UnpicklingError`` through ``IndexError``/``MemoryError`` (the
    pickle VM chokes mid-opcode) — a crashed worker's half-written or
    vandalized snapshot must surface as :class:`CheckpointError` so the
    sweep's resume path can fall back to a fresh run, not as a random
    exception classified as a simulation failure.
    """
    try:
        with open(path, "rb") as fh:
            envelope = pickle.load(fh)
    except FileNotFoundError:
        raise CheckpointError(f"no checkpoint at {path}") from None
    except (
        pickle.UnpicklingError,
        EOFError,
        AttributeError,
        ImportError,
        IndexError,
        KeyError,
        TypeError,
        ValueError,
        MemoryError,
        OSError,
    ) as exc:
        raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from exc
    if not isinstance(envelope, dict) or envelope.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"{path} is not a {CHECKPOINT_FORMAT} snapshot")
    version = envelope.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path} has checkpoint version {version}, "
            f"this build reads version {CHECKPOINT_VERSION}"
        )
    for key in ("config_hash", "next_req_id", "system"):
        if key not in envelope:
            raise CheckpointError(
                f"{path}: envelope is missing {key!r} (doctored or "
                "incompletely written snapshot)"
            )
    return envelope


def peek_checkpoint(path: str) -> dict:
    """Envelope metadata (no system) — for diagnostics."""
    envelope = _read_envelope(path)
    return {k: v for k, v in envelope.items() if k != "system"}


def load_checkpoint(
    path: str, expected_config_hash: Optional[str] = None
) -> "GPUSystem":
    """Rehydrate a system from ``path`` and restore global id state.

    ``expected_config_hash`` (from :func:`repro.analysis.runner.config_hash`
    of the config you are about to resume under) guards against resuming
    a snapshot into a different experiment.
    """
    envelope = _read_envelope(path)
    if (
        expected_config_hash is not None
        and envelope["config_hash"] != expected_config_hash
    ):
        raise CheckpointError(
            f"{path} was written by config {envelope['config_hash']} "
            f"(scheduler {envelope.get('scheduler', '?')}), "
            f"refusing to resume under config {expected_config_hash}"
        )
    system = envelope["system"]
    # Resume the global request-id sequence exactly where the writer was:
    # ids break scheduler tie-breaks, so a fresh process must not hand
    # out ids below (or colliding with) the in-flight restored ones.
    from repro.core import request as request_mod

    request_mod._req_ids.next_id = envelope["next_req_id"]
    return system
