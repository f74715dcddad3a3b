"""Versioned, deterministic checkpoint/restore for whole simulations.

A checkpoint file is one JSON header line followed by a pickle of the
entire :class:`~repro.gpu.system.GPUSystem` — event queue, controller
queues, bank/channel timing, warp scoreboards, statistics.  The header
makes restores refuse to lie:

* a **format marker** and **version**, checked before a single byte of
  the pickle is read, so a foreign file or a snapshot from another
  build fails loudly, naming both versions, and none of its objects is
  built;
* the **request-id cursor** (request ids break scheduler sort-key ties,
  so a resumed process must continue the id sequence exactly where the
  original left off to stay bit-identical);
* the scheduler, simulated time, events processed and warps done, which
  :func:`peek_checkpoint` reports without unpickling anything.

A snapshot carries the :class:`SimConfig` it was written under, and a
restore always resumes that config.  The pickle is trusted input, as
any pickle is: the header only keeps files that are not this build's
snapshots from being unpickled.

Restores are proven bit-identical by the regression tests in
``tests/test_guardrails.py``: checkpoint mid-run, reload in a fresh
object graph, run both to completion, compare ``SimStats.summary()``.

Writes are atomic (tempfile + ``os.replace``) so a crash mid-write
never corrupts the last good snapshot.
"""

from __future__ import annotations

import json
import os
import pickle
import tempfile
from typing import TYPE_CHECKING

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
CHECKPOINT_VERSION = 7

#: Keys every header carries besides ``format`` and ``version``.
_HEADER_KEYS = (
    "scheduler", "now_ps", "events_processed", "warps_done", "next_req_id",
)
#: Longest header line read before the file is refused as headerless.
_HEADER_MAX_BYTES = 4096


class CheckpointError(RuntimeError):
    """A snapshot could not be written, read, or trusted."""


def save_checkpoint(system: "GPUSystem", path: str) -> dict:
    """Snapshot ``system`` to ``path`` atomically; returns the header.

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

    header = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "scheduler": system.config.scheduler,
        "now_ps": system.engine.now,
        "events_processed": system.engine.events_processed,
        "warps_done": system.warps_done,
        "next_req_id": request_mod._req_ids.next_id,
    }
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ckpt-", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
            pickle.dump(system, fh, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return header


def _read_header(fh, path: str) -> dict:
    """Read and check the header line; leaves ``fh`` at the pickle."""
    line = fh.readline(_HEADER_MAX_BYTES)
    try:
        header = json.loads(line) if line.endswith(b"\n") else None
    except ValueError:
        header = None
    if not isinstance(header, dict):
        # Version 3 introduced the header line, so only older snapshots
        # lack one.
        raise CheckpointError(
            f"{path} has no checkpoint header (not a {CHECKPOINT_FORMAT} "
            "snapshot, or one written before version 3)"
        )
    if header.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"{path} is not a {CHECKPOINT_FORMAT} snapshot")
    version = header.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path} has checkpoint version {version}, "
            f"this build reads version {CHECKPOINT_VERSION}"
        )
    for key in _HEADER_KEYS:
        if key not in header:
            raise CheckpointError(
                f"{path}: header is missing {key!r} (doctored or "
                "incompletely written snapshot)"
            )
    return header


def peek_checkpoint(path: str) -> dict:
    """The checked header of ``path``; unpickles nothing."""
    try:
        with open(path, "rb") as fh:
            return _read_header(fh, path)
    except FileNotFoundError:
        raise CheckpointError(f"no checkpoint at {path}") from None
    except OSError as exc:
        raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from exc


def load_checkpoint(path: str) -> "GPUSystem":
    """Rehydrate a system from ``path`` and restore global id state.

    The header is checked before the pickle is read.  Corruption after
    it never escapes as a raw exception: truncated pickles raise
    ``EOFError``, bit-flipped ones anything from ``UnpicklingError``
    through ``IndexError``/``MemoryError`` (the pickle VM chokes
    mid-opcode), and all of them surface as :class:`CheckpointError`.
    """
    from repro.core import request as request_mod
    from repro.gpu.system import GPUSystem

    try:
        with open(path, "rb") as fh:
            header = _read_header(fh, path)
            system = pickle.load(fh)
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
    if not isinstance(system, GPUSystem):
        raise CheckpointError(
            f"{path}: payload is a {type(system).__name__}, not a GPUSystem"
        )
    # Resume the global request-id sequence exactly where the writer was:
    # ids break scheduler tie-breaks, so a fresh process must not hand
    # out ids below (or colliding with) the in-flight restored ones.
    request_mod._req_ids.next_id = header["next_req_id"]
    return system
