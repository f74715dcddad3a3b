"""Crash-safe filesystem primitives shared by every store in the repo.

Two writers live on shared directories — the content-hash result cache
(a sweep's only record of finished jobs) and the run-history JSONL
store — and both
assume these two primitives:

* :func:`atomic_write_json` — temp file + ``os.replace``: readers never
  observe a partial document, concurrent writers of one path race
  benignly (last full document wins);
* :func:`atomic_append_line` — one ``O_APPEND`` ``os.write`` of a whole
  line: concurrent appenders interleave whole lines, never bytes, and a
  crash can at worst truncate the final line (which readers skip).

Both call :func:`repro.guardrails.chaos.chaos_point` at their
crash-windows, so a test can SIGKILL a process *between* the temp-file
write and the rename and prove the invariants above actually hold under
mid-write death (``tests/test_atomic.py``).
"""

from __future__ import annotations

import json
import os
import tempfile

from repro.guardrails.chaos import chaos_point

__all__ = ["atomic_append_line", "atomic_write_json"]


def atomic_write_json(path: str, obj) -> None:
    """Write ``obj`` as JSON so readers never see a partial file.

    The payload goes to a unique temp file in the destination directory
    and is renamed into place (``os.replace`` is atomic on POSIX and
    Windows).  Concurrent writers of the same path race benignly: the
    last full document wins.  A process killed mid-write leaves only a
    ``.tmp-*`` orphan, never a partial ``path``.
    """
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".json")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(obj, fh)
        chaos_point("atomic-write")  # crash window: tmp written, not yet live
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_append_line(path: str, line: str) -> None:
    """Append one line with a single ``O_APPEND`` write.

    POSIX guarantees the kernel serializes ``O_APPEND`` writes, so
    concurrent appenders (parallel history producers) produce whole
    interleaved lines — never spliced bytes.  The caller's ``line`` must not itself contain newlines.
    """
    if "\n" in line:
        raise ValueError("atomic_append_line takes a single line")
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    data = (line + "\n").encode("utf-8")
    fd = os.open(path, os.O_APPEND | os.O_CREAT | os.O_WRONLY, 0o644)
    try:
        chaos_point("append-line")
        os.write(fd, data)
    finally:
        os.close(fd)
