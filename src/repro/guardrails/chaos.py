"""Process-level chaos points: kill, stall or fail a process at a named step.

:class:`~repro.guardrails.faults.FaultInjector` breaks the *simulator*
on purpose so the guardrails can be watched catching each fault class.
This module does the same one level up, to *processes*: named
crash-windows compiled into the production code paths let a test kill,
hang or fail a sweep job or a store writer at an exact step, and then
watch the recovery.

Points:

* ``job-start`` — a sweep job's entry (:meth:`repro.analysis.runner
  .ExperimentRunner.run_job`, run inline or in a worker process); a job
  whose cache entry is already on disk is never dispatched, so never
  reaches it;
* ``atomic-write`` — temp file written, not yet renamed into place, and
  ``append-line`` — history line about to be written, both in
  :mod:`repro.core.atomic`.

They are inert unless the ``REPRO_CHAOS`` environment variable arms them
with comma-separated ``point=action`` pairs::

    REPRO_CHAOS="job-start=kill"               # SIGKILL at the point
    REPRO_CHAOS="job-start=stall:60"           # sleep 60 s at the point
    REPRO_CHAOS="job-start=raise"              # raise ChaosError there
    REPRO_CHAOS="atomic-write=kill!once"       # fire on first hit only

``kill`` sends SIGKILL to this process, so no cleanup handler runs,
exactly like the OOM killer.  ``stall:<seconds>`` sleeps.  ``raise``
raises :class:`ChaosError` in the calling process, so it also fails a
job that runs inline (``workers=0``), where ``kill`` would take down the
sweep itself.

``!once`` needs ``REPRO_CHAOS_MARK_DIR`` (a shared directory): the
first process to reach the point claims a marker file with
``O_CREAT|O_EXCL`` and acts; every later hit, including the retry of
the job the chaos just killed, passes through unharmed.  That is what
lets one env var express "the first attempt dies, the recovery must
succeed".
"""

from __future__ import annotations

import os
import signal
import time

__all__ = ["CHAOS_ENV", "MARK_DIR_ENV", "ChaosError", "chaos_point"]

CHAOS_ENV = "REPRO_CHAOS"
MARK_DIR_ENV = "REPRO_CHAOS_MARK_DIR"


class ChaosError(RuntimeError):
    """The failure a ``raise`` chaos action injects."""


def _parse(spec: str) -> dict[str, str]:
    """``point=action[!once],...`` -> {point: action[!once]} (lenient)."""
    out: dict[str, str] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part or "=" not in part:
            continue
        point, _, action = part.partition("=")
        out[point.strip()] = action.strip()
    return out


def _claim_once(point: str) -> bool:
    """True when this process may fire a ``!once`` arm (marker claimed)."""
    mark_dir = os.environ.get(MARK_DIR_ENV)
    if not mark_dir:
        return True  # no marker dir: every hit fires (caller opted out)
    try:
        os.makedirs(mark_dir, exist_ok=True)
        fd = os.open(
            os.path.join(mark_dir, f"chaos-{point}.fired"),
            os.O_CREAT | os.O_EXCL | os.O_WRONLY,
        )
    except FileExistsError:
        return False
    except OSError:
        return True  # unusable marker dir: fail open (chaos still fires)
    os.close(fd)
    return True


def chaos_point(point: str) -> None:
    """Fire whatever ``REPRO_CHAOS`` arms at ``point``.

    Unarmed points cost one env lookup.
    """
    spec = os.environ.get(CHAOS_ENV)
    if not spec:
        return
    action = _parse(spec).get(point)
    if action is None:
        return
    if action.endswith("!once"):
        action = action[: -len("!once")]
        if not _claim_once(point):
            return
    if action == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
        time.sleep(60)  # unreachable; parks the caller until the signal lands
    elif action.startswith("stall:"):
        time.sleep(float(action.split(":", 1)[1]))
    elif action == "raise":
        raise ChaosError(f"chaos: injected failure at {point}")
