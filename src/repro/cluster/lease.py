"""Atomic lease files: how workers claim jobs without a coordinator.

A lease is one JSON file per job under ``<run>/leases/``.  The whole
protocol rests on two POSIX atomicities:

* **Claim** = ``os.link(tmp, lease)``.  The owner writes its full lease
  document to a private temp file first, then *links* it into place —
  link fails with ``EEXIST`` if any lease exists, and succeeds with the
  complete document already in the file.  A partially-written lease is
  therefore *unrepresentable*: a worker killed mid-claim leaves only a
  ``.tmp-*`` orphan, never a half lease (pinned by the chaos tests).
* **Steal** = ``os.rename(lease, graveyard)``.  Reclaiming an expired
  lease never uses ``unlink`` — two racing reclaimers could otherwise
  each unlink-then-claim and both "win".  Rename is an atomic
  compare-and-take: exactly one reclaimer moves the stale file aside
  (the loser gets ``ENOENT`` and falls back to the normal claim race),
  and a heartbeat renewal that lands concurrently simply re-creates the
  file, making the thief's subsequent link fail.  Rename takes whatever
  file is in place, though: a thief whose stale read predates another
  thief's fresh claim would move that claim aside.  So the thief checks
  that the file it took is the one it judged stale, and otherwise links
  it back and loses.

**Renewal** rewrites the document via temp + ``os.replace`` and verifies
ownership first; a worker whose lease was stolen (it stalled past the
expiry, someone else reclaimed) learns so from :meth:`Lease.renew`
returning ``False`` and must treat its job as lost.  Results stay
correct under even a *successful* duplicate execution because the
result store is content-addressed and the simulator deterministic: both
owners would publish byte-identical documents.

Corrupt or truncated lease files (torn by a failing disk, or by the
chaos harness) carry no readable heartbeat; their *mtime* stands in for
it, so corruption converges to ordinary expiry — detected, aged, then
reclaimed.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import dataclass
from typing import Optional

from repro.cluster.chaos import chaos_point

__all__ = ["Lease", "LeaseInfo"]


@dataclass(frozen=True)
class LeaseInfo:
    """A parsed lease document (or its mtime stand-in when corrupt)."""

    owner: str
    heartbeat: float  # unix seconds of the last renewal
    attempt: int
    claimed: float  # unix seconds of the original claim
    corrupt: bool = False

    def age_s(self, now: Optional[float] = None) -> float:
        return (time.time() if now is None else now) - self.heartbeat


class Lease:
    """The lease file of one job (``<run>/leases/<slug>.lease``)."""

    def __init__(self, path: str, expiry_s: float) -> None:
        self.path = path
        self.expiry_s = expiry_s

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def read(self) -> Optional[LeaseInfo]:
        """The current lease, ``None`` if the job is unclaimed.

        An unparsable file is still a lease (someone holds the slot) —
        it reports ``corrupt=True`` with its mtime as the heartbeat, so
        it expires on the normal schedule instead of wedging the job.
        """
        try:
            with open(self.path) as fh:
                doc = json.load(fh)
            return LeaseInfo(
                owner=str(doc["owner"]),
                heartbeat=float(doc["heartbeat"]),
                attempt=int(doc.get("attempt", 0)),
                claimed=float(doc.get("claimed", doc["heartbeat"])),
            )
        except FileNotFoundError:
            return None
        except (OSError, ValueError, KeyError, TypeError):
            pass
        try:  # corrupt: fall back to file mtime as the heartbeat
            mtime = os.stat(self.path).st_mtime
        except OSError:
            return None  # vanished between open and stat: unclaimed
        return LeaseInfo(
            owner="", heartbeat=mtime, attempt=0, claimed=mtime, corrupt=True
        )

    def expired(self, info: Optional[LeaseInfo] = None,
                now: Optional[float] = None) -> bool:
        info = self.read() if info is None else info
        if info is None:
            return False  # nothing to expire
        return info.age_s(now) > self.expiry_s

    # ------------------------------------------------------------------
    # claiming
    # ------------------------------------------------------------------
    def _document(self, owner: str, attempt: int, claimed: float) -> dict:
        return {
            "owner": owner,
            "heartbeat": time.time(),
            "attempt": attempt,
            "claimed": claimed,
        }

    def _write_tmp(self, doc: dict) -> str:
        directory = os.path.dirname(self.path) or "."
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".lease")
        with os.fdopen(fd, "w") as fh:
            json.dump(doc, fh)
        return tmp

    def try_claim(self, owner: str, attempt: int = 0) -> bool:
        """Attempt an atomic claim; reclaims an expired lease first.

        Returns ``True`` iff this worker now owns the job.  Loses
        cleanly (``False``) to any concurrent claimer or to a lease that
        is still being heartbeated.
        """
        info = self.read()
        if info is not None:
            if not self.expired(info):
                return False
            # Stale: steal by atomic rename (exactly one thief wins).
            grave = f"{self.path}.reclaimed-{os.getpid()}-{time.time_ns()}"
            try:
                os.rename(self.path, grave)
            except OSError:
                return False  # someone else stole (or the owner renewed)
            judged = Lease(grave, self.expiry_s).read() == info
            if not judged:  # a newer claim or renewal: give it back
                try:
                    os.link(grave, self.path)
                except OSError:
                    pass
            try:
                os.unlink(grave)
            except OSError:
                pass
            if not judged:
                return False
        tmp = self._write_tmp(self._document(owner, attempt, time.time()))
        chaos_point("lease-tmp")  # crash window: doc written, not yet linked
        try:
            os.link(tmp, self.path)
        except FileExistsError:
            return False  # lost the claim race
        except OSError:
            return False  # filesystem without hard links etc.: treat as lost
        finally:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        chaos_point("lease-claimed")  # crash window: owned, work not started
        return True

    # ------------------------------------------------------------------
    # renewal / release
    # ------------------------------------------------------------------
    def renew(self, owner: str, attempt: int = 0) -> bool:
        """Refresh the heartbeat; ``False`` when ownership was lost.

        Verifies the on-disk owner before rewriting, so a worker whose
        lease expired and was reclaimed detects the takeover instead of
        silently overwriting the new owner's heartbeat.
        """
        info = self.read()
        if info is None or info.corrupt or info.owner != owner:
            return False
        tmp = self._write_tmp(
            self._document(owner, attempt, info.claimed)
        )
        try:
            os.replace(tmp, self.path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return False
        return True

    def release(self, owner: str) -> None:
        """Drop the lease if (and only if) this worker still owns it."""
        info = self.read()
        if info is None or info.owner != owner:
            return
        try:
            os.unlink(self.path)
        except OSError:
            pass
