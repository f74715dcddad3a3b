"""Append-only, schema-versioned run-history store.

Every measurement the repo produces — a sweep throughput report, a fuzz
campaign, a paper-accuracy export — appends one JSON line to
``results/history/<kind>.jsonl``.  A record is an envelope
(schema version, kind, sequence id, UTC timestamp, git SHA, config hash,
host + interpreter, calibration score) around the producer's own
machine-readable payload, so the dashboard can plot trajectories across
commits and machines without re-deriving provenance.

Design rules:

* **Append-only.**  Records are never rewritten; each append is one
  ``os.write`` of one complete line on an ``O_APPEND`` descriptor
  (:func:`repro.core.atomic.atomic_append_line`), so concurrent
  producers can never interleave bytes or garble each other's lines,
  and a crash can at worst truncate the final line — which readers
  skip.
* **Forward-compatible reads.**  A record whose envelope schema version
  is newer than this code understands, or whose line does not parse, is
  skipped with a :class:`warnings.warn` — never a crash.  Old stores
  stay readable forever; new stores degrade gracefully under old code.
* **Cheap by default.**  Producers ingest through
  :func:`repro.history.record_run`, which is a no-op when the store is
  disabled (``REPRO_HISTORY=0``) and never raises into the producer.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.analysis.schema import HISTORY_SCHEMA, provenance_problems
from repro.core.atomic import atomic_append_line

__all__ = [
    "HistoryError",
    "HistoryRecord",
    "HistoryStore",
    "git_sha",
]

#: Kinds with first-class dashboard views, in display order.
KNOWN_KINDS = ("sweep", "fuzz", "accuracy", "benchmarks")


class HistoryError(Exception):
    """A history append was rejected (bad payload or unwritable store)."""


def git_sha(cwd: Optional[str] = None) -> str:
    """The current commit SHA, or ``"unknown"`` outside a git checkout.

    ``REPRO_GIT_SHA`` overrides (CI can stamp the exact ref it built).
    """
    env = os.environ.get("REPRO_GIT_SHA")
    if env:
        return env
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd or ".",
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def _calibration_quick() -> float:
    """A ~10 ms interpreter-speed stamp (ops/sec) for every record.

    A single short round of dict and integer operations: good enough to
    normalize trajectories taken on machines of very different speed,
    cheap enough to run on every append.
    """
    from time import perf_counter

    iterations = 100_000
    d: dict[int, int] = {}
    acc = 0
    t0 = perf_counter()
    for i in range(iterations):
        k = i & 1023
        d[k] = i
        acc += d[k] ^ (i >> 3)
        if k == 0:
            d.clear()
    dt = perf_counter() - t0
    return iterations / dt if dt > 0 else 0.0


@dataclass
class HistoryRecord:
    """One envelope + payload line of the history."""

    record_id: str
    kind: str
    created_utc: str
    git_sha: str
    config_hash: str
    host: str
    python: str
    calibration_ops_per_sec: float
    payload: dict
    schema_version: int = HISTORY_SCHEMA
    #: Problems provenance validation found at read time (empty = clean).
    problems: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "id": self.record_id,
            "kind": self.kind,
            "created_utc": self.created_utc,
            "git_sha": self.git_sha,
            "config_hash": self.config_hash,
            "host": self.host,
            "python": self.python,
            "calibration_ops_per_sec": round(self.calibration_ops_per_sec, 1),
            "payload": self.payload,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "HistoryRecord":
        return cls(
            record_id=str(doc.get("id", "")),
            kind=str(doc.get("kind", "")),
            created_utc=str(doc.get("created_utc", "")),
            git_sha=str(doc.get("git_sha", "unknown")),
            config_hash=str(doc.get("config_hash", "")),
            host=str(doc.get("host", "")),
            python=str(doc.get("python", "")),
            calibration_ops_per_sec=float(
                doc.get("calibration_ops_per_sec") or 0.0
            ),
            payload=doc.get("payload") or {},
            schema_version=int(doc.get("schema_version", -1)),
        )


class HistoryStore:
    """JSONL files under one directory, one file per record kind."""

    def __init__(self, root: str) -> None:
        self.root = root

    def path(self, kind: str) -> str:
        if not kind or "/" in kind or kind.startswith("."):
            raise HistoryError(f"invalid history kind {kind!r}")
        return os.path.join(self.root, f"{kind}.jsonl")

    def kinds(self) -> list[str]:
        """Record kinds present on disk (known kinds first, then others)."""
        try:
            names = sorted(
                f[: -len(".jsonl")]
                for f in os.listdir(self.root)
                if f.endswith(".jsonl")
            )
        except OSError:
            return []
        known = [k for k in KNOWN_KINDS if k in names]
        return known + [n for n in names if n not in known]

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def append(
        self,
        kind: str,
        payload: dict,
        *,
        config_hash: str = "",
    ) -> HistoryRecord:
        """Append one record; returns the stored envelope.

        Rejects a payload that violates the kind's provenance contract
        (:func:`repro.analysis.schema.provenance_problems`).
        """
        problems = provenance_problems(kind, payload)
        if problems:
            raise HistoryError("; ".join(problems))
        path = self.path(kind)
        os.makedirs(self.root, exist_ok=True)
        n = self._count_lines(path)
        record = HistoryRecord(
            record_id=f"{kind}-{n + 1:04d}",
            kind=kind,
            created_utc=time.strftime(
                "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
            ),
            git_sha=git_sha(),
            config_hash=config_hash,
            host=platform.node() or "unknown",
            python=".".join(map(str, sys.version_info[:3])),
            calibration_ops_per_sec=_calibration_quick(),
            payload=payload,
        )
        atomic_append_line(
            path, json.dumps(record.to_dict(), separators=(",", ":"))
        )
        return record

    @staticmethod
    def _count_lines(path: str) -> int:
        try:
            with open(path, "rb") as fh:
                return sum(1 for _ in fh)
        except OSError:
            return 0

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def _iter_file(self, kind: str) -> Iterator[HistoryRecord]:
        path = self.path(kind)
        try:
            fh = open(path)
        except OSError:
            return
        with fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    doc = json.loads(line)
                except json.JSONDecodeError:
                    warnings.warn(
                        f"{path}:{lineno}: unparsable history line skipped",
                        stacklevel=2,
                    )
                    continue
                record = HistoryRecord.from_dict(doc)
                if record.schema_version > HISTORY_SCHEMA or record.schema_version < 1:
                    warnings.warn(
                        f"{path}:{lineno}: unknown history schema_version "
                        f"{record.schema_version!r} skipped "
                        f"(this code understands <= {HISTORY_SCHEMA})",
                        stacklevel=2,
                    )
                    continue
                record.problems = provenance_problems(record.kind, record.payload)
                yield record

    def records(
        self, kind: Optional[str] = None, limit: Optional[int] = None
    ) -> list[HistoryRecord]:
        """Records of one kind (or all kinds), oldest first.

        ``limit`` keeps only the newest N (per call, after merging
        kinds by timestamp then id).
        """
        if kind is not None:
            out = list(self._iter_file(kind))
        else:
            out = [r for k in self.kinds() for r in self._iter_file(k)]
            out.sort(key=lambda r: (r.created_utc, r.record_id))
        if limit is not None and limit >= 0:
            out = out[-limit:]
        return out

    def latest(self, kind: str) -> Optional[HistoryRecord]:
        records = self.records(kind)
        return records[-1] if records else None

    def get(self, record_id: str) -> Optional[HistoryRecord]:
        """Look a record up by its ``<kind>-<seq>`` id."""
        kind, _, _seq = record_id.rpartition("-")
        candidates = [kind] if kind else self.kinds()
        for k in candidates:
            for record in self._iter_file(k):
                if record.record_id == record_id:
                    return record
        return None
