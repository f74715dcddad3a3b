"""One retry policy for every retry path: seeded exponential backoff.

Before this module, each dispatch path invented its own retry timing:
the local process pool resubmitted failed jobs *immediately* (a
deterministic crash re-fired as fast as the pool could spin), and the
cluster needed per-attempt spacing anyway.  Both now share one
:class:`RetryPolicy` value that lives in ``run_sweep``'s signature and
in the cluster run manifest, so a grid behaves identically whether it
is drained locally or by a fleet of lease-based workers.

The jitter is **seeded**, not sampled: the delay for ``(seed, token,
attempt)`` is a pure function, so reruns of a sweep back off on the
exact same schedule — determinism is a feature everywhere else in this
repo and retry timing is no exception.  Distinct jobs still decorrelate
(the token folds in the job id), which is the point of jitter.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

__all__ = ["RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with deterministic per-(job, attempt) jitter.

    ``delay_s(1)`` is the wait before the first retry; each further
    attempt doubles (``multiplier``) up to ``cap_s``.  ``jitter`` is the
    fraction of the raw delay that the seeded draw may shave off, i.e.
    the delay lands in ``[raw * (1 - jitter), raw]``.
    """

    base_s: float = 0.25
    cap_s: float = 30.0
    multiplier: float = 2.0
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.base_s < 0 or self.cap_s < 0:
            raise ValueError("backoff delays must be >= 0")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter is a fraction in [0, 1]")

    def delay_s(self, attempt: int, token: str = "") -> float:
        """Seconds to wait before retry number ``attempt`` (1-based).

        ``token`` decorrelates independent retry streams (pass the job
        id); the same ``(seed, token, attempt)`` always yields the same
        delay.
        """
        if attempt <= 0:
            return 0.0
        raw = min(self.cap_s, self.base_s * self.multiplier ** (attempt - 1))
        if raw <= 0.0 or self.jitter == 0.0:
            return raw
        draw = random.Random(f"{self.seed}|{token}|{attempt}").random()
        return raw * (1.0 - self.jitter * draw)

    def to_dict(self) -> dict:
        return {
            "base_s": self.base_s,
            "cap_s": self.cap_s,
            "multiplier": self.multiplier,
            "jitter": self.jitter,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "RetryPolicy":
        return cls(
            base_s=float(doc.get("base_s", 0.25)),
            cap_s=float(doc.get("cap_s", 30.0)),
            multiplier=float(doc.get("multiplier", 2.0)),
            jitter=float(doc.get("jitter", 0.5)),
            seed=int(doc.get("seed", 0)),
        )
