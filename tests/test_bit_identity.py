"""Bit-identity regression gate for the hot-path optimizations (PR 5).

The incremental BASJF scorer, the engine's near-future event ring and the
command scheduler's next-legal-issue cache are all *pure* optimizations:
they must not change a single simulated outcome.  This gate pins that
claim against committed reference fingerprints taken on the
pre-optimization code: for every registered scheduler, a TINY guarded run
must produce a bit-identical summary (and event count, and simulated end
time) and a bit-identical Perfetto trace.

The fixture (``tests/fixtures/bit_identity.json``) was generated *before*
the optimizations landed and must only be regenerated when simulated
behavior changes intentionally (a new scheduler, a model-fidelity fix)::

    PYTHONPATH=src python tests/test_bit_identity.py --regen

A checkpoint/restore round trip is also exercised per scheduler so the
optimized structures prove they still pickle and resume bit-identically.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile

import pytest

import repro.core.request as request_mod
from repro.core.config import SimConfig
from repro.gpu.system import GPUSystem
from repro.guardrails.checkpoint import load_checkpoint
from repro.guardrails.config import GuardrailConfig
from repro.mc.registry import SCHEDULERS
from repro.telemetry.hub import TelemetryHub
from repro.workloads.suite import Scale, build_benchmark

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "bit_identity.json")

#: Guarded exactly like the CI guardrails job: invariants + protocol audit.
_GUARDED = GuardrailConfig(invariants=True, audit=True)


def _sha(payload: dict) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()


def _case(scheduler: str):
    """(config, trace) of the reference workload: TINY bfs, 2 channels."""
    # Request ids are drawn from a process-global cursor and are embedded
    # in the Perfetto trace; pin it so the fingerprint does not depend on
    # which tests (or schedulers) ran earlier in the process.
    request_mod._req_ids.next_id = 0
    config = SimConfig(scheduler=scheduler).small()
    trace = build_benchmark("bfs", config, Scale.TINY, seed=1)
    return config, trace


def fingerprint(scheduler: str) -> dict:
    """Reference fingerprint of one scheduler's TINY run.

    * ``summary_sha`` — guarded run's ``SimStats.summary()`` (every
      headline metric, bit-for-bit);
    * ``trace_sha`` — full Perfetto/Chrome trace of a telemetered run
      (every request's lifecycle instants, event-for-event);
    * ``events_processed`` / ``elapsed_ps`` — cheap diagnostics that
      localize a mismatch to "different event count" vs "different
      outcomes".
    """
    config, trace = _case(scheduler)
    system = GPUSystem(config, trace, guardrails=_GUARDED)
    stats = system.run()
    hub = TelemetryHub(sample_period_ns=100.0, trace=True)
    traced_stats = GPUSystem(config, trace, telemetry=hub).run()
    chrome = hub.tracer.chrome_trace(traced_stats.intervals)
    return {
        "summary_sha": _sha(stats.summary()),
        "trace_sha": _sha(chrome),
        "events_processed": system.engine.events_processed,
        "elapsed_ps": stats.elapsed_ps,
    }


def _load_fixture() -> dict:
    with open(FIXTURE) as fh:
        return json.load(fh)


@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
def test_bit_identity_against_reference(scheduler):
    reference = _load_fixture()
    assert scheduler in reference, (
        f"no committed fingerprint for {scheduler!r}; regenerate with "
        f"`PYTHONPATH=src python tests/test_bit_identity.py --regen` "
        f"(only legitimate for intentional behavior changes)"
    )
    current = fingerprint(scheduler)
    expected = reference[scheduler]
    assert current["events_processed"] == expected["events_processed"], (
        f"{scheduler}: event count changed "
        f"({current['events_processed']} vs {expected['events_processed']})"
    )
    assert current["elapsed_ps"] == expected["elapsed_ps"]
    assert current["summary_sha"] == expected["summary_sha"], (
        f"{scheduler}: summary diverged from the pre-optimization reference"
    )
    assert current["trace_sha"] == expected["trace_sha"], (
        f"{scheduler}: Perfetto trace diverged from the pre-optimization "
        f"reference"
    )


@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
def test_checkpoint_roundtrip_matches_reference(scheduler):
    """Snapshot mid-run, restore, finish: summary must match the fixture."""
    reference = _load_fixture()[scheduler]
    config, trace = _case(scheduler)
    baseline_elapsed_ns = reference["elapsed_ps"] / 1000.0
    period_ns = max(1.0, baseline_elapsed_ns / 3.0)
    with tempfile.TemporaryDirectory(prefix="bit-identity-") as tmp:
        path = os.path.join(tmp, "mid.ckpt")
        g = GuardrailConfig(checkpoint_period_ns=period_ns, checkpoint_path=path)
        direct = GPUSystem(config, trace, guardrails=g).run()
        assert _sha(direct.summary()) == reference["summary_sha"]
        if not os.path.exists(path):
            pytest.skip("run finished within the first checkpoint period")
        resumed = load_checkpoint(path).resume()
    assert _sha(resumed.summary()) == reference["summary_sha"], (
        f"{scheduler}: checkpoint/restore round trip diverged"
    )


def _regen() -> None:
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    reference = {}
    for scheduler in sorted(SCHEDULERS):
        reference[scheduler] = fingerprint(scheduler)
        print(f"{scheduler:10s} {reference[scheduler]['summary_sha'][:12]} "
              f"({reference[scheduler]['events_processed']} events)")
    with open(FIXTURE, "w") as fh:
        json.dump(reference, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {FIXTURE}")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        _regen()
    else:
        print(__doc__)
