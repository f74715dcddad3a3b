"""Shared schema-version constants for every machine-readable artifact.

Each producer stamps its output with the constant below; the run-history
store (:mod:`repro.history`) validates provenance against the same
constants, so a format change is one edit here plus the producer — no
scattered magic ``1``\\ s.  Bump a constant only on a *breaking* change
to the corresponding document shape; additive keys do not need a bump.

============================  ===========================================
constant                      document
============================  ===========================================
``METRICS_SCHEMA``            ``SimStats.write_metrics`` bundle
``SWEEP_SCHEMA``              ``SweepReport.to_dict`` / sweep history record
``FUZZ_SCHEMA``               fuzz campaign report (``FuzzReport.to_dict``)
``ACCURACY_SCHEMA``           ``accuracy.json`` measured paper claims
``HISTORY_SCHEMA``            run-history record envelope
============================  ===========================================
"""

from __future__ import annotations

__all__ = [
    "ACCURACY_SCHEMA",
    "FUZZ_SCHEMA",
    "HISTORY_SCHEMA",
    "METRICS_SCHEMA",
    "SWEEP_SCHEMA",
    "provenance_problems",
]

METRICS_SCHEMA = 1
SWEEP_SCHEMA = 1
FUZZ_SCHEMA = 1
# v2: each entry is a measured claim with its band.
ACCURACY_SCHEMA = 2
# v2 envelopes carried "worker" and "attempt" stamps, which nothing writes
# any more; readers ignore the two keys, and v1 and v2 lines both read.
HISTORY_SCHEMA = 2

#: Payload kind -> (schema constant, keys every payload of that kind has).
#: The key sets are deliberately minimal: they pin provenance (what
#: produced this document), not the full shape.
_PAYLOAD_CONTRACTS: dict[str, tuple[int, tuple[str, ...]]] = {
    "sweep": (SWEEP_SCHEMA, ("jobs", "config_hash")),
    "fuzz": (FUZZ_SCHEMA, ("campaign_seed", "cases_run")),
    "accuracy": (ACCURACY_SCHEMA, ("entries",)),
}


def provenance_problems(kind: str, payload: dict) -> list[str]:
    """Why ``payload`` is not a valid document of ``kind`` (empty = valid).

    Kinds without a registered contract only need to be dicts — the
    history store accepts them but cannot vouch for their shape.
    """
    if not isinstance(payload, dict):
        return [f"{kind} payload is {type(payload).__name__}, not a dict"]
    contract = _PAYLOAD_CONTRACTS.get(kind)
    if contract is None:
        return []
    want_schema, want_keys = contract
    problems = []
    got = payload.get("schema_version")
    if got != want_schema:
        problems.append(
            f"{kind} payload schema_version {got!r}, expected {want_schema}"
        )
    for key in want_keys:
        if key not in payload:
            problems.append(f"{kind} payload missing key {key!r}")
    return problems
