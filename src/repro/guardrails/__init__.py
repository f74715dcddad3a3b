"""Runtime guardrails for long simulations (robustness subsystem).

Three cooperating layers, all opt-in and all strictly non-perturbing —
with guardrails off the simulation is byte-for-byte the pre-guardrails
one, and the monitor/checkpoint driver never inserts events into the
engine queue (it segments ``Engine.run`` instead), so event order, tie
sequence numbers and statistics are identical either way:

* **invariants** — :class:`InvariantMonitor` enforces conservation laws
  (every injected read retires exactly once), queue-occupancy bounds,
  warp-group liveness, and two forward-progress watchdogs (stale
  requests; controllers with pending work but no DRAM commands).  A
  violated invariant aborts the run with :class:`InvariantViolation`
  naming the law, the instant and the offending component.
* **checkpoint** — :func:`save_checkpoint` / :func:`load_checkpoint`
  serialize the whole :class:`~repro.gpu.system.GPUSystem` (event
  queue included) into versioned snapshots; a restored run finishes
  bit-identical to an uninterrupted one.  ``repro.analysis.sweep`` uses
  this to resume timed-out or crashed jobs.
* **faults** — :class:`FaultInjector` applies config-driven
  :class:`FaultSpec` perturbations (drop/delay/duplicate DRAM
  responses, wedge a controller, corrupt queue accounting, illegal
  DRAM timing state, hard crash) at chosen instants, which is how the
  test suite proves each guardrail actually fires.

One level up, :mod:`repro.guardrails.chaos` kills or stalls whole
processes at named points (``REPRO_CHAOS``), which is how the sweep
supervisor and the atomic store writes are proven crash-safe.

See ``docs/robustness.md`` for the user-facing guide and
``python -m repro run --help`` for the CLI knobs
(``--audit``, ``--invariants``, ``--checkpoint-period``,
``--restore-from``).
"""

from repro.guardrails.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointError,
    load_checkpoint,
    peek_checkpoint,
    save_checkpoint,
)
from repro.guardrails.config import GuardrailConfig
from repro.guardrails.faults import (
    FAULT_KINDS,
    FaultInjectionError,
    FaultInjector,
    FaultSpec,
)
from repro.guardrails.invariants import InvariantMonitor, InvariantViolation

__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "FAULT_KINDS",
    "FaultInjectionError",
    "FaultInjector",
    "FaultSpec",
    "GuardrailConfig",
    "InvariantMonitor",
    "InvariantViolation",
    "load_checkpoint",
    "peek_checkpoint",
    "save_checkpoint",
]
