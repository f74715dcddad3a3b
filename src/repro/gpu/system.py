"""Whole-GPU wiring: SMs, crossbar, memory partitions, controllers.

``GPUSystem`` assembles every substrate for one simulation run, and
``simulate`` is the one-call public entry point used by examples and the
experiment harness::

    from repro import SimConfig, simulate
    stats = simulate(SimConfig(scheduler="wg-w"), kernel_trace)
"""

from __future__ import annotations

from time import perf_counter
from typing import Optional

from repro.core.config import SimConfig
from repro.core.engine import Engine
from repro.core.request import MemoryRequest
from repro.core.stats import SimStats
from repro.dram.validate import StreamingAuditor
from repro.gpu.address_map import AddressMap
from repro.gpu.interconnect import Crossbar
from repro.gpu.partition import MemoryPartition
from repro.gpu.sm import SMCore
from repro.gpu.warp import WarpState
from repro.guardrails.checkpoint import save_checkpoint
from repro.guardrails.config import GuardrailConfig
from repro.guardrails.faults import FaultInjector
from repro.guardrails.invariants import InvariantMonitor
from repro.mc.coordination import CoordinationNetwork
from repro.mc.registry import controller_class, coordinated_schedulers
from repro.telemetry.hub import TelemetryHub
from repro.telemetry.sampler import IntervalSampler
from repro.workloads.trace import KernelTrace

__all__ = ["GPUSystem", "simulate"]


def build_frontend_pools(*_args, **_kwargs) -> None:
    # Unused: bench/repeat.py still times this name as a phase and fails without it.
    return None


class GPUSystem:
    """A fully wired GPU + memory system executing one kernel trace.

    ``telemetry`` is an optional :class:`~repro.telemetry.TelemetryHub`;
    when omitted (the default) no sampler, tracer or profiler is
    wired and the simulation path is byte-for-byte the untelemetered one.

    ``guardrails`` is an optional
    :class:`~repro.guardrails.GuardrailConfig` enabling the invariant
    monitor, the streaming protocol audit, periodic checkpoints and/or
    fault injection.  Guardrails never perturb the simulation: the drive
    loop segments ``Engine.run`` instead of scheduling events, so event
    order, tie sequence numbers and every statistic are identical with
    guardrails on or off.
    """

    def __init__(
        self,
        config: SimConfig,
        kernel: KernelTrace,
        telemetry: Optional[TelemetryHub] = None,
        guardrails: Optional[GuardrailConfig] = None,
    ) -> None:
        self.config = config
        self.kernel = kernel
        self.engine = Engine()
        self.amap = AddressMap(config.dram_org)
        self.stats = SimStats(config.dram_org.num_channels)
        self.telemetry = telemetry
        self._tracer = telemetry.tracer if telemetry is not None else None
        if telemetry is not None and telemetry.profiler is not None:
            self.engine.profiler = telemetry.profiler
        num_parts = config.dram_org.num_channels

        self.xbar = Crossbar(
            self.engine, config.gpu, num_parts, config.dram_org.line_bytes
        )

        self.partitions = [
            MemoryPartition(
                self.engine, p, config, self.amap, self._reply, self.stats
            )
            for p in range(num_parts)
        ]

        mc_cls = controller_class(config.scheduler)
        self.mcs = []
        for ch in range(num_parts):
            mc = mc_cls(
                self.engine,
                ch,
                config,
                self.stats.channels[ch],
                deliver_read=self.partitions[ch].on_dram_data,
            )
            self.partitions[ch].mc = mc
            self.mcs.append(mc)

        self.network: Optional[CoordinationNetwork] = None
        if config.scheduler in coordinated_schedulers():
            self.network = CoordinationNetwork(self.engine)
            for mc in self.mcs:
                mc.attach_network(self.network)

        # Runtime guardrails (see repro.guardrails / docs/robustness.md).
        self.guardrails = guardrails
        self.monitor: Optional[InvariantMonitor] = None
        self.injector: Optional[FaultInjector] = None
        if guardrails is not None and guardrails.active:
            if guardrails.invariants:
                self.monitor = InvariantMonitor(guardrails)
            if guardrails.faults:
                self.injector = FaultInjector(guardrails.faults)
            if guardrails.audit:
                for mc in self.mcs:
                    channel = getattr(mc, "channel", None)
                    if channel is not None and channel.log is None:
                        channel.log = StreamingAuditor(
                            config.dram_timing, config.dram_org, mc.channel_id
                        )

        buckets = kernel.by_sm(config.gpu.num_sms)
        self.sms = [
            SMCore(
                self.engine,
                sm_id,
                config,
                buckets[sm_id],
                send_request=self._send_request,
                on_warp_done=self._warp_done,
                sim_stats=self.stats,
            )
            for sm_id in range(config.gpu.num_sms)
        ]
        self.total_warps = len(kernel.warps)
        self.warps_done = 0
        self._t_last_warp = 0
        self._started = False

        # The sampler is built last: it snapshots the controllers above.
        self.sampler: Optional[IntervalSampler] = None
        if telemetry is not None and telemetry.sampling:
            self.sampler = IntervalSampler(self, telemetry.sample_period_ps)

    # ------------------------------------------------------------------
    # routing callbacks
    # ------------------------------------------------------------------
    def _send_request(self, req: MemoryRequest) -> None:
        self.amap.route(req)
        if self._tracer is not None:
            self._tracer.on_dispatch(req)
        if self.monitor is not None:
            self.monitor.note_inject(req, self.engine.now)
        part = self.partitions[req.channel]
        self.xbar.to_partition(req.channel, part.receive, req)

    def _reply(self, req: MemoryRequest) -> None:
        if self.monitor is not None:
            self.monitor.note_retire(req, self.engine.now)
        sm = self.sms[req.sm_id]
        self.xbar.to_sm(req.sm_id, sm.receive_reply, req)

    def _warp_done(self, warp: WarpState) -> None:
        self.warps_done += 1
        self._t_last_warp = self.engine.now
        if self.monitor is not None:
            self.monitor.note_warp_done((warp.sm_id, warp.warp_id))

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, max_events: Optional[int] = None) -> SimStats:
        """Execute the kernel to completion and return the statistics."""
        self.start()
        return self.resume(max_events=max_events)

    def start(self) -> None:
        """Seed the event queue with every SM's first segment."""
        if self._started:
            raise RuntimeError("GPUSystem.start() called twice")
        self._started = True
        for sm in self.sms:
            sm.start()
        if self.sampler is not None:
            self.sampler.start()

    def resume(self, max_events: Optional[int] = None) -> SimStats:
        """Drain the event queue to completion and return the statistics.

        Valid on a freshly started system and on one rehydrated by
        :func:`repro.guardrails.load_checkpoint` — the restored run
        continues exactly where the snapshot was taken.
        """
        if not self._started:
            raise RuntimeError("GPUSystem.resume() before start()")
        t0 = perf_counter()
        if self.guardrails is not None and self.guardrails.needs_driver:
            self._drive(max_events)
        else:
            self.engine.run(max_events=max_events)
        wall = perf_counter() - t0
        if self.monitor is not None:
            self.monitor.final_check(self.engine.now)
        if self.warps_done != self.total_warps:
            raise RuntimeError(
                f"simulation stalled: {self.warps_done}/{self.total_warps} "
                f"warps finished, {self.engine.events_processed} events"
            )
        self.stats.elapsed_ps = self._t_last_warp
        self.stats.events_processed = self.engine.events_processed
        self.stats.wall_seconds = wall
        for mc in self.mcs:
            mc.sync_stats()
        if self.sampler is not None:
            self.sampler.finalize()
            self.stats.intervals = self.sampler.samples
            self.stats.interval_period_ps = self.sampler.period_ps
        return self.stats

    def _drive(self, max_events: Optional[int]) -> None:
        """Segmented event loop for invariants, checkpoints and faults.

        Runs the engine in bounded segments (``engine.run(until_ps=...)``)
        and performs guardrail work *between* segments, at quiescent
        instants.  Nothing here schedules an event, so the event stream
        is identical to an unsegmented run — the property the
        bit-identical checkpoint/restore guarantee rests on.
        """
        g = self.guardrails
        assert g is not None
        engine = self.engine
        check_ps = g.check_period_ps
        next_check = engine.now + check_ps if self.monitor is not None else None
        ckpt_ps = g.checkpoint_period_ps
        next_ckpt = (engine.now // ckpt_ps + 1) * ckpt_ps if ckpt_ps else None
        remaining = max_events
        while not engine.empty():
            bounds = []
            if next_check is not None:
                bounds.append(next_check)
            if next_ckpt is not None:
                bounds.append(next_ckpt)
            if self.injector is not None and self.injector.pending:
                due = self.injector.next_due_ps()
                # A fault waiting for a target (due already passed)
                # retries at watchdog cadence, not every picosecond.
                bounds.append(due if due > engine.now else engine.now + check_ps)
            before = engine.events_processed
            engine.run(
                until_ps=min(bounds) if bounds else None, max_events=remaining
            )
            if remaining is not None:
                remaining -= engine.events_processed - before
            if engine.empty():
                # The run finished inside this segment (the engine parks
                # the clock at the segment bound).  Periodic work at the
                # boundary would be pure noise now — a checkpoint of a
                # completed run cannot be resumed into anything, and
                # ``final_check`` covers the monitor.
                break
            now = engine.now
            if self.injector is not None and self.injector.pending:
                self.injector.apply_due(self, now)
            if next_check is not None and now >= next_check:
                self.monitor.check(self, now)
                next_check = now + check_ps
            if next_ckpt is not None and now >= next_ckpt:
                save_checkpoint(self, g.checkpoint_path)
                next_ckpt = (now // ckpt_ps + 1) * ckpt_ps


def simulate(
    config: SimConfig,
    kernel: KernelTrace,
    max_events: Optional[int] = None,
    telemetry: Optional[TelemetryHub] = None,
    guardrails: Optional[GuardrailConfig] = None,
) -> SimStats:
    """Build a :class:`GPUSystem` for ``kernel`` and run it to completion."""
    system = GPUSystem(config, kernel, telemetry=telemetry, guardrails=guardrails)
    return system.run(max_events=max_events)
