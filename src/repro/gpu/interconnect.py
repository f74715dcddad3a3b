"""SM <-> memory-partition crossbar.

Two properties matter to the paper's mechanisms and are modeled here:

* requests from one SM to one partition are never reordered (the
  warp-group completion tag of §IV-B relies on this);
* different SMs' streams interleave at each partition's ingress port,
  which is what defeats naive FCFS scheduling (§III-A).

Each port is a serialization server: a line-sized message occupies the
port for ``line_bytes / bytes_per_ns`` and is delivered after the base
latency.
Because port occupancy is granted in call order, per-source FIFO order is
preserved automatically.
"""

from __future__ import annotations

from typing import Callable

from repro.core.config import GPUConfig
from repro.core.engine import Engine

__all__ = ["Crossbar"]


class Crossbar:
    """Contention-aware constant-latency crossbar."""

    def __init__(
        self,
        engine: Engine,
        gpu: GPUConfig,
        num_partitions: int,
        line_bytes: int,
    ) -> None:
        self.engine = engine
        self.latency_ps = int(gpu.xbar_latency_ns * 1000)
        self.transfer_ps = max(1, int(line_bytes / gpu.xbar_bytes_per_ns * 1000))
        self._to_partition_free = [0] * num_partitions
        self._to_sm_free = [0] * gpu.num_sms

    def _send(
        self, free: list[int], port: int, fn: Callable[..., None], args: tuple
    ) -> int:
        start = max(self.engine.now, free[port])
        done = start + self.transfer_ps
        free[port] = done
        deliver = done + self.latency_ps
        self.engine.schedule_at(deliver, fn, *args)
        return deliver

    def to_partition(self, part: int, fn: Callable[..., None], *args) -> int:
        """Send a request to a partition."""
        return self._send(self._to_partition_free, part, fn, args)

    def to_sm(self, sm_id: int, fn: Callable[..., None], *args) -> int:
        """Send a data reply back to an SM."""
        return self._send(self._to_sm_free, sm_id, fn, args)
