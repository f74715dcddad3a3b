"""Shared helpers for the test suite (importable as ``helpers``)."""

from __future__ import annotations

import json
from itertools import product
from pathlib import Path
from typing import Callable

from repro.core.config import SimConfig
from repro.core.engine import Engine
from repro.core.request import LoadTransaction, MemoryRequest
from repro.core.stats import ChannelStats
from repro.mc.registry import controller_class


def make_request(
    bank: int = 0,
    row: int = 0,
    col: int = 0,
    channel: int = 0,
    is_write: bool = False,
    sm_id: int = 0,
    warp_id: int = 0,
    addr: int | None = None,
) -> MemoryRequest:
    """A raw, pre-routed request for controller-level tests."""
    if addr is None:
        # Unique synthetic address: identity is all the tests need.
        addr = (((channel * 16 + bank) * 4096 + row) * 16 + col) * 128
    req = MemoryRequest(addr=addr, is_write=is_write, sm_id=sm_id, warp_id=warp_id)
    req.channel, req.bank, req.row = channel, bank, row
    return req


def tagged_load(warp_id: int, specs, sm_id: int = 0) -> list[MemoryRequest]:
    """One load's requests to channel 0, (bank, row) each, in dispatch
    order, with the last tagged as closing the load's group there."""
    txn = LoadTransaction(sm_id, warp_id, n_requests=len(specs), t_issue=0)
    reqs = []
    for bank, row in specs:
        req = make_request(bank=bank, row=row, sm_id=sm_id, warp_id=warp_id)
        req.transaction = txn
        reqs.append(req)
    reqs[-1].closes_group = True
    return reqs


def record_announcements(mc) -> list[tuple[tuple[int, int], int, int]]:
    """Record a controller's group-size announcements as
    (key, expected, instant) while passing them on."""
    announced = []
    announce = mc.receive_group_complete

    def record(key, expected):
        announced.append((key, expected, mc.engine.now))
        announce(key, expected)

    mc.receive_group_complete = record
    return announced


class MCHarness:
    """Engine + one controller + reply capture, for scheduler unit tests."""

    def __init__(self, scheduler: str, config: SimConfig | None = None) -> None:
        self.config = config or SimConfig()
        self.engine = Engine()
        self.stats = ChannelStats()
        self.delivered: list[MemoryRequest] = []
        self.mc = controller_class(scheduler)(
            self.engine, 0, self.config, self.stats, self.delivered.append
        )
        if hasattr(self.mc, "attach_network"):
            from repro.mc.coordination import CoordinationNetwork

            self.network = CoordinationNetwork(self.engine)
            self.mc.attach_network(self.network)

    def read(self, **kwargs) -> MemoryRequest:
        req = make_request(**kwargs)
        self.mc.receive_read(req)
        return req

    def write(self, **kwargs) -> MemoryRequest:
        req = make_request(is_write=True, **kwargs)
        self.mc.receive_write(req)
        return req

    def run(self, max_events: int = 500_000) -> None:
        self.engine.run(max_events=max_events)

    def order_delivered(self) -> list[int]:
        return [r.req_id for r in self.delivered]


def count_trace_builds(monkeypatch, log_dir) -> Callable[[], list[tuple[str, int]]]:
    """Log (benchmark, seed) for every synthetic trace the builder makes,
    in this process or a worker forked from it, to a file under
    ``log_dir``; returns a function that reads the log."""
    from repro.analysis import runner as runner_module

    log = Path(log_dir) / "trace-builds.log"
    log.write_text("")
    real = runner_module.synthetic_trace

    def build(profile, *args, **kwargs):
        with open(log, "a") as fh:
            fh.write(f"{profile.name} {kwargs['seed']}\n")
        return real(profile, *args, **kwargs)

    monkeypatch.setattr(runner_module, "synthetic_trace", build)

    def builds() -> list[tuple[str, int]]:
        return [
            (bench, int(seed))
            for bench, seed in (line.split() for line in log.read_text().splitlines())
        ]

    return builds


def input_trace(runner, bench: str, seed: int = 1):
    """A fresh build of ``runner``'s (bench, seed) input, the trace a
    sweep hands ``runner.run_job``."""
    from repro.analysis.runner import build_trace

    return build_trace(
        runner.kind, bench, runner.config, runner.scale, seed,
        runner.trace_paths.get(bench),
    )


def cache_entries(path) -> dict[str, dict]:
    """A result cache's JSON entries keyed by file name, minus the
    non-deterministic ``sim_wall_s``."""
    return {
        p.name: {
            k: v
            for k, v in json.loads(p.read_text()).items()
            if k != "sim_wall_s"
        }
        for p in path.iterdir()
        if p.suffix == ".json"
    }


def grid(benchmarks, schedulers, perfect: bool = False) -> list[tuple[str, str, bool]]:
    """The (benchmark, scheduler, perfect) sweep cells of a product grid."""
    return list(product(benchmarks, schedulers, [perfect]))
