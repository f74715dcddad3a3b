"""Memory controllers: the baseline GMC and the paper's warp-aware policies."""

from repro.mc.base import MemoryController
from repro.mc.command_queue import SCORE_HIT, SCORE_MISS, CommandQueues
from repro.mc.coordination import CoordinationNetwork
from repro.mc.fcfs import FCFSController
from repro.mc.frfcfs import FRFCFSController
from repro.mc.gmc import GMCController
from repro.mc.merb import merb_table, merb_value, single_bank_utilization
from repro.mc.registry import SCHEDULERS, controller_class, coordinated_schedulers
from repro.mc.row_sorter import RowSorter
from repro.mc.sbwas import SBWASController
from repro.mc.wafcfs import WAFCFSController
from repro.mc.warp_sorter import WarpGroupEntry, WarpSorter
from repro.mc.wg import WGController
from repro.mc.wgbw import WGBwController
from repro.mc.wgm import WGMController
from repro.mc.wgw import WGWController

__all__ = [
    "CommandQueues",
    "CoordinationNetwork",
    "FCFSController",
    "FRFCFSController",
    "GMCController",
    "MemoryController",
    "RowSorter",
    "SBWASController",
    "SCHEDULERS",
    "SCORE_HIT",
    "SCORE_MISS",
    "WAFCFSController",
    "WGBwController",
    "WGController",
    "WGMController",
    "WGWController",
    "WarpGroupEntry",
    "WarpSorter",
    "controller_class",
    "coordinated_schedulers",
    "merb_table",
    "merb_value",
    "single_bank_utilization",
]
