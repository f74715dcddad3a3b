"""Tests for the scheduler registry."""

import pytest

from repro.mc.base import MemoryController
from repro.mc.registry import SCHEDULERS, controller_class, coordinated_schedulers


def test_all_paper_schedulers_registered():
    for name in ("gmc", "fcfs", "frfcfs", "wafcfs", "sbwas", "wg", "wg-m", "wg-bw", "wg-w"):
        cls = controller_class(name)
        assert issubclass(cls, MemoryController)
        assert cls.name == name


def test_unknown_scheduler_raises_with_choices():
    with pytest.raises(ValueError, match="unknown scheduler"):
        controller_class("lru")


def test_coordinated_set():
    assert coordinated_schedulers() == {"wg-m", "wg-bw", "wg-w", "wg-share"}
    # Coordinated policies expose the network hook.
    for name in coordinated_schedulers():
        assert hasattr(SCHEDULERS[name], "attach_network")


def test_registry_names_match_classes():
    for name, cls in SCHEDULERS.items():
        assert cls.name == name
