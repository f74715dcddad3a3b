"""Idealized opportunity models for the Fig. 4 analysis."""

from repro.idealized.perfect import perfect_coalescing

__all__ = ["perfect_coalescing"]
