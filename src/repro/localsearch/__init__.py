"""Approximation algorithms: serial (Algorithm 1) and parallel (Algorithm 2)
2-opt local search over tile swaps."""

from __future__ import annotations

from repro.localsearch.base import ConvergenceTrace, LocalSearchResult
from repro.localsearch.parallel import local_search_parallel
from repro.localsearch.serial import local_search_serial

__all__ = [
    "ConvergenceTrace",
    "LocalSearchResult",
    "local_search_serial",
    "local_search_parallel",
]
