"""Hot-path acceleration layer.

Two independent pieces, combinable per deployment:

* :mod:`repro.accel.backend` — the ``xp`` array-module dispatch registry
  (NumPy always; CuPy auto-detected when installed), so Step 2 and the
  vectorised Step-3 commit path run unchanged on whichever array library
  the host actually has.
* :mod:`repro.accel.dirty` — active-pair pruning for the serial 2-opt
  sweeps: a per-position dirty mask restricts late sweeps to pairs that
  can still improve, dropping them from ``O(S^2)`` to ``O(S * dirty)``
  while provably reaching the *same* fixed point (see the module doc).
  Algorithm 2 keeps its own per-pair stamps beside its packed pairs
  (:mod:`repro.localsearch.parallel`).
"""

from repro.accel.backend import (
    ArrayBackend,
    BackendUnavailable,
    available_backends,
    get_backend,
    register_backend,
)
from repro.accel.dirty import SweepPruner

__all__ = [
    "ArrayBackend",
    "BackendUnavailable",
    "available_backends",
    "get_backend",
    "register_backend",
    "SweepPruner",
]
