"""Hot-path acceleration layer.

:mod:`repro.accel.backend` is the ``xp`` array-module dispatch registry
(NumPy always; CuPy auto-detected when installed), so Step 2 and the
vectorised Step-3 commit path run unchanged on whichever array library
the host actually has.  Active-pair pruning of Algorithm 2 lives beside
its packed pairs (:mod:`repro.localsearch.parallel`).
"""

from repro.accel.backend import (
    ArrayBackend,
    BackendUnavailable,
    available_backends,
    get_backend,
    register_backend,
)

__all__ = [
    "ArrayBackend",
    "BackendUnavailable",
    "available_backends",
    "get_backend",
    "register_backend",
]
