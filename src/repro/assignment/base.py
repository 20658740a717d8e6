"""Solver abstraction and registry for the assignment problem.

All solvers consume the library's canonical error matrix ``E[u, v]``
(input tile ``u`` at target position ``v``) and return an
:class:`AssignmentResult` whose ``permutation`` follows the library
convention ``p[v] = u``, so ``total = sum_v E[p[v], v]``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from repro.exceptions import ValidationError
from repro.types import ErrorMatrix, PermutationArray
from repro.utils.validation import check_error_matrix, check_permutation

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.cost.sparse import SparseErrorMatrix

__all__ = ["AssignmentResult", "AssignmentSolver", "register_solver", "get_solver"]


@dataclass(frozen=True)
class AssignmentResult:
    """Outcome of one assignment solve.

    Attributes
    ----------
    permutation:
        ``p[v] = u``: input tile placed at each target position.
    total:
        Objective value ``sum_v E[p[v], v]``.
    optimal:
        Whether the permutation is guaranteed optimal for the full matrix
        (``False`` after a solve restricted to a sparse shortlist).
    dual_row, dual_col:
        LP dual potentials when the solver produces them
        (``dual_row[u] + dual_col[v] <= E[u, v]`` with equality on matched
        edges); ``None`` otherwise.  See
        :func:`repro.assignment.validation.verify_optimality_certificate`.
    iterations:
        Solver-specific work counter (augmentations, permutations
        enumerated, ...).
    """

    permutation: PermutationArray
    total: int
    optimal: bool
    dual_row: np.ndarray | None = None
    dual_col: np.ndarray | None = None
    iterations: int = 0
    meta: dict = field(default_factory=dict)


class AssignmentSolver(ABC):
    """Base class: validates input, delegates to ``_solve``."""

    #: Registry key; subclasses override.
    name: str = "abstract"

    def solve(self, matrix: ErrorMatrix) -> AssignmentResult:
        """Solve the assignment problem for ``matrix``.

        Validates the matrix, runs the concrete algorithm, then validates
        the returned permutation and recomputes the objective from scratch
        so a buggy solver can never report an inconsistent total.
        """
        matrix = check_error_matrix(matrix)
        result = self._solve(matrix)
        perm = check_permutation(result.permutation, matrix.shape[0])
        true_total = int(matrix[perm, np.arange(matrix.shape[0])].sum())
        if true_total != result.total:
            raise ValidationError(
                f"solver {self.name!r} reported total {result.total}, "
                f"actual {true_total}"
            )
        return result

    @abstractmethod
    def _solve(self, matrix: ErrorMatrix) -> AssignmentResult:
        """Concrete algorithm; ``matrix`` is a validated ``int64`` square."""

    def solve_sparse(self, sparse: "SparseErrorMatrix") -> AssignmentResult:
        """Solve over a shortlisted candidate set.

        The default implementation densifies with the sparse matrix's
        sentinel (a cost strictly worse than every shortlisted pair) and
        runs the ordinary dense algorithm: any solver prefers candidate
        edges wherever a perfect matching over them exists, and rows the
        shortlist cannot serve fall back to sentinel edges — the dense
        fallback the sparse pipeline requires for infeasible rows.
        Fallback edges are then re-scored with the metric's **exact**
        cost (via the features the builder retained), so the reported
        total is the true Eq. (2) value, never a sentinel sum; the
        count lands in ``meta["sparse"]["fallback"]``.

        A complete sparse matrix (``top_k == S``) densifies to the exact
        dense matrix, making this bit-identical to :meth:`solve`.
        ``optimal`` is ``True`` only in that complete case — on a
        restricted edge set even an exact solver only certifies the
        restriction, so duals are dropped and optimality is not claimed.
        """
        sparse_meta = {
            "top_k": sparse.top_k,
            "complete": sparse.complete,
            "pairs_evaluated": int(sparse.meta.get("pairs_evaluated", 0)),
        }
        if sparse.complete:
            result = self.solve(sparse.to_dense())
            return replace(
                result,
                meta={**result.meta, "sparse": {**sparse_meta, "fallback": 0}},
            )
        filled = sparse.to_dense()
        result = self.solve(filled)
        perm = result.permutation
        n = sparse.size
        cols = np.arange(n, dtype=np.intp)
        shortlisted = sparse.mask()[perm, cols]
        fallback = int(n - shortlisted.sum())
        total = int(filled[perm, cols][shortlisted].sum())
        exact_fallback = True
        if fallback:
            try:
                total += int(
                    sparse.score_pairs(perm[~shortlisted], cols[~shortlisted])
                    .sum(dtype=np.int64)
                )
            except ValidationError:
                # Feature-less sparse matrix (from_dense): the sentinel
                # sum is the best available bound; flagged in meta.
                total += int(filled[perm, cols][~shortlisted].sum())
                exact_fallback = False
        return AssignmentResult(
            permutation=perm,
            total=total,
            optimal=False,
            iterations=result.iterations,
            meta={
                **result.meta,
                "sparse": {
                    **sparse_meta,
                    "fallback": fallback,
                    "exact_fallback": exact_fallback,
                },
            },
        )


_REGISTRY: dict[str, type[AssignmentSolver]] = {}


def register_solver(cls: type[AssignmentSolver]) -> type[AssignmentSolver]:
    """Class decorator: register a solver under its ``name``."""
    if not issubclass(cls, AssignmentSolver):
        raise ValidationError(f"{cls!r} is not an AssignmentSolver subclass")
    if cls.name in _REGISTRY:
        raise ValidationError(f"duplicate solver name {cls.name!r}")
    _REGISTRY[cls.name] = cls
    return cls


def get_solver(name: str | AssignmentSolver, **kwargs: object) -> AssignmentSolver:
    """Resolve a solver by registry name (or pass an instance through)."""
    if isinstance(name, AssignmentSolver):
        return name
    cls = _REGISTRY.get(name)
    if cls is None:
        raise ValidationError(
            f"unknown solver {name!r} (available: {sorted(_REGISTRY)})"
        )
    return cls(**kwargs)  # type: ignore[call-arg]


def available_solvers() -> list[str]:
    """Names of all registered solvers."""
    return sorted(_REGISTRY)
