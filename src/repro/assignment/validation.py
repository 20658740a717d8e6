"""Result validation and LP-duality optimality certificates.

For the exact solver that exposes dual potentials (Hungarian), weak
duality gives a machine-checkable proof of optimality:

* feasibility: ``dual_row[u] + dual_col[v] <= E[u, v]`` for every pair;
* tightness:  equality on every matched edge.

Together these imply ``sum(dual_row) + sum(dual_col) = total`` is a lower
bound attained by the matching, i.e. the matching is optimal.  All checks
are exact integer arithmetic.
"""

from __future__ import annotations

import numpy as np

from repro.assignment.base import AssignmentResult
from repro.exceptions import SolverError
from repro.types import ErrorMatrix
from repro.utils.validation import check_error_matrix, check_permutation

__all__ = ["check_result", "verify_optimality_certificate"]


def check_result(result: AssignmentResult, matrix: ErrorMatrix) -> None:
    """Raise :class:`SolverError` unless ``result`` is internally consistent
    with ``matrix`` (valid permutation, correct total)."""
    matrix = check_error_matrix(matrix)
    perm = check_permutation(result.permutation, matrix.shape[0])
    actual = int(matrix[perm, np.arange(matrix.shape[0])].sum())
    if actual != result.total:
        raise SolverError(
            f"result total {result.total} does not match matrix total {actual}"
        )


def verify_optimality_certificate(result: AssignmentResult, matrix: ErrorMatrix) -> bool:
    """Check the LP-duality certificate carried by ``result``.

    Returns ``True`` when the certificate proves optimality; ``False`` when
    the result carries no duals.  Raises :class:`SolverError` if duals are
    present but infeasible or non-tight — that means the solver is broken,
    not merely uncertified.
    """
    check_result(result, matrix)
    if result.dual_row is None or result.dual_col is None:
        return False
    matrix = check_error_matrix(matrix)
    n = matrix.shape[0]
    dual_row = np.asarray(result.dual_row, dtype=np.int64)
    dual_col = np.asarray(result.dual_col, dtype=np.int64)
    if dual_row.shape != (n,) or dual_col.shape != (n,):
        raise SolverError("dual vectors have wrong shape")
    slack = matrix - dual_row[:, None] - dual_col[None, :]
    if (slack < 0).any():
        worst = int(slack.min())
        raise SolverError(f"dual infeasible: negative reduced cost {worst}")
    perm = result.permutation
    matched_slack = slack[perm, np.arange(n)]
    if (matched_slack != 0).any():
        raise SolverError("matched edges are not tight against the duals")
    bound = int(dual_row.sum() + dual_col.sum())
    if bound != result.total:
        raise SolverError(
            f"dual objective {bound} does not equal primal total {result.total}"
        )
    return True
