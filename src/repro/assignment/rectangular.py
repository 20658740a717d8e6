"""Rectangular assignment: more candidates than positions.

The database-mosaic mode without tile reuse (paper Fig. 1 pipeline, "each
database image at most once") is a rectangular LAP: ``R`` candidate tiles,
``C <= R`` target positions, choose ``C`` distinct candidates minimising
total cost.  SciPy's ``linear_sum_assignment`` solves the ``(R, C)``
matrix directly, so no ``R x R`` zero-padded square is ever built.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment

from repro.exceptions import SolverError, ValidationError

__all__ = ["solve_rectangular"]


def solve_rectangular(costs: np.ndarray) -> tuple[np.ndarray, int]:
    """Min-cost injective assignment of columns to rows.

    Parameters
    ----------
    costs:
        ``(R, C)`` non-negative cost matrix with ``R >= C`` (rows =
        candidates, columns = positions).

    Returns
    -------
    (choice, total):
        ``choice[c]`` is the row assigned to column ``c`` (all distinct);
        ``total`` is the exact objective value.
    """
    costs = np.asarray(costs)
    if costs.ndim != 2:
        raise ValidationError(f"costs must be 2-D, got shape {costs.shape}")
    rows, cols = costs.shape
    if rows < cols:
        raise ValidationError(
            f"need rows >= cols (candidates >= positions), got {rows} < {cols}"
        )
    if rows == 0 or cols == 0:
        raise ValidationError("costs must be non-empty")
    if not np.issubdtype(costs.dtype, np.integer):
        raise ValidationError(f"costs must be integer, got dtype {costs.dtype}")
    if (costs < 0).any():
        raise ValidationError("costs must be non-negative")
    # With R >= C every column is matched once; SciPy returns the pairs
    # in row order, so scatter them into column order.
    row_ind, col_ind = linear_sum_assignment(costs)
    choice = np.full(cols, -1, dtype=np.intp)
    choice[col_ind] = row_ind
    if (choice < 0).any() or np.unique(choice).size != cols:
        raise SolverError(
            "rectangular assignment must give every column a distinct row"
        )
    total = int(costs[choice, np.arange(cols)].sum())
    return choice, total
