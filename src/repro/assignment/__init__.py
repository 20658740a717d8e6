"""Minimum-weight bipartite matching solvers (the optimization algorithm).

The paper reduces tile rearrangement to minimum-weight perfect matching on
a complete bipartite graph (Section III) and solves it with Blossom V.  On
bipartite instances that problem *is* the linear assignment problem, so
this package provides four exact solvers behind one registry: SciPy (the
default), a from-scratch Hungarian (the one that emits dual potentials),
a blossom matcher (the paper's own algorithm family) and a brute-force
``S!`` oracle for tests.
"""

from __future__ import annotations

from repro.assignment.base import AssignmentResult, AssignmentSolver, get_solver, register_solver
from repro.assignment.blossom import BlossomSolver
from repro.assignment.bruteforce import BruteForceSolver
from repro.assignment.hungarian import HungarianSolver
from repro.assignment.rectangular import solve_rectangular
from repro.assignment.scipy_solver import ScipySolver
from repro.assignment.validation import check_result, verify_optimality_certificate

__all__ = [
    "AssignmentResult",
    "AssignmentSolver",
    "get_solver",
    "register_solver",
    "HungarianSolver",
    "BlossomSolver",
    "BruteForceSolver",
    "ScipySolver",
    "solve_rectangular",
    "check_result",
    "verify_optimality_certificate",
]
