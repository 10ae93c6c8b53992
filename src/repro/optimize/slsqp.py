"""SLSQP backend for :class:`~repro.optimize.program.ConvexProgram`.

An independent second solver (scipy's sequential least-squares
quadratic programming) used to cross-validate the from-scratch barrier
method: both must agree on every loop program to the comparison
tolerance the experiments need.  SLSQP also handles programs with
linear equality constraints and does not need a strictly feasible
start, so it is the fallback when the barrier cannot find an interior
point.

scipy is imported inside :func:`solve_slsqp`, not at module load: this
backend is its only user, and ``scipy.optimize`` costs more to import
than the rest of the package, so a run that never reaches SLSQP never
pays for it.
"""

from __future__ import annotations

import numpy as np

from ..core.errors import SolverConvergenceError
from .program import ConvexProgram
from .result import SolveResult

__all__ = ["solve_slsqp"]


def solve_slsqp(
    program: ConvexProgram,
    initial_point: np.ndarray | None = None,
    max_iter: int = 500,
    tol: float = 1e-12,
    strict: bool = False,
) -> SolveResult:
    """Solve a convex program with scipy SLSQP.

    Parameters
    ----------
    program:
        The program to maximize.
    initial_point:
        Start point; defaults to a small positive vector.  A warm start
        near the optimum (e.g. from the MaxMax solution) speeds up and
        stabilizes convergence substantially.
    strict:
        If True, raise :class:`SolverConvergenceError` when scipy
        reports failure; otherwise return the best point found with
        ``converged=False``.
    """
    from scipy.optimize import minimize

    n = program.n_vars
    if initial_point is None:
        x0 = np.full(n, 1e-6)
    else:
        x0 = np.array(initial_point, dtype=float)
        if x0.shape != (n,):
            raise ValueError(f"initial point has shape {x0.shape}, expected ({n},)")

    # scipy minimizes; negate the (linear) objective.
    scale = float(np.max(np.abs(program.objective), initial=1.0))
    if scale == 0.0:
        scale = 1.0
    c = program.objective / scale

    constraints = []
    for con in program.inequalities:
        constraints.append(
            {
                "type": "ineq",
                "fun": (lambda v, _c=con: _c.value(v)),
                "jac": (lambda v, _c=con: _c.grad(v)),
            }
        )
    for eq in program.equalities:
        constraints.append(
            {
                "type": "eq",
                "fun": (lambda v, _e=eq: _e.residual(v)),
                "jac": (lambda v, _e=eq: np.asarray(_e.coeffs, dtype=float)),
            }
        )

    bounds = [(0.0, None)] * n if program.nonneg else None

    res = minimize(
        fun=lambda v: -float(c @ v),
        x0=x0,
        jac=lambda v: -c,
        method="SLSQP",
        bounds=bounds,
        constraints=constraints,
        options={"maxiter": max_iter, "ftol": tol},
    )

    if not res.success and strict:
        raise SolverConvergenceError(f"SLSQP failed: {res.message}")

    x = np.asarray(res.x, dtype=float)
    if program.nonneg:
        x = np.maximum(x, 0.0)
    return SolveResult(
        x=x,
        objective=program.objective_value(x),
        converged=bool(res.success),
        iterations=int(res.nit),
        backend="slsqp",
        message=str(res.message),
    )
