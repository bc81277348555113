"""SLSQP reference solve for SGP programs — a test oracle only.

:func:`repro.sgp.solve_sgp` is an augmented-Lagrangian method; the
tests check it against scipy's SLSQP, a general SQP solver of the same
family as the paper's ``fmincon``.  The oracle evaluates constraints
and their Jacobian through the program's stacked sparse form and
reports through the production census (:func:`_finalize`), so the two
solutions are directly comparable.
"""

import time

import numpy as np
from scipy import optimize, sparse

from repro.sgp.problem import SGPProblem
from repro.sgp.solver import SGPSolution, _finalize


def constraint_jacobian(problem: SGPProblem, x: np.ndarray) -> np.ndarray:
    """Dense ``∂(f_i + margin_i)/∂x_j`` from the stacked exponent matrix."""
    stacked = problem.compile()
    _, terms = stacked.values(x)
    term_to_row = sparse.csr_matrix(
        (terms, (stacked.rows, np.arange(terms.size))),
        shape=(stacked.num_constraints, terms.size),
    )
    return (term_to_row @ stacked.exponents).toarray() / x


def solve_sgp_slsqp(problem: SGPProblem, *, max_iter: int = 200,
                    tol: float = 1e-9) -> SGPSolution:
    """Solve ``problem`` with SLSQP (``-(f_i(x) + margin_i) ≥ 0``)."""
    objective = problem.objective
    start = time.perf_counter()
    constraints = []
    if problem.constraints:
        constraints.append({
            "type": "ineq",
            "fun": lambda x: -problem.constraint_values(x),
            "jac": lambda x: -constraint_jacobian(problem, x),
        })
    result = optimize.minimize(
        objective.value_and_grad,
        problem.x0,
        jac=True,
        method="SLSQP",
        bounds=optimize.Bounds(problem.lower, problem.upper),
        constraints=constraints,
        options={"maxiter": max_iter, "ftol": tol},
    )
    return _finalize(
        problem,
        result.x,
        success=bool(result.success),
        method="slsqp",
        message=str(result.message),
        elapsed=time.perf_counter() - start,
        nit=int(result.get("nit", 0)),
    )
