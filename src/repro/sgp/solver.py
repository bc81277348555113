"""The SGP solver: a PHR augmented-Lagrangian method over L-BFGS-B.

The paper solves its programs with MATLAB's ``fmincon`` (Section
VII-A3), a general NLP solver.  Here every program goes through one
method of multipliers (Powell–Hestenes–Rockafellar form).  For the
constraints ``c(x) ≤ 0`` each round minimizes, under the box bounds,

    L(x; λ, ρ) = f(x) + (‖max(0, λ + ρ·c(x))‖² − ‖λ‖²) / (2ρ)

with L-BFGS-B warm-started from the previous round's point, then sets
``λ ← max(0, λ + ρ·c(x))``.  ρ grows (up to a cap) only when the
constraint error fails to shrink fast enough.  Memory per iteration is
O(n), and the constraints are evaluated through the program's stacked
sparse form (:class:`~repro.sgp.problem.StackedConstraints`), so one
evaluation of ``L`` and its gradient costs two sparse matvecs however
many constraints the batch has.

A large ρ makes ``L`` stiff, and L-BFGS-B then stops short of the
subproblem's minimizer.  So the first time the error falls within
tolerance at a ρ above :data:`POLISH_PENALTY`, ρ drops to it and the
rounds continue: the multipliers are accurate by then, and the better
conditioned subproblem moves the point onto the constrained optimum.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from scipy import optimize

from repro.devtools.contracts import check_weight_bounds
from repro.obs import get_registry, op
from repro.sgp.problem import SGPProblem

#: Penalty weight ρ of the first round, its growth factor when a round
#: fails to cut the constraint error by :data:`REQUIRED_DECREASE`, its
#: cap, and the value it drops to once for the final rounds.
INITIAL_PENALTY = 1.0
PENALTY_GROWTH = 10.0
REQUIRED_DECREASE = 0.25
MAX_PENALTY = 1e6
POLISH_PENALTY = 1e3
#: Multiplier rounds before the solver gives up converging.
MAX_ROUNDS = 30
#: Constraints are solved with their margins raised by this much, and
#: the solve has converged once the constraint error of that tightened
#: program — ``max_i |max(c_i, −λ_i/ρ)|``, violation and complementarity
#: together — is within it, so a converged point satisfies every real
#: constraint.
TOLERANCE = 1e-6
#: L-BFGS-B line-search budget; stiff subproblems need more than the
#: default 20 steps.
LINE_SEARCH_STEPS = 100
#: Moves at most this large are L-BFGS-B noise (see :func:`_reset_drift`).
DRIFT = 1e-4


@dataclass
class SGPSolution:
    """Result of an SGP solve.

    Attributes
    ----------
    x:
        The returned point (always clipped into the box bounds).
    objective_value:
        Objective at ``x``.
    num_satisfied / num_constraints:
        Constraint satisfaction census at ``x`` — the multi-vote
        formulation *expects* partial satisfaction when votes conflict,
        so a solution is not discarded merely because some constraints
        fail.
    success:
        Whether the solver converged (constraint error within
        :data:`TOLERANCE`).
    method:
        Which solver produced the point: ``augmented-lagrangian`` for
        :func:`solve_sgp` (the SLSQP test oracle reports ``slsqp``).
    message:
        Solver diagnostic text.
    elapsed:
        Wall-clock seconds spent in the solver.
    nit:
        Solver iterations (for :func:`solve_sgp`, L-BFGS-B iterations
        summed over every multiplier round).
    """

    x: np.ndarray
    objective_value: float
    num_satisfied: int
    num_constraints: int
    success: bool
    method: str
    message: str = ""
    elapsed: float = 0.0
    nit: int = 0
    extras: dict = field(default_factory=dict)

    @property
    def all_satisfied(self) -> bool:
        """Whether every constraint holds at the solution."""
        return self.num_satisfied == self.num_constraints

    @property
    def max_residual(self) -> float:
        """Largest constraint violation ``max_i f_i(x) + margin_i`` at the
        solution (≤ 0 means fully feasible; 0.0 for unconstrained
        programs)."""
        return float(self.extras.get("max_residual", 0.0))


def _finalize(problem: SGPProblem, x: np.ndarray, *, success: bool, method: str,
               message: str, elapsed: float, nit: int) -> SGPSolution:
    x = np.clip(np.asarray(x, dtype=float), problem.lower, problem.upper)
    # Contract seam (Eq. 2): the returned point is inside the box.
    check_weight_bounds(x, problem.lower, problem.upper, seam=f"sgp.solve[{method}]")
    value = problem.objective.value(x)
    # Evaluate the constraint vector once and derive both the
    # satisfaction census and the residual telemetry from it.
    if problem.constraints:
        residuals = problem.constraint_values(x)
        num_satisfied = int((residuals <= 1e-9).sum())
        max_residual = float(residuals.max())
    else:
        num_satisfied = 0
        max_residual = 0.0
    return SGPSolution(
        x=x,
        objective_value=float(value),
        num_satisfied=num_satisfied,
        num_constraints=problem.num_constraints,
        success=success,
        method=method,
        message=message,
        elapsed=elapsed,
        nit=nit,
        extras={"max_residual": max_residual},
    )


def solve_sgp(problem: SGPProblem, *, max_iter: int = 200) -> SGPSolution:
    """Solve an :class:`SGPProblem` by the augmented-Lagrangian method.

    Parameters
    ----------
    problem:
        The program; its objective must be set.
    max_iter:
        L-BFGS-B iteration cap of each multiplier round.

    Raises
    ------
    SGPModelError
        For problems without an objective.
    """
    objective = problem.objective  # raises early when unset
    stacked = problem.compile()
    with op(
        "sgp.solve",
        num_vars=problem.num_vars,
        num_constraints=problem.num_constraints,
    ) as solve:
        start = time.perf_counter()
        bounds = optimize.Bounds(problem.lower, problem.upper)
        x = problem.x0.copy()
        multipliers = np.zeros(problem.num_constraints)
        rho = INITIAL_PENALTY
        error = previous_error = np.inf
        polished = False
        nit = rounds = 0
        while rounds < MAX_ROUNDS:
            rounds += 1

            def lagrangian(x, _lam=multipliers, _rho=rho):
                value, grad = objective.value_and_grad(x)
                c, terms = stacked.values(x)
                shifted = np.maximum(0.0, _lam + _rho * (c + TOLERANCE))
                value += (shifted @ shifted - _lam @ _lam) / (2.0 * _rho)
                return value, grad + stacked.weighted_grad(x, terms, shifted)

            result = optimize.minimize(
                lagrangian, x, jac=True, method="L-BFGS-B", bounds=bounds,
                options={"maxiter": max_iter, "maxls": LINE_SEARCH_STEPS},
            )
            x = np.clip(result.x, problem.lower, problem.upper)
            nit += int(result.nit)
            if not stacked.num_constraints:
                error = 0.0
                break
            c = stacked.values(x)[0] + TOLERANCE
            error = float(np.abs(np.maximum(c, -multipliers / rho)).max())
            multipliers = np.maximum(0.0, multipliers + rho * c)
            if error <= TOLERANCE:
                if polished or rho <= POLISH_PENALTY:
                    break
                rho, polished, previous_error = POLISH_PENALTY, True, np.inf
                continue
            if error > REQUIRED_DECREASE * previous_error:
                rho = min(rho * PENALTY_GROWTH, MAX_PENALTY)
            previous_error = error
        x = _reset_drift(problem, x)
        converged = error <= TOLERANCE
        solution = _finalize(
            problem,
            x,
            success=converged,
            method="augmented-lagrangian",
            message=(
                f"{'converged' if converged else 'round cap reached'} after "
                f"{rounds} round(s); constraint error {error:.3g}"
            ),
            elapsed=time.perf_counter() - start,
            nit=nit,
        )
        solution.extras["rounds"] = rounds
        solve.set(
            rounds=rounds,
            nit=nit,
            num_satisfied=solution.num_satisfied,
            max_residual=solution.max_residual,
            success=solution.success,
        )
    _record_solve_metrics(solution)
    return solution


def _reset_drift(problem: SGPProblem, x: np.ndarray) -> np.ndarray:
    """Put back variables that moved less than :data:`DRIFT`.

    L-BFGS-B stops about ``gtol / curvature`` (~1e-5 here) short of a
    coordinate's optimum, so a variable no constraint needed still ends
    that far from its start once a round's overshoot has pulled it.
    Restoring those starts when it raises no objective and unsatisfies
    no constraint keeps untouched edges bit-identical: a batch that
    needs no change publishes no change.
    """
    reset = np.where(np.abs(x - problem.x0) <= DRIFT, problem.x0, x)
    if np.array_equal(reset, x):
        return x
    before = problem.constraint_values(x)
    after = problem.constraint_values(reset)
    if np.any((after > 1e-9) & (before <= 1e-9)):
        return x
    if problem.objective.value(reset) > problem.objective.value(x):
        return x
    return reset


def _record_solve_metrics(solution: SGPSolution) -> None:
    """Registry telemetry for one finished solve."""
    registry = get_registry()
    registry.counter("sgp_solves_total", method=solution.method).inc()
    registry.counter("sgp_iterations_total").inc(max(solution.nit, 0))
    if not solution.all_satisfied:
        registry.counter("sgp_partial_solutions_total").inc()
