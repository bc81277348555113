"""Iterative monomial condensation for signomial programs.

The classical approach to SGP (surveyed in the GP tutorial the paper
cites as [11]) solves a *sequence of geometric programs*: every
signomial constraint ``p(x) − q(x) ≤ 0`` (``p``, ``q`` posynomials) is
rewritten as ``p(x) / q(x) ≤ 1`` and the denominator is *condensed* —
replaced by its best monomial under-approximation at the current point

    q̂(x) = Π_i ( t_i(x) / λ_i )^{λ_i},    λ_i = t_i(x_k) / q(x_k)

(the weighted arithmetic–geometric-mean inequality guarantees
``q̂(x) ≤ q(x)`` with equality at ``x_k``, so the condensed program's
feasible set is an inner approximation).  Each condensed program is a
GP, convex in log-space, solved here by SLSQP on the log-sum-exp form.
Repeating condense→solve until the iterates stop moving is the
condensation loop.

This solver exists as an *ablation* against the direct NLP solvers in
:mod:`repro.sgp.solver` (see ``benchmarks/bench_ablations.py``): it is
the principled GP-community algorithm, typically more robust on badly
scaled programs and slower per iteration.  It requires the objective in
signomial form, so it applies to the single-vote formulation (Eq. 12
objective) but not to the sigmoid multi-vote objective.
"""

from __future__ import annotations

import time

import numpy as np
from scipy import optimize
from scipy.special import logsumexp

from repro.devtools.contracts import check_posynomial, check_weight_bounds
from repro.errors import SGPSolverError
from repro.obs import get_registry, op
from repro.sgp.problem import SGPProblem
from repro.sgp.solver import SGPSolution
from repro.sgp.terms import Signomial

#: Terms with weight below this are dropped from a condensation (their
#: AM-GM exponent is numerically irrelevant and log(0) must be avoided).
_LAMBDA_EPS = 1e-12


def split_signomial(signomial: Signomial) -> tuple[Signomial, Signomial]:
    """Split ``f = p − q`` into posynomials ``(p, q)`` by coefficient sign."""
    p, q = Signomial(), Signomial()
    for coeff, exponents in signomial.terms():
        if coeff > 0:
            p.add_term(coeff, exponents)
        else:
            q.add_term(-coeff, exponents)
    return p, q


def condense_posynomial(posynomial: Signomial, x: np.ndarray) -> Signomial:
    """Best monomial approximation of ``posynomial`` at ``x`` (AM–GM).

    Returns a single-term signomial ``q̂`` with ``q̂(x) = posynomial(x)``
    and ``q̂ ≤ posynomial`` everywhere on the positive orthant.
    """
    terms = list(posynomial.terms())
    if not terms:
        raise SGPSolverError("cannot condense an empty posynomial")
    # Contract seam (Eq. 2-3): the AM-GM condensation is only valid for a
    # genuine posynomial — every coefficient finite and strictly positive.
    check_posynomial(terms, seam="sgp.condense_posynomial")
    values = np.array([
        coeff * np.prod([x[v] ** e for v, e in exponents.items()])
        for coeff, exponents in terms
    ])
    total = values.sum()
    if total <= 0:
        raise SGPSolverError("posynomial evaluates to zero; cannot condense")
    lambdas = values / total

    log_coeff = 0.0
    exponent_acc: dict[int, float] = {}
    for lam, (coeff, exponents) in zip(lambdas, terms):
        if lam < _LAMBDA_EPS:
            continue
        log_coeff += lam * (np.log(coeff) - np.log(lam))
        for var, exp in exponents.items():
            exponent_acc[var] = exponent_acc.get(var, 0.0) + lam * exp
    condensed = Signomial()
    condensed.add_term(float(np.exp(log_coeff)), exponent_acc)
    return condensed


class _LogSpacePosynomial:
    """``log f(exp(y))`` of a posynomial, with gradient (convex in y)."""

    def __init__(self, posynomial: Signomial, num_vars: int) -> None:
        terms = list(posynomial.terms())
        if not terms:
            raise SGPSolverError("empty posynomial in log-space form")
        self.log_coeffs = np.array([np.log(c) for c, _ in terms])
        self.exponents = np.zeros((len(terms), num_vars))
        for t, (_, exps) in enumerate(terms):
            for var, exp in exps.items():
                self.exponents[t, var] = exp

    def value_and_grad(self, y: np.ndarray) -> tuple[float, np.ndarray]:
        logits = self.log_coeffs + self.exponents @ y
        value = float(logsumexp(logits))
        weights = np.exp(logits - value)
        return value, weights @ self.exponents


def solve_by_condensation(
    problem: SGPProblem,
    *,
    max_rounds: int = 30,
    x_tol: float = 1e-7,
    inner_max_iter: int = 200,
) -> SGPSolution:
    """Solve an SGP by iterative monomial condensation.

    Parameters
    ----------
    problem:
        The program.  Its objective must have a signomial form
        (:attr:`SGPProblem.objective_signomial`); the encoder's Eq. 12
        distance objective qualifies.
    max_rounds:
        Maximum condense→solve iterations.
    x_tol:
        Stop when the iterate moves less than this in infinity norm.
    inner_max_iter:
        Iteration cap for each inner convex GP solve.

    Notes
    -----
    The signomial objective ``f_0 = p_0 − q_0`` is handled with the
    standard epigraph trick: an auxiliary variable ``t`` is appended,
    ``t`` is minimized, and ``p_0 + offset ≤ t + q_0`` is added as a
    signomial constraint (the offset keeps the epigraph variable
    positive).  Infeasible iterations fall back to the most recent
    feasible iterate.
    """
    objective_sig = problem.objective_signomial
    if objective_sig is None:
        raise SGPSolverError(
            "condensation requires a signomial objective; the sigmoid "
            "multi-vote objective is not signomial — use solve_sgp instead"
        )
    if max_rounds < 1:
        # With zero rounds the loop below would never bind its iteration
        # variable and the epilogue would crash with a NameError.
        raise SGPSolverError(f"max_rounds must be at least 1, got {max_rounds}")
    with op(
        "sgp.condensation",
        num_vars=problem.num_vars,
        num_constraints=problem.num_constraints,
    ) as solve:
        start = time.perf_counter()
        n = problem.num_vars
        t_var = n  # index of the epigraph variable
        offset = 1.0

        # Epigraph constraint: p0 + offset − t − q0 ≤ 0.
        epigraph = objective_sig.copy()
        epigraph.add_term(offset, {})
        epigraph.add_term(-1.0, {t_var: 1.0})

        signomials = [epigraph] + [c.signomial for c in problem.constraints]
        margins = [0.0] + [c.margin for c in problem.constraints]
        splits = [split_signomial(s) for s in signomials]

        lower = np.append(problem.lower, 1e-9)
        upper = np.append(problem.upper, 1e9)
        x = np.append(problem.x0.copy(), 0.0)
        x[t_var] = max(objective_sig.evaluate(problem.x0) + offset, 1e-6)
        x = np.clip(x, lower, upper)

        y_lower, y_upper = np.log(lower), np.log(upper)
        best_feasible: "np.ndarray | None" = None
        nit_total = 0
        for _round in range(max_rounds):
            # Build the condensed GP at the current point.
            log_constraints = []
            feasible_model = True
            for (p, q), margin in zip(splits, margins):
                numerator = p.copy()
                if margin:
                    numerator.add_term(margin, {})
                if numerator.num_terms == 0:
                    continue  # trivially satisfied: 0 ≤ q
                if q.num_terms == 0:
                    # posynomial ≤ 0 is unsatisfiable on the positive orthant
                    feasible_model = False
                    break
                q_hat = condense_posynomial(q, x)
                ((q_coeff, q_exps),) = list(q_hat.terms())
                # p / q̂ ≤ 1: divide every numerator term by the monomial.
                ratio = Signomial()
                for coeff, exps in numerator.terms():
                    merged = dict(exps)
                    for var, exp in q_exps.items():
                        merged[var] = merged.get(var, 0.0) - exp
                    ratio.add_term(coeff / q_coeff, merged)
                log_constraints.append(_LogSpacePosynomial(ratio, n + 1))
            if not feasible_model:
                raise SGPSolverError(
                    "a constraint has no negative terms and a positive margin: "
                    "the program is structurally infeasible"
                )

            def objective_fn(y):
                grad = np.zeros(n + 1)
                grad[t_var] = 1.0
                return float(y[t_var]), grad

            scipy_constraints = [
                {
                    "type": "ineq",
                    "fun": (lambda y, _c=c: -_c.value_and_grad(y)[0]),
                    "jac": (lambda y, _c=c: -_c.value_and_grad(y)[1]),
                }
                for c in log_constraints
            ]
            result = optimize.minimize(
                objective_fn,
                np.log(x),
                jac=True,
                method="SLSQP",
                bounds=optimize.Bounds(y_lower, y_upper),
                constraints=scipy_constraints,
                options={"maxiter": inner_max_iter, "ftol": 1e-12},
            )
            nit_total += int(result.get("nit", 0))
            x_new = np.clip(np.exp(result.x), lower, upper)
            moved = float(np.abs(x_new[:n] - x[:n]).max())
            x = x_new
            if problem.num_satisfied(x[:n]) == problem.num_constraints:
                best_feasible = x.copy()
            if moved < x_tol:
                break

        final = best_feasible if best_feasible is not None else x
        x_out = np.clip(final[:n], problem.lower, problem.upper)
        # Contract seam (Eq. 2): the returned point is inside the box.
        check_weight_bounds(
            x_out, problem.lower, problem.upper, seam="sgp.condensation"
        )
        residuals = problem.constraint_values(x_out)
        max_residual = float(residuals.max()) if residuals.size else 0.0
        solution = SGPSolution(
            x=x_out,
            objective_value=float(problem.objective.value(x_out)),
            num_satisfied=int((residuals <= 1e-9).sum()),
            num_constraints=problem.num_constraints,
            success=best_feasible is not None,
            method="condensation",
            message=f"condensation finished after {_round + 1} rounds",
            elapsed=time.perf_counter() - start,
            nit=nit_total,
            extras={"max_residual": max_residual, "rounds": _round + 1},
        )
        solve.set(
            rounds=_round + 1,
            nit=nit_total,
            num_satisfied=solution.num_satisfied,
            max_residual=max_residual,
            success=solution.success,
        )
    registry = get_registry()
    registry.counter("sgp_solves_total", method="condensation").inc()
    registry.counter("sgp_condensation_rounds_total").inc(_round + 1)
    if not solution.all_satisfied:
        registry.counter("sgp_partial_solutions_total").inc()
    return solution
