"""Unit tests for the SGP problem container and solver."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import SGPModelError
from repro.optimize import objectives
from repro.optimize.encoder import encode_votes
from repro.sgp import SGPProblem, Signomial, SmoothObjective, solve_sgp
from repro.sgp.solver import MAX_ROUNDS
from repro.votes import Vote

from tests.sgp_reference import constraint_jacobian, solve_sgp_slsqp
from tests.test_optimize_properties import random_workload


def distance_objective(x0):
    """Eq. 12: sum of squared deviations from x0 over every variable."""
    return objectives.distance_objective(x0, len(x0))


def simple_problem():
    """Push x0 above x1 while staying close to the start point.

    Start at x = (0.2, 0.4); constraint x1 − x0 ≤ −0.05; objective
    ‖x − x0_start‖².  The optimum moves both weights toward each other:
    x* ≈ (0.325, 0.275).
    """
    problem = SGPProblem([0.2, 0.4], lower=0.01, upper=1.0)
    constraint = Signomial.variable(1) - Signomial.variable(0)
    problem.add_constraint(constraint, name="beat", margin=0.05)
    problem.set_objective(distance_objective([0.2, 0.4]))
    return problem


class TestSGPProblem:
    def test_basic_properties(self):
        problem = simple_problem()
        assert problem.num_vars == 2
        assert problem.num_constraints == 1

    def test_initial_point_clipped_into_bounds(self):
        problem = SGPProblem([0.0001, 2.0], lower=0.01, upper=1.0)
        assert problem.x0[0] == 0.01
        assert problem.x0[1] == 1.0

    def test_invalid_bounds(self):
        with pytest.raises(SGPModelError):
            SGPProblem([0.5], lower=0.0)
        with pytest.raises(SGPModelError):
            SGPProblem([0.5], lower=0.9, upper=0.1)

    def test_empty_initial_rejected(self):
        with pytest.raises(SGPModelError):
            SGPProblem([])

    def test_constraint_variable_out_of_range(self):
        problem = SGPProblem([0.5, 0.5])
        with pytest.raises(SGPModelError):
            problem.add_constraint(Signomial.variable(7))

    def test_negative_margin_rejected(self):
        problem = SGPProblem([0.5])
        with pytest.raises(SGPModelError):
            problem.add_constraint(Signomial.variable(0), margin=-0.1)

    def test_objective_required(self):
        problem = SGPProblem([0.5])
        with pytest.raises(SGPModelError):
            _ = problem.objective
        with pytest.raises(SGPModelError):
            solve_sgp(problem)

    def test_bad_objective_type(self):
        problem = SGPProblem([0.5])
        with pytest.raises(SGPModelError):
            problem.set_objective("not an objective")
        with pytest.raises(SGPModelError):  # objectives are smooth callables
            problem.set_objective(Signomial.variable(0))

    def test_constraint_values_and_satisfaction(self):
        problem = simple_problem()
        infeasible = np.array([0.2, 0.4])
        feasible = np.array([0.4, 0.2])
        assert problem.constraint_values(infeasible)[0] > 0
        assert problem.num_satisfied(infeasible) == 0
        assert problem.num_satisfied(feasible) == 1
        assert problem.is_feasible(feasible)
        assert not problem.is_feasible(infeasible)

    def test_is_feasible_checks_bounds(self):
        problem = simple_problem()
        out_of_box = np.array([1.5, 0.1])
        assert not problem.is_feasible(out_of_box)

    def test_stacked_constraints_match_signomials(self):
        problem = SGPProblem([0.3, 0.6, 0.2], lower=0.01, upper=1.0)
        first = Signomial.from_terms(
            [(2.0, {0: 1.0, 1: 2.0}), (-1.0, {2: 1.0}), (0.1, {})]
        )
        second = Signomial.from_terms([(1.0, {1: 1.0}), (-3.0, {0: 0.5})])
        problem.add_constraint(first, margin=0.05)
        problem.add_constraint(second)
        problem.add_constraint(Signomial())  # no terms at all
        x = np.array([0.4, 0.7, 0.9])
        expected = [first.evaluate(x) + 0.05, second.evaluate(x), 0.0]
        assert problem.constraint_values(x) == pytest.approx(expected)
        jacobian = constraint_jacobian(problem, x)
        for row, sig in zip(jacobian, (first, second)):
            grad = sig.gradient(x)
            assert row == pytest.approx([grad.get(j, 0.0) for j in range(3)])
        assert not jacobian[2].any()

    def test_stack_rebuilt_after_new_constraint(self):
        problem = simple_problem()
        assert problem.constraint_values(np.array([0.4, 0.2])).size == 1
        problem.add_constraint(Signomial.variable(0) - 0.9)
        assert problem.constraint_values(np.array([0.4, 0.2])).size == 2


class TestSmoothObjective:
    def test_weighted_sum(self):
        a = SmoothObjective(lambda x: (float(x[0]), np.array([1.0])))
        b = SmoothObjective(lambda x: (float(x[0] ** 2), np.array([2.0 * x[0]])))
        combo = SmoothObjective.weighted_sum([(2.0, a), (0.5, b)])
        value, grad = combo.value_and_grad(np.array([3.0]))
        assert value == pytest.approx(2 * 3 + 0.5 * 9)
        assert grad[0] == pytest.approx(2 * 1 + 0.5 * 6)

    def test_weighted_sum_empty_rejected(self):
        with pytest.raises(SGPModelError):
            SmoothObjective.weighted_sum([])


#: The production solve and the SLSQP oracle the tests compare it with.
SOLVERS = [
    pytest.param(solve_sgp_slsqp, id="slsqp"),
    pytest.param(solve_sgp, id="augmented-lagrangian"),
]


@pytest.mark.parametrize("solve", SOLVERS)
class TestSolvers:
    def test_satisfies_constraint(self, solve):
        problem = simple_problem()
        solution = solve(problem)
        assert solution.all_satisfied
        assert solution.x[0] - solution.x[1] >= 0.05 - 1e-6

    def test_moves_minimally(self, solve):
        problem = simple_problem()
        solution = solve(problem)
        # The optimum splits the 0.25 gap symmetrically.
        assert solution.x[0] == pytest.approx(0.325, abs=0.01)
        assert solution.x[1] == pytest.approx(0.275, abs=0.01)
        assert solution.objective_value == pytest.approx(2 * 0.125**2, abs=1e-3)

    def test_respects_bounds(self, solve):
        problem = SGPProblem([0.5], lower=0.3, upper=0.6)
        # Constraint pushes x down: x <= 0.1 is unreachable inside bounds.
        problem.add_constraint(Signomial.variable(0) - 0.1)
        problem.set_objective(distance_objective([0.5]))
        solution = solve(problem)
        assert 0.3 - 1e-9 <= solution.x[0] <= 0.6 + 1e-9

    def test_no_constraints(self, solve):
        problem = SGPProblem([0.4, 0.6])
        problem.set_objective(distance_objective([0.4, 0.6]))
        solution = solve(problem)
        assert solution.x == pytest.approx(np.array([0.4, 0.6]), abs=1e-6)
        assert solution.objective_value == pytest.approx(0.0, abs=1e-9)


class TestSolverEdgeCases:
    def test_unknown_method(self):
        """There is one solve: the old method selector is rejected."""
        with pytest.raises(TypeError):
            solve_sgp(simple_problem(), method="slsqp")

    def test_solution_reports_method_and_time(self):
        solution = solve_sgp(simple_problem())
        assert solution.method == "augmented-lagrangian"
        assert solution.success
        assert 1 <= solution.extras["rounds"] <= MAX_ROUNDS
        assert solution.elapsed >= 0.0

    def test_infeasible_program_reports_no_convergence(self):
        problem = SGPProblem([0.5], lower=0.3, upper=0.6)
        problem.add_constraint(Signomial.variable(0) - 0.1)
        problem.set_objective(distance_objective([0.5]))
        solution = solve_sgp(problem)
        assert not solution.success
        assert solution.extras["rounds"] == MAX_ROUNDS
        # The point closest to feasibility is the lower bound.
        assert solution.x[0] == pytest.approx(0.3, abs=1e-6)
        assert solution.max_residual == pytest.approx(0.2, abs=1e-6)

    def test_conflicting_constraints_partial_satisfaction(self):
        """x0 > x1 and x1 > x0 cannot both hold; the solver reports it."""
        problem = SGPProblem([0.5, 0.5], lower=0.01, upper=1.0)
        problem.add_constraint(
            Signomial.variable(1) - Signomial.variable(0), margin=0.05
        )
        problem.add_constraint(
            Signomial.variable(0) - Signomial.variable(1), margin=0.05
        )
        problem.set_objective(distance_objective([0.5, 0.5]))
        solution = solve_sgp(problem)
        assert solution.num_satisfied < 2


def single_vote_program(seed):
    """A random single-vote program as Algorithm 1 builds it: hard
    constraints (no deviations) and the Eq. 12 distance objective.
    ``None`` when the random vote leaves nothing to encode."""
    aug, votes = random_workload(seed, num_answers=4, num_queries=1)
    if not votes:
        return None
    vote = votes[0]
    # Vote for the last-ranked answer: the hardest single-vote move.
    vote = Vote(vote.query, vote.ranked_answers, vote.ranked_answers[-1])
    try:
        encoded = encode_votes(aug, [vote], use_deviations=False)
    except SGPModelError:
        return None
    if not encoded.problem.constraints:
        return None
    encoded.problem.set_objective(objectives.distance_objective(
        encoded.problem.x0[: encoded.num_edge_vars], encoded.problem.num_vars
    ))
    return encoded.problem


class TestAgainstSLSQP:
    @given(seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_property_matches_slsqp_on_single_vote_programs(self, seed):
        """On random feasible single-vote programs the augmented-Lagrangian
        point is inside the box, satisfies every constraint SLSQP
        satisfies, and its objective is no more than 1e-3 relative above
        SLSQP's (a lower one is a better local optimum, not an error)."""
        problem = single_vote_program(seed)
        if problem is None:
            return
        reference = solve_sgp_slsqp(problem)
        assume(reference.all_satisfied)
        solution = solve_sgp(problem)
        assert np.all(solution.x >= problem.lower)
        assert np.all(solution.x <= problem.upper)
        held = problem.constraint_values(reference.x) <= 1e-9
        assert np.all(problem.constraint_values(solution.x)[held] <= 1e-9)
        assert solution.objective_value <= (
            reference.objective_value * (1.0 + 1e-3) + 1e-9
        )

    @pytest.mark.xfail(strict=True, reason=(
        "known gap: the first low-penalty round pushes the weights into a "
        "basin where the constraint barely responds, and the solve ends "
        "at a feasible point 36% above SLSQP's objective"
    ))
    def test_nonconvex_trap_matches_slsqp(self):
        problem = single_vote_program(403)
        reference = solve_sgp_slsqp(problem)
        solution = solve_sgp(problem)
        assert reference.all_satisfied and solution.all_satisfied
        assert solution.objective_value <= reference.objective_value * (1.0 + 1e-3)

