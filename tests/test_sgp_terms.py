"""Unit + property tests for the signomial algebra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SGPModelError
from repro.sgp import SGPProblem, Signomial


def make_signomial():
    """2*x0^2*x1 - 3*x1 + 5"""
    return Signomial.from_terms(
        [(2.0, {0: 2, 1: 1}), (-3.0, {1: 1}), (5.0, {})]
    )


class TestConstruction:
    def test_constant(self):
        sig = Signomial.constant(4.2)
        assert sig.is_constant()
        assert sig.constant_value() == 4.2
        assert sig.evaluate({}) == 4.2

    def test_variable(self):
        sig = Signomial.variable(3)
        assert sig.evaluate({3: 2.5}) == 2.5
        assert sig.variables() == {3}

    def test_like_terms_merge(self):
        sig = Signomial()
        sig.add_term(1.0, {0: 1})
        sig.add_term(2.0, {0: 1})
        assert sig.num_terms == 1
        assert sig.evaluate({0: 3.0}) == 9.0

    def test_cancellation_removes_term(self):
        sig = Signomial()
        sig.add_term(1.5, {0: 2})
        sig.add_term(-1.5, {0: 2})
        assert sig.num_terms == 0
        assert sig.evaluate({0: 7.0}) == 0.0

    def test_zero_exponent_dropped(self):
        sig = Signomial.from_terms([(2.0, {0: 0, 1: 1})])
        assert sig.variables() == {1}

    def test_negative_var_id_rejected(self):
        with pytest.raises(SGPModelError):
            Signomial.from_terms([(1.0, {-1: 2})])

    def test_nonfinite_coeff_rejected(self):
        sig = Signomial()
        with pytest.raises(SGPModelError):
            sig.add_term(float("nan"), {0: 1})


class TestInspection:
    def test_posynomial_detection(self):
        assert Signomial.from_terms([(1.0, {0: 1}), (2.0, {1: 2})]).is_posynomial()
        assert not make_signomial().is_posynomial()

    def test_constant_value_raises_for_nonconstant(self):
        with pytest.raises(SGPModelError):
            make_signomial().constant_value()


class TestAlgebra:
    def test_add(self):
        total = make_signomial() + Signomial.variable(1) * 3.0
        # -3 x1 + 3 x1 cancels, leaving 2 x0^2 x1 + 5.
        assert total.num_terms == 2
        assert total.evaluate({0: 1.0, 1: 10.0}) == pytest.approx(2.0 * 10.0 + 5.0)

    def test_add_scalar(self):
        sig = Signomial.variable(0) + 2.0
        assert sig.evaluate({0: 1.0}) == 3.0

    def test_sub(self):
        diff = make_signomial() - make_signomial()
        assert diff.num_terms == 0

    def test_rsub(self):
        sig = 1.0 - Signomial.variable(0)
        assert sig.evaluate({0: 0.25}) == 0.75

    def test_neg(self):
        sig = -make_signomial()
        x = {0: 2.0, 1: 3.0}
        assert sig.evaluate(x) == -make_signomial().evaluate(x)

    def test_scalar_mul(self):
        sig = make_signomial() * 2.0
        x = {0: 1.5, 1: 0.5}
        assert sig.evaluate(x) == pytest.approx(2.0 * make_signomial().evaluate(x))

    def test_signomial_mul(self):
        a = Signomial.from_terms([(1.0, {0: 1}), (1.0, {})])  # x0 + 1
        b = Signomial.from_terms([(1.0, {0: 1}), (-1.0, {})])  # x0 - 1
        product = a * b  # x0^2 - 1
        assert product.num_terms == 2
        assert product.evaluate({0: 3.0}) == pytest.approx(8.0)

    def test_copy_is_independent(self):
        sig = make_signomial()
        clone = sig.copy()
        clone.add_term(1.0, {9: 1})
        assert 9 not in sig.variables()


class TestEvaluation:
    def test_evaluate_dict_and_array_agree(self):
        sig = make_signomial()
        as_dict = sig.evaluate({0: 1.5, 1: 2.5})
        as_array = sig.evaluate(np.array([1.5, 2.5]))
        assert as_dict == pytest.approx(as_array)

    def test_nonpositive_variable_rejected(self):
        sig = Signomial.variable(0)
        with pytest.raises(SGPModelError):
            sig.evaluate({0: 0.0})

    def test_gradient_matches_hand_computation(self):
        sig = make_signomial()  # 2 x0^2 x1 - 3 x1 + 5
        grad = sig.gradient({0: 2.0, 1: 3.0})
        assert grad[0] == pytest.approx(2 * 2 * 2.0 * 3.0)  # 4 x0 x1
        assert grad[1] == pytest.approx(2 * 4.0 - 3.0)  # 2 x0^2 - 3


def compiled(sig, num_vars):
    """``sig`` as the one constraint of a program over ``num_vars``
    variables, in the stacked form the solver evaluates."""
    problem = SGPProblem(np.full(num_vars, 0.5))
    problem.add_constraint(sig)
    return problem.compile()


def value_and_grad(stacked, x):
    """The one constraint's value and dense gradient at ``x``."""
    values, terms = stacked.values(x)
    return float(values[0]), stacked.weighted_grad(x, terms, np.ones(1))


class TestCompiled:
    def test_value_matches_exact(self):
        sig = make_signomial()
        x = np.array([1.3, 0.7])
        value, _ = value_and_grad(compiled(sig, 2), x)
        assert value == pytest.approx(sig.evaluate(x))

    def test_grad_matches_exact(self):
        sig = make_signomial()
        x = np.array([1.3, 0.7])
        _, grad = value_and_grad(compiled(sig, 2), x)
        exact = sig.gradient(x)
        assert grad[0] == pytest.approx(exact[0])
        assert grad[1] == pytest.approx(exact[1])

    def test_empty_signomial(self):
        value, grad = value_and_grad(compiled(Signomial(), 3), np.ones(3))
        assert value == 0.0
        assert np.all(grad == 0.0)

    def test_too_few_vars_rejected(self):
        with pytest.raises(SGPModelError):
            compiled(Signomial.variable(5), 3)

    def test_unused_extra_vars_ok(self):
        value, grad = value_and_grad(
            compiled(Signomial.variable(0), 10), np.full(10, 2.0)
        )
        assert value == 2.0
        assert grad[0] == 1.0 and not grad[1:].any()

    @given(
        coeffs=st.lists(
            st.floats(min_value=-5, max_value=5, allow_nan=False), min_size=1, max_size=6
        ),
        x=st.lists(
            st.floats(min_value=0.05, max_value=3.0), min_size=3, max_size=3
        ),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_compiled_matches_exact(self, coeffs, x, data):
        """Stacked (log-space) evaluation equals exact dict evaluation."""
        terms = []
        for coeff in coeffs:
            exponents = {
                var: data.draw(st.integers(min_value=0, max_value=3))
                for var in range(3)
            }
            terms.append((coeff, exponents))
        sig = Signomial.from_terms(terms)
        point = np.asarray(x)
        value, grad = value_and_grad(compiled(sig, 3), point)
        assert value == pytest.approx(sig.evaluate(point), rel=1e-9, abs=1e-9)
        exact_grad = sig.gradient(point)
        for var in range(3):
            assert grad[var] == pytest.approx(exact_grad.get(var, 0.0), rel=1e-9, abs=1e-9)

    @given(
        x=st.lists(st.floats(min_value=0.05, max_value=2.0), min_size=2, max_size=2)
    )
    @settings(max_examples=30, deadline=None)
    def test_property_finite_difference_gradient(self, x):
        """Analytic gradient agrees with central finite differences."""
        stacked = compiled(make_signomial(), 2)
        point = np.asarray(x)
        _, grad = value_and_grad(stacked, point)
        eps = 1e-6
        for var in range(2):
            shift = np.zeros(2)
            shift[var] = eps
            numeric = (
                value_and_grad(stacked, point + shift)[0]
                - value_and_grad(stacked, point - shift)[0]
            ) / (2 * eps)
            assert grad[var] == pytest.approx(numeric, rel=1e-4, abs=1e-6)
