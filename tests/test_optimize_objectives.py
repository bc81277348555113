"""Unit tests for the optimization objectives (Eq. 12, 16-19)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SGPModelError
from repro.optimize.objectives import (
    combined_objective,
    distance_objective,
    sigmoid,
    sigmoid_deviation_objective,
    step_count,
)
from repro.sgp import Signomial


class TestDistance:
    def test_signomial_matches_direct(self):
        """The direct quadratic equals Eq. 12 expanded into signomial terms."""
        x0 = [0.3, 0.7]
        sig = Signomial()
        for var, value in enumerate(x0):
            sig.add_term(1.0, {var: 2.0})
            sig.add_term(-2.0 * value, {var: 1.0})
            sig.add_term(value * value, {})
        direct = distance_objective(x0, 2)
        for point in ([0.3, 0.7], [0.5, 0.5], [0.1, 0.9]):
            x = np.asarray(point)
            assert sig.evaluate(x) == pytest.approx(direct.value(x), abs=1e-12)

    def test_zero_at_start(self):
        x0 = [0.4, 0.6]
        assert distance_objective(x0, 2).value(np.asarray(x0)) == pytest.approx(0.0)

    def test_gradient(self):
        obj = distance_objective([0.5], 1)
        value, grad = obj.value_and_grad(np.array([0.8]))
        assert value == pytest.approx(0.09)
        assert grad[0] == pytest.approx(0.6)

    def test_subset_var_ids(self):
        """Distance over vars {0, 2} of a 4-var problem ignores the rest."""
        obj = distance_objective([0.2, 0.6], 4, var_ids=[0, 2])
        x = np.array([0.5, 99.0, 0.6, 77.0])
        value, grad = obj.value_and_grad(x)
        assert value == pytest.approx(0.09)
        assert grad[1] == 0.0 and grad[3] == 0.0

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(SGPModelError):
            distance_objective([0.1, 0.2], 4, var_ids=[0])

    def test_out_of_range_ids_rejected(self):
        with pytest.raises(SGPModelError):
            distance_objective([0.1], 1, var_ids=[5])


class TestSigmoid:
    def test_limits(self):
        assert sigmoid(1.0, w=300) == pytest.approx(1.0, abs=1e-9)
        assert sigmoid(-1.0, w=300) == pytest.approx(0.0, abs=1e-9)
        assert sigmoid(0.0, w=300) == pytest.approx(0.5)

    def test_paper_fig2_shape(self):
        """With w = 300 the sigmoid is step-like on [−1, 1] (Fig. 2)."""
        assert sigmoid(0.05, w=300) > 0.999
        assert sigmoid(-0.05, w=300) < 0.001

    def test_no_overflow(self):
        assert sigmoid(1e6, w=300) == pytest.approx(1.0, abs=1e-12)
        assert sigmoid(-1e6, w=300) == pytest.approx(0.0, abs=1e-100)

    def test_vectorized(self):
        values = sigmoid(np.array([-1.0, 0.0, 1.0]), w=10)
        assert values.shape == (3,)
        assert values[0] < values[1] < values[2]

    def test_step_count(self):
        assert step_count([-0.1, 0.0, 0.2, 3.0]) == 2
        assert step_count([]) == 0


class TestDeviationObjective:
    def test_counts_violations_smoothly(self):
        obj = sigmoid_deviation_objective([2, 3], 4, shift=1.0, w=300)
        # d' = shift => d = 0 => each sigmoid is 0.5.
        x = np.array([0.5, 0.5, 1.0, 1.0])
        value, grad = obj.value_and_grad(x)
        assert value == pytest.approx(1.0)
        assert grad[0] == 0.0 and grad[1] == 0.0
        assert grad[2] == pytest.approx(300 / 4)  # w L (1-L) at L = 0.5

    def test_saturated_deviations(self):
        obj = sigmoid_deviation_objective([1], 2, shift=1.0, w=300)
        satisfied = np.array([0.5, 0.5])   # d = −0.5
        violated = np.array([0.5, 1.5])    # d = +0.5
        assert obj.value(satisfied) == pytest.approx(0.0, abs=1e-9)
        assert obj.value(violated) == pytest.approx(1.0, abs=1e-9)

    def test_empty_deviation_block(self):
        obj = sigmoid_deviation_objective([], 3)
        value, grad = obj.value_and_grad(np.ones(3))
        assert value == 0.0
        assert np.all(grad == 0.0)

    def test_bad_w(self):
        with pytest.raises(SGPModelError):
            sigmoid_deviation_objective([0], 1, w=0.0)

    def test_out_of_range_ids(self):
        with pytest.raises(SGPModelError):
            sigmoid_deviation_objective([9], 2)

    @given(d=st.floats(min_value=-0.9, max_value=0.9))
    @settings(max_examples=30, deadline=None)
    def test_property_gradient_finite_difference(self, d):
        obj = sigmoid_deviation_objective([0], 1, shift=1.0, w=20)
        x = np.array([1.0 + d])
        _, grad = obj.value_and_grad(x)
        eps = 1e-6
        numeric = (obj.value(x + eps) - obj.value(x - eps)) / (2 * eps)
        assert grad[0] == pytest.approx(numeric, rel=1e-4, abs=1e-7)


class TestCombined:
    def test_eq19_weighting(self):
        distance = distance_objective([0.5], 2, var_ids=[0])
        deviation = sigmoid_deviation_objective([1], 2, shift=1.0, w=300)
        combined = combined_objective(distance, deviation, lambda1=0.25, lambda2=0.75)
        x = np.array([0.8, 1.5])  # distance 0.09, deviation saturated at 1
        assert combined.value(x) == pytest.approx(0.25 * 0.09 + 0.75 * 1.0, abs=1e-6)

    def test_negative_weights_rejected(self):
        distance = distance_objective([0.5], 1)
        deviation = sigmoid_deviation_objective([], 1)
        with pytest.raises(SGPModelError):
            combined_objective(distance, deviation, lambda1=-1.0)
