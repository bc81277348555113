"""Unit + property tests for symbolic path polynomials."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SGPModelError
from repro.graph import AugmentedGraph, random_digraph
from repro.paths import EdgeVariableIndex, path_polynomial, path_polynomials
from repro.paths.polynomial import register_reachable_edges, walk_term
from repro.similarity import inverse_pdistance


class TestEdgeVariableIndex:
    def test_register_assigns_dense_ids(self):
        index = EdgeVariableIndex()
        assert index.register("a", "b") == 0
        assert index.register("b", "c") == 1
        assert len(index) == 2

    def test_register_idempotent(self):
        index = EdgeVariableIndex()
        first = index.register("a", "b")
        second = index.register("a", "b")
        assert first == second
        assert len(index) == 1

    def test_id_of_and_edge_of_round_trip(self):
        index = EdgeVariableIndex()
        var = index.register("a", "b")
        assert index.id_of("a", "b") == var
        assert index.edge_of(var) == ("a", "b")

    def test_unknown_edge_raises(self):
        index = EdgeVariableIndex()
        with pytest.raises(SGPModelError):
            index.id_of("x", "y")

    def test_contains(self):
        index = EdgeVariableIndex()
        index.register("a", "b")
        assert index.contains("a", "b")
        assert not index.contains("b", "a")

    def test_initial_values(self, fig1_kg):
        index = EdgeVariableIndex()
        index.register("Outbox", "Email")
        index.register("Email", "SendMessage")
        assert index.initial_values(fig1_kg) == [0.3, 0.6]

    def test_register_reachable_edges_filters(self, fig1_aug):
        index = EdgeVariableIndex()
        edges = list(fig1_aug.graph.edge_keys())
        register_reachable_edges(index, edges, fig1_aug.is_kg_edge)
        registered = set(index.edges())
        assert ("Outbox", "Email") in registered
        assert ("q", "Outbox") not in registered  # query link is constant
        assert ("Outlook", "a3") not in registered  # answer link is constant


class TestWalkTerm:
    def test_fixed_edges_fold_into_coefficient(self, fig1_aug):
        variables = EdgeVariableIndex()
        variables.register("SendMessage", "Outlook")
        walk = ("q", "Outbox", "SendMessage", "Outlook", "a3")
        coeff, exponents = walk_term(fig1_aug.graph, walk, variables, 0.15)
        # q->Outbox (0.33), Outbox->SendMessage (0.5), Outlook->a3 (1.0)
        # are constants; SendMessage->Outlook is the only variable.
        assert coeff == pytest.approx(0.15 * 0.85**4 * 0.33 * 0.5 * 1.0)
        assert exponents == {variables.id_of("SendMessage", "Outlook"): 1.0}

    def test_repeated_edge_gets_exponent_two(self, fig1_aug):
        variables = EdgeVariableIndex()
        variables.register("Outbox", "Email")
        variables.register("Email", "Outbox")
        walk = ("q", "Outbox", "Email", "Outbox", "Email")
        coeff, exponents = walk_term(fig1_aug.graph, walk, variables, 0.15)
        assert exponents[variables.id_of("Outbox", "Email")] == 2.0
        assert exponents[variables.id_of("Email", "Outbox")] == 1.0
        assert coeff == pytest.approx(0.15 * 0.85**4 * 0.33)


class TestPathPolynomial:
    def test_fig1_polynomial_value_matches_paper(self, fig1_aug, fig1_expected_a3):
        variables = EdgeVariableIndex()
        register_reachable_edges(
            variables, fig1_aug.graph.edge_keys(), fig1_aug.is_kg_edge
        )
        polynomial = path_polynomial(
            fig1_aug.graph, "q", "a3", variables, max_length=5, restart_prob=0.15
        )
        x = np.asarray(variables.initial_values(fig1_aug.graph))
        assert polynomial.evaluate(x) == pytest.approx(fig1_expected_a3)

    def test_polynomial_is_posynomial(self, fig1_aug):
        variables = EdgeVariableIndex()
        register_reachable_edges(
            variables, fig1_aug.graph.edge_keys(), fig1_aug.is_kg_edge
        )
        polynomial = path_polynomial(fig1_aug.graph, "q", "a3", variables)
        assert polynomial.is_posynomial()

    def test_unreachable_target_gives_zero_polynomial(self, fig1_aug):
        fig1_aug.graph.add_node("island")
        variables = EdgeVariableIndex()
        polynomial = path_polynomial(fig1_aug.graph, "q", "island", variables)
        assert polynomial.num_terms == 0

    def test_multi_target_matches_single_target(self, fig1_aug):
        variables = EdgeVariableIndex()
        register_reachable_edges(
            variables, fig1_aug.graph.edge_keys(), fig1_aug.is_kg_edge
        )
        combined = path_polynomials(
            fig1_aug.graph, "q", ["a3", "Outlook"], variables, max_length=4
        )
        single = path_polynomial(
            fig1_aug.graph, "q", "a3", variables, max_length=4
        )
        x = np.asarray(variables.initial_values(fig1_aug.graph))
        assert combined["a3"].evaluate(x) == pytest.approx(single.evaluate(x))

    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        max_length=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=20, deadline=None)
    def test_property_symbolic_equals_numeric(self, seed, max_length):
        """The polynomial evaluated at current weights == the numeric DP.

        This is the load-bearing invariant of the whole SGP encoding:
        the symbolic similarity the solver optimizes must agree exactly
        with the numeric similarity used for ranking.
        """
        kg = random_digraph(12, 2.0, seed=seed, out_mass=0.9)
        aug = AugmentedGraph(kg)
        labels = list(kg.nodes())
        aug.add_query("q", {labels[0]: 1, labels[1]: 2})
        aug.add_answer("a", {labels[2]: 1, labels[3]: 1})

        variables = EdgeVariableIndex()
        register_reachable_edges(variables, aug.graph.edge_keys(), aug.is_kg_edge)
        polynomial = path_polynomial(
            aug.graph, "q", "a", variables, max_length=max_length
        )
        x = np.asarray(variables.initial_values(aug.graph))
        symbolic = polynomial.evaluate(x)
        numeric = inverse_pdistance(aug.graph, "q", ["a"], max_length=max_length)["a"]
        assert symbolic == pytest.approx(numeric, rel=1e-10, abs=1e-12)

    def test_polynomial_tracks_weight_changes(self, fig1_aug):
        """Re-evaluating at new weights matches re-running the numeric DP."""
        variables = EdgeVariableIndex()
        register_reachable_edges(
            variables, fig1_aug.graph.edge_keys(), fig1_aug.is_kg_edge
        )
        polynomial = path_polynomial(fig1_aug.graph, "q", "a3", variables)

        fig1_aug.set_kg_weight("SendMessage", "Outlook", 0.45)
        x = np.asarray(variables.initial_values(fig1_aug.graph))
        numeric = inverse_pdistance(fig1_aug.graph, "q", ["a3"])["a3"]
        assert polynomial.evaluate(x) == pytest.approx(numeric, rel=1e-10)
