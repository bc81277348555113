"""Property-based tests over the whole encode→solve→apply pipeline.

Hypothesis drives random small augmented graphs and random votes through
the optimizer and checks the invariants that must hold for *every*
input, not just the curated fixtures:

- the encoded constraint value at the initial point equals the scaled
  numeric similarity difference (the symbolic/numeric contract);
- solving keeps every edge weight inside its box bounds and every
  out-weight positive;
- a vote that is already satisfied (positive vote) never triggers a
  weight change when it is the only vote and λ2-pressure has nothing to
  fix;
- Ω_avg after optimization is never driven below the no-op baseline by
  more than a rank (the optimizer must not actively vandalize).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SGPModelError
from repro.graph import AugmentedGraph, random_digraph
from repro.optimize import solve_multi_vote
from repro.optimize.encoder import encode_votes
from repro.eval.harness import vote_omega_avg
from repro.serving import SimilarityParams
from repro.similarity import inverse_pdistance, rank_answers
from repro.votes import Vote


def random_workload(seed, *, num_answers=4, num_queries=2, n=12):
    """A random augmented graph plus votes derived from real rankings."""
    rng = np.random.default_rng(seed)
    kg = random_digraph(n, 2.5, seed=seed, out_mass=0.9)
    aug = AugmentedGraph(kg)
    labels = sorted(kg.nodes())
    for a in range(num_answers):
        picks = rng.choice(len(labels), size=2, replace=False)
        aug.add_answer(f"ans{a}", {labels[int(i)]: 1 for i in picks})
    for q in range(num_queries):
        picks = rng.choice(len(labels), size=2, replace=False)
        aug.add_query(f"qry{q}", {labels[int(i)]: 1 for i in picks})

    votes = []
    for q in range(num_queries):
        ranked = rank_answers(aug, f"qry{q}", params=SimilarityParams(k=num_answers))
        answers = tuple(a for a, _ in ranked)
        if len(answers) < 2:
            continue
        best = answers[int(rng.integers(0, len(answers)))]
        votes.append(Vote(f"qry{q}", answers, best))
    return aug, votes


class TestEncoderContract:
    @given(seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=20, deadline=None)
    def test_property_constraint_values_match_numeric(self, seed):
        """Every encoded constraint's value at x0 equals the scaled
        numeric similarity difference — for arbitrary graphs/votes."""
        aug, votes = random_workload(seed)
        if not votes:
            return
        try:
            encoded = encode_votes(
                aug, votes, use_deviations=False, margin=0.0
            )
        except SGPModelError:
            return  # nothing adjustable: a legal degenerate case
        values = encoded.problem.constraint_values(encoded.problem.x0)
        for value, vote_idx, vote in zip(
            values, encoded.constraint_votes,
            (encoded.votes[i] for i in encoded.constraint_votes),
        ):
            scores = inverse_pdistance(
                aug.graph, vote.query, vote.ranked_answers
            )
            best = scores[vote.best_answer]
            if best <= 0:
                continue
            rivals = [
                (scores[a] - best) / best for a in vote.others()
            ]
            # The constraint's value must be one of the rival gaps.
            assert any(value == pytest.approx(r, rel=1e-6, abs=1e-9)
                       for r in rivals)


class TestSolvedGraphInvariants:
    @given(seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=10, deadline=None)
    def test_property_weights_stay_legal(self, seed):
        aug, votes = random_workload(seed)
        if not votes:
            return
        optimized, _ = solve_multi_vote(
            aug, votes, feasibility_filter=False
        )
        for edge in optimized.kg_edges():
            assert 0.0 < edge.weight <= 1.0 + 1e-9

    @given(seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=10, deadline=None)
    def test_property_omega_never_collapses(self, seed):
        """Optimization must not leave the vote set clearly worse off."""
        aug, votes = random_workload(seed)
        if not votes:
            return
        optimized, _ = solve_multi_vote(
            aug, votes, feasibility_filter=False
        )
        assert vote_omega_avg(optimized, votes) >= -1.0

    @given(seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=10, deadline=None)
    def test_property_lone_positive_vote_changes_nothing_needed(self, seed):
        """A single already-satisfied vote: rankings stay satisfied."""
        aug, votes = random_workload(seed)
        positives = [v for v in votes if v.is_positive]
        if not positives:
            return
        vote = positives[0]
        optimized, _ = solve_multi_vote(
            aug, [vote], feasibility_filter=False
        )
        scores = inverse_pdistance(
            optimized.graph, vote.query, vote.ranked_answers
        )
        best = scores[vote.best_answer]
        assert all(best >= scores[a] - 1e-12 for a in vote.others())

    def test_satisfied_positive_vote_leaves_weights_bit_identical(self):
        """A positive vote whose constraints already hold needs no edit:
        the solve hands back every edge weight exactly as it was."""
        aug, votes = random_workload(1, num_answers=6, num_queries=6)
        vote = next(v for v in votes if v.is_positive)
        before = {edge.key: edge.weight for edge in aug.kg_edges()}
        optimized, report = solve_multi_vote(
            aug, [vote], feasibility_filter=False
        )
        assert report.changed_edges == {}
        assert {e.key: e.weight for e in optimized.kg_edges()} == before
