"""Failure-injection tests: the pipeline must degrade loudly or safely.

Each test constructs a pathological input — degenerate graphs, hostile
votes, broken solver budgets, a process killed mid-flush — and checks
that the library either raises a typed error, returns a well-formed
"nothing to do" result, or recovers the exact pre-crash state; never a
silently corrupted graph.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.errors import (
    ConvergenceError,
    EvaluationError,
    SGPModelError,
    SGPSolverError,
)
from repro.graph import AugmentedGraph, WeightedDiGraph, random_digraph
from repro.optimize import solve_multi_vote, solve_single_votes, solve_split_merge
from repro.optimize.encoder import encode_votes
from repro.optimize.online import OnlineOptimizer
from repro.persistence import DurableStore
from repro.serving import SimilarityParams
from repro.sgp import SGPProblem, Signomial, solve_sgp
from repro.similarity import inverse_pdistance, ppr_vector, rank_answers
from repro.votes import Vote, VoteSet
from repro.votes.stream import CountPolicy
from tests.durable_scenario import BATCH_SIZE, build_scenario, kg_weights

REPO_ROOT = Path(__file__).resolve().parent.parent


def minimal_aug():
    kg = WeightedDiGraph.from_edges([("x", "y", 0.5)], strict=False)
    aug = AugmentedGraph(kg)
    aug.add_query("q", {"x": 1})
    aug.add_answer("a1", {"y": 1})
    return aug


class TestDegenerateGraphs:
    def test_single_answer_vote_is_trivially_positive(self):
        aug = minimal_aug()
        vote = Vote("q", ("a1",), "a1")
        # No rivals -> no constraints -> SGPModelError from the encoder.
        with pytest.raises(SGPModelError):
            encode_votes(aug, [vote])

    def test_single_answer_through_multi_vote_is_a_noop(self):
        aug = minimal_aug()
        vote = Vote("q", ("a1",), "a1")
        optimized, report = solve_multi_vote(aug, [vote])
        assert report.solution is None
        assert optimized.kg_weight("x", "y") == 0.5

    def test_graph_with_no_kg_edges(self):
        kg = WeightedDiGraph(strict=False)
        kg.add_node("x")
        aug = AugmentedGraph(kg)
        aug.add_query("q", {"x": 1})
        aug.add_answer("a1", {"x": 1})
        aug.add_answer("a2", {"x": 1})
        vote = Vote("q", ("a1", "a2"), "a2")
        optimized, report = solve_multi_vote(aug, [vote])
        assert report.solution is None  # nothing adjustable, graph unchanged

    def test_similarity_on_empty_candidate_pool(self):
        aug = minimal_aug()
        with pytest.raises(EvaluationError):
            rank_answers(aug, "q", answers=[])

    def test_ppr_on_absorbing_chain_converges(self):
        # All mass flows into a sink: power iteration must still settle.
        graph = WeightedDiGraph.from_edges(
            [("a", "b", 1.0), ("b", "c", 1.0)], strict=False
        )
        pi = ppr_vector(graph, "a", method="power")
        assert pi["c"] > 0

    def test_zero_similarity_everywhere(self):
        """Query whose entities reach no answer: rankings are all ties."""
        kg = WeightedDiGraph.from_edges([("x", "y", 0.5)], strict=False)
        kg.add_node("z")
        aug = AugmentedGraph(kg)
        aug.add_query("q", {"z": 1})  # z has no out-edges
        aug.add_answer("a1", {"y": 1})
        aug.add_answer("a2", {"y": 1})
        ranked = rank_answers(aug, "q", params=SimilarityParams(k=2))
        assert all(score == 0.0 for _, score in ranked)
        # Deterministic tie-break keeps the order stable.
        assert [a for a, _ in ranked] == sorted(aug.answer_nodes, key=repr)


class TestHostileVotes:
    def test_all_votes_conflicting(self):
        kg = WeightedDiGraph.from_edges(
            [("x", "y", 0.45), ("x", "z", 0.45)], strict=False
        )
        aug = AugmentedGraph(kg)
        aug.add_query("q", {"x": 1})
        aug.add_answer("a1", {"y": 1})
        aug.add_answer("a2", {"z": 1})
        votes = VoteSet(
            [
                Vote("q", ("a1", "a2"), "a2"),
                Vote("q", ("a1", "a2"), "a1"),
                Vote("q", ("a1", "a2"), "a2"),
                Vote("q", ("a1", "a2"), "a1"),
            ]
        )
        optimized, report = solve_multi_vote(
            aug, votes, feasibility_filter=False
        )
        # Half the demands are unsatisfiable; the solver reports that
        # honestly and the weights stay inside bounds.
        assert report.num_violated_deviations >= 2
        for edge in optimized.kg_edges():
            assert 0 < edge.weight <= 1.0

    def test_duplicate_votes_are_harmless(self):
        kg = WeightedDiGraph.from_edges(
            [("x", "y", 0.6), ("x", "z", 0.3)], strict=False
        )
        aug = AugmentedGraph(kg)
        aug.add_query("q", {"x": 1})
        aug.add_answer("a1", {"y": 1})
        aug.add_answer("a2", {"z": 1})
        vote = Vote("q", ("a1", "a2"), "a2")
        optimized, report = solve_multi_vote(
            aug, [vote, vote, vote], feasibility_filter=False
        )
        assert report.num_constraints == 3  # one per copy; still solvable
        for edge in optimized.kg_edges():
            assert 0 < edge.weight <= 1.0

    def test_single_vote_driver_survives_unsolvable_votes(self):
        kg = WeightedDiGraph.from_edges([("x", "y", 0.5)], strict=False)
        kg.add_node("island")
        aug = AugmentedGraph(kg)
        aug.add_query("q", {"x": 1})
        aug.add_answer("a1", {"y": 1})
        aug.add_answer("a2", {"island": 1})
        impossible = Vote("q", ("a1", "a2"), "a2")
        optimized, report = solve_single_votes(aug, [impossible] * 3)
        assert report.num_skipped == 3
        assert optimized.kg_weight("x", "y") == 0.5

    def test_split_merge_with_all_positive_votes(self):
        aug = minimal_aug()
        aug.add_answer("a2", {"y": 1})
        votes = [Vote("q", ("a1", "a2"), "a1") for _ in range(4)]
        optimized, report = solve_split_merge(aug, votes)
        # Positive-only votes need no change; merge must not crash.
        assert report.num_clusters >= 1


class TestSolverBudgets:
    def test_tiny_iteration_budget_still_returns(self):
        problem = SGPProblem([0.2, 0.4], lower=0.01, upper=1.0)
        problem.add_constraint(
            Signomial.variable(1) - Signomial.variable(0), margin=0.05
        )
        from tests.test_sgp_solver import distance_objective

        problem.set_objective(distance_objective([0.2, 0.4]))
        solution = solve_sgp(problem, max_iter=1)
        # May be unconverged, but must be inside bounds and report state.
        assert np.all(solution.x >= problem.lower - 1e-12)
        assert np.all(solution.x <= problem.upper + 1e-12)
        assert solution.num_constraints == 1

    def test_power_iteration_budget_error(self):
        graph = random_digraph(30, 3.0, seed=1)
        with pytest.raises(ConvergenceError):
            ppr_vector(graph, next(iter(graph.nodes())), max_iter=1, tol=1e-15)

    def test_solver_failure_propagates(self, monkeypatch):
        """A failing SGP solve surfaces as SGPSolverError, leaves the
        caller's graph untouched, and an online flush keeps its batch
        for the retry."""

        def exploding(*args, **kwargs):
            raise SGPSolverError("injected solver failure")

        monkeypatch.setattr("repro.optimize.multi_vote.solve_sgp", exploding)
        kg = WeightedDiGraph.from_edges(
            [("x", "y", 0.6), ("x", "z", 0.3)], strict=False
        )
        aug = AugmentedGraph(kg)
        aug.add_query("q", {"x": 1})
        aug.add_answer("a1", {"y": 1})
        aug.add_answer("a2", {"z": 1})
        vote = Vote("q", ("a1", "a2"), "a2")
        original = kg_weights(aug)
        with pytest.raises(SGPSolverError):
            solve_multi_vote(aug, [vote], feasibility_filter=False)
        assert kg_weights(aug) == original

        scenario, votes = build_scenario()
        before = kg_weights(scenario)
        online = OnlineOptimizer(scenario, policy=CountPolicy(batch_size=100))
        for queued in votes[:BATCH_SIZE]:
            online.submit(queued)
        with pytest.raises(SGPSolverError):
            online.flush()
        assert kg_weights(scenario) == before
        assert list(online.pending.votes) == votes[:BATCH_SIZE]
        assert online.history == []

        monkeypatch.undo()
        outcome = online.flush()
        assert outcome is not None and outcome.num_votes == BATCH_SIZE


class TestNumericalEdges:
    def test_extremely_small_weights(self):
        kg = WeightedDiGraph.from_edges(
            [("x", "y", 1e-4), ("x", "z", 1e-4)], strict=False
        )
        aug = AugmentedGraph(kg)
        aug.add_query("q", {"x": 1})
        aug.add_answer("a1", {"y": 1})
        aug.add_answer("a2", {"z": 1})
        vote = Vote("q", ("a1", "a2"), "a2")
        optimized, report = solve_multi_vote(
            aug, [vote], feasibility_filter=False
        )
        scores = inverse_pdistance(optimized.graph, "q", ["a1", "a2"])
        assert np.isfinite(scores["a1"]) and np.isfinite(scores["a2"])

    def test_weights_at_upper_bound(self):
        kg = WeightedDiGraph.from_edges(
            [("x", "y", 1.0), ("x", "z", 1.0)], strict=False
        )
        aug = AugmentedGraph(kg)
        aug.add_query("q", {"x": 1})
        aug.add_answer("a1", {"y": 1})
        aug.add_answer("a2", {"z": 1})
        vote = Vote("q", ("a1", "a2"), "a2")
        optimized, _ = solve_multi_vote(aug, [vote], feasibility_filter=False)
        for edge in optimized.kg_edges():
            assert edge.weight <= 1.0 + 1e-12

    def test_long_max_length_does_not_overflow(self):
        aug = minimal_aug()
        scores = inverse_pdistance(aug.graph, "q", ["a1"], max_length=200)
        assert 0 <= scores["a1"] <= 1.0


def crash_dir(tmp_path, name):
    """Durable-store directory for a crash test.

    Honors ``CRASH_TEST_DIR`` so CI can point the tests at a workspace
    path and upload the WAL/snapshot files as artifacts on failure.
    """
    base = os.environ.get("CRASH_TEST_DIR")
    directory = (Path(base) if base else tmp_path) / name
    directory.mkdir(parents=True, exist_ok=True)
    return directory


def reference_weights(upto=None, batch_size=BATCH_SIZE):
    """Edge weights of an uninterrupted run over the shared scenario."""
    aug, votes = build_scenario()
    online = OnlineOptimizer(aug, policy=CountPolicy(batch_size))
    for vote in votes if upto is None else votes[:upto]:
        online.submit(vote)
    return aug, votes, online


class TestCrashRecovery:
    """Kill-mid-flush and torn-tail scenarios against the durable store."""

    def test_kill_mid_flush_recovers_bitwise(self, tmp_path):
        """SIGKILL during the second checkpoint loses nothing.

        A child process streams the shared scenario's votes and dies
        inside its second flush — after the solver mutated its
        in-memory graph, before the checkpoint persisted anything.  The
        parent recovers from what hit disk (first snapshot + WAL tail),
        finishes the stream, and must land on weights bitwise equal to
        an uninterrupted run.
        """
        wal_dir = crash_dir(tmp_path, "kill-mid-flush")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        proc = subprocess.run(
            [
                sys.executable,
                str(REPO_ROOT / "tests" / "durable_crash_child.py"),
                str(wal_dir),
                "2",
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr

        fallback, votes = build_scenario()
        with DurableStore(wal_dir) as store:
            recovered = OnlineOptimizer.recover(
                store,
                fallback=fallback,
                policy=CountPolicy(BATCH_SIZE),
            )
            # The child got through flush #1 (votes 1..3, checkpointed)
            # and died in flush #2 (votes 4..6): replay refires batch 2.
            assert len(recovered.history) == 1
            assert recovered.total_votes_processed == BATCH_SIZE
            for vote in votes[2 * BATCH_SIZE :]:
                recovered.submit(vote)

        reference_aug, _, reference = reference_weights()
        # Batch 1 predates the snapshot, so only batch 2 is in the
        # recovered history; the weights must still match exactly.
        assert len(recovered.history) + 1 == len(reference.history)
        assert kg_weights(recovered.aug) == kg_weights(reference_aug)

    def test_torn_final_wal_record_is_skipped(self, tmp_path):
        """A torn trailing record truncates cleanly; earlier votes survive.

        Simulates a crash mid-``write``: the last WAL line is cut short
        (no terminator).  Recovery must drop exactly that record, keep
        every fsynced vote before it, and land on the same weights as a
        run that never saw the torn vote.
        """
        wal_dir = crash_dir(tmp_path, "torn-tail")
        aug, votes = build_scenario()
        with DurableStore(wal_dir) as store:
            online = OnlineOptimizer(
                aug, policy=CountPolicy(batch_size=100), store=store
            )
            for vote in votes[:5]:
                online.submit(vote)
        wal_path = wal_dir / "votes.wal"
        intact = wal_path.read_bytes()
        wal_path.write_bytes(intact + b'{"seq": 6, "vote": {"que')

        fallback, _ = build_scenario()
        with DurableStore(wal_dir) as store:
            recovered = OnlineOptimizer.recover(
                store,
                fallback=fallback,
                policy=CountPolicy(batch_size=100),
            )
            assert len(recovered.pending) == 5
            assert store.wal.last_seq == 5
            recovered.flush()

        reference_aug, _, reference = reference_weights(upto=5, batch_size=100)
        reference.flush()
        assert kg_weights(recovered.aug) == kg_weights(reference_aug)
