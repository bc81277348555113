"""The paper's core contribution: vote-driven edge-weight optimization.

Pipeline (Sections IV–VI):

1. :mod:`repro.optimize.encoder` turns votes into an SGP program —
   variables are the adjustable edge weights reachable from the votes'
   queries, constraints are the pairwise similarity inequalities, and
   (for the multi-vote solution) per-constraint deviation variables
   absorb conflicts.
2. :mod:`repro.optimize.objectives` builds the objectives: the Eq. 12
   minimal-change distance and the Eq. 17–19 sigmoid count of violated
   constraints.
3. :mod:`repro.optimize.single_vote` is Algorithm 1 (greedy, one SGP
   per negative vote); :mod:`repro.optimize.multi_vote` is the batch
   solution; :mod:`repro.optimize.split_merge` scales the batch solution
   by clustering votes and merging per-cluster results;
   :mod:`repro.optimize.parallel` runs cluster solves on a process pool
   and models the paper's 4-machine distributed deployment.
"""

from repro.optimize.encoder import EncodedProgram, encode_votes
from repro.optimize.report import OptimizeReport
from repro.optimize.objectives import (
    combined_objective,
    distance_objective,
    sigmoid,
    sigmoid_deviation_objective,
    step_count,
)
from repro.optimize.single_vote import SingleVoteReport, solve_single_votes
from repro.optimize.multi_vote import MultiVoteReport, solve_multi_vote
from repro.optimize.split_merge import SplitMergeReport, solve_split_merge
from repro.optimize.merge import merge_changes
from repro.optimize.online import BatchOutcome, OnlineOptimizer
from repro.optimize.parallel import simulated_makespan, solve_clusters_parallel

__all__ = [
    "EncodedProgram",
    "encode_votes",
    "OptimizeReport",
    "distance_objective",
    "sigmoid",
    "step_count",
    "sigmoid_deviation_objective",
    "combined_objective",
    "SingleVoteReport",
    "solve_single_votes",
    "MultiVoteReport",
    "solve_multi_vote",
    "SplitMergeReport",
    "solve_split_merge",
    "merge_changes",
    "simulated_makespan",
    "solve_clusters_parallel",
    "OnlineOptimizer",
    "BatchOutcome",
]
