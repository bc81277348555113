"""Seeded workload generators.

Each generator takes the seed and the run length and returns an
:class:`Inputs`: a knowledge graph, the answer and query attachments,
oracle votes in submission order, and the ask schedule.  The program
only ever sees these generated inputs; the same seed gives the same
inputs.

Why these two workloads (each stresses one part of the loop and
leaves the others quiet, so a change to one layer has a workload that
shows it and one that should not move):

- ``vote_stream`` — the interactive loop on the corrupted helpdesk KG.
  Votes and asks arrive open-loop at fixed rates; ``CountPolicy(4)``
  sends every batch down the monolithic multi-vote path.  The SGP
  solve dominates; asks show how much a background solve delays
  serving.  The ask pool is smaller than the LRU, so serving does
  almost no propagation.
- ``vote_split_merge`` — the same loop with bulk-sized batches.
  Votes arrive open-loop at a fixed rate with ``CountPolicy(16)``, so
  every batch runs split-and-merge (Jaccard similarity, Affinity
  Propagation, per-cluster solves, merge).  Asks arrive open-loop over
  a pool larger than the LRU: about 15% of them miss and
  propagate, so this is where the engine and similarity layers are
  measured.

Two workloads were dropped because their gated figures are CPU time
alone, and on a shared 2-vCPU host whose speed drifts by a third over
minutes they moved more between runs of the same code than the
benchmark's bounds allow:

- read-heavy serving by one closed-loop client on a 30k-edge Gnutella
  stand-in: its asks per second and p50 ask moved 16-30% between
  runs;
- a backlog drain (the whole run's votes submitted at once): a vote's
  visibility there is its place in the queue times the solve cost,
  all CPU time, and its p50 spread 0.19-0.29 of the median over ten
  runs.  ``vote_split_merge`` keeps the split-and-merge path it
  exercised, with votes paced so that their visibility is mostly the
  wait for their batch to fill.

What the seed draws: each workload serves one fixed deployment (the KG,
its answers, the attached queries, and the vote each user would cast),
built from :data:`DEPLOYMENT_SEED`; ``--seed`` draws the traffic — the
order the votes arrive in (hence every batch; ``vote_split_merge``
keeps one fixed order) and which queries are asked.  Redrawing
the deployment per seed would make the solver's cost and the vote
quality differ more between seeds than any change under test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph import AugmentedGraph, helpdesk_graph
from repro.graph.digraph import WeightedDiGraph
from repro.graph.generators import perturb_weights
from repro.votes import GroundTruthOracle, generate_votes_from_oracle
from repro.votes.types import Vote

#: Answers shown per ask and per vote.
TOP_K = 8

#: vote_stream: open-loop vote and ask rates (per second) and the ask
#: pool size, kept below the engine's 256-entry LRU.  An ask that
#: arrives while the worker holds the interpreter lock waits for the
#: next forced switch (up to 5 ms) or, behind a checkpoint's JSON
#: encode, longer.  At 2 votes/s roughly a tenth of asks wait so, which
#: keeps the p50 ask on the serving path; at 8 votes/s about a fifth
#: do, and every upper percentile lands among waits whose length
#: varies widely between runs.
STREAM_VOTE_RATE = 2.0
STREAM_ASK_RATE = 500.0
STREAM_POOL = 64

#: vote_split_merge: open-loop vote and ask rates and the ask pool, an
#: eighth larger than the 256-entry LRU (256 of it warmed).  Each
#: publish drops the cache, so about 15% of asks miss and propagate.
#: With a third missing, the p50 ask fell where hits give way to misses
#: and moved with the hit ratio.  A
#: 16-vote batch fills in 4 s and its split-and-merge solve takes about
#: 0.6 s, so a vote's visibility is mostly the wait for its batch to
#: fill and the worker is busy about a sixth of the time.
SPLIT_MERGE_VOTE_RATE = 4.0
SPLIT_MERGE_ASK_RATE = 500.0
SPLIT_MERGE_POOL = 288

#: Seed of the deployment every run serves; the run's seed draws traffic.
DEPLOYMENT_SEED = 7


@dataclass
class Inputs:
    """Everything a workload feeds the program, generated from a seed."""

    name: str
    kg: WeightedDiGraph
    answers: dict
    queries: dict
    votes: list[Vote]
    #: Due offsets (s) of the votes from the start of the pass.
    vote_due: list[float]
    batch_size: int
    #: Queries warmed into the LRU during set-up.
    warm: list
    #: The query of each open-loop ask, and the rate they arrive at.
    ask_queries: list
    ask_rate: float


def attach(kg: WeightedDiGraph, answers: dict, queries: dict) -> AugmentedGraph:
    """An augmented graph over a copy of ``kg``, attached in a fixed order."""
    aug = AugmentedGraph(kg.copy())
    for answer, links in answers.items():
        aug.add_answer(answer, links)
    for query, links in queries.items():
        aug.add_query(query, links)
    return aug


def build_augmented(inputs: Inputs) -> AugmentedGraph:
    """The deployed augmented graph the program serves and optimizes."""
    return attach(inputs.kg, inputs.answers, inputs.queries)


def _links(rng, entities, count, size) -> list[dict]:
    return [
        {entities[int(p)]: 1 for p in rng.choice(len(entities), size=size, replace=False)}
        for _ in range(count)
    ]


def _oracle_votes(truth_kg, deployed_kg, answers, queries, vote_queries, seed):
    """Oracle votes: users vote for the answer the uncorrupted KG ranks best."""
    votes = generate_votes_from_oracle(
        attach(deployed_kg, answers, queries),
        GroundTruthOracle(attach(truth_kg, answers, queries)),
        queries=vote_queries,
        k=TOP_K,
        seed=seed,
    )
    return list(votes)


def _helpdesk(num_votes: int, pool: int):
    """Corrupted helpdesk KG, 16 answers, vote queries and an ask pool."""
    seed = DEPLOYMENT_SEED
    truth_kg, _ = helpdesk_graph(num_topics=6, entities_per_topic=10, seed=seed)
    deployed_kg = perturb_weights(truth_kg, noise=1.5, seed=seed + 1)
    rng = np.random.default_rng(seed + 2)
    entities = sorted(truth_kg.nodes())
    answers = {f"a{i}": links for i, links in enumerate(_links(rng, entities, 16, 3))}
    vote_queries = [f"v{i}" for i in range(num_votes)]
    pool_queries = [f"p{i}" for i in range(pool)]
    queries = dict(
        zip(vote_queries + pool_queries, _links(rng, entities, num_votes + pool, 2))
    )
    votes = _oracle_votes(
        truth_kg, deployed_kg, answers, queries, vote_queries, seed + 3
    )
    return deployed_kg, answers, queries, votes, pool_queries


def _shuffled(rng, items: list) -> list:
    return [items[int(i)] for i in rng.permutation(len(items))]


def _open_loop(name: str, seed: int, seconds: float, vote_rate: float,
               batch: int, ask_rate: float, pool_size: int, warm: int,
               shuffle_votes: bool) -> Inputs:
    """Votes and asks arriving open-loop at fixed rates for ``seconds``."""
    num_votes = batch * max(1, int(vote_rate * seconds) // batch)
    kg, answers, queries, votes, pool = _helpdesk(num_votes, pool_size)
    rng = np.random.default_rng(seed)
    num_asks = int(ask_rate * seconds)
    return Inputs(
        name=name,
        kg=kg,
        answers=answers,
        queries=queries,
        votes=_shuffled(rng, votes) if shuffle_votes else votes,
        vote_due=[(i + 0.5) / vote_rate for i in range(num_votes)],
        batch_size=batch,
        warm=pool[:warm],
        ask_queries=[pool[int(i)] for i in rng.integers(len(pool), size=num_asks)],
        ask_rate=ask_rate,
    )


def vote_stream(seed: int, seconds: float) -> Inputs:
    return _open_loop(
        "vote_stream", seed, seconds, STREAM_VOTE_RATE, 4,
        STREAM_ASK_RATE, STREAM_POOL, warm=STREAM_POOL, shuffle_votes=True,
    )


def vote_split_merge(seed: int, seconds: float) -> Inputs:
    # The votes keep the deployment's order in every run: reordering
    # them per seed would change every batch's clusters and add their
    # cost variance on top of the machine's own.
    return _open_loop(
        "vote_split_merge", seed, seconds, SPLIT_MERGE_VOTE_RATE, 16,
        SPLIT_MERGE_ASK_RATE, SPLIT_MERGE_POOL, warm=256, shuffle_votes=False,
    )


GENERATORS = {
    "vote_stream": vote_stream,
    "vote_split_merge": vote_split_merge,
}
