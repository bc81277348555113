"""Ranked top-k answer lists.

Given a query node, the Q&A framework returns the top-k answers ordered
by similarity (Definition 1).  Ties are broken deterministically by the
answers' string representation so that experiments are reproducible
run-to-run — ties are common on synthetic graphs where several answers
can be exactly symmetric.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

from repro.errors import EvaluationError
from repro.graph.augmented import AugmentedGraph
from repro.graph.digraph import Node
from repro.serving.params import SimilarityParams, resolve_similarity_params
from repro.similarity.backend import resolve_backend


def rank_answers(
    aug: AugmentedGraph,
    query: Node,
    *,
    params: "SimilarityParams | None" = None,
    answers: "Iterable[Node] | None" = None,
    engine=None,
) -> list[tuple[Node, float]]:
    """Return the top-k ``(answer, similarity)`` pairs for ``query``.

    Parameters
    ----------
    aug:
        The augmented graph.
    query:
        A query node of ``aug``.
    params:
        The :class:`~repro.serving.params.SimilarityParams` bundle
        (``k``, ``max_length``, ``restart_prob``).
    answers:
        Candidate answers; defaults to every answer node in the graph.
    engine:
        Optional :class:`~repro.serving.engine.SimilarityEngine`.  When
        given, scores come from the engine's cached/incremental matrix
        instead of a cold per-call adjacency rebuild; results are
        bitwise identical for the dense backend.

    Notes
    -----
    Scores are sorted descending; exact ties are ordered by ``repr`` of
    the answer id, which is stable across runs and platforms.
    """
    params = resolve_similarity_params(params)
    if not aug.is_query(query):
        raise EvaluationError(f"{query!r} is not a query node of the augmented graph")
    if answers is not None:
        candidates = list(answers)
        # Entities and queries score plausibly under inverse P-distance
        # and would silently pollute the top-k, so reject them here.
        for candidate in candidates:
            if not aug.is_answer(candidate):
                raise EvaluationError(
                    f"candidate {candidate!r} is not an answer node of the "
                    f"augmented graph"
                )
    else:
        candidates = sorted(aug.answer_nodes, key=repr)
    if not candidates:
        raise EvaluationError("no candidate answers to rank")
    if engine is not None:
        scores = engine.scores_for_query(query, candidates, params=params)
    else:
        scores = resolve_backend(params).scores(
            aug.graph, query, candidates, params=params
        )
    ordered = sorted(scores.items(), key=lambda item: (-item[1], repr(item[0])))
    return ordered[: params.k]


def rank_position(
    ranked: Sequence[tuple[Node, float]] | Sequence[Node],
    answer: Node,
) -> int:
    """1-based position of ``answer`` in a ranked list.

    Accepts either ``(answer, score)`` pairs (as returned by
    :func:`rank_answers`) or a bare answer sequence.  Raises
    :class:`EvaluationError` when the answer is absent, because a silent
    sentinel would corrupt the rank-difference metric Ω (Definition 3).
    """
    for position, item in enumerate(ranked, start=1):
        candidate = item[0] if isinstance(item, tuple) else item
        if candidate == answer:
            return position
    raise EvaluationError(f"answer {answer!r} is not in the ranked list")


def scores_to_ranked_list(scores: Mapping[Node, float]) -> list[tuple[Node, float]]:
    """Sort a ``{answer: score}`` mapping into a deterministic ranked list."""
    return sorted(scores.items(), key=lambda item: (-item[1], repr(item[0])))
