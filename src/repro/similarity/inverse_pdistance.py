"""The extended inverse P-distance (Section IV-A).

Eq. 7 defines

    Φ(v_q, v_a) = Σ_{z : v_q ⇝ v_a}  P[z] · c · (1 − c)^{|z|}

summed over all walks; Theorem 1 states ``Φ(v_q, v_a) = π_{v_q}(v_a)``.
Section IV-A truncates the sum at walk length ``L`` because ``P[z]``
decays exponentially, giving the efficiently computable ``Φ_L``.

Rather than enumerating walks (``O(d^L)``), this module evaluates the
truncated sum with a dynamic program over probability-mass vectors:

    p_0 = e_{v_q};   p_{t+1} = M · p_t;
    Φ_L(v_q, v_a) = Σ_{t=1..L}  c (1 − c)^t · p_t[v_a]

which is ``O(L · |E|)`` and — crucially for Table VI — *independent of
the number of answers*, since one forward propagation scores every
answer at once.  The symbolic twin (for SGP encoding) lives in
:mod:`repro.paths.polynomial`; the two agree to machine precision,
which is property-tested.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import NodeNotFoundError
from repro.graph.digraph import Node, WeightedDiGraph
from repro.utils.validation import check_fraction

if TYPE_CHECKING:  # serving.params imports this module; avoid the cycle
    from repro.serving.params import SimilarityParams

#: Paper default: paths longer than L = 5 are pruned (Section VII-E).
DEFAULT_MAX_LENGTH = 5

#: Paper default restart probability (Section III-A: "typically c ≈ 0.15").
DEFAULT_RESTART_PROB = 0.15


def _resolve_walk_params(
    max_length: "int | None",
    restart_prob: "float | None",
    params: "SimilarityParams | None",
) -> tuple[int, float]:
    """Accept either ``params=SimilarityParams(...)`` or the bare pair.

    These are the primitive evaluators and the pair is their natural
    signature; ``params`` is accepted for symmetry with the layers
    above.
    """
    if params is not None:
        if max_length is not None or restart_prob is not None:
            raise TypeError(
                "pass either params or max_length/restart_prob, not both"
            )
        return params.max_length, params.restart_prob
    if max_length is None:
        max_length = DEFAULT_MAX_LENGTH
    if restart_prob is None:
        restart_prob = DEFAULT_RESTART_PROB
    return max_length, restart_prob


def inverse_pdistance(
    graph: WeightedDiGraph,
    source: Node,
    targets: Iterable[Node],
    *,
    max_length: "int | None" = None,
    restart_prob: "float | None" = None,
    params: "SimilarityParams | None" = None,
) -> dict[Node, float]:
    """Truncated extended inverse P-distance from ``source`` to each target.

    Parameters
    ----------
    graph:
        The (augmented) graph.
    source:
        Walk start (the query node).
    targets:
        Nodes to score.  Unreachable targets score 0 (Eq. 7: "if there
        is no path from v_q to v_a, Φ(v_q, v_a) = 0").
    max_length:
        The pruning threshold ``L`` (number of edges per walk).
    restart_prob:
        The restart probability ``c``.
    params:
        Optional :class:`~repro.serving.params.SimilarityParams`
        carrying ``max_length``/``restart_prob`` (its ``k`` is ignored
        here); mutually exclusive with the bare arguments.

    Returns
    -------
    dict
        ``target -> Φ_L(source, target)``.
    """
    max_length, restart_prob = _resolve_walk_params(
        max_length, restart_prob, params
    )
    check_fraction("restart_prob", restart_prob)
    if max_length < 1:
        raise ValueError(f"max_length must be at least 1, got {max_length}")
    if not graph.has_node(source):
        raise NodeNotFoundError(source)
    target_list = list(targets)
    index = graph.node_index()
    missing = [t for t in target_list if t not in index]
    if missing:
        raise NodeNotFoundError(missing[0])

    matrix = graph.adjacency_matrix()
    n = len(index)
    mass = np.zeros(n)
    mass[index[source]] = 1.0

    target_idx = np.array([index[t] for t in target_list], dtype=int)
    scores = np.zeros(len(target_list))
    damping = 1.0 - restart_prob
    factor = restart_prob
    for _ in range(max_length):
        mass = matrix @ mass
        factor *= damping
        if not mass.any():
            break  # all walk mass absorbed/expired
        scores += factor * mass[target_idx]
    return {t: float(s) for t, s in zip(target_list, scores)}


def inverse_pdistance_batch(
    graph: WeightedDiGraph,
    sources: Iterable[Node],
    targets: Iterable[Node],
    *,
    max_length: "int | None" = None,
    restart_prob: "float | None" = None,
    params: "SimilarityParams | None" = None,
) -> dict[Node, dict[Node, float]]:
    """``Φ_L`` for many sources at once: one propagation of stacked vectors.

    Evaluating a whole test set query-by-query repeats the sparse
    matrix traversal per query; stacking the one-hot start vectors into
    a matrix turns the dynamic program into ``L`` sparse-dense products
    — the same arithmetic, a fraction of the overhead.  Used by the
    evaluation harness.

    Returns
    -------
    dict
        ``source -> {target -> Φ_L(source, target)}``.
    """
    max_length, restart_prob = _resolve_walk_params(
        max_length, restart_prob, params
    )
    check_fraction("restart_prob", restart_prob)
    if max_length < 1:
        raise ValueError(f"max_length must be at least 1, got {max_length}")
    source_list = list(sources)
    target_list = list(targets)
    index = graph.node_index()
    missing = [n for n in source_list + target_list if n not in index]
    if missing:
        raise NodeNotFoundError(missing[0])
    if not source_list:
        return {}

    matrix = graph.adjacency_matrix()
    n = len(index)
    mass = np.zeros((n, len(source_list)))
    for column, source in enumerate(source_list):
        mass[index[source], column] = 1.0
    target_idx = np.array([index[t] for t in target_list], dtype=int)
    scores = np.zeros((len(target_list), len(source_list)))
    damping = 1.0 - restart_prob
    factor = restart_prob
    for _ in range(max_length):
        mass = matrix @ mass
        factor *= damping
        if not mass.any():
            break
        scores += factor * mass[target_idx, :]
    return {
        source: {
            target: float(scores[t, s]) for t, target in enumerate(target_list)
        }
        for s, source in enumerate(source_list)
    }


def inverse_pdistance_single(
    graph: WeightedDiGraph,
    source: Node,
    target: Node,
    *,
    max_length: "int | None" = None,
    restart_prob: "float | None" = None,
    params: "SimilarityParams | None" = None,
) -> float:
    """``Φ_L(source, target)`` for a single pair."""
    return inverse_pdistance(
        graph,
        source,
        [target],
        max_length=max_length,
        restart_prob=restart_prob,
        params=params,
    )[target]


def similarity_profile(
    graph: WeightedDiGraph,
    source: Node,
    targets: Iterable[Node],
    lengths: Iterable[int],
    *,
    restart_prob: float = DEFAULT_RESTART_PROB,
) -> dict[int, dict[Node, float]]:
    """``Φ_L`` for several values of ``L`` sharing one propagation.

    Used by the Fig. 7(a) experiment, which compares the summed top-k
    similarity ``Sum_L`` across pruning thresholds: the DP runs once up
    to ``max(lengths)`` and snapshots the partial sums at each requested
    ``L``.
    """
    check_fraction("restart_prob", restart_prob)
    length_list = sorted(set(int(length) for length in lengths))
    if not length_list or length_list[0] < 1:
        raise ValueError(f"lengths must be positive integers, got {length_list}")
    if not graph.has_node(source):
        raise NodeNotFoundError(source)
    target_list = list(targets)
    index = graph.node_index()
    missing = [t for t in target_list if t not in index]
    if missing:
        raise NodeNotFoundError(missing[0])

    matrix = graph.adjacency_matrix()
    mass = np.zeros(len(index))
    mass[index[source]] = 1.0
    target_idx = np.array([index[t] for t in target_list], dtype=int)
    scores = np.zeros(len(target_list))
    damping = 1.0 - restart_prob
    factor = restart_prob

    snapshots: dict[int, dict[Node, float]] = {}
    want = set(length_list)
    for step in range(1, length_list[-1] + 1):
        mass = matrix @ mass
        factor *= damping
        scores += factor * mass[target_idx]
        if step in want:
            snapshots[step] = {t: float(s) for t, s in zip(target_list, scores)}
    return snapshots
