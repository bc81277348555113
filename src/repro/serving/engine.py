"""The versioned similarity-serving engine.

The seed serving path rebuilt the full CSR adjacency matrix from the
graph's Python dicts on *every* ``QASystem.ask()`` — an ``O(|E|)``
reconstruction per question that dwarfs the ``O(L·|E|)`` propagation the
truncated inverse P-distance (Section IV-A) was designed to make cheap.
:class:`SimilarityEngine` turns the graph into a long-lived serving
asset:

- it owns one cached sparse adjacency matrix over the *persistent*
  nodes (entities + answers) and keeps it up to date incrementally from
  the graph's mutation events (:meth:`~repro.graph.digraph.WeightedDiGraph.add_listener`):
  optimizer weight updates patch the CSR data array in place through a
  precomputed ``(head, tail) -> position`` map, and new answer
  (document) nodes append one CSR row — no rebuild in either case;
- query nodes never enter the matrix at all.  A query has out-links
  only, so no walk mass ever returns to it: seeding the propagation
  directly with the query's out-link weights is *bitwise identical* to
  running the dynamic program with the query row/column present (the
  removed entries only ever multiply zero mass).  Attaching or
  detaching a query therefore costs the engine nothing;
- score vectors live in a bounded LRU keyed on the engine's *matrix
  epoch* — a counter bumped only when the matrix contents actually
  change (rebuild, weight patch, row append).  Repeated questions
  against an unchanged matrix are served from the cache even while
  transient query nodes churn;
- optimizer weight patches do **not** cold-invalidate the LRU: the
  engine computes the exact correction each cached vector needs via
  delta propagation (:mod:`repro.serving.delta` — work scales with the
  changed edges' L-hop neighborhood, not ``|E|``) and re-keys the
  patched entries to the new epoch, so the serve-vote-optimize-serve
  loop keeps its caches warm.  When the patch is too dense for
  localization to pay off, the engine falls back to full propagation
  with an honest epoch bump (cold invalidation, bitwise identical to
  the pre-delta behaviour);
- every engine reports into the metrics registry as ``engine_*``
  series labelled ``engine="<n>"`` (cache hits/misses, patches, row
  appends, rebuilds avoided, per-stage latency histograms), read by
  serving dashboards and the throughput benchmark.

Batched serving (:meth:`score_batch`) stacks the seed vectors of many
queries into one dense block and shares the ``L`` sparse matrix
products, mirroring :func:`repro.similarity.inverse_pdistance.inverse_pdistance_batch`.

Propagation itself is pluggable: the engine resolves
``params.backend`` through the :mod:`repro.similarity.backend`
registry.  The default ``"dense"`` backend reproduces the historical
dense DP bitwise; the ``"push"`` backend
(:mod:`repro.similarity.push`) serves from a sparse residual frontier
over an engine-maintained out-edge CSR, touching only edges near the
query.  Push results carry their touched-node set and derived error
bound, which lets :meth:`_flush` repair push state across optimizer
weight patches the way delta propagation repairs dense vectors: a
cached push entry whose touched set avoids every patched edge head is
provably still within its error budget and is re-keyed verbatim;
otherwise it is re-pushed locally on the patched matrix.
"""

from __future__ import annotations

import itertools
import threading
from collections import OrderedDict
from collections.abc import Callable, Iterable, Mapping, Sequence

import numpy as np
from scipy import sparse

from repro.devtools.contracts import (
    check_delta_scores,
    check_finite_csr_data,
    check_push_scores,
    contracts_enabled,
)
from repro.errors import EvaluationError, NodeNotFoundError
from repro.graph.augmented import AugmentedGraph
from repro.graph.digraph import Node
from repro.obs import MetricsRegistry, Ops, event, get_registry
from repro.obs.recorder import active_recorder
from repro.serving.delta import (
    DEFAULT_DELTA_DENSITY_THRESHOLD,
    DeltaCorrector,
    DeltaFallbackError,
)
from repro.serving.params import SimilarityParams
from repro.utils.sync import mutator, serve_path
from repro.similarity.backend import PropagationBackend, resolve_backend
from repro.similarity.push import PropagationResult, amplification_bound

#: Default bound on the per-query score-vector LRU cache.
DEFAULT_CACHE_SIZE = 256

#: A single revalidation re-pushing this many cached entries is a
#: "repush storm" — the optimizer's patch frontier keeps hitting the
#: cached queries' touched sets — and fires the flight recorder.
REPUSH_STORM_THRESHOLD = 8

#: Distinguishes the metric series of multiple engines in one process.
_ENGINE_SEQ = itertools.count()


class SimilarityEngine:
    """Versioned, incrementally maintained similarity serving.

    Parameters
    ----------
    aug:
        The live augmented graph to serve.  The engine registers a
        mutation listener on ``aug.graph`` and must be :meth:`close`\\ d
        (or garbage-collected) when no longer needed.
    params:
        Default :class:`SimilarityParams`; per-call overrides accepted.
    cache_size:
        Bound on the per-query score-vector LRU cache (0 disables it).
    registry:
        The :class:`~repro.obs.MetricsRegistry` receiving the engine's
        ``engine_*`` metric series (labeled ``engine="<n>"`` per
        instance).  Defaults to the process-wide registry.
    delta_revalidation:
        Keep cached score vectors warm across optimizer weight patches
        by applying exact delta-propagation corrections
        (:mod:`repro.serving.delta`) instead of cold-invalidating the
        LRU.  Off, every weight patch discards the whole cache (the
        pre-delta behaviour).
    delta_density_threshold:
        Fallback budget for delta revalidation, as a multiple of the
        matrix's edge count: when the correction frontier outgrows
        ``threshold x |E|`` nonzeros, the engine gives up on
        localization and cold-invalidates instead.  ``0`` forces the
        fallback on every patch.

    Notes
    -----
    The engine assumes the paper's augmented-graph construction
    (Section III-A): query nodes have out-links only.  Mutations routed
    through the :class:`~repro.graph.augmented.AugmentedGraph` /
    :class:`~repro.graph.digraph.WeightedDiGraph` APIs are tracked
    automatically; scores are always served at the graph's current
    version.
    """

    def __init__(
        self,
        aug: AugmentedGraph,
        *,
        params: "SimilarityParams | None" = None,
        cache_size: int = DEFAULT_CACHE_SIZE,
        registry: "MetricsRegistry | None" = None,
        delta_revalidation: bool = True,
        delta_density_threshold: float = DEFAULT_DELTA_DENSITY_THRESHOLD,
    ) -> None:
        if cache_size < 0:
            raise ValueError(f"cache_size must be ≥ 0, got {cache_size}")
        if delta_density_threshold < 0:
            raise ValueError(
                f"delta_density_threshold must be ≥ 0, got "
                f"{delta_density_threshold}"
            )
        self._delta_enabled = bool(delta_revalidation)
        self._delta_density_threshold = float(delta_density_threshold)
        self._aug = aug
        # Guards every mutation of the epoch state (matrix, caches,
        # push snapshots) so a background optimizer worker can publish
        # weight-patch epochs while serve threads revalidate lazily.
        # Reads stay lock-free: published objects are copy-on-write and
        # never mutated in place, so a captured reference is a
        # consistent epoch snapshot.  Re-entrant because publish() holds
        # it across apply + _flush, and serve paths re-enter via _flush.
        self._state_lock = threading.RLock()
        self.params = params if params is not None else SimilarityParams()
        self._cache_size = cache_size
        self._cache: "OrderedDict[tuple, np.ndarray]" = OrderedDict()
        self._matrix: "sparse.csr_matrix | None" = None
        # Push-backend serving state, derived lazily from the matrix:
        # the out-edge CSR (the matrix transposed), the position map
        # from matrix.data into its data array (so weight patches hit
        # both in place), the amplification bound ρ, and per-cache-entry
        # push metadata (touched set + error bound) for incremental
        # re-push decisions.
        self._push_adj: "sparse.csr_matrix | None" = None
        self._push_map: "np.ndarray | None" = None
        self._push_rho = 1.0
        self._push_meta: dict[tuple, PropagationResult] = {}
        self._epoch = 0  # bumped only when the matrix contents change
        self._index: dict[Node, int] = {}
        self._pos: dict[tuple[Node, Node], int] = {}
        self._events: list[tuple] = []
        self._listener = self._on_mutation
        aug.graph.add_listener(self._listener)
        # Metric handles and operations are bound once here so hot-path
        # increments are a single attribute add, never a registry lookup.
        self.registry = registry if registry is not None else get_registry()
        self.engine_label = str(next(_ENGINE_SEQ))
        label = {"engine": self.engine_label}
        counter = self.registry.counter
        self._m_builds = counter("engine_builds_total", **label)
        self._m_rebuilds_avoided = counter("engine_rebuilds_avoided_total", **label)
        self._m_weight_patches = counter("engine_weight_patches_total", **label)
        self._m_rows_appended = counter("engine_rows_appended_total", **label)
        self._m_query_events = counter("engine_query_events_ignored_total", **label)
        self._m_cache_hits = counter("engine_cache_hits_total", **label)
        self._m_cache_misses = counter("engine_cache_misses_total", **label)
        self._m_serves = counter("engine_serves_total", **label)
        self._m_batch_serves = counter("engine_batch_serves_total", **label)
        self._m_delta_revalidations = counter(
            "engine_delta_revalidations_total", **label
        )
        self._m_delta_entries = counter(
            "engine_delta_entries_patched_total", **label
        )
        self._m_delta_fallbacks = counter(
            "engine_delta_fallbacks_total", **label
        )
        self._m_delta_rekeys = counter("engine_delta_rekeys_total", **label)
        self._m_push_serves = counter("engine_push_serves_total", **label)
        self._m_push_repushes = counter("engine_push_repushes_total", **label)
        self._m_push_rekeys = counter("engine_push_rekeys_total", **label)
        self._m_stale_drops = counter(
            "engine_stale_cache_drops_total", **label
        )
        self._g_cache_entries = self.registry.gauge("engine_cache_entries", **label)
        self._g_version = self.registry.gauge("engine_graph_version", **label)
        self._ops = Ops(self.registry, "engine.", **label)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @mutator
    def close(self) -> None:
        """Detach from the graph's mutation feed and drop caches."""
        self._aug.graph.remove_listener(self._listener)
        with self._state_lock:
            self._matrix = None
            self._push_adj = None
            self._push_map = None
            self._push_meta.clear()
            self._cache.clear()
        self._events.clear()

    @property
    def version(self) -> int:
        """The served graph's current mutation version."""
        return self._aug.graph.version

    @property
    def cache_size(self) -> int:
        """The configured bound on the per-query score LRU."""
        return self._cache_size

    # ------------------------------------------------------------------
    # mutation feed
    # ------------------------------------------------------------------
    @mutator
    def _on_mutation(self, event: str, *args) -> None:
        # Buffered: events are coalesced and applied lazily at the next
        # serve, so a burst of optimizer updates costs one pass.
        self._events.append((event, *args))

    def _is_transient(self, node: Node) -> bool:
        """Whether ``node`` is (or was) a query node the matrix excludes."""
        if self._aug.is_query(node):
            return True
        # A node that vanished before the flush and never made it into
        # the matrix was a transient attach/detach (detached queries are
        # already gone from the role sets when events are processed).
        return (
            node not in self._index
            and not self._aug.is_answer(node)
            and not self._aug.is_entity(node)
        )

    @mutator
    def _flush(self) -> None:
        """Apply buffered mutations to the cached matrix.

        Runs entirely under ``_state_lock`` so a serve-thread
        revalidation and an optimizer-worker :meth:`publish` serialize.
        Weight patches are applied *copy-on-write*: the CSR data array
        is copied, patched, and rebound as a fresh matrix sharing the
        (immutable) index structure — a propagation that captured the
        previous matrix reference keeps a consistent snapshot of the
        retired epoch instead of seeing a half-patched tear.
        """
        with self._state_lock:
            events, self._events = self._events, []
            if self._matrix is None:
                self._rebuild()
                return
            if not events:
                self._m_rebuilds_avoided.inc()
                return
            self._g_version.set(self.version)
            patches: list[tuple[int, float]] = []
            patch_edges: dict[int, tuple[Node, Node]] = {}
            new_answers: list[Node] = []
            new_answer_set: set[Node] = set()
            rebuild = False
            ignored = 0  # transient-query events, counted in one batch below
            for event in events:
                kind = event[0]
                if kind == "update_weight":
                    _, head, tail, weight = event
                    position = self._pos.get((head, tail))
                    if position is not None:
                        patches.append((position, weight))
                        patch_edges[position] = (head, tail)
                    elif tail in new_answer_set or self._is_transient(head) or (
                        self._is_transient(tail)
                    ):
                        ignored += 1
                    else:
                        rebuild = True
                        break
                elif kind == "add_node":
                    node = event[1]
                    if self._aug.is_answer(node) and node not in self._index:
                        new_answers.append(node)
                        new_answer_set.add(node)
                    elif self._is_transient(node):
                        ignored += 1
                    else:
                        rebuild = True  # a new entity: sparsity pattern changes
                        break
                elif kind == "add_edge":
                    _, head, tail, weight = event
                    if tail in new_answer_set:
                        continue  # the appended row is read from the live graph
                    if self._is_transient(head) or self._is_transient(tail):
                        ignored += 1
                        continue
                    position = self._pos.get((head, tail))
                    if position is not None:
                        patches.append((position, weight))
                        patch_edges[position] = (head, tail)
                    else:
                        rebuild = True
                        break
                else:  # "remove_edge" / "remove_node"
                    involved = event[1:3] if kind == "remove_edge" else event[1:2]
                    if any(self._is_transient(node) for node in involved):
                        ignored += 1
                        continue
                    rebuild = True
                    break
            if ignored:
                self._m_query_events.inc(ignored)
            if rebuild:
                self._rebuild()
                return
            # Whether the cached score vectors still describe the matrix at
            # the (possibly bumped) current epoch.  Delta revalidation keeps
            # it true across weight patches; a fallback makes it false and
            # the stale entries are dropped below.
            cache_valid = True
            if patches:
                matrix = self._matrix
                data = matrix.data.copy()
                positions = np.unique(
                    np.fromiter(
                        (position for position, _ in patches),
                        dtype=np.int64,
                        count=len(patches),
                    )
                )
                track_delta = (
                    self._delta_enabled
                    and self._cache_size > 0
                    and bool(self._cache)
                )
                old_values = data[positions].copy() if track_delta else None
                for position, weight in patches:
                    data[position] = weight
                # Contract seam: every patched CSR entry is a finite positive
                # weight.  No-op unless REPRO_CONTRACTS is on.
                check_finite_csr_data(
                    data,
                    positions=[position for position, _ in patches],
                    seam="engine.patch",
                )
                self._matrix = sparse.csr_matrix(
                    (data, matrix.indices, matrix.indptr),
                    shape=matrix.shape,
                )
                if self._push_adj is not None:
                    # Keep the push out-edge CSR in lock-step with the
                    # matrix (same nonzeros, transposed layout) and grow the
                    # amplification bound ρ if a patched head's out-weight
                    # sum now exceeds it.  ρ is an upper bound, so weight
                    # decreases never lower it — staying high is sound.
                    adj = self._push_adj
                    adj_data = adj.data.copy()
                    adj_data[self._push_map[positions]] = data[positions]
                    heads = np.unique(
                        np.fromiter(
                            (
                                self._index[patch_edges[int(p)][0]]
                                for p in positions
                            ),
                            dtype=np.int64,
                            count=positions.size,
                        )
                    )
                    for row in heads:
                        row_sum = float(
                            adj_data[adj.indptr[row] : adj.indptr[row + 1]].sum()
                        )
                        if row_sum > self._push_rho:
                            self._push_rho = row_sum
                    self._push_adj = sparse.csr_matrix(
                        (adj_data, adj.indices, adj.indptr),
                        shape=adj.shape,
                    )
                self._m_weight_patches.inc(len(patches))
                self._epoch += 1
                if self._cache:
                    if track_delta:
                        cache_valid = self._delta_revalidate(
                            positions, old_values, patch_edges
                        )
                    else:
                        cache_valid = False
            if new_answers:
                try:
                    self._append_answer_rows(new_answers)
                except KeyError:
                    self._rebuild()
                    return
                self._epoch += 1
                if self._cache and cache_valid and self._delta_enabled:
                    # Answer nodes have no out-edges: appending rows cannot
                    # change any cached score, so the vectors carry over to
                    # the new epoch verbatim.
                    self._rekey_cache()
                elif self._cache and self._delta_enabled is False:
                    cache_valid = False
            if self._cache and not cache_valid:
                self._cache.clear()
                self._push_meta.clear()
                self._g_cache_entries.set(0)
            self._m_rebuilds_avoided.inc()

    @mutator
    def revalidate(self) -> None:
        """Apply buffered graph mutations now, off the serve path.

        Serving applies mutations lazily at the next :meth:`scores` /
        :meth:`score_batch` call; optimizer flush paths
        (:meth:`repro.qa.system.QASystem.optimize`,
        :class:`repro.optimize.online.OnlineOptimizer`,
        :func:`repro.optimize.apply.apply_edge_weights`) call this right
        after a solve instead, so the weight-patch burst is folded into
        one delta-revalidation pass *before* the post-optimize traffic
        spike and the first serve after a patch is a plain cache hit.
        """
        self._flush()

    @mutator
    def publish(self, apply: "Callable[[], object]") -> int:
        """Atomically apply a mutation batch and revalidate in one epoch.

        ``apply`` mutates the live graph (typically replaying a solved
        batch's weight patches); the engine holds ``_state_lock`` across
        the mutation *and* the revalidation, so no concurrent serve can
        flush a half-applied batch into an epoch of its own.  This is
        the optimizer worker's publication point: the whole batch lands
        as exactly one weight-patch epoch (plus delta revalidation),
        and serve threads either see the retired epoch or the fully
        published one — never a tear.

        Returns the epoch the batch was published as.
        """
        with self._state_lock:
            apply()
            self._flush()
            return self._epoch

    @property
    def epoch(self) -> int:
        """The current matrix-content epoch (monotonic; racy read is fine)."""
        return self._epoch

    @mutator
    def _rekey_cache(self) -> None:
        """Carry every cached vector verbatim to the current epoch.

        Only sound for matrix changes that provably cannot alter any
        cached score (answer-row appends, zero-delta patches).
        """
        with self._state_lock:
            if not self._cache:
                return
            self._cache = OrderedDict(
                (key[:-1] + (self._epoch,), vector)
                for key, vector in self._cache.items()
            )
            if self._push_meta:
                self._push_meta = {
                    key[:-1] + (self._epoch,): meta
                    for key, meta in self._push_meta.items()
                }
            self._m_delta_rekeys.inc(len(self._cache))

    def _cold_vector(
        self,
        links: "tuple[tuple[Node, float], ...]",
        target_idx: np.ndarray,
        max_length: int,
        restart_prob: float,
        matrix: "sparse.csr_matrix | None" = None,
    ) -> np.ndarray:
        """Un-instrumented reference DP, for contract checking only."""
        matrix = matrix if matrix is not None else self._matrix
        mass = np.zeros(matrix.shape[0])
        for entity, weight in links:
            mass[self._index[entity]] = weight
        damping = 1.0 - restart_prob
        factor = restart_prob * damping
        scores = np.zeros(len(target_idx))
        scores += factor * mass[target_idx]
        for _ in range(max_length - 1):
            mass = matrix @ mass
            factor *= damping
            if not mass.any():
                break
            scores += factor * mass[target_idx]
        return scores

    @mutator
    def _delta_revalidate(
        self,
        positions: np.ndarray,
        old_values: np.ndarray,
        patch_edges: "dict[int, tuple[Node, Node]]",
    ) -> bool:
        """Repair every cached score vector after a weight patch.

        The cache is partitioned by the backend that produced each
        entry (``key[0]``):

        - **dense** entries receive the exact delta-propagation
          correction and are re-keyed to the new epoch; a
          :class:`~repro.serving.delta.DeltaFallbackError` (patch too
          dense) or unknown node drops *only* the dense entries — the
          honest cold-invalidation fallback, now per-kind;
        - **push** entries (tracked in ``_push_meta``) are re-keyed
          verbatim when provably unaffected — no patched edge's head is
          in the entry's touched set and the amplification bound ρ did
          not grow, so both the computed mass and the dropped-mass
          error accounting are unchanged — and re-pushed locally on the
          patched matrix otherwise;
        - entries of any other (third-party) backend are dropped:
          the engine knows no repair rule for them.

        Returns whether the surviving cache is valid at the (already
        bumped) current epoch; repairs happen in place, so this is
        always ``True`` and the caller's wholesale drop never fires.
        """
        deltas = self._matrix.data[positions] - old_values
        changed = np.flatnonzero(deltas)
        if changed.size == 0:
            # The "patch" rewrote identical weights; nothing can differ.
            self._rekey_cache()
            return True
        index = self._index
        entries = list(self._cache.items())
        dense_keys = [key for key, _ in entries if key[0] == "dense"]
        push_keys = [key for key, _ in entries if key in self._push_meta]
        corrected: dict[tuple, np.ndarray] = {}
        dense_ok = True
        if dense_keys:
            max_length = max(key[3] for key in dense_keys)
            with self._ops.op(
                "engine.delta",
                edges=int(changed.size),
                entries=len(dense_keys),
            ) as delta:
                try:
                    rows = np.fromiter(
                        (
                            index[patch_edges[int(p)][1]]
                            for p in positions[changed]
                        ),
                        dtype=np.int64,
                        count=changed.size,
                    )
                    cols = np.fromiter(
                        (
                            index[patch_edges[int(p)][0]]
                            for p in positions[changed]
                        ),
                        dtype=np.int64,
                        count=changed.size,
                    )
                    corrector = DeltaCorrector(
                        self._matrix,
                        rows,
                        cols,
                        deltas[changed],
                        max_length=max_length,
                        density_threshold=self._delta_density_threshold,
                    )
                    for key in dense_keys:
                        _backend, links, targets, length, restart_prob = key[:5]
                        seed_idx = np.fromiter(
                            (index[entity] for entity, _ in links),
                            dtype=np.int64,
                            count=len(links),
                        )
                        seed_weights = np.fromiter(
                            (weight for _, weight in links),
                            dtype=float,
                            count=len(links),
                        )
                        target_idx = np.fromiter(
                            (index[target] for target in targets),
                            dtype=np.int64,
                            count=len(targets),
                        )
                        vector = self._cache[key] + corrector.correction(
                            seed_idx,
                            seed_weights,
                            target_idx,
                            max_length=length,
                            restart_prob=restart_prob,
                            targets_key=targets,
                        )
                        # Contract seam: the revalidated vector must
                        # agree with a cold recompute within tolerance.
                        # No-op unless REPRO_CONTRACTS is on.
                        if contracts_enabled():
                            check_delta_scores(
                                vector,
                                self._cold_vector(
                                    links, target_idx, length, restart_prob
                                ),
                                seam="engine.delta",
                            )
                        vector.setflags(write=False)
                        corrected[key] = vector
                    delta.set(frontier_nnz=corrector.frontier_nnz)
                except (DeltaFallbackError, KeyError) as exc:
                    dense_ok = False
                    corrected.clear()
                    self._m_delta_fallbacks.inc()
                    detail = str(exc) or type(exc).__name__
                    delta.set(fallback=detail)
                    event(
                        "engine.delta_fallback",
                        engine=self.engine_label,
                        entries_dropped=len(dense_keys),
                        edges_changed=int(changed.size),
                        error=detail,
                    )
                    rec = active_recorder()
                    if rec is not None:
                        rec.trigger(
                            "delta_fallback",
                            detail=(
                                f"engine {self.engine_label}: dropped "
                                f"{len(dense_keys)} dense cache entries "
                                f"({detail})"
                            ),
                        )
            if dense_ok:
                self._m_delta_revalidations.inc()
                self._m_delta_entries.inc(len(dense_keys))
        repushed: dict[tuple, PropagationResult] = {}
        dropped: set[tuple] = set()
        push_rekeyed = 0
        if push_keys:
            out_matrix, rho = self._ensure_push_state()
            changed_heads = np.unique(
                np.fromiter(
                    (
                        index[patch_edges[int(p)][0]]
                        for p in positions[changed]
                    ),
                    dtype=np.int64,
                    count=changed.size,
                )
            )
            rekeyed = 0
            for key in push_keys:
                meta = self._push_meta[key]
                if (
                    meta.touched_nodes is not None
                    and rho <= meta.rho
                    and not np.isin(
                        changed_heads, meta.touched_nodes, assume_unique=True
                    ).any()
                ):
                    # The tracked push only ever read out-edges of its
                    # touched nodes, and the dropped-mass accounting
                    # only depends on ρ: with both unchanged the cached
                    # vector is still within its error bound.
                    rekeyed += 1
                    continue
                backend_name, links, targets, length, restart_prob, tol = (
                    key[:6]
                )
                try:
                    backend = resolve_backend(backend_name)
                    target_idx = np.fromiter(
                        (index[target] for target in targets),
                        dtype=np.int64,
                        count=len(targets),
                    )
                    result = self._push_compute(
                        dict(links),
                        target_idx,
                        SimilarityParams(
                            max_length=length,
                            restart_prob=restart_prob,
                            backend=backend_name,
                            push_tolerance=float(tol),
                        ),
                        backend,
                    )
                except (KeyError, EvaluationError):
                    dropped.add(key)
                    continue
                self._m_push_repushes.inc()
                repushed[key] = result
            if rekeyed:
                self._m_push_rekeys.inc(rekeyed)
            push_rekeyed = rekeyed
        # Rebuild the cache in LRU order with new-epoch keys; entries
        # with no repair rule (dense after a fallback, failed re-pushes,
        # unknown backends) simply fall out.  Every surviving vector
        # funnels through the single freeze-then-store below, so the
        # frozen-values invariant (R009) holds by construction.
        new_cache: "OrderedDict[tuple, np.ndarray]" = OrderedDict()
        new_meta: dict[tuple, PropagationResult] = {}
        for key, vector in entries:
            new_key = key[:-1] + (self._epoch,)
            if key in corrected:
                vector = corrected[key]
            elif key in repushed:
                result = repushed[key]
                vector = result.scores
                new_meta[new_key] = result
            elif key in self._push_meta and key not in dropped:
                new_meta[new_key] = self._push_meta[key]
            else:
                continue
            vector.setflags(write=False)
            new_cache[new_key] = vector
        # _flush already holds the lock (re-entrant); the lexical scope
        # marks the swap as the guarded publication point.
        with self._state_lock:
            self._cache = new_cache
            self._push_meta = new_meta
        self._g_cache_entries.set(len(new_cache))
        event(
            "engine.revalidate",
            engine=self.engine_label,
            edges_changed=int(changed.size),
            entries_patched=len(corrected),
            dense_fallback=not dense_ok,
            push_repushes=len(repushed),
            push_rekeys=push_rekeyed,
            entries_kept=len(new_cache),
        )
        rec = active_recorder()
        if rec is not None and len(repushed) >= REPUSH_STORM_THRESHOLD:
            rec.trigger(
                "repush_storm",
                detail=(
                    f"engine {self.engine_label}: one revalidation "
                    f"re-pushed {len(repushed)} cached entries "
                    f"(threshold {REPUSH_STORM_THRESHOLD})"
                ),
            )
        return True

    @mutator
    def _rebuild(self) -> None:
        """Rebuild the base matrix from the live graph (the safe path).

        The base matrix is ``M[i, j] = w(v_j, v_i)`` over every
        non-query node, with per-row entries sorted by column — the same
        canonical layout ``scipy`` produces for the cold
        :meth:`~repro.graph.digraph.WeightedDiGraph.adjacency_matrix`,
        so propagation results match it bitwise.
        """
        with self._state_lock, self._ops.op("engine.rebuild") as rebuild:
            graph = self._aug.graph
            queries = self._aug.query_nodes
            nodes = [node for node in graph.nodes() if node not in queries]
            index = {node: i for i, node in enumerate(nodes)}
            per_row: list[list[tuple[int, float, tuple[Node, Node]]]] = [
                [] for _ in nodes
            ]
            for head in nodes:
                j = index[head]
                for tail, weight in graph.successors(head).items():
                    if tail in queries:
                        continue  # unsupported by construction; be safe
                    per_row[index[tail]].append((j, weight, (head, tail)))
            data: list[float] = []
            indices: list[int] = []
            indptr = [0]
            positions: dict[tuple[Node, Node], int] = {}
            for row in per_row:
                row.sort(key=lambda entry: entry[0])
                for j, weight, key in row:
                    positions[key] = len(data)
                    indices.append(j)
                    data.append(weight)
                indptr.append(len(data))
            n = len(nodes)
            self._matrix = sparse.csr_matrix(
                (
                    np.asarray(data, dtype=float),
                    np.asarray(indices, dtype=np.int32),
                    np.asarray(indptr, dtype=np.int32),
                ),
                shape=(n, n),
            )
            self._index = index
            self._pos = positions
            self._push_adj = None
            self._push_map = None
            self._epoch += 1
            self._g_version.set(self.version)
            rebuild.set(nodes=n, edges=len(data))
        check_finite_csr_data(self._matrix.data, seam="engine.rebuild")
        self._m_builds.inc()

    @mutator
    def _append_answer_rows(self, answers: Sequence[Node]) -> None:
        """Grow the matrix by one empty column + one in-link row per answer.

        Answer nodes have no out-edges, so their columns stay empty; all
        their in-links land in the single new row, which makes CSR row
        append the exact incremental form of a rebuild.
        """
        with self._ops.op("engine.append_rows"), self._state_lock:
            matrix = self._matrix
            data_parts = [matrix.data]
            index_parts = [matrix.indices]
            indptr = list(matrix.indptr)
            offset = len(matrix.data)
            for answer in answers:
                links = self._aug.answer_links(answer)
                entries = sorted(
                    (self._index[entity], float(weight), entity)
                    for entity, weight in links.items()
                )
                self._index[answer] = len(self._index)
                for j, weight, entity in entries:
                    self._pos[(entity, answer)] = offset
                    offset += 1
                data_parts.append(
                    np.asarray([w for _, w, _ in entries], dtype=float)
                )
                index_parts.append(
                    np.asarray([j for j, _, _ in entries], dtype=np.int32)
                )
                indptr.append(offset)
            n = len(self._index)
            self._matrix = sparse.csr_matrix(
                (
                    np.concatenate(data_parts),
                    np.concatenate(index_parts),
                    np.asarray(indptr, dtype=np.int64),
                ),
                shape=(n, n),
            )
            self._push_adj = None
            self._push_map = None
        check_finite_csr_data(self._matrix.data, seam="engine.append_rows")
        self._m_rows_appended.inc(len(answers))

    def _ensure_push_state(self) -> tuple[sparse.csr_matrix, float]:
        """The push backend's out-edge CSR + amplification bound ρ.

        Built lazily as the exact transpose of the in-edge matrix,
        together with a position map ``matrix.data[p] ↔
        push_adj.data[push_map[p]]`` so weight patches update both CSRs
        in place.  The map falls out of transposing a "tag" matrix that
        carries each nonzero's original data position as its value.
        """
        with self._state_lock:
            if self._push_adj is None:
                matrix = self._matrix
                nnz = matrix.nnz
                if nnz:
                    tag = sparse.csr_matrix(
                        (
                            np.arange(1, nnz + 1, dtype=np.float64),
                            matrix.indices,
                            matrix.indptr,
                        ),
                        shape=matrix.shape,
                    )
                    tagged = sparse.csr_matrix(tag.T)
                    source_pos = np.rint(tagged.data).astype(np.int64) - 1
                    self._push_adj = sparse.csr_matrix(
                        (
                            matrix.data[source_pos],
                            tagged.indices.copy(),
                            tagged.indptr.copy(),
                        ),
                        shape=matrix.shape,
                    )
                    push_map = np.empty(nnz, dtype=np.int64)
                    push_map[source_pos] = np.arange(nnz, dtype=np.int64)
                    self._push_map = push_map
                else:
                    self._push_adj = sparse.csr_matrix(matrix.shape)
                    self._push_map = np.empty(0, dtype=np.int64)
                self._push_rho = amplification_bound(self._push_adj)
            return self._push_adj, self._push_rho

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------
    def _resolve_targets(self, targets: "Iterable[Node] | None") -> list[Node]:
        if targets is None:
            return sorted(self._aug.answer_nodes, key=repr)
        return list(targets)

    def _target_indices(self, targets: Sequence[Node]) -> np.ndarray:
        try:
            return np.array([self._index[t] for t in targets], dtype=int)
        except KeyError as exc:
            raise NodeNotFoundError(exc.args[0]) from None

    def _seed_links(self, query: Node) -> dict[Node, float]:
        if not self._aug.is_query(query):
            raise EvaluationError(
                f"{query!r} is not a query node of the augmented graph"
            )
        return self._aug.query_links(query)

    def _cache_key(
        self,
        links: Mapping[Node, float],
        targets: Sequence[Node],
        params: SimilarityParams,
    ) -> tuple:
        # Keyed on the matrix epoch, not the graph version: transient
        # query attach/detach bumps the version but cannot change any
        # served score, so cached vectors stay valid across it.  The
        # out-links are canonicalized (sorted by node repr): two queries
        # with identical links in different insertion order are the same
        # propagation and must share one cache entry.  The backend name
        # leads the key (different kernels may return different
        # vectors), and the push tolerance is part of it so the same
        # query at two error budgets never aliases.
        return (
            params.backend,
            tuple(sorted(links.items(), key=lambda item: repr(item[0]))),
            tuple(targets),
            params.max_length,
            params.restart_prob,
            params.push_tolerance,
            self._epoch,
        )

    def _cache_get(self, key: tuple) -> "np.ndarray | None":
        if not self._cache_size:
            return None
        with self._state_lock:
            scores = self._cache.get(key)
            if scores is None:
                self._m_cache_misses.inc()
                return None
            self._cache.move_to_end(key)
        self._m_cache_hits.inc()
        return scores

    @mutator
    def _cache_put(self, key: tuple, scores: np.ndarray) -> None:
        if not self._cache_size:
            return
        # Cached vectors are handed back by reference on every hit (and
        # corrected by delta revalidation): freeze them so no caller can
        # poison every later hit for the key.
        scores.setflags(write=False)
        with self._state_lock:
            if key[-1] != self._epoch:
                # A publish landed between this serve's key computation
                # and the insert: the vector describes a retired matrix
                # epoch.  Inserting it would hand the next delta
                # revalidation a wrong-basis vector to "correct" onto a
                # live epoch — drop it; the caller still returns its
                # (consistent, retired-epoch) scores.
                self._m_stale_drops.inc()
                return
            self._cache[key] = scores
            self._cache.move_to_end(key)
            while len(self._cache) > self._cache_size:
                evicted, _ = self._cache.popitem(last=False)
                self._push_meta.pop(evicted, None)
            self._g_cache_entries.set(len(self._cache))

    def _seed_arrays(
        self, links: Mapping[Node, float]
    ) -> tuple[np.ndarray, np.ndarray]:
        """A query's out-link mapping as (entity indices, weights)."""
        seed_idx = np.fromiter(
            (self._index[entity] for entity in links),
            dtype=np.int64,
            count=len(links),
        )
        seed_weights = np.fromiter(
            links.values(), dtype=np.float64, count=len(links)
        )
        return seed_idx, seed_weights

    def _propagate_one(
        self,
        links: Mapping[Node, float],
        target_idx: np.ndarray,
        params: SimilarityParams,
        backend: PropagationBackend,
    ) -> np.ndarray:
        """One matrix-level propagation with the first step pre-seeded.

        The dense backend mirrors
        :func:`repro.similarity.inverse_pdistance.inverse_pdistance`
        operation-for-operation from ``t = 1`` on, so the result is
        bitwise equal to a cold recompute on the full graph.
        """
        with self._ops.op("engine.propagate", batch=1, max_length=params.max_length):
            seed_idx, seed_weights = self._seed_arrays(links)
            result = backend.propagate(
                self._matrix, seed_idx, seed_weights, target_idx, params=params
            )
        return result.scores

    def _propagate_many(
        self,
        link_columns: Sequence[Mapping[Node, float]],
        target_idx: np.ndarray,
        params: SimilarityParams,
        backend,
    ) -> np.ndarray:
        """Stacked propagation: one dense block, ``L`` sparse products."""
        with self._ops.op(
            "engine.propagate",
            batch=len(link_columns),
            max_length=params.max_length,
        ):
            seed_columns = [
                self._seed_arrays(links) for links in link_columns
            ]
            result = backend.propagate_batch(
                self._matrix, seed_columns, target_idx, params=params
            )
        return result.scores

    def _push_compute(
        self,
        links: Mapping[Node, float],
        target_idx: np.ndarray,
        params: SimilarityParams,
        backend: PropagationBackend,
    ) -> PropagationResult:
        """One local-push evaluation against the maintained out-CSR.

        Observes the touched-edge histogram (the sublinearity series)
        and, with contracts armed, checks the pushed vector against a
        cold dense recompute within the result's own error bound.
        """
        with self._ops.op("engine.push", batch=1, max_length=params.max_length) as push:
            # Capture the in-matrix and the push state under one lock
            # hold so both belong to the same epoch (a concurrent
            # publish between the two reads would mix epochs).
            with self._state_lock:
                out_matrix, rho = self._ensure_push_state()
                matrix = self._matrix
            seed_idx, seed_weights = self._seed_arrays(links)
            result = backend.propagate(
                matrix,
                seed_idx,
                seed_weights,
                target_idx,
                params=params,
                out_matrix=out_matrix,
                rho=rho,
            )
            push.set(
                edges_touched=int(result.edges_touched),
                error_bound=float(result.error_bound),
            )
        if contracts_enabled():
            links_key = tuple(links.items())
            check_push_scores(
                result.scores,
                self._cold_vector(
                    links_key,
                    target_idx,
                    params.max_length,
                    params.restart_prob,
                    matrix=matrix,
                ),
                budget=result.error_bound,
                seam="engine.push",
            )
        return result

    def _serve_push(
        self,
        links: Mapping[Node, float],
        target_idx: np.ndarray,
        params: SimilarityParams,
        backend: PropagationBackend,
        key: tuple,
    ) -> PropagationResult:
        """Serve one query via push, caching the vector + its metadata.

        Returns the full :class:`PropagationResult` so the caller can
        attribute the query's cost (``edges_touched``) and accuracy
        (``error_bound``) — not just the scores.
        """
        result = self._push_compute(links, target_idx, params, backend)
        self._m_push_serves.inc()
        self._cache_put(key, result.scores)
        with self._state_lock:
            # Only track metadata for entries the put actually kept —
            # a stale-epoch drop (or cache_size=0) stores nothing.
            if key in self._cache:
                self._push_meta[key] = result
        return result

    @serve_path
    def scores(
        self,
        links: Mapping[Node, float],
        targets: "Iterable[Node] | None" = None,
        *,
        params: "SimilarityParams | None" = None,
    ) -> dict[Node, float]:
        """``Φ_L`` scores for a *virtual* query given its entity links.

        ``links`` is the query's normalized out-link mapping
        (``entity -> weight``); the query node itself does not need to
        exist in the graph.  Unknown entities raise
        :class:`~repro.errors.NodeNotFoundError`.
        """
        params = params if params is not None else self.params
        backend = resolve_backend(params)
        target_list = self._resolve_targets(targets)
        self._m_serves.inc()
        self._flush()
        key = self._cache_key(links, target_list, params)
        # Flight-recorder attribution: one event per serve with the
        # backend, cache outcome, epoch, and (for push) the query's own
        # cost/accuracy numbers.
        with self._ops.op(
            "engine.serve",
            engine=self.engine_label,
            backend=params.backend,
            epoch=key[-1],
        ) as serve:
            cached = self._cache_get(key)
            if cached is not None:
                serve.set(cache="hit")
                return {t: float(s) for t, s in zip(target_list, cached)}
            serve.set(cache="miss")
            missing = [e for e in links if e not in self._index]
            if missing:
                raise NodeNotFoundError(missing[0])
            target_idx = self._target_indices(target_list)
            if getattr(backend, "uses_out_matrix", False):
                result = self._serve_push(links, target_idx, params, backend, key)
                serve.set(
                    edges_touched=int(result.edges_touched),
                    error_bound=float(result.error_bound),
                )
                vector = result.scores
            elif getattr(backend, "supports_matrix", False):
                vector = self._propagate_one(links, target_idx, params, backend)
                self._cache_put(key, vector)
            else:
                raise EvaluationError(
                    f"backend {params.backend!r} has no matrix-level kernel; "
                    f"use the graph-level API (repro.similarity.backend."
                    f"get_backend({params.backend!r}).scores(...)) instead"
                )
        return {t: float(s) for t, s in zip(target_list, vector)}

    @serve_path
    def scores_for_query(
        self,
        query: Node,
        targets: "Iterable[Node] | None" = None,
        *,
        params: "SimilarityParams | None" = None,
    ) -> dict[Node, float]:
        """``Φ_L`` scores for an attached query node."""
        return self.scores(self._seed_links(query), targets, params=params)

    @serve_path
    def score_batch(
        self,
        queries: Sequence[Node],
        targets: "Iterable[Node] | None" = None,
        *,
        params: "SimilarityParams | None" = None,
    ) -> dict[Node, dict[Node, float]]:
        """Batched ``Φ_L`` for many attached queries at once.

        Cached queries are answered from the LRU; the remainder share
        one stacked propagation (``L`` sparse-dense products total).
        """
        params = params if params is not None else self.params
        backend = resolve_backend(params)
        target_list = self._resolve_targets(targets)
        query_list = list(queries)
        if not query_list:
            return {}
        self._m_batch_serves.inc()
        self._flush()
        with self._ops.op(
            "engine.serve_batch",
            engine=self.engine_label,
            backend=params.backend,
            queries=len(query_list),
            epoch=self._epoch,
        ) as serve:
            links_by_query = {q: self._seed_links(q) for q in query_list}
            results: dict[Node, dict[Node, float]] = {}
            pending: list[Node] = []
            keys: dict[Node, tuple] = {}
            for query in query_list:
                key = self._cache_key(links_by_query[query], target_list, params)
                keys[query] = key
                cached = self._cache_get(key)
                if cached is not None:
                    results[query] = {
                        t: float(s) for t, s in zip(target_list, cached)
                    }
                else:
                    pending.append(query)
            if pending:
                for query in pending:
                    missing = [
                        e for e in links_by_query[query] if e not in self._index
                    ]
                    if missing:
                        raise NodeNotFoundError(missing[0])
                target_idx = self._target_indices(target_list)
                if getattr(backend, "uses_out_matrix", False):
                    # Push localizes per query; there is no shared dense
                    # block to stack, so batch = a loop of local pushes.
                    for query in pending:
                        push_result = self._serve_push(
                            links_by_query[query],
                            target_idx,
                            params,
                            backend,
                            keys[query],
                        )
                        results[query] = {
                            t: float(s)
                            for t, s in zip(target_list, push_result.scores)
                        }
                elif getattr(backend, "supports_matrix", False) and hasattr(
                    backend, "propagate_batch"
                ):
                    block = self._propagate_many(
                        [links_by_query[q] for q in pending],
                        target_idx,
                        params,
                        backend,
                    )
                    for column, query in enumerate(pending):
                        vector = block[:, column].copy()
                        self._cache_put(keys[query], vector)
                        results[query] = {
                            t: float(s) for t, s in zip(target_list, vector)
                        }
                elif getattr(backend, "supports_matrix", False):
                    for query in pending:
                        vector = self._propagate_one(
                            links_by_query[query], target_idx, params, backend
                        )
                        self._cache_put(keys[query], vector)
                        results[query] = {
                            t: float(s) for t, s in zip(target_list, vector)
                        }
                else:
                    raise EvaluationError(
                        f"backend {params.backend!r} has no matrix-level "
                        f"kernel; use the graph-level API (repro.similarity."
                        f"backend.get_backend({params.backend!r})"
                        f".scores_batch(...)) instead"
                    )
            serve.set(cache_hits=len(query_list) - len(pending))
        return {q: results[q] for q in query_list}

    @serve_path
    def top_k(
        self,
        query: Node,
        *,
        k: "int | None" = None,
        targets: "Iterable[Node] | None" = None,
        params: "SimilarityParams | None" = None,
    ) -> list[tuple[Node, float]]:
        """Ranked top-k ``(answer, score)`` for an attached query node.

        Tie-breaking matches :func:`repro.similarity.top_k.rank_answers`:
        descending score, then ``repr`` of the answer id.
        """
        params = params if params is not None else self.params
        scores = self.scores_for_query(query, targets, params=params)
        limit = k if k is not None else params.k
        if limit < 1:
            raise ValueError(f"k must be at least 1, got {limit}")
        ordered = sorted(scores.items(), key=lambda item: (-item[1], repr(item[0])))
        return ordered[:limit]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        built = self._matrix.shape[0] if self._matrix is not None else None
        return (
            f"<SimilarityEngine version={self.version} nodes={built} "
            f"cache={len(self._cache)}/{self._cache_size}>"
        )
