"""Drive one workload through the production stack and measure it.

The stack is the one ``repro-kg serve --workers 1`` wires: a
:class:`DurableStore` on a scratch directory, an
:class:`OnlineOptimizer` recovered from it, a :class:`SimilarityEngine`
on the live graph, and an :class:`OptimizerWorker` adopting the
optimizer, with engine defaults (dense backend, LRU 256, delta
revalidation on), ``split_merge_threshold=15`` and the program's own
trace sampling at 1 in 100.  The calling thread is the only client
(asks and vote submits); the worker thread is the only other thread.

A run solves one throwaway batch first (so first-call costs of the
solver stack stay out of the numbers), then sets the stack up (repeated
before the pass and again after it, median reported), makes one
measured pass, and applies the correctness gate.  A traced run first makes an untraced reference pass
over the same inputs, then a traced pass whose spans feed the per-layer
metrics; the difference between the two is the tracing overhead.
"""

from __future__ import annotations

import gc
import logging
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import repro.optimize.multi_vote as multi_vote_mod
import repro.optimize.online as online_mod
import repro.optimize.split_merge as split_merge_mod
from repro.devtools.contracts import DELTA_SCORE_TOL
from repro.eval.harness import vote_omega_avg
from repro.obs import get_registry, set_trace_sampling
from repro.optimize.online import OnlineOptimizer
from repro.persistence import DurableStore
from repro.serving.engine import SimilarityEngine
from repro.serving.worker import OptimizerWorker
from repro.similarity.backend import get_backend
from repro.similarity.inverse_pdistance import inverse_pdistance
from repro.votes.stream import CountPolicy

from perfbench.ledger import Patches, Sample, Tracer, Visibility, build_ledger, percentile
from perfbench.workloads import TOP_K, Inputs, build_augmented

logger = logging.getLogger("perfbench")

SPLIT_MERGE_THRESHOLD = 15
#: Set-ups timed before the measured pass, and again after it.
SETUP_REPEATS = 13
#: Pause between set-up repeats.  The machine's speed drifts over
#: seconds, so set-ups spread over the whole run give a median that
#: stands for the run rather than for one instant.
SETUP_GAP = 0.1
#: A submit blocked this long by a full queue counts as failed.
SUBMIT_TIMEOUT = 10.0
#: Longest wait for the worker to publish every acknowledged vote.
DRAIN_TIMEOUT = 60.0
#: Served scores checked against a cold recompute after the last publish.
SCORE_SAMPLE = 16
#: How long before an open-loop event is due the generator stops
#: sleeping and yields instead.
PACE_YIELD_S = 0.0005

clock = time.perf_counter


class Stack:
    """Engine + worker + durable store over one freshly built graph."""

    def __init__(self, inputs: Inputs, store_dir: Path) -> None:
        aug = build_augmented(inputs)
        self.store = DurableStore(store_dir)
        online = OnlineOptimizer.recover(
            self.store,
            fallback=aug,
            policy=CountPolicy(inputs.batch_size),
            split_merge_threshold=SPLIT_MERGE_THRESHOLD,
        )
        self.aug = online.aug
        self.engine = SimilarityEngine(self.aug)
        for query in inputs.warm:
            self.engine.top_k(query, k=TOP_K)
        self.worker = OptimizerWorker.from_online(online, engine=self.engine)
        self.worker.start()

    def close(self) -> None:
        self.worker.stop(drain=True)
        self.engine.close()
        self.store.close()


@dataclass
class Pass:
    """What the client saw during one measured pass."""

    visibility: Visibility = field(default_factory=Visibility)
    ask_latency: list[float] = field(default_factory=list)
    ask_call: list[float] = field(default_factory=list)
    late: list[float] = field(default_factory=list)
    publish_s: list[float] = field(default_factory=list)
    submitted: list = field(default_factory=list)
    asks: int = 0
    asks_failed: int = 0
    votes: int = 0
    votes_failed: int = 0
    worker_errors: int = 0
    start: float = 0.0
    asks_end: float = 0.0
    end: float = 0.0
    batch_elapsed: list[float] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return self.asks + self.votes

    @property
    def failed(self) -> int:
        return (
            self.asks_failed
            + self.votes_failed
            + self.worker_errors
            + len(self.visibility.unpublished())
        )

    def batch_cost(self) -> float:
        """Mean worker seconds per batch: solve (as the program times it) + publish."""
        costs = [a + b for a, b in zip(self.batch_elapsed, self.publish_s)]
        return statistics.fmean(costs) if costs else 0.0


def pace(due: float) -> None:
    """Wait until ``due``: sleep until shortly before it, then yield.

    Waking a sleeping vCPU takes about 0.1 ms and more when the host is
    busy; yielding through the last stretch keeps that out of the
    latency of every open-loop ask.  ``sleep(0)`` releases the
    interpreter lock, so the worker thread runs whenever it wants to.
    """
    delay = due - clock() - PACE_YIELD_S
    if delay > 0:
        time.sleep(delay)
    while clock() < due:
        time.sleep(0)


class Client:
    """The single client thread: open-loop asks and vote submits.

    ``idle`` wraps the calls in which the client waits (a traced run
    records them as idle spans).
    """

    def __init__(self, stack: Stack, run: Pass, idle=lambda fn: fn) -> None:
        self.engine = stack.engine
        self.worker = stack.worker
        self.run = run
        self.pace = idle(pace)
        self.wait_drained = idle(run.visibility.drained.wait)

    def wait_until(self, due: float) -> None:
        self.pace(due)
        self.run.late.append(clock() - due)

    def ask(self, query, since: float) -> None:
        """One ask, its latency counted from ``since``."""
        run = self.run
        run.asks += 1
        started = clock()
        try:
            self.engine.top_k(query, k=TOP_K)
        except Exception:
            run.asks_failed += 1
            logger.exception("ask %r failed", query)
        done = clock()
        run.ask_latency.append(done - since)
        run.ask_call.append(done - started)

    def submit(self, vote, since: float) -> None:
        run = self.run
        run.votes += 1
        try:
            seq = self.worker.submit(vote, timeout=SUBMIT_TIMEOUT)
        except Exception:
            run.votes_failed += 1
            logger.exception("submit of a vote on %r failed", vote.query)
            return
        run.visibility.submitted(seq, since)
        run.submitted.append((seq, vote))


def _stream(client: Client, inputs: Inputs, seconds: float) -> None:
    """Open loop: asks and votes each at a fixed rate, timed from due."""
    events = [(due, 1, i) for i, due in enumerate(inputs.vote_due)]
    num_asks = int(inputs.ask_rate * seconds)
    events += [(i / inputs.ask_rate, 0, i) for i in range(num_asks)]
    events.sort()
    start = client.run.start
    for offset, is_vote, index in events:
        due = start + offset
        client.wait_until(due)
        if is_vote:
            client.submit(inputs.votes[index], due)
        else:
            client.ask(inputs.ask_queries[index % len(inputs.ask_queries)], due)
    client.run.asks_end = clock()


def _install_publish_hook(patches: Patches, stack: Stack, run: Pass) -> None:
    """Stamp each batch's visibility when ``engine.publish`` returns."""
    publish = stack.engine.publish
    history = stack.worker.history

    def hooked(apply):
        started = clock()
        epoch = publish(apply)
        at = clock()
        run.visibility.published(history[-1].last_seq, at)
        run.publish_s.append(at - started)
        return epoch

    patches.set(stack.engine, "publish", hooked)


def _counter(stack: Stack, name: str):
    return stack.engine.registry.counter(name, engine=stack.engine.engine_label)


def install_tracing(tracer: Tracer, patches: Patches, stack: Stack) -> dict:
    """Wrap every layer's entry point where its caller looks it up.

    Returns the engine counters read before the pass, so the caller
    can take their deltas afterwards.
    """
    wrap = patches.wrap
    hits = _counter(stack, "engine_cache_hits_total")

    def solve_post(_state, solution):
        return {
            "nit": solution.nit,
            "success": bool(solution.success),
            "constraints": solution.num_constraints,
        }

    def flush_pre(online):
        return (online.pending_seqs, len(online.pending))

    def flush_post(state, outcome):
        seqs, votes = state
        return {"seqs": list(seqs), "votes": votes, "empty": outcome is None}

    def feasible_pre(_aug, votes, **_kw):
        return len(votes)

    def feasible_post(attempted, result):
        return {"attempted": attempted, "kept": len(result[0])}

    wrap(tracer, multi_vote_mod, "solve_sgp", "sgp.solve_sgp", "sgp", post=solve_post)
    wrap(tracer, OnlineOptimizer, "flush", "optimize.flush", "optimize",
         pre=flush_pre, post=flush_post)
    for module in (online_mod, multi_vote_mod):
        wrap(tracer, module, "solve_multi_vote", "optimize.solve_multi_vote", "optimize")
    wrap(tracer, online_mod, "solve_split_merge", "optimize.solve_split_merge", "optimize")
    wrap(tracer, multi_vote_mod, "encode_votes", "optimize.encode_votes", "optimize")
    for module in (multi_vote_mod, split_merge_mod):
        wrap(tracer, module, "apply_edge_weights", "optimize.apply_edge_weights",
             "optimize")
    wrap(tracer, split_merge_mod, "merge_changes", "optimize.merge", "optimize")
    wrap(tracer, split_merge_mod, "merged_weights", "optimize.merge", "optimize")
    wrap(tracer, multi_vote_mod, "filter_feasible", "votes.filter_feasible", "votes",
         pre=feasible_pre, post=feasible_post)
    wrap(tracer, split_merge_mod, "vote_similarity_matrix", "clustering.cluster",
         "clustering")
    wrap(tracer, split_merge_mod, "cluster_votes", "clustering.cluster_votes",
         "clustering", post=lambda _s, clusters: {"clusters": len(clusters)})
    wrap(tracer, stack.store, "log_vote", "persistence.log_vote", "persistence")
    wrap(tracer, stack.store, "checkpoint", "persistence.checkpoint", "persistence")
    wrap(tracer, stack.worker, "submit", "worker.submit", "serving.worker",
         post=lambda _s, seq: {"seq": seq})
    wrap(tracer, stack.worker.queue, "get_batch", "worker.get_batch", "idle")
    wrap(tracer, stack.engine, "top_k", "engine.top_k", "serving.engine",
         pre=lambda *_a, **_k: hits.value,
         post=lambda before, _r: {"hit": hits.value > before})
    wrap(tracer, stack.engine, "publish", "engine.publish", "serving.engine")
    dense = get_backend("dense")
    for method in ("propagate", "propagate_batch"):
        wrap(tracer, dense, method, "similarity." + method, "similarity")
    return {
        name: _counter(stack, name).value
        for name in (
            "engine_cache_hits_total",
            "engine_cache_misses_total",
            "engine_delta_entries_patched_total",
            "engine_delta_fallbacks_total",
        )
    }


def measure_pass(inputs: Inputs, stack: Stack, seconds: float,
                 tracer: "Tracer | None") -> tuple[Pass, dict]:
    """Drive one pass; returns what the client saw and counter deltas."""
    run = Pass()
    patches = Patches()
    errors = get_registry().counter("optimize_worker_errors_total")
    errors_before = errors.value
    counters: dict = {}

    def idle(fn):
        if tracer is None:
            return fn
        return tracer.wrap(fn, "client." + fn.__name__, "idle")

    try:
        if tracer is not None:
            before = install_tracing(tracer, patches, stack)
        _install_publish_hook(patches, stack, run)
        client = Client(stack, run, idle=idle)
        run.start = clock() + 0.05
        _stream(client, inputs, seconds)
        run.visibility.expect(len(run.submitted))
        if not client.wait_drained(DRAIN_TIMEOUT):
            logger.error("worker did not publish every vote in %ss", DRAIN_TIMEOUT)
        run.end = clock()
        if tracer is not None:
            counters = {
                name: _counter(stack, name).value - value
                for name, value in before.items()
            }
    finally:
        patches.undo()
    run.batch_elapsed = [outcome.elapsed for outcome in stack.worker.history]
    run.worker_errors = int(errors.value - errors_before)
    if stack.worker.last_error is not None and not run.worker_errors:
        run.worker_errors = 1
    return run, counters


# ----------------------------------------------------------------------
# correctness gate
# ----------------------------------------------------------------------
def kg_weights(aug) -> dict:
    return {edge.key: edge.weight for edge in aug.kg_edges()}


def check_replay(inputs: Inputs, run: Pass, live_weights: dict) -> "str | None":
    """Live KG weights equal a single-threaded replay, bitwise."""
    replay = OnlineOptimizer(
        build_augmented(inputs),
        policy=CountPolicy(inputs.batch_size),
        split_merge_threshold=SPLIT_MERGE_THRESHOLD,
    )
    for _seq, vote in sorted(run.submitted, key=lambda item: item[0]):
        replay.submit(vote)
    replay.flush()
    if kg_weights(replay.aug) != live_weights:
        return "live KG weights differ from the single-threaded replay"
    return None


def check_scores(inputs: Inputs, stack: Stack) -> "str | None":
    """Served top-k scores equal a cold recompute within DELTA_SCORE_TOL."""
    queries = sorted(set(inputs.ask_queries[:SCORE_SAMPLE * 8]), key=repr)
    for query in queries[:SCORE_SAMPLE]:
        served = stack.engine.top_k(query, k=TOP_K)
        cold = inverse_pdistance(
            stack.aug.graph, query, [a for a, _ in served],
            params=stack.engine.params,
        )
        for answer, score in served:
            if abs(cold[answer] - score) > DELTA_SCORE_TOL:
                return (
                    f"served score of {answer!r} for {query!r} is {score!r}, "
                    f"cold recompute gives {cold[answer]!r}"
                )
    return None


def check_coverage(run: Pass) -> "str | None":
    """Every WAL seq returned by submit is covered by a published batch."""
    missing = run.visibility.unpublished()
    if missing:
        return f"{len(missing)} acknowledged vote(s) never published: {missing[:5]}"
    return None


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------
@dataclass
class Metric:
    name: str
    value: float
    unit: str
    n: int


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: list[Metric]
    problems: list[str]
    ledger_lines: list[str] = field(default_factory=list)


class Workdir:
    """Numbered scratch directories under one root, removed on exit."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self._count = 0

    def new(self) -> Path:
        self._count += 1
        path = self.root / f"store-{self._count}"
        shutil.rmtree(path, ignore_errors=True)
        return path

    def cleanup(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


def _setup(inputs: Inputs, workdir: Workdir, repeats: int) -> tuple[Stack, list[float]]:
    """Set the stack up ``repeats`` times; keep the last, return the times."""
    times = []
    stack = None
    for _ in range(repeats):
        if stack is not None:
            stack.close()
            stack = None
            time.sleep(SETUP_GAP)
        # The peak then covers only the stack that is kept and its pass.
        gc.collect()
        _reset_peak_rss()
        started = clock()
        stack = Stack(inputs, workdir.new())
        times.append(clock() - started)
    return stack, times


def _reset_peak_rss() -> None:
    """Restart the kernel's resident-set high-water mark from the current RSS."""
    with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
        handle.write("5")


def _peak_rss_mb() -> float:
    """Resident-set high-water mark since the last reset, in MiB."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("/proc/self/status has no VmHWM line")


def _warm_solver(inputs: Inputs) -> None:
    """Solve one batch on a scratch graph so first-call costs stay out of the pass."""
    scratch = OnlineOptimizer(
        build_augmented(inputs),
        policy=CountPolicy(inputs.batch_size),
        split_merge_threshold=SPLIT_MERGE_THRESHOLD,
    )
    for vote in inputs.votes[: inputs.batch_size]:
        scratch.submit(vote)


def _gate(inputs: Inputs, stack: Stack, run: Pass) -> list[str]:
    problems = [check_scores(inputs, stack)]
    stack.close()
    problems.append(check_replay(inputs, run, kg_weights(stack.aug)))
    problems.append(check_coverage(run))
    return [p for p in problems if p is not None]


def run_workload(inputs: Inputs, seconds: float, trace: bool,
                 workdir: Workdir, trace_path: Path) -> Result:
    set_trace_sampling(100)
    _warm_solver(inputs)
    if trace:
        return _traced(inputs, seconds, workdir, trace_path)
    stack, setup_times = _setup(inputs, workdir, SETUP_REPEATS)
    run, _ = measure_pass(inputs, stack, seconds, None)
    rss_mb = _peak_rss_mb()
    problems = _gate(inputs, stack, run)
    last, after = _setup(inputs, workdir, SETUP_REPEATS)
    last.close()
    setup_times += after
    setup = Sample(statistics.median(setup_times), len(setup_times))
    votes = [vote for _seq, vote in run.submitted]
    omega = vote_omega_avg(stack.aug, votes)
    delays = run.visibility.delays()
    published = len(delays)
    last_visible = max(run.visibility.visible.values(), default=run.end)
    metrics = [
        Metric("setup_s", setup.value, "s", setup.n),
        _ms("ask_p50_ms", percentile(run.ask_latency, 50)),
        _ms("ask_p99_ms", percentile(run.ask_latency, 99)),
        Metric("asks_per_s", run.asks / (run.asks_end - run.start), "1/s", run.asks),
        _plain("vote_visible_p50_s", percentile(delays, 50), "s"),
        _plain("vote_visible_p90_s", percentile(delays, 90), "s"),
        Metric("votes_per_s", published / (last_visible - run.start), "1/s", published),
        Metric("omega_avg", omega, "rank", len(votes)),
        Metric("peak_rss_mb", rss_mb, "MB", 1),
        Metric("failed_ratio", run.failed / max(run.attempted, 1), "ratio", run.attempted),
    ]
    return Result(not problems, run.attempted, run.failed, metrics, problems)


def _ms(name: str, sample: Sample) -> Metric:
    return Metric(name, sample.value * 1e3, "ms", sample.n)


def _plain(name: str, sample: Sample, unit: str) -> Metric:
    return Metric(name, sample.value, unit, sample.n)


def _traced(inputs: Inputs, seconds: float, workdir: Workdir,
            trace_path: Path) -> Result:
    reference_stack, _ = _setup(inputs, workdir, 1)
    reference, _ = measure_pass(inputs, reference_stack, seconds, None)
    reference_stack.close()
    stack, _ = _setup(inputs, workdir, 1)
    tracer = Tracer()
    run, counters = measure_pass(inputs, stack, seconds, tracer)
    problems = _gate(inputs, stack, run)
    tracer.write(trace_path)
    metrics, ledger_lines = layer_metrics(tracer, run, counters, reference)
    return Result(not problems, run.attempted, run.failed, metrics, problems,
                  ledger_lines)


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
def _mean_ms(name: str, spans) -> Metric:
    durations = [span.duration for span in spans]
    mean = statistics.fmean(durations) if durations else 0.0
    return Metric(name, mean * 1e3, "ms", len(durations))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, run: Pass, counters: dict,
                  reference: Pass) -> tuple[list[Metric], list[str]]:
    spans = tracer.spans
    ledger = build_ledger(spans, run.start, run.end)
    by_name: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def named(name):
        return by_name.get(name, [])

    def returned(name):
        # Attributes come from the return value; a call that raised has
        # none (the failure is counted and reported by the gate).
        return [s for s in named(name) if s.attrs is not None]

    solves = returned("sgp.solve_sgp")
    flushes = [s for s in returned("optimize.flush") if not s.attrs["empty"]]
    flush_s = sum(s.duration for s in flushes)
    sgp_s = ledger.self_by_layer.get("sgp", 0.0)
    feasibility = returned("votes.filter_feasible")
    cluster_calls = returned("clustering.cluster_votes")
    split_merges = named("optimize.solve_split_merge")
    top_k = returned("engine.top_k")
    submit_end = {s.attrs["seq"]: s.end for s in returned("worker.submit")}
    waits = [
        flush.start - submit_end[seq]
        for flush in flushes
        for seq in flush.attrs["seqs"]
        if seq in submit_end
    ]
    client = threading.current_thread().name
    worker_busy = sum(
        s.duration for s in spans
        if s.parent is None and s.thread != client and s.layer != "idle"
    )
    hits = counters.get("engine_cache_hits_total", 0)
    misses = counters.get("engine_cache_misses_total", 0)
    propagations = named("similarity.propagate") + named("similarity.propagate_batch")
    overhead = _overhead(run, reference)
    late = percentile(run.late, 99)

    metrics = [
        Metric("sgp.solve_s", sgp_s, "s", len(solves)),
        Metric("sgp.nit", _mean_attr(solves, "nit"), "count", len(solves)),
        Metric("sgp.success_ratio",
               _ratio(sum(s.attrs["success"] for s in solves), len(solves)),
               "ratio", len(solves)),
        Metric("sgp.constraints", _mean_attr(solves, "constraints"), "count",
               len(solves)),
        Metric("sgp.solve_share", _ratio(sgp_s, flush_s), "ratio", len(flushes)),
        Metric("optimize.flush_s", flush_s, "s", len(flushes)),
        Metric("optimize.encode_s",
               sum(s.duration for s in named("optimize.encode_votes")), "s",
               len(named("optimize.encode_votes"))),
        _mean_ms("optimize.apply_ms", named("optimize.apply_edge_weights")),
        Metric("optimize.merge_ms",
               _ratio(sum(s.duration for s in named("optimize.merge")), len(split_merges)) * 1e3,
               "ms", len(split_merges)),
        _mean_ms("votes.feasibility_ms", feasibility),
        Metric("votes.kept_ratio",
               _ratio(sum(s.attrs["kept"] for s in feasibility),
                      sum(s.attrs["attempted"] for s in feasibility)),
               "ratio", sum(s.attrs["attempted"] for s in feasibility)),
        Metric("clustering.cluster_ms",
               _ratio(sum(s.duration for s in named("clustering.cluster") + cluster_calls),
                      len(cluster_calls)) * 1e3,
               "ms", len(cluster_calls)),
        Metric("clustering.clusters_per_batch", _mean_attr(cluster_calls, "clusters"),
               "count", len(cluster_calls)),
        _mean_ms("persistence.log_vote_ms", named("persistence.log_vote")),
        _mean_ms("persistence.checkpoint_ms", named("persistence.checkpoint")),
        _mean_ms("worker.submit_ms", named("worker.submit")),
        _plain("worker.queue_wait_s", percentile(waits, 50), "s"),
        Metric("worker.batch_votes", _mean_attr(flushes, "votes"), "count", len(flushes)),
        Metric("worker.busy_frac", _ratio(worker_busy, ledger.window), "ratio", 1),
        _mean_ms("engine.top_k_hit_ms", [s for s in top_k if s.attrs["hit"]]),
        _mean_ms("engine.top_k_miss_ms", [s for s in top_k if not s.attrs["hit"]]),
        Metric("engine.cache_hit_ratio", _ratio(hits, hits + misses), "ratio",
               int(hits + misses)),
        _mean_ms("engine.publish_ms", named("engine.publish")),
        Metric("engine.delta_entries_patched",
               counters.get("engine_delta_entries_patched_total", 0), "count", 1),
        Metric("engine.delta_fallbacks",
               counters.get("engine_delta_fallbacks_total", 0), "count", 1),
        _mean_ms("similarity.propagate_ms", propagations),
        Metric("similarity.propagations", len(propagations), "count", 1),
        _ms("gen.late_p99_ms", late),
        Metric("trace.overhead_frac", overhead, "ratio", 1),
        Metric("trace.wall_s", ledger.window, "s", 1),
        Metric("trace.unattributed_s", ledger.unattributed, "s",
               len(ledger.unattributed_by_thread)),
    ]
    return metrics, _ledger_lines(ledger)


def _mean_attr(spans, key: str) -> float:
    values = [span.attrs[key] for span in spans]
    return statistics.fmean(values) if values else 0.0


def _overhead(traced: Pass, reference: Pass) -> float:
    """Extra time the traced pass spent on the reference pass's work.

    Each pass's cost is its mean ask call time times the reference ask
    count, plus its mean worker time per batch times the reference
    batch count.
    """

    def cost(run: Pass) -> float:
        asks = statistics.fmean(run.ask_call) if run.ask_call else 0.0
        return asks * len(reference.ask_call) + run.batch_cost() * len(reference.publish_s)

    base = cost(reference)
    return cost(traced) / base - 1.0 if base else 0.0


def _ledger_lines(ledger) -> list[str]:
    total = ledger.thread_seconds
    lines = [f"ledger over {ledger.window:.3f}s x {len(ledger.unattributed_by_thread)} "
             f"thread(s) = {total:.3f} thread-seconds"]
    for layer, seconds in sorted(ledger.self_by_layer.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {layer:16s} self {seconds:10.4f}s  {_ratio(seconds, total):7.2%}")
    lines.append(f"  {'unattributed':16s}      {ledger.unattributed:10.4f}s  "
                 f"{_ratio(ledger.unattributed, total):7.2%}")
    accounted = sum(ledger.self_by_layer.values()) + ledger.unattributed
    lines.append(f"  {'sum':16s}      {accounted:10.4f}s  (thread-seconds {total:.4f})")
    return lines
