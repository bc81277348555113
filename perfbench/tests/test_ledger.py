"""Bookkeeping of the span ledger: self time, nesting, percentiles, pairing.

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

import threading
import types

import pytest

from perfbench.ledger import (
    Patches,
    Sample,
    Tracer,
    Visibility,
    build_ledger,
    percentile,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_self_time_subtracts_children_including_same_layer_nesting():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    # A module-like namespace: callers look the entry points up on it,
    # so a wrapper installed there sees the recursive call too (as
    # solve_multi_vote is re-entered through solve_one_cluster).
    layer = types.SimpleNamespace()

    def solve_sgp():
        clock.advance(3.0)

    def solve_one_cluster(depth):
        return layer.solve_multi_vote(depth)

    def solve_multi_vote(depth):
        clock.advance(1.0)
        if depth:
            solve_one_cluster(depth - 1)
        else:
            layer.solve_sgp()
        clock.advance(1.0)

    layer.solve_sgp = solve_sgp
    layer.solve_multi_vote = solve_multi_vote
    patches = Patches()
    patches.wrap(tracer, layer, "solve_sgp", "sgp.solve_sgp", "sgp")
    patches.wrap(tracer, layer, "solve_multi_vote", "optimize.mv", "optimize")

    clock.advance(1.0)
    layer.solve_multi_vote(1)
    patches.undo()
    assert layer.solve_multi_vote is solve_multi_vote

    outer, inner = sorted(
        (s for s in tracer.spans if s.name == "optimize.mv"), key=lambda s: s.start
    )
    (sgp,) = [s for s in tracer.spans if s.layer == "sgp"]
    assert inner.parent == outer.sid and sgp.parent == inner.sid
    assert (outer.duration, inner.duration, sgp.duration) == (7.0, 5.0, 3.0)

    ledger = build_ledger(tracer.spans, 0.0, 10.0)
    assert ledger.self_by_span[outer.sid] == 2.0
    assert ledger.self_by_span[inner.sid] == 2.0
    assert ledger.self_by_layer == {"optimize": 4.0, "sgp": 3.0}
    # One thread over a 10s window: 7s inside spans, 3s unattributed.
    assert ledger.unattributed == 3.0
    assert sum(ledger.self_by_layer.values()) + ledger.unattributed == 10.0


def test_self_time_is_clipped_to_the_window():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    outer = tracer.begin("outer", "a")
    clock.advance(4.0)
    inner = tracer.begin("inner", "b")
    clock.advance(4.0)
    tracer.end(inner)
    clock.advance(2.0)
    tracer.end(outer)
    ledger = build_ledger(tracer.spans, 2.0, 6.0)
    assert ledger.self_by_layer == {"a": 2.0, "b": 2.0}
    assert ledger.unattributed == 0.0


def test_worker_thread_spans_never_parent_under_client_spans():
    tracer = Tracer()
    worker_ready = threading.Event()
    client_open = threading.Event()

    def leaf():
        return None

    def solve():
        return wrapped_leaf()

    wrapped_leaf = tracer.wrap(leaf, "leaf", "sgp")
    wrapped_solve = tracer.wrap(solve, "solve", "optimize")

    def worker():
        client_open.wait(5)
        wrapped_solve()
        worker_ready.set()

    thread = threading.Thread(target=worker, name="worker")
    thread.start()
    client = tracer.begin("engine.top_k", "serving.engine")
    client_open.set()
    assert worker_ready.wait(5)
    tracer.end(client)
    thread.join(5)
    assert not thread.is_alive()

    by_name = {span.name: span for span in tracer.spans}
    assert by_name["solve"].thread == "worker"
    assert by_name["solve"].parent is None
    assert by_name["leaf"].parent == by_name["solve"].sid
    assert by_name["engine.top_k"].thread != "worker"
    threads = {span.sid: span.thread for span in tracer.spans}
    for span in tracer.spans:
        if span.parent is not None:
            assert threads[span.parent] == span.thread


def test_percentile_reports_sample_counts():
    assert percentile([], 50) == Sample(0.0, 0)
    assert percentile([5.0], 99) == Sample(5.0, 1)
    sample = percentile([4.0, 1.0, 3.0, 2.0], 50)
    assert sample == Sample(2.5, 4)
    values = list(range(101))
    assert percentile(values, 99) == Sample(99.0, 101)
    assert percentile(values, 90).n == 101


def test_visibility_pairs_each_seq_with_the_publish_that_carried_it():
    vis = Visibility()
    for seq in range(1, 9):
        vis.submitted(seq, due=float(seq))
    vis.expect(8)
    vis.published(4, at=10.0)
    # The second batch changed no weights; its publish still carries
    # seqs 5..8 through the batch's last WAL seq.
    vis.published(8, at=20.0)
    assert vis.drained.is_set()
    assert vis.batch_of == {1: 1, 2: 1, 3: 1, 4: 1, 5: 2, 6: 2, 7: 2, 8: 2}
    assert sorted(vis.delays()) == sorted(
        [10.0 - s for s in range(1, 5)] + [20.0 - s for s in range(5, 9)]
    )
    assert vis.unpublished() == []


def test_visibility_leaves_later_seqs_unpublished():
    vis = Visibility()
    for seq in (3, 4, 5):
        vis.submitted(seq, due=0.0)
    vis.expect(3)
    vis.published(4, at=1.0)
    vis.published(None, at=2.0)
    assert not vis.drained.is_set()
    assert vis.unpublished() == [5]


@pytest.fixture()
def tiny_stack(tmp_path):
    from perfbench.harness import Stack
    from perfbench.workloads import vote_stream

    inputs = vote_stream(seed=3, seconds=8.0)
    stack = Stack(inputs, tmp_path / "store")
    yield inputs, stack
    stack.close()


def test_publish_hook_pairs_real_batches_including_an_empty_patch(tiny_stack):
    from perfbench.harness import Client, Pass, _install_publish_hook

    inputs, stack = tiny_stack
    # Positive votes (the best answer already first) leave the weights
    # where they are, so the first batch publishes an empty patch.
    positive = [v for v in inputs.votes if v.is_positive]
    negative = [v for v in inputs.votes if not v.is_positive]
    votes = positive[:4] + (negative + positive[4:])[:4]
    assert len(votes) == 8
    run = Pass()
    patches = Patches()
    epochs = [stack.engine.epoch]
    publish = stack.engine.publish
    patches.set(stack.engine, "publish", lambda apply: epochs.append(publish(apply)) or epochs[-1])
    _install_publish_hook(patches, stack, run)
    try:
        client = Client(stack, run)
        for index, vote in enumerate(votes):
            client.submit(vote, float(index))
        run.visibility.expect(len(votes))
        assert run.visibility.drained.wait(60)
    finally:
        patches.undo()
    history = stack.worker.history
    assert len(history) == 2
    assert epochs[1] == epochs[0], "the first batch should publish an empty patch"
    seqs = [seq for seq, _vote in run.submitted]
    assert [run.visibility.batch_of[s] for s in seqs] == [1] * 4 + [2] * 4
    assert max(seqs[:4]) == history[0].last_seq
    assert max(seqs) == history[1].last_seq
