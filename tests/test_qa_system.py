"""Unit + integration tests for the KG builder, IR baseline, and QASystem."""

import pytest

from repro.errors import CorpusError, EvaluationError, VoteError
from repro.qa import (
    EntityVocabulary,
    QASystem,
    build_knowledge_graph,
    cooccurrence_counts,
    generate_helpdesk_corpus,
    ir_rank,
    ir_scores,
)
from repro.serving import SimilarityParams


@pytest.fixture(scope="module")
def corpus():
    return generate_helpdesk_corpus(
        num_topics=4,
        entities_per_topic=6,
        docs_per_topic=3,
        num_train_questions=25,
        num_test_questions=12,
        seed=7,
    )


@pytest.fixture(scope="module")
def kg(corpus):
    return build_knowledge_graph(corpus.document_texts(), corpus.vocabulary)


class TestCooccurrence:
    def test_counts(self):
        occurrences, cooccurrences = cooccurrence_counts(
            [{"a": 2, "b": 1}, {"a": 1, "c": 3}]
        )
        assert occurrences == {"a": 3, "b": 1, "c": 3}
        assert cooccurrences[("a", "b")] == 1  # min(2, 1)
        assert cooccurrences[("b", "a")] == 1
        assert cooccurrences[("a", "c")] == 1  # min(1, 3)
        assert ("b", "c") not in cooccurrences  # never share a document

    def test_zero_counts_ignored(self):
        occurrences, cooccurrences = cooccurrence_counts([{"a": 0, "b": 2}])
        assert "a" not in occurrences
        assert not cooccurrences


class TestBuildKnowledgeGraph:
    def test_nodes_are_entities(self, corpus, kg):
        assert set(kg.nodes()) <= corpus.vocabulary.entities

    def test_edges_follow_cooccurrence(self, kg):
        # Every edge must have its reverse (co-occurrence is symmetric
        # before conditioning).
        for edge in kg.edges():
            assert kg.has_edge(edge.tail, edge.head)

    def test_out_mass_normalized(self, kg):
        for node in kg.nodes():
            if kg.out_degree(node):
                assert kg.out_weight_sum(node) == pytest.approx(0.9)

    def test_unnormalized_conditional_probabilities(self, corpus):
        raw = build_knowledge_graph(
            corpus.document_texts(), corpus.vocabulary, normalize=False
        )
        for edge in raw.edges():
            assert 0 < edge.weight <= 1.0 + 1e-9

    def test_min_cooccurrence_prunes(self, corpus):
        dense = build_knowledge_graph(corpus.document_texts(), corpus.vocabulary)
        sparse = build_knowledge_graph(
            corpus.document_texts(), corpus.vocabulary, min_cooccurrence=4
        )
        assert sparse.num_edges < dense.num_edges

    def test_bad_min_cooccurrence(self, corpus):
        with pytest.raises(CorpusError):
            build_knowledge_graph(
                corpus.document_texts(), corpus.vocabulary, min_cooccurrence=0
            )


class TestIRBaseline:
    def test_matching_doc_ranks_first(self):
        vocab = EntityVocabulary(["refund", "cart", "coupon"])
        docs = {
            "d_refund": "refund refund policy refund",
            "d_cart": "cart cart item",
        }
        ranked = ir_rank("where is my refund", docs, vocab)
        assert ranked[0][0] == "d_refund"
        assert ranked[0][1] > ranked[1][1]

    def test_overlap_mode(self):
        vocab = EntityVocabulary(["a1", "b2"])
        docs = {"d1": "a1 b2", "d2": "a1"}
        scores = ir_scores("a1 b2", docs, vocab, mode="overlap")
        assert scores["d1"] == 2.0
        assert scores["d2"] == 1.0

    def test_no_entities_scores_zero(self):
        vocab = EntityVocabulary(["refund"])
        scores = ir_scores("nothing relevant", {"d": "also nothing"}, vocab)
        assert scores["d"] == 0.0

    def test_k_truncation_and_tie_break(self):
        vocab = EntityVocabulary(["x9"])
        docs = {"b": "x9", "a": "x9", "c": "nope"}
        ranked = ir_rank("x9", docs, vocab, k=2)
        assert [doc for doc, _ in ranked] == ["a", "b"]  # ties by id

    def test_unknown_mode(self):
        vocab = EntityVocabulary(["x9"])
        with pytest.raises(EvaluationError):
            ir_scores("x9", {}, vocab, mode="bm25")


class TestQASystem:
    @pytest.fixture
    def system(self, corpus, kg):
        qa = QASystem(kg, corpus.vocabulary, params=SimilarityParams(k=8))
        attached = qa.add_documents(corpus.document_texts())
        assert len(attached) == len(corpus.documents)
        return qa

    def test_ask_returns_ranked_list(self, system, corpus):
        question = corpus.train_pairs[0]
        answers = system.ask(question.text, question_id="q0")
        assert 1 <= len(answers) <= 8
        scores = [score for _, score in answers]
        assert scores == sorted(scores, reverse=True)

    def test_ask_without_entities_rejected(self, system):
        with pytest.raises(CorpusError):
            system.ask("completely unrelated words only")

    def test_vote_roundtrip(self, system, corpus):
        question = corpus.train_pairs[0]
        answers = system.ask(question.text, question_id="qv")
        vote = system.vote("qv", answers[-1][0])
        assert vote.is_negative or len(answers) == 1
        assert len(system.pending_votes) == 1

    def test_vote_requires_shown_list(self, system):
        with pytest.raises(VoteError):
            system.vote("never_asked", "doc_x")

    def test_vote_requires_shown_answer(self, system, corpus):
        question = corpus.train_pairs[0]
        system.ask(question.text, question_id="qx")
        with pytest.raises(VoteError):
            system.vote("qx", "not_a_shown_doc")

    def test_optimize_requires_votes(self, system):
        with pytest.raises(VoteError):
            system.optimize()

    def test_optimize_unknown_strategy(self, system, corpus):
        question = corpus.train_pairs[0]
        answers = system.ask(question.text, question_id="qs")
        system.vote("qs", answers[0][0])
        with pytest.raises(ValueError):
            system.optimize(strategy="quantum")

    @pytest.mark.parametrize("strategy", ["multi", "single", "split-merge"])
    def test_optimize_strategies_run(self, system, corpus, strategy):
        question = corpus.train_pairs[1]
        answers = system.ask(question.text, question_id=f"q_{strategy}")
        if len(answers) < 2:
            pytest.skip("need at least two answers for a negative vote")
        system.vote(f"q_{strategy}", answers[1][0])
        report = system.optimize(strategy=strategy)
        assert report is not None
        assert len(system.pending_votes) == 0  # votes were consumed

    def test_optimize_promotes_voted_answer(self, system, corpus):
        """The headline behaviour: after a negative vote + optimize, the
        voted answer ranks strictly higher on the same question.

        The feasibility filter is disabled here: same-topic documents
        share identical path edge sets, and the paper's extreme-condition
        judgment (which assigns one constant to all shared edges) cannot
        distinguish them even though per-edge optimization can.
        """
        question = corpus.train_pairs[2]
        answers = system.ask(question.text, question_id="q_promote")
        if len(answers) < 3:
            pytest.skip("need a few answers")
        target = answers[2][0]
        system.vote("q_promote", target)
        system.optimize(strategy="multi", feasibility_filter=False)
        reranked = system.ask(question.text, question_id="q_promote_after")
        new_rank = next(
            i for i, (doc, _) in enumerate(reranked, start=1) if doc == target
        )
        assert new_rank < 3

    def test_evaluate(self, system, corpus):
        questions = {p.question_id: p.text for p in corpus.test_pairs}
        pairs = {p.question_id: p.best_doc for p in corpus.test_pairs}
        result = system.evaluate(questions, pairs)
        assert 0 < result.mrr <= 1
        assert 0 < result.map_score <= 1
        assert result.hits[10] >= result.hits[1]
        # Evaluation must not leave test queries behind.
        assert all(
            not str(q).startswith("test_q") for q in system.augmented_graph.query_nodes
        )

    def test_evaluate_unlinkable_rejected(self, system):
        with pytest.raises(EvaluationError):
            system.evaluate({"tq": "no entities here"}, {"tq": "doc_x"})

    def test_document_without_entities_not_attached(self, system):
        assert not system.add_document("empty_doc", "nothing relevant at all")

    def test_bad_k(self, kg, corpus):
        with pytest.raises(ValueError):
            QASystem(kg, corpus.vocabulary, params=SimilarityParams(k=0))

    def test_legacy_kwargs_raise(self, kg, corpus):
        with pytest.raises(TypeError):
            QASystem(kg, corpus.vocabulary, k=8)
