import numpy as np
import pytest
from oracles import list_gibbs_lda_weights

from topicpuzzles.corpus import (
    Document,
    build_doc_term_matrix,
    build_vocabulary,
    tfidf_transform,
)
from topicpuzzles.synthetic import planted_topic_corpus
from topicpuzzles.topic_models import (
    _ROW_KERNEL_MIN_TOPICS,
    LdaConfig,
    extract_top_k,
    lda_fit,
    load_topic_dictionary,
    save_topic_dictionary,
)


def small_corpus():
    docs = [
        Document("1", "apple banana apple cherry"),
        Document("2", "banana cherry banana"),
        Document("3", "plum apple plum plum"),
        Document("4", "cherry plum banana apple"),
    ]
    vocab = build_vocabulary(docs)
    return docs, vocab, build_doc_term_matrix(docs, vocab)


def conservation_check(dtm, sweeps_seen):
    """A sweep_hook asserting that every sweep's count tables agree with
    the corpus and with each other."""
    word_freq = np.asarray(dtm.matrix.sum(axis=1)).ravel().astype(np.int64)
    doc_len = np.asarray(dtm.matrix.sum(axis=0)).ravel().astype(np.int64)

    def check(state):
        sweeps_seen.append(state.sweep)
        np.testing.assert_array_equal(state.word_topic.sum(axis=1), word_freq)
        np.testing.assert_array_equal(state.doc_topic.sum(axis=1), doc_len)
        np.testing.assert_array_equal(
            state.word_topic.sum(axis=0), state.topic_counts
        )
        np.testing.assert_array_equal(
            state.doc_topic.sum(axis=0), state.topic_counts
        )

    return check


class TestLdaConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            LdaConfig(n_topics=0)
        with pytest.raises(ValueError):
            LdaConfig(n_topics=2, alpha=0.0)
        with pytest.raises(ValueError):
            LdaConfig(n_topics=2, beta=-1.0)
        with pytest.raises(ValueError):
            LdaConfig(n_topics=2, iterations=0)


class TestLdaFit:
    def test_columns_sum_to_one(self):
        _, _, dtm = small_corpus()
        td = lda_fit(dtm, LdaConfig(n_topics=3, iterations=20, seed=1))
        np.testing.assert_allclose(td.weights.sum(axis=0), 1.0, atol=1e-9)
        assert np.all(td.weights >= 0)

    def test_rejects_tfidf_weighting(self):
        _, _, dtm = small_corpus()
        weighted = tfidf_transform(dtm)
        with pytest.raises(ValueError, match="raw counts"):
            lda_fit(weighted, LdaConfig(n_topics=2, iterations=5))

    def test_seeded_determinism_bit_identical(self):
        _, _, dtm = small_corpus()
        config = LdaConfig(n_topics=3, iterations=30, seed=99)
        td1 = lda_fit(dtm, config)
        td2 = lda_fit(dtm, config)
        np.testing.assert_array_equal(td1.weights, td2.weights)

    def test_different_seeds_differ(self):
        _, _, dtm = small_corpus()
        td1 = lda_fit(dtm, LdaConfig(n_topics=3, iterations=30, seed=0))
        td2 = lda_fit(dtm, LdaConfig(n_topics=3, iterations=30, seed=1))
        assert not np.array_equal(td1.weights, td2.weights)

    def test_count_conservation_every_sweep(self):
        _, _, dtm = small_corpus()
        sweeps_seen = []
        check = conservation_check(dtm, sweeps_seen)
        lda_fit(dtm, LdaConfig(n_topics=3, iterations=15, seed=4), sweep_hook=check)
        assert sweeps_seen == list(range(15))

    def test_planted_topic_recovery_smoke(self):
        # small planted instance; the full 8-topic configuration runs in
        # the acceptance suite
        docs, topics = planted_topic_corpus(
            n_topics=4, n_docs=80, tokens_per_doc=40, seed=2
        )
        vocab = build_vocabulary(docs)
        dtm = build_doc_term_matrix(docs, vocab)
        td = lda_fit(dtm, LdaConfig(n_topics=4, iterations=80, seed=0))
        matched = set()
        for ws in extract_top_k(td, 4):
            top = {vocab.words[i] for i in ws.word_indices}
            for t, planted_words in enumerate(topics):
                if len(top & set(planted_words)) >= 3:
                    matched.add(t)
        assert len(matched) >= 3

    def test_persistence_round_trip(self, tmp_path):
        _, _, dtm = small_corpus()
        td = lda_fit(dtm, LdaConfig(n_topics=2, iterations=10, seed=3))
        path = tmp_path / "lda.json"
        save_topic_dictionary(td, path)
        loaded = load_topic_dictionary(path)
        np.testing.assert_array_equal(loaded.weights, td.weights)
        assert loaded.model == "lda"
        assert loaded.vocab == td.vocab
        assert loaded.meta == td.meta


@pytest.fixture(scope="module")
def planted_small():
    docs, _ = planted_topic_corpus(
        n_topics=4, n_docs=40, tokens_per_doc=30, seed=6, background_fraction=0.15
    )
    vocab = build_vocabulary(docs)
    return build_doc_term_matrix(docs, vocab)


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize(
    "n_topics",
    [3, 8, _ROW_KERNEL_MIN_TOPICS - 1, _ROW_KERNEL_MIN_TOPICS, 100],
)
def test_weights_bit_identical_to_list_sampler(planted_small, n_topics, seed):
    """Both sweep kernels reproduce the original sampler's weights exactly,
    and keep the count tables consistent after every sweep."""
    config = LdaConfig(n_topics=n_topics, iterations=10, seed=seed)
    sweeps_seen = []
    td = lda_fit(
        planted_small, config, sweep_hook=conservation_check(planted_small, sweeps_seen)
    )
    assert sweeps_seen == list(range(10))
    expected = list_gibbs_lda_weights(
        planted_small.matrix, n_topics, config.alpha, config.beta,
        config.iterations, seed,
    )
    np.testing.assert_array_equal(td.weights, expected)
