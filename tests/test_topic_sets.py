import numpy as np
import pytest

from topicpuzzles.topic_models import (
    TopicDictionary,
    extract_top_k,
)


def dictionary(weights, model="lda"):
    return TopicDictionary(weights=np.asarray(weights, dtype=float), model=model)


class TestExtractTopK:
    def test_top_two_by_weight(self):
        td = dictionary([[0.1], [0.9], [0.5], [0.3]])
        (ws,) = extract_top_k(td, 2)
        assert set(ws.word_indices) == {1, 2}
        assert ws.weights == (0.9, 0.5)

    def test_lsa_uses_magnitude(self):
        td = dictionary([[-0.9], [0.1], [0.2]], model="lsa")
        (ws,) = extract_top_k(td, 1)
        assert ws.word_indices == (0,)
        assert ws.weights == (0.9,)

    def test_words_follow_word_indices(self):
        weights = [[0.1, 0.4], [0.9, 0.0], [0.5, 0.2], [0.3, 0.7]]
        td = TopicDictionary(weights=np.asarray(weights), model="lda",
                             vocab=["ant", "bee", "cat", "dog"])
        first, second = extract_top_k(td, 3)
        assert first.word_indices == (1, 2, 3)
        assert first.words == ("bee", "cat", "dog")
        assert second.word_indices == (3, 0, 2)
        assert second.words == ("dog", "ant", "cat")

    def test_no_vocabulary_gives_no_words(self):
        (ws,) = extract_top_k(dictionary([[0.1], [0.9], [0.5]]), 2)
        assert ws.word_indices == (1, 2)
        assert ws.words is None

    def test_tie_breaks_to_lower_index(self):
        td = dictionary([[0.5], [0.5], [0.1]])
        (ws,) = extract_top_k(td, 1)
        assert ws.word_indices == (0,)

    def test_weights_non_increasing(self):
        rng = np.random.default_rng(0)
        td = dictionary(rng.random((30, 6)))
        for ws in extract_top_k(td, 5):
            assert all(a >= b for a, b in zip(ws.weights, ws.weights[1:]))
            assert len(ws.word_indices) == 5
            assert len(set(ws.word_indices)) == 5

    def test_invariant_under_positive_rescaling(self):
        rng = np.random.default_rng(1)
        w = rng.random((20, 4))
        base = extract_top_k(dictionary(w), 4)
        scaled = extract_top_k(dictionary(w * 7.5), 4)
        for a, b in zip(base, scaled):
            assert a.word_indices == b.word_indices

    def test_k_must_fit_vocabulary(self):
        td = dictionary(np.ones((3, 2)))
        with pytest.raises(ValueError, match="k must be"):
            extract_top_k(td, 4)
        with pytest.raises(ValueError, match="k must be"):
            extract_top_k(td, 0)

    def test_topic_order_preserved(self):
        rng = np.random.default_rng(2)
        td = dictionary(rng.random((10, 5)))
        sets = extract_top_k(td, 3)
        assert [ws.topic_index for ws in sets] == [0, 1, 2, 3, 4]


class TestTopicDictionaryValidation:
    def test_zero_column_rejected(self):
        weights = np.ones((4, 2))
        weights[:, 1] = 0.0
        with pytest.raises(ValueError, match="all-zero"):
            TopicDictionary(weights=weights, model="lsa").validate()

    def test_lda_columns_must_be_distributions(self):
        weights = np.full((4, 2), 0.25)
        TopicDictionary(weights=weights, model="lda").validate()
        weights = np.full((4, 2), 0.3)
        with pytest.raises(ValueError, match="probability"):
            TopicDictionary(weights=weights, model="lda").validate()

    def test_dictlearn_columns_in_unit_ball(self):
        weights = np.full((4, 2), 0.6)
        with pytest.raises(ValueError, match="norm"):
            TopicDictionary(weights=weights, model="dictlearn").validate()
        TopicDictionary(weights=weights * 0.5, model="dictlearn").validate()
