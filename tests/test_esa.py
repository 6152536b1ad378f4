import itertools
import json

import numpy as np
import pytest
from conftest import INDEX_CORRUPTIONS, hand_index, index_vector, mangle_index
from oracles import intersect1d_cosine

from topicpuzzles.corpus import Document
from topicpuzzles.esa import (
    EsaConfig,
    SimilarityProvider,
    build_esa_index,
    load_esa_index,
    save_esa_index,
)

CONCEPTS = [
    Document("elections", "vote election candidate vote ballot"),
    Document("magic", "wizard wand spell wizard"),
    Document("politics", "vote candidate parliament"),
    Document("fantasy", "wizard dragon spell"),
]


class TestBuildEsaIndex:
    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty concept corpus"):
            build_esa_index([])

    def test_absent_word_not_indexed(self):
        index = build_esa_index(CONCEPTS)
        assert index.row("zeppelin") == -1

    def test_support_follows_occurrences(self):
        index = build_esa_index(CONCEPTS)
        ids, weights = index_vector(index, "ballot")
        assert list(ids) == [0]
        assert np.all(weights > 0)
        ids, _ = index_vector(index, "wizard")
        assert list(ids) == [1, 3]

    def test_rebuild_identical(self):
        a = build_esa_index(CONCEPTS)
        b = build_esa_index(CONCEPTS)
        assert a.concept_ids == b.concept_ids
        assert a.words() == b.words()
        for name in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_rows_sorted_and_unit_norm(self):
        index = build_esa_index(CONCEPTS)
        assert index.words() == sorted(index.words())
        norms = np.sqrt(np.asarray(index.R.multiply(index.R).sum(axis=1)).ravel())
        np.testing.assert_allclose(norms, 1.0, rtol=0, atol=1e-15)

    def test_truncation_keeps_largest_weights(self):
        concepts = [
            Document(f"c{i}", ("common " * (i + 1)) + f"filler{i} extra")
            for i in range(4)
        ] + [Document("c4", "filler extra")]
        index = build_esa_index(concepts, EsaConfig(max_concepts_per_word=2))
        ids, weights = index_vector(index, "common")
        assert len(ids) == 2
        # tf grows with the concept number, so the two largest weights sit
        # in the last two concepts containing the word
        assert set(ids) == {2, 3}
        full = build_esa_index(concepts)
        _, all_weights = index_vector(full, "common")
        assert set(weights) == set(sorted(all_weights)[-2:])

    def test_word_in_every_concept_has_no_vector(self):
        concepts = [Document(str(i), f"everywhere word{i}") for i in range(3)]
        index = build_esa_index(concepts)
        assert index.row("everywhere") == -1

    def test_single_concept_indexes_no_word(self):
        # one concept document: every word has idf 0, so no word has a vector
        index = build_esa_index([Document("only", "lonely words here")])
        assert len(index) == 0


class TestRelatedness:
    def test_self_similarity_exactly_one(self):
        provider = SimilarityProvider(build_esa_index(CONCEPTS))
        assert provider.relatedness("vote", "vote") == 1.0

    def test_disjoint_supports_zero(self):
        provider = SimilarityProvider(build_esa_index(CONCEPTS))
        assert provider.relatedness("ballot", "dragon") == 0.0

    def test_hand_cosine(self):
        index = hand_index(
            {"first": ([0], [1.0]), "second": ([0, 1], [1.0, 1.0])}, n_concepts=2
        )
        provider = SimilarityProvider(index)
        # hand oracle: dot = 1, norms = 1 and sqrt(2) -> cosine 1/sqrt(2)
        expected = 1.0 / (1.0 * np.sqrt(1.0**2 + 1.0**2))
        assert provider.relatedness("first", "second") == pytest.approx(
            expected, abs=1e-9
        )

    def test_unindexed_word_flagged_not_raised(self):
        provider = SimilarityProvider(build_esa_index(CONCEPTS))
        assert provider.relatedness("vote", "unheard") == 0.0
        assert "unheard" in provider.missing_words
        assert provider.relatedness("unheard", "unheard") == 0.0

    def test_symmetry_exact(self):
        provider = SimilarityProvider(build_esa_index(CONCEPTS))
        words = provider.index.words()
        block = provider.cross_relatedness(words, words)
        for i in range(len(words)):
            for j in range(len(words)):
                assert block[i, j] == block[j, i]
        assert provider.relatedness("vote", "wizard") == provider.relatedness(
            "wizard", "vote"
        )

    def test_values_in_unit_interval(self):
        provider = SimilarityProvider(build_esa_index(CONCEPTS))
        words = provider.index.words()
        block = provider.cross_relatedness(words, words)
        rng = np.random.default_rng(0)
        for _ in range(200):
            a, b = rng.choice(words, 2)
            value = block[provider.index.row(a), provider.index.row(b)]
            assert 0.0 <= value <= 1.0

class TestSimilaritySubmatrix:
    def test_singleton(self):
        provider = SimilarityProvider(build_esa_index(CONCEPTS))
        np.testing.assert_array_equal(
            provider.similarity_submatrix(["vote"]), np.array([[1.0]])
        )

    def test_symmetric_and_bounded(self):
        provider = SimilarityProvider(build_esa_index(CONCEPTS))
        words = provider.index.words()[:5]
        matrix = provider.similarity_submatrix(words)
        np.testing.assert_array_equal(matrix, matrix.T)
        assert np.all(matrix >= 0) and np.all(matrix <= 1)

    def test_index_resolution_through_vocabulary(self):
        index = build_esa_index(CONCEPTS)
        vocabulary = ["vote", "wizard", "spell"]
        provider = SimilarityProvider(index, vocabulary=vocabulary)
        by_index = provider.similarity_submatrix([0, 1, 2])
        by_word = provider.similarity_submatrix(vocabulary)
        np.testing.assert_array_equal(by_index, by_word)
        assert by_index[1, 2] == provider.relatedness("wizard", "spell")

    def test_missing_word_zero_diagonal(self):
        provider = SimilarityProvider(build_esa_index(CONCEPTS))
        matrix = provider.similarity_submatrix(["vote", "unheard"])
        assert matrix[1, 1] == 0.0
        assert matrix[0, 1] == 0.0

    def test_no_vocabulary_index_lookup_raises(self):
        provider = SimilarityProvider(build_esa_index(CONCEPTS))
        with pytest.raises(ValueError, match="vocabulary"):
            provider.similarity_submatrix([0, 1])


class TestKernelAgreement:
    """Scalar relatedness, the set submatrix (by word and by index), the
    cross block and the generation sigma vector all return the same float
    for a pair, and agree with the original intersect1d cosine."""

    @pytest.fixture(scope="class")
    def planted_index(self, planted_mixed):
        docs, _, _, _ = planted_mixed
        return build_esa_index(docs)

    @pytest.fixture(scope="class")
    def block(self, planted_index):
        """All-pairs relatedness as one cross block, the reference for
        every other path."""
        words = planted_index.words()
        return SimilarityProvider(planted_index).cross_relatedness(words, words)

    def test_every_path_equal_exactly(self, planted_index, block):
        words = planted_index.words()
        provider = SimilarityProvider(planted_index, vocabulary=words)
        np.testing.assert_array_equal(provider.similarity_submatrix(words), block)
        np.testing.assert_array_equal(
            provider.similarity_submatrix(range(len(words))), block
        )
        for i, word in enumerate(words):
            np.testing.assert_array_equal(
                provider.max_relatedness([word], words), block[i]
            )
            np.testing.assert_array_equal(
                provider.cross_relatedness([word], words), block[i:i + 1]
            )
        # the scalar is the 1x1 block: a sample of pairs, the diagonal included
        rng = np.random.default_rng(3)
        pairs = [(0, 0)] + [tuple(rng.integers(0, len(words), 2)) for _ in range(50)]
        for i, j in pairs:
            assert provider.relatedness(words[i], words[j]) == block[i, j]

    def test_set_sigma_is_max_of_block(self, planted_index, block):
        words = planted_index.words()
        provider = SimilarityProvider(planted_index)
        rng = np.random.default_rng(5)
        for _ in range(20):
            anchors = list(rng.choice(words, 4, replace=False))
            sigma = provider.max_relatedness(anchors, words)
            expected = block[[planted_index.row(t) for t in anchors]].max(axis=0)
            assert sigma.tolist() == expected.tolist()

    def test_agrees_with_intersect1d_oracle(self, planted_index, block):
        words = planted_index.words()
        for (i, a), (j, b) in itertools.combinations(enumerate(words), 2):
            expected = intersect1d_cosine(
                index_vector(planted_index, a), index_vector(planted_index, b)
            )
            assert abs(block[i, j] - expected) <= 1e-12

    def test_submatrix_exactly_symmetric(self, planted_index):
        words = planted_index.words()
        provider = SimilarityProvider(planted_index)
        rng = np.random.default_rng(11)
        for size in (2, 4, 7, len(words)):
            chosen = list(rng.choice(words, size, replace=False))
            matrix = provider.similarity_submatrix(chosen)
            assert np.array_equal(matrix, matrix.T)

    def test_missing_words_in_blocks(self, planted_index):
        words = planted_index.words()[:3]
        provider = SimilarityProvider(planted_index)
        cross = provider.cross_relatedness(words + ["unheard"], words)
        assert np.all(cross[3] == 0.0)
        assert provider.max_relatedness(["unheard"], words).tolist() == [0.0] * 3
        sigma = provider.max_relatedness(words, ["unheard", words[0]])
        assert sigma.tolist() == [0.0, 1.0]
        assert "unheard" in provider.missing_words


class TestEsaPersistence:
    def test_round_trip_bit_exact(self, tmp_path):
        index = build_esa_index(CONCEPTS)
        path = tmp_path / "index.json"
        save_esa_index(index, path)
        loaded = load_esa_index(path)
        assert loaded.concept_ids == index.concept_ids
        assert loaded.truncation == index.truncation
        assert loaded.words() == index.words()
        for name in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(loaded, name), getattr(index, name))
        np.testing.assert_array_equal(loaded.R.toarray(), index.R.toarray())

    def test_deterministic_bytes(self, tmp_path):
        index = build_esa_index(CONCEPTS)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_esa_index(index, p1)
        save_esa_index(index, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_other_files(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text('{"format": "nope"}')
        with pytest.raises(ValueError, match="not an ESA index"):
            load_esa_index(path)

    def test_version_1_asks_for_rebuild(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"format": "esa-index", "version": 1}))
        with pytest.raises(ValueError, match="re-run `index`"):
            load_esa_index(path)

    @pytest.mark.parametrize("key,how,message", INDEX_CORRUPTIONS)
    def test_inconsistent_file_rejected(self, tmp_path, key, how, message):
        path = tmp_path / "index.json"
        save_esa_index(build_esa_index(CONCEPTS), path)
        payload = json.loads(path.read_text())
        path.write_text(json.dumps(mangle_index(payload, key, how)))
        with pytest.raises(ValueError, match=message):
            load_esa_index(path)
