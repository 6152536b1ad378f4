import itertools
import json
import weakref

import numpy as np
import pytest
from conftest import (
    INDEX_CORRUPTIONS,
    decode_array_file,
    hand_index,
    index_vector,
    mangle_index,
    rewrite_array_file,
)
from oracles import as_scipy, intersect1d_cosine

from topicpuzzles import esa
from topicpuzzles.corpus import Document
from topicpuzzles.esa import (
    EsaConfig,
    SimilarityProvider,
    build_esa_index,
    load_esa_index,
    rows_by_group,
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
        R = as_scipy(index.R)
        norms = np.sqrt(np.asarray(R.multiply(R).sum(axis=1)).ravel())
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
        """The index form (the benchmark's check step) gives the bits of the
        word form, for a vocabulary out of index order and holding a word
        the index lacks."""
        index = build_esa_index(CONCEPTS)
        vocabulary = ["vote", "wizard", "spell", "unheard"]
        provider = SimilarityProvider(index, vocabulary=vocabulary)
        by_index = provider.similarity_submatrix([3, 0, 1, 2])
        by_word = provider.similarity_submatrix([vocabulary[i] for i in (3, 0, 1, 2)])
        assert by_index.tobytes() == by_word.tobytes()
        assert by_index[2, 3] == provider.relatedness("wizard", "spell") > 0
        assert provider.missing_words == {"unheard"}

    def test_missing_word_zero_diagonal(self):
        provider = SimilarityProvider(build_esa_index(CONCEPTS))
        matrix = provider.similarity_submatrix(["vote", "unheard"])
        assert matrix[1, 1] == 0.0
        assert matrix[0, 1] == 0.0

    def test_no_vocabulary_index_lookup_raises(self):
        provider = SimilarityProvider(build_esa_index(CONCEPTS))
        with pytest.raises(ValueError, match="vocabulary"):
            provider.similarity_submatrix([0, 1])

    def test_only_the_submatrix_takes_indices(self):
        """With a vocabulary attached, every other path still takes only
        strings: an index there is a ValueError, not a missing word."""
        provider = SimilarityProvider(build_esa_index(CONCEPTS), vocabulary=["vote"])
        for call in (lambda: provider.rows([0]),
                     lambda: provider.cross_relatedness(["vote"], [0]),
                     lambda: list(provider.related_rows([0])),
                     lambda: list(provider.related_rows(["vote"], among=[0]))):
            with pytest.raises(ValueError, match="strings"):
                call()
        assert provider.missing_words == set()


class TestRows:
    def test_rows_of_words_and_missing_words(self):
        index = build_esa_index(CONCEPTS)
        provider = SimilarityProvider(index)
        rows = provider.rows(["wizard", "unheard", "vote", "unheard", "zeppelin"])
        assert rows.dtype == np.int64
        assert rows.tolist() == [index.row("wizard"), -1, index.row("vote"), -1, -1]
        assert provider.missing_words == {"unheard", "zeppelin"}
        assert provider.rows([]).tolist() == []


class TestKernelAgreement:
    """Scalar relatedness, the set submatrix (by word and by index), the
    cross block and the blocks of related rows all return the same float
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
        np.testing.assert_array_equal(np.vstack(list(provider.related_rows(words))), block)
        np.testing.assert_array_equal(
            np.vstack(list(provider.related_rows(words, among=words))), block
        )
        for i, word in enumerate(words):
            (row,) = provider.related_rows([word])
            np.testing.assert_array_equal(row, block[i:i + 1])
            np.testing.assert_array_equal(
                provider.cross_relatedness([word], words), block[i:i + 1]
            )
        # the scalar is the 1x1 block: a sample of pairs, the diagonal included
        rng = np.random.default_rng(3)
        pairs = [(0, 0)] + [tuple(rng.integers(0, len(words), 2)) for _ in range(50)]
        for i, j in pairs:
            assert provider.relatedness(words[i], words[j]) == block[i, j]

    def test_cross_block_transposes_exactly(self, planted_index):
        """``cross_relatedness(a, b)`` is ``cross_relatedness(b, a).T`` bit
        for bit, so separate-topics may read its cross block from either
        set's rows."""
        words = planted_index.words()
        provider = SimilarityProvider(planted_index)
        rng = np.random.default_rng(17)
        for size_a, size_b in ((1, 1), (3, 5), (10, 10), (len(words) // 2, len(words))):
            a = list(rng.choice(words, size_a, replace=False)) + ["unheard"]
            b = list(rng.choice(words, size_b, replace=False))
            forward = provider.cross_relatedness(a, b)
            assert forward.tobytes() == np.ascontiguousarray(
                provider.cross_relatedness(b, a).T
            ).tobytes()

    def test_set_sigma_is_max_of_block(self, planted_index, block):
        words = planted_index.words()
        provider = SimilarityProvider(planted_index)
        rng = np.random.default_rng(5)
        for _ in range(20):
            anchors = list(rng.choice(words, 4, replace=False))
            sigma = np.vstack(list(provider.related_rows(anchors))).max(axis=0)
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
        (row,) = provider.related_rows(["unheard"], among=words)
        assert row.tolist() == [[0.0] * 3]
        (rows,) = provider.related_rows(words, among=["unheard", words[0]])
        assert rows.max(axis=0).tolist() == [0.0, 1.0]
        assert "unheard" in provider.missing_words


class TestRowsByGroup:
    """``rows_by_group`` serves each group the rows of
    ``cross_relatedness(words, among)``, reads a block only when a group
    needs one of its rows, and drops a row after the last group naming it."""

    @pytest.fixture(scope="class")
    def planted_index(self, planted_mixed):
        return build_esa_index(planted_mixed[0])

    @pytest.mark.parametrize("chunk", [64, 1, 3])
    @pytest.mark.parametrize("among", ["all", "some"])
    def test_rows_equal_cross_relatedness(self, planted_index, monkeypatch, chunk, among):
        monkeypatch.setattr(esa, "_CHUNK_ROWS", chunk)
        words = planted_index.words() + ["unheard"]
        provider = SimilarityProvider(planted_index)
        # groups share words, one is empty, and "unheard" has no vector
        groups = [words[:4], words[2:6] + ["unheard"], [words[0], words[7]], [],
                  words[5:9], words[60:80]]
        columns = {"all": None, "some": words[::3]}[among]
        served = list(rows_by_group(provider, groups, among=columns))
        assert [list(rows) for rows in served] == groups
        for group, rows in zip(groups, served):
            expected = provider.cross_relatedness(
                group, words[:-1] if columns is None else columns
            )
            for word, row in zip(group, expected):
                np.testing.assert_array_equal(rows[word], row)
        assert provider.missing_words == {"unheard"}

    def test_blocks_read_when_needed_and_rows_dropped_after_last_group(self):
        reads = []

        class TwoRowBlocks:
            def related_rows(self, words, among=None):
                for start in range(0, len(words), 2):
                    reads.append(words[start:start + 2])
                    yield np.array([[float(w)] for w in words[start:start + 2]])

        served = rows_by_group(TwoRowBlocks(), [[0], [1], [0, 2], [3, 4], [5]])
        first = next(served)
        assert reads == [[0, 1]]
        row_0 = weakref.ref(first[0])
        del first
        assert list(next(served)) == [1] and reads == [[0, 1]]
        third = next(served)
        assert third[0] is row_0() and reads == [[0, 1], [2, 3]]
        del third
        assert next(served)[4][0] == 4.0 and reads == [[0, 1], [2, 3], [4, 5]]
        assert row_0() is None  # word 0's last group was the third
        assert list(next(served)) == [5] and len(reads) == 3


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
        np.testing.assert_array_equal(as_scipy(loaded.R).toarray(), as_scipy(index.R).toarray())

    def test_arrays_and_file_round_trip_bit_for_bit(self, tmp_path):
        index = build_esa_index(CONCEPTS)
        path, again = tmp_path / "index.json", tmp_path / "again.json"
        save_esa_index(index, path)
        loaded = load_esa_index(path)
        for name in ("indptr", "indices", "data"):
            assert getattr(loaded, name).tobytes() == getattr(index, name).tobytes()
        assert loaded.R.data.tobytes() == index.R.data.tobytes()
        save_esa_index(loaded, again)
        assert again.read_bytes() == path.read_bytes()

    def test_header_line_and_arrays(self, tmp_path):
        index = build_esa_index(CONCEPTS)
        path = tmp_path / "index.json"
        save_esa_index(index, path)
        header = json.loads(path.read_bytes().split(b"\n", 1)[0])
        assert header["format"] == "esa-index" and header["version"] == 3
        assert header["arrays"] == [
            ["indptr", "<i8", len(index) + 1],
            ["indices", "<i8", len(index.indices)],
            ["data", "<f8", len(index.data)],
        ]
        payload = decode_array_file(path.read_bytes())
        assert payload["words"] == index.words()
        assert payload["indices"] == index.indices.tolist()
        assert payload["data"] == index.data.tolist()

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

    def test_version_2_json_file_asks_for_rebuild(self, tmp_path):
        path = tmp_path / "index.json"
        save_esa_index(build_esa_index(CONCEPTS), path)
        payload = decode_array_file(path.read_bytes())
        del payload["arrays"]
        path.write_text(json.dumps({**payload, "version": 2}) + "\n")
        with pytest.raises(ValueError) as caught:
            load_esa_index(path)
        assert str(caught.value) == (
            f"{path}: unsupported version 2; re-run `index` to rebuild it"
        )

    @pytest.mark.parametrize("key,how,message", INDEX_CORRUPTIONS)
    def test_inconsistent_file_rejected(self, tmp_path, key, how, message):
        path = tmp_path / "index.json"
        save_esa_index(build_esa_index(CONCEPTS), path)
        broken = rewrite_array_file(path, lambda p: mangle_index(p, key, how),
                                    tmp_path / "broken.json")
        with pytest.raises(ValueError, match=message) as caught:
            load_esa_index(broken)
        assert str(caught.value).startswith(f"{broken}: ")
