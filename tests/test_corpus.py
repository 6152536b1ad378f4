import hashlib
import json
import math

import numpy as np
import pytest

from topicpuzzles.consistency import ConsistentSet, save_consistent_sets
from topicpuzzles.corpus import (
    CorpusFormatError,
    Document,
    EmptyVocabularyError,
    build_doc_term_matrix,
    build_vocabulary,
    load_corpus_jsonl,
    load_doc_term_matrix,
    save_corpus_jsonl,
    save_doc_term_matrix,
    tfidf_transform,
    tokenize,
    write_json_lines,
)
from topicpuzzles.synthetic import planted_topic_corpus
from topicpuzzles.topic_models import (
    LdaConfig,
    TopicDictionary,
    lda_fit,
    save_topic_dictionary,
)


class TestTokenize:
    def test_lowercases_and_strips_punctuation(self):
        assert tokenize("Vote, Election!") == ["vote", "election"]

    def test_default_stopwords_remove_function_words(self):
        assert tokenize("the did said") == []

    def test_alphabetic_pattern_and_min_length(self):
        assert tokenize("a1b2 harry potter") == ["harry", "potter"]

    def test_empty_input(self):
        assert tokenize("") == []

    def test_order_preserved(self):
        assert tokenize("zebra apple zebra") == ["zebra", "apple", "zebra"]


class TestBuildVocabulary:
    def test_max_df_ratio_excludes_ubiquitous_word(self):
        docs = [
            Document("1", "ubiquitous apple"),
            Document("2", "ubiquitous banana"),
            Document("3", "ubiquitous cherry"),
        ]
        vocab = build_vocabulary(docs, max_df_ratio=0.5)
        assert "ubiquitous" not in vocab.index
        assert set(vocab.words) == {"apple", "banana", "cherry"}

    def test_lexicographic_indices(self):
        docs = [Document(str(i), "alpha beta") for i in range(3)]
        vocab = build_vocabulary(docs, min_df=1)
        assert len(vocab) == 2
        assert vocab.index["alpha"] == 0
        assert vocab.index["beta"] == 1

    def test_min_df_excludes_rare_word(self):
        docs = [Document("1", "common rare"), Document("2", "common common")]
        vocab = build_vocabulary(docs, min_df=2)
        assert set(vocab.words) == {"common"}

    def test_empty_vocabulary_names_filters(self):
        docs = [Document("1", "solo")]
        with pytest.raises(EmptyVocabularyError, match="min_df=2"):
            build_vocabulary(docs, min_df=2)

    def test_invalid_filters(self):
        docs = [Document("1", "word")]
        with pytest.raises(ValueError):
            build_vocabulary(docs, min_df=0)
        with pytest.raises(ValueError):
            build_vocabulary(docs, max_df_ratio=0.0)

    def test_duplicate_ids_rejected(self):
        docs = [Document("1", "apple"), Document("1", "banana")]
        with pytest.raises(ValueError, match="duplicate"):
            build_vocabulary(docs)

    def test_determinism(self):
        docs = [Document(str(i), f"word{i} shared") for i in range(5)]
        a = build_vocabulary(docs)
        b = build_vocabulary(docs)
        assert a == b

    def test_doc_freq_recorded(self):
        docs = [Document("1", "apple banana"), Document("2", "apple")]
        vocab = build_vocabulary(docs)
        assert vocab.doc_freq[vocab.index["apple"]] == 2
        assert vocab.doc_freq[vocab.index["banana"]] == 1


class TestBuildDocTermMatrix:
    def test_counts_column(self):
        docs = [Document("d", "alpha alpha beta")]
        vocab = build_vocabulary(docs)
        dtm = build_doc_term_matrix(docs, vocab)
        np.testing.assert_array_equal(
            dtm.matrix.toarray().ravel(), np.array([2.0, 1.0])
        )
        assert dtm.weighting == "raw-count"

    def test_empty_document_dropped_with_warning(self):
        docs = [Document("good", "alpha beta"), Document("empty", "the")]
        vocab = build_vocabulary([docs[0]])
        with pytest.warns(UserWarning, match="empty"):
            dtm = build_doc_term_matrix(docs, vocab)
        assert dtm.n_docs == 1
        assert dtm.doc_ids == ["good"]

    def test_mass_conservation(self):
        rng = np.random.default_rng(0)
        pool = ["apple", "banana", "cherry", "plum", "grape"]
        docs = [
            Document(str(i), " ".join(rng.choice(pool, size=rng.integers(1, 20))))
            for i in range(10)
        ]
        vocab = build_vocabulary(docs)
        dtm = build_doc_term_matrix(docs, vocab)
        retained = sum(
            1
            for doc in docs
            for tok in tokenize(doc.text)
            if tok in vocab.index
        )
        assert dtm.matrix.sum() == retained

    def test_retokenizing_reproduces_column(self):
        rng = np.random.default_rng(1)
        pool = ["apple", "banana", "cherry", "plum", "grape", "melon"]
        docs = [
            Document(str(i), " ".join(rng.choice(pool, size=15))) for i in range(6)
        ]
        vocab = build_vocabulary(docs)
        dtm = build_doc_term_matrix(docs, vocab)
        for j, doc_id in enumerate(dtm.doc_ids):
            doc = next(d for d in docs if d.id == doc_id)
            expected = np.zeros(len(vocab))
            for tok in tokenize(doc.text):
                if tok in vocab.index:
                    expected[vocab.index[tok]] += 1
            np.testing.assert_array_equal(dtm.matrix[:, j].toarray().ravel(), expected)

    def test_all_entries_positive(self):
        docs = [Document("1", "apple banana"), Document("2", "banana cherry")]
        vocab = build_vocabulary(docs)
        dtm = build_doc_term_matrix(docs, vocab)
        assert np.all(dtm.matrix.data > 0)

    def test_determinism_bit_identical(self):
        docs = [Document(str(i), "apple banana cherry apple") for i in range(4)]
        vocab = build_vocabulary(docs)
        a = build_doc_term_matrix(docs, vocab)
        b = build_doc_term_matrix(docs, vocab)
        assert (a.matrix != b.matrix).nnz == 0
        assert a.doc_ids == b.doc_ids


class TestTfidf:
    def test_word_in_all_docs_zeroed(self):
        docs = [Document("1", "shared apple"), Document("2", "shared banana")]
        vocab = build_vocabulary(docs)
        dtm = build_doc_term_matrix(docs, vocab)
        weighted = tfidf_transform(dtm)
        row = vocab.index["shared"]
        np.testing.assert_array_equal(
            weighted.matrix[row].toarray().ravel(), np.zeros(2)
        )
        assert weighted.weighting == "tfidf"

    def test_formula_value(self):
        docs = [Document("1", "rare rare rare apple"), Document("2", "apple")]
        vocab = build_vocabulary(docs)
        dtm = build_doc_term_matrix(docs, vocab)
        weighted = tfidf_transform(dtm)
        row = vocab.index["rare"]
        assert weighted.matrix[row, 0] == pytest.approx(3 * math.log(2), abs=1e-12)

    def test_nnz_does_not_grow(self):
        docs = [
            Document("1", "apple banana shared"),
            Document("2", "cherry shared"),
        ]
        vocab = build_vocabulary(docs)
        dtm = build_doc_term_matrix(docs, vocab)
        weighted = tfidf_transform(dtm)
        assert weighted.matrix.nnz <= dtm.matrix.nnz
        assert np.all(weighted.matrix.data > 0)

    def test_double_transform_rejected(self):
        docs = [Document("1", "apple banana"), Document("2", "apple")]
        vocab = build_vocabulary(docs)
        weighted = tfidf_transform(build_doc_term_matrix(docs, vocab))
        with pytest.raises(ValueError, match="raw counts"):
            tfidf_transform(weighted)


class TestJsonlCorpus:
    def test_load_valid(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(
            '{"id": "a", "text": "apple"}\n{"id": "b", "text": "banana"}\n'
        )
        docs = load_corpus_jsonl(path)
        assert [d.id for d in docs] == ["a", "b"]

    def test_missing_text_names_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": "a", "text": "fine"}\n{"id": "b"}\n')
        with pytest.raises(CorpusFormatError, match="line 2"):
            load_corpus_jsonl(path)

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": "a", "text": "fine"}\nnot json at all\n')
        with pytest.raises(CorpusFormatError, match="line 2"):
            load_corpus_jsonl(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text("")
        with pytest.raises(CorpusFormatError, match="no documents"):
            load_corpus_jsonl(path)

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": "a", "text": "x"}\n{"id": "a", "text": "y"}\n')
        with pytest.raises(CorpusFormatError, match="duplicate"):
            load_corpus_jsonl(path)

    def test_round_trip(self, tmp_path):
        docs = [Document("a", "apple pie"), Document("b", "banana split")]
        path = tmp_path / "corpus.jsonl"
        save_corpus_jsonl(docs, path)
        assert load_corpus_jsonl(path) == docs


# Each writer is handed a second record that cannot be encoded, so it fails
# after part of the output has been written.
FAILING_WRITES = {
    "corpus": lambda path: save_corpus_jsonl(
        [Document("a", "apple pie"), Document("b", object())], path
    ),
    "sets": lambda path: save_consistent_sets(
        [ConsistentSet(0, (1, 2), ("b", "c"), 0.75, 0.2),
         ConsistentSet(1, (3, 4), ("d", "e"), object(), 0.2)], path
    ),
    "json": lambda path: write_json_lines([{"ok": 1, "bad": object()}], path),
}


class TestAtomicWrites:
    @pytest.mark.parametrize("writer", sorted(FAILING_WRITES))
    def test_failed_write_leaves_no_file(self, tmp_path, writer):
        path = tmp_path / "out.jsonl"
        with pytest.raises(TypeError):
            FAILING_WRITES[writer](path)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("writer", sorted(FAILING_WRITES))
    def test_failed_write_keeps_existing_file(self, tmp_path, writer):
        path = tmp_path / "out.jsonl"
        path.write_text("previous contents\n")
        with pytest.raises(TypeError):
            FAILING_WRITES[writer](path)
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_text() == "previous contents\n"

    def test_write_replaces_existing_file(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text("previous contents\n")
        save_corpus_jsonl([Document("a", "apple pie")], path)
        assert load_corpus_jsonl(path) == [Document("a", "apple pie")]
        assert list(tmp_path.iterdir()) == [path]

    def test_write_through_symlink_keeps_link(self, tmp_path):
        target = tmp_path / "target.json"
        link = tmp_path / "link.json"
        target.write_text("previous contents\n")
        link.symlink_to(target)
        write_json_lines([{"a": 1}], link)
        assert link.is_symlink()
        assert target.read_text() == '{"a":1}\n'


class TestMatrixPersistence:
    def _matrix(self):
        docs = [
            Document("1", "apple banana apple"),
            Document("2", "banana cherry"),
            Document("3", "cherry cherry cherry apple"),
        ]
        vocab = build_vocabulary(docs)
        return build_doc_term_matrix(docs, vocab)

    def test_round_trip_bit_exact(self, tmp_path):
        dtm = self._matrix()
        path = tmp_path / "matrix.json"
        save_doc_term_matrix(dtm, path)
        loaded = load_doc_term_matrix(path)
        assert (loaded.matrix != dtm.matrix).nnz == 0
        assert loaded.vocab == dtm.vocab
        assert loaded.doc_ids == dtm.doc_ids
        assert loaded.weighting == dtm.weighting

    def test_tfidf_round_trip_bit_exact(self, tmp_path):
        weighted = tfidf_transform(self._matrix())
        path = tmp_path / "matrix.json"
        save_doc_term_matrix(weighted, path)
        loaded = load_doc_term_matrix(path)
        np.testing.assert_array_equal(
            loaded.matrix.toarray(), weighted.matrix.toarray()
        )
        assert loaded.weighting == "tfidf"

    def test_writes_are_deterministic(self, tmp_path):
        dtm = self._matrix()
        p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
        save_doc_term_matrix(dtm, p1)
        save_doc_term_matrix(dtm, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_triplets_column_major(self, tmp_path):
        dtm = self._matrix()
        path = tmp_path / "matrix.json"
        save_doc_term_matrix(dtm, path)
        payload = json.loads(path.read_text())
        order = [(t[1], t[0]) for t in payload["triplets"]]
        assert order == sorted(order)

    def test_rejects_other_files(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError, match="not a document-term matrix"):
            load_doc_term_matrix(path)


class TestWrittenBytes:
    """Matrix and model files keep their exact bytes: the digests below were
    recorded from the per-element writers that preceded the vectorised
    ones. Raw counts and a small-K LDA fit use only exactly rounded
    arithmetic, so the bytes do not depend on the BLAS build."""

    @staticmethod
    def digest(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    def test_matrix_and_model_files(self, tmp_path):
        docs, _ = planted_topic_corpus(3, 4, 30, 20, seed=5, background_fraction=0.15)
        dtm = build_doc_term_matrix(docs, build_vocabulary(docs))
        save_doc_term_matrix(dtm, tmp_path / "m.json")
        model = lda_fit(dtm, LdaConfig(n_topics=3, iterations=5, seed=2))
        save_topic_dictionary(model, tmp_path / "t.json")
        hand = TopicDictionary(
            weights=np.arange(1.0, 7.0).reshape(3, 2) / 7.0,
            model="lsa",
            meta={"seed": 0},
            vocab=["a", "b", "c"],
            singular_values=np.array([3.5, 1 / 3]),
        )
        save_topic_dictionary(hand, tmp_path / "h.json")
        assert self.digest(tmp_path / "m.json") == (
            "076300a6e09ecd60d0e380068410e380be20b6fc63fa0ab382e54600f7d56a3a"
        )
        assert self.digest(tmp_path / "t.json") == (
            "8c1d93e67a60d195e230d352e548a54fc8c7b0a61c91634988521ce5e7cefdc6"
        )
        assert self.digest(tmp_path / "h.json") == (
            "9583103f03b7e53f2bda7d138e6ceb1f671310ea190896483531e225d9da286f"
        )
