import hashlib
import json
import math
import warnings

import numpy as np
import pytest
from conftest import CONTAINER_CORRUPTIONS, decode_array_file
from oracles import as_scipy, counter_build_doc_term_matrix, counter_build_vocabulary, tokenize

from topicpuzzles import esa
from topicpuzzles.consistency import ConsistentSet, save_consistent_sets
from topicpuzzles.corpus import (
    DTM_FILE,
    CorpusFormatError,
    Document,
    EmptyVocabularyError,
    TokenizerConfig,
    build_doc_term_matrix,
    build_vocabulary,
    load_corpus_jsonl,
    load_doc_term_matrix,
    save_corpus_jsonl,
    save_doc_term_matrix,
    tfidf_transform,
    write_json_lines,
)
from topicpuzzles.synthetic import planted_topic_corpus
from topicpuzzles.esa import EsaConfig, build_esa_index, load_esa_index, save_esa_index
from topicpuzzles.topic_models import (
    LdaConfig,
    TopicDictionary,
    lda_fit,
    load_topic_dictionary,
    lsa_fit,
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
        assert "ubiquitous" not in vocab.words
        assert set(vocab.words) == {"apple", "banana", "cherry"}

    def test_lexicographic_indices(self):
        docs = [Document(str(i), "alpha beta") for i in range(3)]
        vocab = build_vocabulary(docs, min_df=1)
        assert len(vocab) == 2
        assert vocab.words.index("alpha") == 0
        assert vocab.words.index("beta") == 1

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
        assert vocab.doc_freq[vocab.words.index("apple")] == 2
        assert vocab.doc_freq[vocab.words.index("banana")] == 1


class TestBuildDocTermMatrix:
    def test_counts_column(self):
        docs = [Document("d", "alpha alpha beta")]
        dtm = build_doc_term_matrix(docs)
        np.testing.assert_array_equal(
            as_scipy(dtm.matrix).toarray().ravel(), np.array([2.0, 1.0])
        )
        assert dtm.weighting == "raw-count"

    def test_empty_document_dropped_with_warning(self):
        docs = [Document("good", "alpha beta"), Document("empty", "the")]
        with pytest.warns(UserWarning, match="empty"):
            dtm = build_doc_term_matrix(docs)
        assert dtm.n_docs == 1
        assert dtm.doc_ids == ["good"]

    def test_mass_conservation(self):
        rng = np.random.default_rng(0)
        pool = ["apple", "banana", "cherry", "plum", "grape"]
        docs = [
            Document(str(i), " ".join(rng.choice(pool, size=rng.integers(1, 20))))
            for i in range(10)
        ]
        dtm = build_doc_term_matrix(docs)
        vocab = dtm.vocab
        retained = sum(
            1
            for doc in docs
            for tok in tokenize(doc.text)
            if tok in vocab.words
        )
        assert dtm.matrix.sum() == retained

    def test_retokenizing_reproduces_column(self):
        rng = np.random.default_rng(1)
        pool = ["apple", "banana", "cherry", "plum", "grape", "melon"]
        docs = [
            Document(str(i), " ".join(rng.choice(pool, size=15))) for i in range(6)
        ]
        dtm = build_doc_term_matrix(docs)
        row = {w: i for i, w in enumerate(dtm.vocab.words)}
        for j, doc_id in enumerate(dtm.doc_ids):
            doc = next(d for d in docs if d.id == doc_id)
            expected = np.zeros(len(row))
            for tok in tokenize(doc.text):
                if tok in row:
                    expected[row[tok]] += 1
            np.testing.assert_array_equal(as_scipy(dtm.matrix)[:, j].toarray().ravel(), expected)

    def test_all_entries_positive(self):
        docs = [Document("1", "apple banana"), Document("2", "banana cherry")]
        dtm = build_doc_term_matrix(docs)
        assert np.all(dtm.matrix.data > 0)

    def test_determinism_bit_identical(self):
        docs = [Document(str(i), "apple banana cherry apple") for i in range(4)]
        a = build_doc_term_matrix(docs)
        b = build_doc_term_matrix(docs)
        assert (as_scipy(a.matrix) != as_scipy(b.matrix)).nnz == 0
        assert a.doc_ids == b.doc_ids


# Pieces of the random oracle corpora: mixed case, stopwords, one- and
# two-letter words, a mixed-case word longer than 8 letters, digits,
# punctuation, NUL and a lone surrogate inside words, and non-ASCII text,
# some of which lowercases to ASCII letters (the Kelvin sign to "k",
# "\u0130" to "i" plus a combining dot) and some of which does not (Greek
# capitals, whose last sigma lowercases to a final sigma).
ORACLE_PIECES = [
    "Apple", "apple", "APPLE", "banana", "Cherry", "plum", "grape", "melon",
    "the", "The", "and", "of", "a", "I", "x", "ox", "go", "abc123def", "z9z",
    "well-known", "don't", "3.14", "!!!", "\u212aelvin", "\u0130stanbul",
    "caf\u00e9", "\u00c6sir", "stra\u00dfe", "\ufb01ne", "\u00e9t\u00e9",
    "ExtraORDINARYwords", "plum\ud800tree", "\ud800", "nul\x00byte",
    "\u03a3\u0391\u03a3", "\u03a3\u0391\u03a3plum",
]
# Documents every oracle corpus holds besides its random ones: no tokens,
# stopwords only, digits and punctuation only, one word found nowhere else,
# non-ASCII and control characters only.
ORACLE_FIXED = ["", "The of AND", "42 !!! 3.14", "zyzzyva", "\u212a \u0130",
                "\ud800\x00\u03a3\u0391\u03a3\r\x0b\x0c"]

ORACLE_SEPARATORS = [" ", ", ", "\n", "-", "\t", ".", "\x00", "\r", "\x0b", "\x0c"]

KEEP_STOPWORDS = TokenizerConfig(stopwords=frozenset())
ORACLE_CASES = {
    "defaults": ({}, 0),
    "keep-stopwords": ({"config": KEEP_STOPWORDS}, 1),
    "min-token-len-1": ({"config": TokenizerConfig(min_token_len=1)}, 2),
    "min-token-len-3": ({"config": TokenizerConfig(min_token_len=3)}, 3),
    "min-token-len-0": ({"config": TokenizerConfig(min_token_len=0)}, 8),
    "min-df-2": ({"min_df": 2}, 4),
    "min-df-5": ({"min_df": 5, "config": KEEP_STOPWORDS}, 5),
    "max-df-ratio-0.3": ({"max_df_ratio": 0.3}, 6),
    "both-filters": (
        {"min_df": 2, "max_df_ratio": 0.5,
         "config": TokenizerConfig(stopwords=frozenset(), min_token_len=1)},
        7,
    ),
}


def oracle_corpus(seed, n_docs=30):
    """Random documents of 0-12 pieces with random separators, plus the
    fixed documents, shuffled; ids are unique but not in sorted order."""
    rng = np.random.default_rng(seed)
    texts = list(ORACLE_FIXED)
    for _ in range(n_docs):
        pieces = rng.choice(ORACLE_PIECES, size=rng.integers(0, 13))
        # drawn by index: a numpy str array would drop a trailing NUL
        seps = [ORACLE_SEPARATORS[i]
                for i in rng.choice(len(ORACLE_SEPARATORS), size=len(pieces))]
        texts.append("".join(p + q for p, q in zip(pieces, seps)))
    order = rng.permutation(len(texts))
    return [Document(f"doc{int(k) * 7 % 101}", texts[k]) for k in order]


def outcome(build):
    """(result, warnings as (category, text)) of ``build()``, or the type
    and text of the error it raises."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = build()
        except ValueError as exc:
            return type(exc), str(exc)
    return result, [(w.category, str(w.message)) for w in caught]


def assert_same_vocabulary(got, want):
    assert got.words == want.words
    assert got.doc_freq == want.doc_freq
    assert list(map(type, got.doc_freq)) == list(map(type, want.doc_freq))
    assert got.n_docs == want.n_docs


def assert_same_arrays(got, want, names):
    for name in names:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)


class TestCountingPassMatchesOracle:
    """``build_doc_term_matrix`` against the two-pass builders it replaced
    (tests/oracles.py): the same vocabulary, matrix arrays and dtypes,
    warnings and errors on a seeded table of corpora."""

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_matrix_and_warnings(self, case):
        kwargs, seed = ORACLE_CASES[case]
        docs = oracle_corpus(seed)
        config = kwargs.get("config", TokenizerConfig())
        filters = {k: v for k, v in kwargs.items() if k != "config"}
        want, want_warnings = outcome(lambda: counter_build_doc_term_matrix(
            docs, counter_build_vocabulary(docs, **kwargs), config))
        got, got_warnings = outcome(lambda: build_doc_term_matrix(docs, **kwargs))
        assert got_warnings == want_warnings
        assert want_warnings  # every corpus drops a document
        assert_same_vocabulary(got.vocab, want.vocab)
        assert got.doc_ids == want.doc_ids
        assert got.weighting == want.weighting
        assert got.matrix.shape == want.matrix.shape
        assert_same_arrays(got.matrix, want.matrix, ("indptr", "indices", "data"))
        vocab, vocab_warnings = outcome(
            lambda: build_vocabulary(docs, config=config, **filters))
        assert vocab_warnings == []
        assert_same_vocabulary(vocab, want.vocab)

    @pytest.mark.parametrize("config", [TokenizerConfig(), TokenizerConfig(
        stopwords=frozenset(), min_token_len=1)], ids=["defaults", "every-token"])
    @pytest.mark.parametrize("seed", range(3))
    def test_random_code_points(self, seed, config):
        """Documents of random code points: a quarter from the whole code
        space, lone surrogates included; a quarter from characters whose
        lowercase holds an ASCII letter (U+0130, U+212A) or none (U+FB01,
        sigma, capital sharp s), and NUL; a quarter from all of ASCII; a
        quarter ASCII letters or the punctuation between the two cases."""
        rng = np.random.default_rng(seed)
        special = [0x130, 0x212A, 0xFB01, 0x3A3, 0x1E9E, 0x0]
        docs = []
        for j in range(40):
            n = int(rng.integers(0, 150))
            points = np.choose(rng.integers(0, 4, size=n), [
                rng.integers(0, 0x110000, size=n), rng.choice(special, size=n),
                rng.integers(0, 0x80, size=n), rng.integers(0x41, 0x7B, size=n)])
            docs.append(Document(f"d{j}", "".join(map(chr, points.tolist()))))
        want, want_warnings = outcome(lambda: counter_build_doc_term_matrix(
            docs, counter_build_vocabulary(docs, config=config), config))
        got, got_warnings = outcome(lambda: build_doc_term_matrix(docs, config=config))
        assert got_warnings == want_warnings
        assert_same_vocabulary(got.vocab, want.vocab)
        assert got.doc_ids == want.doc_ids
        assert_same_arrays(got.matrix, want.matrix, ("indptr", "indices", "data"))

    @pytest.mark.parametrize("docs,kwargs", [
        ([Document("a", "apple"), Document("a", "banana")], {}),
        ([Document("a", "the of"), Document("b", "")], {}),
        ([], {}),
        (oracle_corpus(8), {"min_df": 40}),
        (oracle_corpus(9), {"min_df": 0}),
        (oracle_corpus(9), {"max_df_ratio": 0.0}),
        (oracle_corpus(9), {"max_df_ratio": 1.5}),
    ], ids=["duplicate-ids", "no-words", "no-documents", "min-df-above-all",
            "min-df-0", "max-df-ratio-0", "max-df-ratio-above-1"])
    def test_errors(self, docs, kwargs):
        want = outcome(lambda: counter_build_vocabulary(docs, **kwargs))
        assert want[0] in (ValueError, EmptyVocabularyError)
        assert outcome(lambda: build_doc_term_matrix(docs, **kwargs)) == want
        assert outcome(lambda: build_vocabulary(docs, **kwargs)) == want

    @pytest.mark.filterwarnings("ignore:document .* was dropped")
    def test_esa_index_matches_an_index_of_the_oracle_matrix(self, monkeypatch):
        concepts = oracle_corpus(10, n_docs=60)
        config = EsaConfig(max_concepts_per_word=3, min_df=2, max_df_ratio=0.3,
                           tokenizer=KEEP_STOPWORDS)
        got = build_esa_index(concepts, config)
        # The oracle reads the filters from ``config``, not from the call's
        # arguments, so a call that passed them wrongly would not match.
        monkeypatch.setattr(esa, "build_doc_term_matrix", lambda docs, *_: (
            counter_build_doc_term_matrix(docs, counter_build_vocabulary(
                docs, config.min_df, config.max_df_ratio, config.tokenizer),
                config.tokenizer)))
        want = build_esa_index(concepts, config)
        assert got.words() == want.words()
        assert got.concept_ids == want.concept_ids
        assert_same_arrays(got, want, ("indptr", "indices", "data"))


class TestTfidf:
    def test_word_in_all_docs_zeroed(self):
        docs = [Document("1", "shared apple"), Document("2", "shared banana")]
        dtm = build_doc_term_matrix(docs)
        weighted = tfidf_transform(dtm)
        row = dtm.vocab.words.index("shared")
        np.testing.assert_array_equal(
            as_scipy(weighted.matrix)[row].toarray().ravel(), np.zeros(2)
        )
        assert weighted.weighting == "tfidf"

    def test_formula_value(self):
        docs = [Document("1", "rare rare rare apple"), Document("2", "apple")]
        dtm = build_doc_term_matrix(docs)
        weighted = tfidf_transform(dtm)
        row = dtm.vocab.words.index("rare")
        assert as_scipy(weighted.matrix)[row, 0] == pytest.approx(3 * math.log(2), abs=1e-12)

    def test_nnz_does_not_grow(self):
        docs = [
            Document("1", "apple banana shared"),
            Document("2", "cherry shared"),
        ]
        dtm = build_doc_term_matrix(docs)
        weighted = tfidf_transform(dtm)
        assert weighted.matrix.nnz <= dtm.matrix.nnz
        assert np.all(weighted.matrix.data > 0)

    def test_double_transform_rejected(self):
        docs = [Document("1", "apple banana"), Document("2", "apple")]
        weighted = tfidf_transform(build_doc_term_matrix(docs))
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
# after part of the output has been written; the array file writer is
# handed a header field that cannot be encoded.
FAILING_WRITES = {
    "corpus": lambda path: save_corpus_jsonl(
        [Document("a", "apple pie"), Document("b", object())], path
    ),
    "sets": lambda path: save_consistent_sets(
        [ConsistentSet(0, (1, 2), ("b", "c"), 0.75, 0.2),
         ConsistentSet(1, (3, 4), ("d", "e"), object(), 0.2)], path
    ),
    "json": lambda path: write_json_lines([{"ok": 1, "bad": object()}], path),
    "array": lambda path: DTM_FILE.save(
        path, {"bad": object()}, {"indptr": [0], "indices": [], "data": []}
    ),
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
        return build_doc_term_matrix(docs)

    def test_round_trip_bit_exact(self, tmp_path):
        dtm = self._matrix()
        path = tmp_path / "matrix.json"
        save_doc_term_matrix(dtm, path)
        loaded = load_doc_term_matrix(path)
        assert (as_scipy(loaded.matrix) != as_scipy(dtm.matrix)).nnz == 0
        assert loaded.vocab == dtm.vocab
        assert loaded.doc_ids == dtm.doc_ids
        assert loaded.weighting == dtm.weighting

    def test_tfidf_round_trip_bit_exact(self, tmp_path):
        weighted = tfidf_transform(self._matrix())
        path = tmp_path / "matrix.json"
        save_doc_term_matrix(weighted, path)
        loaded = load_doc_term_matrix(path)
        np.testing.assert_array_equal(
            as_scipy(loaded.matrix).toarray(), as_scipy(weighted.matrix).toarray()
        )
        assert loaded.weighting == "tfidf"

    def test_writes_are_deterministic(self, tmp_path):
        dtm = self._matrix()
        p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
        save_doc_term_matrix(dtm, p1)
        save_doc_term_matrix(dtm, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_arrays_are_csc_one_slice_per_document(self, tmp_path):
        dtm = self._matrix()
        path = tmp_path / "matrix.json"
        save_doc_term_matrix(dtm, path)
        payload = decode_array_file(path.read_bytes())
        assert payload["version"] == 3
        assert payload["arrays"] == [
            ["indptr", "<i8", dtm.n_docs + 1],
            ["indices", "<i8", dtm.matrix.nnz],
            ["data", "<f8", dtm.matrix.nnz],
        ]
        assert payload["indptr"] == dtm.matrix.indptr.tolist()
        assert payload["indices"] == dtm.matrix.indices.tolist()
        assert payload["data"] == dtm.matrix.data.tolist()
        for start, end in zip(payload["indptr"], payload["indptr"][1:]):
            rows = payload["indices"][start:end]
            assert rows == sorted(set(rows))

    def test_arrays_and_file_round_trip_bit_for_bit(self, tmp_path):
        weighted = tfidf_transform(self._matrix())
        path, again = tmp_path / "matrix.json", tmp_path / "again.json"
        save_doc_term_matrix(weighted, path)
        loaded = load_doc_term_matrix(path)
        for name in ("indptr", "indices", "data"):
            assert (getattr(loaded.matrix, name).tobytes()
                    == getattr(weighted.matrix, name).tobytes())
        save_doc_term_matrix(loaded, again)
        assert again.read_bytes() == path.read_bytes()

    def test_loaded_arrays_are_writable(self, tmp_path):
        path = tmp_path / "matrix.json"
        save_doc_term_matrix(self._matrix(), path)
        matrix = load_doc_term_matrix(path).matrix
        assert all(getattr(matrix, name).flags.writeable
                   for name in ("indptr", "indices", "data"))
        matrix.data *= 2.0

    def test_tfidf_empty_document_column_round_trips(self, tmp_path):
        # "apple" is in every document, so TF-IDF empties the second column
        docs = [Document("1", "apple banana"), Document("2", "apple apple")]
        weighted = tfidf_transform(build_doc_term_matrix(docs))
        assert np.diff(weighted.matrix.indptr).tolist() == [1, 0]
        path = tmp_path / "matrix.json"
        save_doc_term_matrix(weighted, path)
        loaded = load_doc_term_matrix(path)
        assert loaded.matrix.shape == weighted.matrix.shape
        for name in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(
                getattr(loaded.matrix, name), getattr(weighted.matrix, name)
            )
        assert loaded.matrix.data.tobytes() == weighted.matrix.data.tobytes()
        assert loaded.doc_ids == weighted.doc_ids

    def test_version_1_asks_for_ingest(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"format": "doc-term-matrix", "version": 1}))
        with pytest.raises(ValueError, match="unsupported version 1; re-run `ingest`"):
            load_doc_term_matrix(path)

    def test_version_2_json_file_asks_for_ingest(self, tmp_path):
        path = tmp_path / "matrix.json"
        save_doc_term_matrix(self._matrix(), path)
        payload = decode_array_file(path.read_bytes())
        del payload["arrays"]
        path.write_text(json.dumps({**payload, "version": 2}) + "\n")
        with pytest.raises(ValueError) as caught:
            load_doc_term_matrix(path)
        assert str(caught.value) == (
            f"{path}: unsupported version 2; re-run `ingest` to rebuild it"
        )

    def test_rejects_other_files(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError, match="not a document-term matrix"):
            load_doc_term_matrix(path)


class TestWrittenBytes:
    """Matrix and model files keep their exact bytes. The container
    digests were recorded when the files became array files; the same
    header fields and arrays, written back as the JSON payloads that
    preceded them, give the earlier digests: those of the version 1
    matrix writer's triplets re-encoded by hand as version 2 CSC arrays,
    and of the per-element model writers. Raw counts and a small-K LDA fit
    use only exactly rounded arithmetic, so the bytes do not depend on the
    BLAS build."""

    @staticmethod
    def digest(raw):
        return hashlib.sha256(raw).hexdigest()

    def json_digest(self, path, version):
        """Digest of the file's contents as one JSON object of the given
        version, arrays as lists, an absent singular_values as null."""
        payload = decode_array_file(path.read_bytes())
        names = [name for name, *_ in payload.pop("arrays")]
        if names[0] == "weights":
            payload.setdefault("singular_values", None)
        payload["version"] = version
        text = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
        return self.digest(text.encode())

    @pytest.fixture
    def files(self, tmp_path):
        docs, _ = planted_topic_corpus(3, 4, 30, 20, seed=5, background_fraction=0.15)
        dtm = build_doc_term_matrix(docs)
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
        return tmp_path

    def test_matrix_and_model_files(self, files):
        assert self.digest((files / "m.json").read_bytes()) == (
            "3550c8c902cf5c419a1947326f9d2c2c9277e90852785684042ee7559f73db43"
        )
        assert self.digest((files / "t.json").read_bytes()) == (
            "0ab86f587e9cef13f315063bad80e669aae761faa761aced0c60c7445901e1d5"
        )
        assert self.digest((files / "h.json").read_bytes()) == (
            "44b89abacecb0b8623bf523b94be9346e3cd70758dba0a61129dd0a332223349"
        )

    def test_contents_equal_the_json_payloads(self, files):
        assert self.json_digest(files / "m.json", 2) == (
            "65430dd16cd43eb8c735f69b30bdaa7a3e97c8c3944ec4d9f0d8fc3f2a7177f2"
        )
        assert self.json_digest(files / "t.json", 1) == (
            "8c1d93e67a60d195e230d352e548a54fc8c7b0a61c91634988521ce5e7cefdc6"
        )
        assert self.json_digest(files / "h.json", 1) == (
            "9583103f03b7e53f2bda7d138e6ceb1f671310ea190896483531e225d9da286f"
        )


class TestArrayFiles:
    """Each array file (matrix, index, LSA model) is rejected, with a
    message that starts with its path, when its bytes or header do not
    match the arrays its type lists."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("array-files")
        docs = [
            Document("1", "apple banana apple plum"),
            Document("2", "banana cherry plum"),
            Document("3", "cherry cherry cherry apple"),
            Document("4", "plum banana cherry"),
        ]
        dtm = build_doc_term_matrix(docs)
        save_doc_term_matrix(dtm, tmp / "matrix.json")
        save_esa_index(build_esa_index(docs), tmp / "index.json")
        save_topic_dictionary(lsa_fit(dtm, 2), tmp / "model.json")
        return {
            "matrix": (tmp / "matrix.json", load_doc_term_matrix),
            "index": (tmp / "index.json", load_esa_index),
            "model": (tmp / "model.json", load_topic_dictionary),
        }

    @pytest.mark.parametrize("name", ["matrix", "index", "model"])
    @pytest.mark.parametrize("row,change,message", CONTAINER_CORRUPTIONS,
                             ids=[row for row, *_ in CONTAINER_CORRUPTIONS])
    def test_corrupt_file_rejected(self, files, tmp_path, name, row, change, message):
        path, load = files[name]
        load(path)
        broken = tmp_path / f"{name}.json"
        broken.write_bytes(change(path.read_bytes()))
        with pytest.raises(ValueError, match=message) as caught:
            load(broken)
        assert str(caught.value).startswith(f"{broken}: ")

    @pytest.mark.parametrize("name", ["matrix", "index", "model"])
    def test_empty_file_rejected(self, files, tmp_path, name):
        load = files[name][1]
        empty = tmp_path / "empty.json"
        empty.write_bytes(b"")
        with pytest.raises(ValueError, match=f"^{empty}: not an? "):
            load(empty)
