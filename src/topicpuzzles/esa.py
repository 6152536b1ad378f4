"""Explicit semantic analysis: per-word concept vectors over a concept
repository, and pairwise word relatedness as the cosine of those vectors.

The vectors are the rows of one CSR matrix; with rows scaled to unit norm
(``R``), relatedness is a dot product of rows, served only as entries of
block products such as ``R[S] R[S]^T`` for a word set. A single pair is
the 1x1 block, so every path returns the same float for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .corpus import (
    DEFAULT_TOKENIZER,
    TokenizerConfig,
    build_doc_term_matrix,
    build_vocabulary,
    load_versioned_json,
    tfidf_transform,
    write_json_lines,
)

DEFAULT_TRUNCATION = 1000


@dataclass(frozen=True)
class EsaConfig:
    """Concept-index construction policy. ``max_concepts_per_word`` truncates
    each word's vector to its largest-weight concepts."""

    max_concepts_per_word: int = DEFAULT_TRUNCATION
    min_df: int = 1
    max_df_ratio: float = 1.0
    tokenizer: TokenizerConfig = DEFAULT_TOKENIZER


def _check(ok, message):
    if not ok:
        raise ValueError(f"ESA index {message}")


def _int_array(values, name):
    array = np.asarray(values)
    _check(array.ndim == 1 and (array.size == 0 or array.dtype.kind in "iu"),
           f"{name} must be a flat list of integers")
    return array.astype(np.int64)


class EsaIndex:
    """Sparse TF-IDF concept vectors of the indexed words, one CSR row each.

    Row i belongs to ``words()[i]``; words are sorted and unique. Within a
    row, concept positions (``indices``) strictly ascend and weights
    (``data``) are finite and positive; no row is empty, so words without a
    concept vector are simply absent. ``R`` is the same matrix with
    unit-norm rows. The constructor checks all of this (ValueError).
    """

    def __init__(
        self, concept_ids, words, indptr, indices, data, truncation=DEFAULT_TRUNCATION
    ):
        self.concept_ids = list(concept_ids)
        self._words = list(words)
        self.truncation = truncation
        self.indptr = _int_array(indptr, "indptr")
        self.indices = _int_array(indices, "indices")
        self.data = np.asarray(data, dtype=np.float64)
        n_words, n_concepts, nnz = len(self._words), self.n_concepts, len(self.indices)
        _check(all(isinstance(w, str) for w in self._words)
               and self._words == sorted(set(self._words)),
               "words must be unique strings in sorted order")
        lengths = np.diff(self.indptr)
        _check(len(self.indptr) == n_words + 1 and self.indptr[0] == 0
               and self.indptr[-1] == nnz and np.all(lengths > 0),
               f"indptr must rise strictly from 0 to {nnz} in {n_words + 1} entries")
        _check(self.data.shape == (nnz,)
               and np.all(np.isfinite(self.data) & (self.data > 0)),
               f"data must hold {nnz} finite positive weights")
        # (row, concept) pairs ascend strictly iff each row's concepts do
        key = np.repeat(np.arange(n_words), lengths) * n_concepts + self.indices
        _check(np.all((self.indices >= 0) & (self.indices < n_concepts))
               and np.all(np.diff(key) > 0),
               f"concept indices must lie in [0, {n_concepts}) and ascend "
               f"strictly within each row")
        self._row = {word: i for i, word in enumerate(self._words)}
        norms = np.sqrt(np.add.reduceat(self.data * self.data, self.indptr[:-1]))
        self.R = sp.csr_matrix(
            (self.data / np.repeat(norms, lengths), self.indices, self.indptr),
            shape=(n_words, n_concepts),
        )

    @property
    def n_concepts(self):
        return len(self.concept_ids)

    def __len__(self):
        return len(self._words)

    def words(self):
        """Indexed words in lexicographic order (row order)."""
        return list(self._words)

    def row(self, word):
        """Row of ``word`` in the matrix, or -1 if it is not indexed."""
        return self._row.get(word, -1)


def build_esa_index(concepts, config=EsaConfig()):
    """Index a concept repository: each word's vector holds its TF-IDF weight
    in every concept document, truncated to the top ``max_concepts_per_word``
    concepts by weight (ties to the lower concept id). Deterministic."""
    concepts = list(concepts)
    if not concepts:
        raise ValueError("empty concept corpus")
    vocab = build_vocabulary(
        concepts, config.min_df, config.max_df_ratio, config.tokenizer
    )
    dtm = build_doc_term_matrix(concepts, vocab, config.tokenizer)
    weighted = tfidf_transform(dtm)
    csr = weighted.matrix.tocsr()
    csr.sort_indices()
    limit = config.max_concepts_per_word
    keep = np.ones(csr.nnz, dtype=bool)
    for i in np.flatnonzero(np.diff(csr.indptr) > limit):
        start, end = csr.indptr[i], csr.indptr[i + 1]
        order = np.lexsort((csr.indices[start:end], -csr.data[start:end]))
        keep[start + order[limit:]] = False
    rows = np.repeat(np.arange(len(vocab.words)), np.diff(csr.indptr))[keep]
    present = np.unique(rows)  # words with an empty vector are left out
    return EsaIndex(
        weighted.doc_ids,
        [vocab.words[i] for i in present],
        np.append(np.searchsorted(rows, present), rows.size),
        csr.indices[keep],
        csr.data[keep],
        truncation=limit,
    )


class SimilarityProvider:
    """Serves word relatedness from the row-normalised matrix ``R`` of an
    EsaIndex, as block products over resolved rows.

    Words are strings or, with a vocabulary attached, indices into it; a
    lookup array maps those indices to rows (-1 if not indexed). Values are
    cosines clamped to [0, 1], exactly 1 for an indexed word with itself.
    Unindexed words yield 0 and are recorded in ``missing_words`` instead
    of raising, so downstream sampling loops degrade gracefully.
    """

    def __init__(self, index, vocabulary=None):
        self.index = index
        self.vocabulary = list(vocabulary) if vocabulary is not None else None
        self.missing_words = set()
        self._vocabulary_rows = None if vocabulary is None else np.array(
            [index.row(w) for w in self.vocabulary], dtype=np.int64
        )

    @cached_property
    def _transposed(self):
        """R^T as a concepts x words CSR matrix, for set-versus-all products."""
        return self.index.R.T.tocsr()

    def word_for_index(self, i):
        if self.vocabulary is None:
            raise ValueError("similarity provider has no vocabulary attached")
        return self.vocabulary[i]

    def _rows(self, words):
        """R rows of words given all as strings or all as vocabulary
        indices; -1 marks (and records) a word the index lacks."""
        if all(isinstance(w, str) for w in words):
            rows = np.array([self.index.row(w) for w in words], dtype=np.int64)
            names = words
        else:
            positions = np.asarray(words, dtype=np.int64)
            names = [self.word_for_index(i) for i in positions]
            rows = self._vocabulary_rows[positions]
        self.missing_words.update(names[p] for p in np.flatnonzero(rows < 0))
        return rows

    def relatedness(self, word_a, word_b):
        """Cosine of the two concept vectors; 0 if either is missing. This
        is the 1x1 block; a loop over pairs should ask for one block."""
        return float(self.cross_relatedness([word_a], [word_b])[0, 0])

    def similarity_submatrix(self, words):
        """Symmetric relatedness matrix over a word set (indices into the
        attached vocabulary, or word strings); unit diagonal for indexed
        words, zero for missing ones."""
        return self.cross_relatedness(words, words)

    def cross_relatedness(self, words_a, words_b):
        """Relatedness of every word of ``words_a`` (rows) to every word of
        ``words_b`` (columns), from one product ``R[A] R[B]^T``."""
        rows_a, rows_b = self._rows(words_a), self._rows(words_b)
        out = np.zeros((len(rows_a), len(rows_b)))
        ia, ib = np.flatnonzero(rows_a >= 0), np.flatnonzero(rows_b >= 0)
        if ia.size and ib.size:
            R = self.index.R
            block = (R[rows_a[ia]] @ R[rows_b[ib]].T).toarray()
            out[np.ix_(ia, ib)] = np.minimum(block, 1.0)
        out[(rows_a[:, None] == rows_b[None, :]) & (rows_a[:, None] >= 0)] = 1.0
        return out

    def max_relatedness(self, anchors, candidates):
        """For each candidate word, its max relatedness to the anchor words
        (0 for an unindexed candidate). One product ``R[anchors] R^T`` gives
        the value for every indexed word at once."""
        rows = self._rows(anchors)
        rows = rows[rows >= 0]
        sigma = np.zeros(len(self.index) + 1)  # the last slot serves row -1
        if rows.size:
            products = (self.index.R[rows] @ self._transposed).toarray()
            sigma[:-1] = np.minimum(products.max(axis=0), 1.0)
            sigma[rows] = 1.0
        return sigma[[self.index.row(w) for w in candidates]]


ESA_FORMAT = "esa-index"
ESA_VERSION = 2
# in the order of the EsaIndex constructor's parameters
_ESA_KEYS = ("concept_ids", "words", "indptr", "indices", "data", "truncation")


def save_esa_index(index, path):
    """Versioned JSON header plus the flat CSR arrays (words, indptr,
    indices, data) of the raw TF-IDF rows; round-trips bit-exactly."""
    payload = {
        "format": ESA_FORMAT,
        "version": ESA_VERSION,
        "concept_ids": index.concept_ids,
        "truncation": index.truncation,
        "words": index.words(),
        "indptr": index.indptr.tolist(),
        "indices": index.indices.tolist(),
        "data": index.data.tolist(),
    }
    write_json_lines([payload], path)


def load_esa_index(path):
    """Read and check an index file; raises ValueError on a file of another
    format or version, a missing key, no words, or inconsistent arrays."""
    payload = load_versioned_json(
        path, ESA_FORMAT, "an ESA index", ESA_VERSION, _ESA_KEYS,
        stale="; re-run `index` to rebuild it",
    )
    if not payload["words"]:
        raise ValueError(f"{path}: ESA index has no words")
    try:
        return EsaIndex(*(payload[key] for key in _ESA_KEYS))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc
