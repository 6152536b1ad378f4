"""Explicit semantic analysis: per-word concept vectors over a concept
repository, and pairwise word relatedness as the cosine of those vectors.

The vectors are the rows of one CSR matrix, a ``corpus.CompressedMatrix``;
with rows scaled to unit norm (``R``), relatedness is a dot product of
rows, served only as entries of block products such as ``R[S] R[S]^T`` for
a word set. A single pair is the 1x1 block, so every path returns the
same float for it. Words are strings, turned into rows only by
``SimilarityProvider.rows``. ``rows_by_group`` is the one row path of
``extract-sets``, ``eval-yield`` and ``generate``: the rows of one chunked
product, handed out per group.

The index build's transpose and each block product run as
``kernels.load_kernels()``'s ``tocsc`` and ``block``: the C kernels, or
their scipy twins, which give the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import (
    DEFAULT_TOKENIZER,
    FLOAT64,
    INT64,
    ArrayFile,
    CompressedMatrix,
    TokenizerConfig,
    build_doc_term_matrix,
    build_vocabulary,  # noqa: F401  traced by bench/tracer.py; see ROADMAP item 2
    compressed_arrays,
    is_list_of,
    tfidf_transform,
)
from .kernels import load_kernels

DEFAULT_TRUNCATION = 1000
# Rows of one block product in ``SimilarityProvider.related_rows``: a block
# holds this many rows of floats over every indexed word.
_CHUNK_ROWS = 64


@dataclass(frozen=True)
class EsaConfig:
    """Concept-index construction policy. ``max_concepts_per_word`` truncates
    each word's vector to its largest-weight concepts."""

    max_concepts_per_word: int = DEFAULT_TRUNCATION
    min_df: int = 1
    max_df_ratio: float = 1.0
    tokenizer: TokenizerConfig = DEFAULT_TOKENIZER


class EsaIndex:
    """Sparse TF-IDF concept vectors of the indexed words, one CSR row each.

    Row i belongs to ``words()[i]``; words are sorted, unique strs, concept
    ids are strs and ``truncation`` is an int >= 1. The arrays pass
    ``corpus.compressed_arrays`` and no row is empty, so words without a
    concept vector are simply absent. ``R`` is the same matrix with
    unit-norm rows, a CSR CompressedMatrix. The constructor checks all of
    this (ValueError).
    """

    def __init__(
        self, concept_ids, words, indptr, indices, data, truncation=DEFAULT_TRUNCATION
    ):
        if not is_list_of(concept_ids, (str,)):
            raise ValueError("ESA index concept_ids must be a list of str")
        if type(truncation) is not int or truncation < 1:
            raise ValueError("ESA index truncation must be an int >= 1")
        if not (is_list_of(words, (str,)) and words == sorted(set(words))):
            raise ValueError("ESA index words must be unique strings in sorted order")
        self.concept_ids, self._words = list(concept_ids), list(words)
        self.truncation = truncation
        n_words, n_concepts = len(words), self.n_concepts
        self.indptr, self.indices, self.data = compressed_arrays(
            indptr, indices, data, n_words, n_concepts, "concept", "row"
        )
        lengths = np.diff(self.indptr)
        if not np.all(lengths > 0):
            raise ValueError("ESA index indptr must rise strictly: no row is empty")
        self._row = {word: i for i, word in enumerate(words)}
        norms = np.sqrt(np.add.reduceat(self.data * self.data, self.indptr[:-1]))
        self.R = CompressedMatrix.trusted(
            self.indptr, self.indices, self.data / np.repeat(norms, lengths),
            (n_words, n_concepts), "csr",
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
    dtm = build_doc_term_matrix(
        concepts, config.min_df, config.max_df_ratio, config.tokenizer
    )
    vocab = dtm.vocab
    weighted = tfidf_transform(dtm).matrix
    csr = load_kernels()[0].tocsc(weighted.T, np.arange(weighted.shape[1])).T
    limit = config.max_concepts_per_word
    keep = np.ones(csr.nnz, dtype=bool)
    for i in np.flatnonzero(np.diff(csr.indptr) > limit):
        start, end = csr.indptr[i], csr.indptr[i + 1]
        order = np.lexsort((csr.indices[start:end], -csr.data[start:end]))
        keep[start + order[limit:]] = False
    rows = np.repeat(np.arange(len(vocab.words)), np.diff(csr.indptr))[keep]
    present = np.unique(rows)  # words with an empty vector are left out
    return EsaIndex(
        dtm.doc_ids,
        [vocab.words[i] for i in present],
        np.append(np.searchsorted(rows, present), rows.size),
        csr.indices[keep],
        csr.data[keep],
        truncation=limit,
    )


class SimilarityProvider:
    """Serves word relatedness from the row-normalised matrix ``R`` of an
    EsaIndex, as block products over the rows that ``rows`` resolves.

    Words are strings. Values are cosines clamped to [0, 1], exactly 1 for
    an indexed word with itself. Unindexed words yield 0 and are recorded
    in ``missing_words`` instead of raising, so downstream sampling loops
    degrade gracefully. ``vocabulary`` serves only the int words of
    ``similarity_submatrix``.
    """

    def __init__(self, index, vocabulary=None):
        self.index = index
        self.vocabulary = list(vocabulary) if vocabulary is not None else None
        self.missing_words = set()

    def rows(self, words):
        """R rows of ``words``, which must be strings (ValueError); -1 marks,
        and records in ``missing_words``, a word the index lacks."""
        if not all(isinstance(w, str) for w in words):
            raise ValueError("words must be strings, not vocabulary indices")
        rows = np.array([self.index.row(w) for w in words], dtype=np.int64)
        self.missing_words.update(w for w, row in zip(words, rows) if row < 0)
        return rows

    def relatedness(self, word_a, word_b):
        """Cosine of the two concept vectors; 0 if either is missing. This
        is the 1x1 block; a loop over pairs should ask for one block."""
        return float(self.cross_relatedness([word_a], [word_b])[0, 0])

    def similarity_submatrix(self, words):
        """Symmetric relatedness matrix over a word set; unit diagonal for
        indexed words, zero for missing ones. An int word is an index into
        the attached vocabulary (ValueError without one)."""
        if self.vocabulary is not None:
            # Only bench/child.py's check step passes indices; ROADMAP item 2
            # removes this mapping with the bench's use of it.
            words = [w if isinstance(w, str) else self.vocabulary[w] for w in words]
        return self.cross_relatedness(words, words)

    def cross_relatedness(self, words_a, words_b):
        """Relatedness of every word of ``words_a`` (rows) to every word of
        ``words_b`` (columns), from one product ``R[A] R[B]^T``."""
        rows_a, rows_b = self.rows(words_a), self.rows(words_b)
        return self._block(rows_a, rows_b, self._right(rows_b))

    def related_rows(self, words, among=None):
        """The rows of ``cross_relatedness(words, among)``, ``among``
        defaulting to every indexed word in row order, as dense blocks of at
        most ``_CHUNK_ROWS`` rows: one product per block, and memory bounded
        by one block at any vocabulary size. Row i of a CSR product depends
        only on row i, so every entry has the bits of the one-block path."""
        rows = self.rows(words)
        columns = np.arange(len(self.index)) if among is None else self.rows(among)
        right = self._right(columns)
        for start in range(0, len(rows), _CHUNK_ROWS):
            yield self._block(rows[start:start + _CHUNK_ROWS], columns, right)

    def _right(self, rows_b):
        """``R^T`` over the rows of ``rows_b`` that are not -1, in CSR form:
        the right operand of ``_block``."""
        return load_kernels()[0].tocsc(self.index.R, rows_b[rows_b >= 0]).T

    def _block(self, rows_a, rows_b, right):
        """``min(R[rows_a] @ right, 1)`` where ``right`` is ``_right(rows_b)``,
        with 1 where a row meets itself and 0 in the rows and columns of
        -1."""
        out = np.zeros((len(rows_a), len(rows_b)))
        ia, ib = np.flatnonzero(rows_a >= 0), np.flatnonzero(rows_b >= 0)
        if ia.size and ib.size:
            block = load_kernels()[0].block(self.index.R, rows_a[ia], right)
            out[np.ix_(ia, ib)] = np.minimum(block, 1.0)
        out[(rows_a[:, None] == rows_b[None, :]) & (rows_a[:, None] >= 0)] = 1.0
        return out


def rows_by_group(sim, groups, among=None):
    """For each group of words in turn, a dict from each of its words to
    that word's row of ``sim.cross_relatedness(words, among)``.

    The rows come from one ``sim.related_rows`` call over the distinct
    words in order of first use; a block is read when a group first needs
    one of its rows, and a row is dropped after the last group naming it,
    so at most one block plus the rows later groups share is held (each
    row is a copy, which keeps no block alive)."""
    groups = [list(group) for group in groups]
    last = {word: i for i, group in enumerate(groups) for word in group}
    order = iter(last)  # distinct words, in order of first use
    blocks, held = sim.related_rows(list(last), among=among), {}
    for i, group in enumerate(groups):
        while not all(word in held for word in group):
            for row in next(blocks):
                held[next(order)] = row.copy()
        yield {word: held[word] for word in group}
        for word in group:
            if last[word] == i:
                held.pop(word, None)


ESA_FILE = ArrayFile(
    "esa-index", 3, "an ESA index", ("concept_ids", "words", "truncation"),
    (("indptr", INT64), ("indices", INT64), ("data", FLOAT64)),
    stale="; re-run `index` to rebuild it",
)


def save_esa_index(index, path):
    """An array file: the header (concept ids, truncation, words) plus the
    CSR arrays (indptr, indices, data) of the raw TF-IDF rows; round-trips
    bit-exactly."""
    fields = {
        "concept_ids": index.concept_ids,
        "truncation": index.truncation,
        "words": index.words(),
    }
    ESA_FILE.save(
        path, fields, {"indptr": index.indptr, "indices": index.indices, "data": index.data}
    )


def load_esa_index(path):
    """Read and check an index file; raises ValueError on a file of another
    format or version, a missing key, no words, or inconsistent arrays."""
    return ESA_FILE.load(path, _esa_index)


def _esa_index(payload):
    if not payload["words"]:
        raise ValueError("ESA index has no words")
    return EsaIndex(
        payload["concept_ids"], payload["words"], payload["indptr"],
        payload["indices"], payload["data"], payload["truncation"],
    )
