"""Corpus ingestion: tokenization, vocabulary construction, and sparse
document-term matrices with optional TF-IDF weighting.

All builders are deterministic: the same documents and config produce
bit-identical vocabularies and matrices. Built structures are treated as
immutable afterwards and are safe to share across threads.
"""

from __future__ import annotations

import json
import math
import os
import re
import secrets
import warnings
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

RAW_COUNT = "raw-count"
TFIDF = "tfidf"

# Bundled English stopword list (function words, auxiliaries, reporting
# verbs). Filtering is optional: pass stopwords=frozenset() to keep them.
STOPWORDS_EN = frozenset(
    """
    a about above after again against all almost also although always am an and
    any are around as at back be became because been before being below between
    both but by came can cannot could did do does doing done down during each
    either enough even ever every few for from further get got had has have
    having he her here hers herself him himself his how i if in into is it its
    itself just least less let like made make many may me might more most much
    must my myself never no nor not now of off often on once only onto or other
    our ours ourselves out over own per put rather said same say says see shall
    she should since so some still such than that the their theirs them
    themselves then there these they this those through to too under until up
    upon us very was we well were what when where whether which while who whom
    why will with within without would yet you your yours yourself yourselves
    """.split()
)


class CorpusFormatError(ValueError):
    """Raised for malformed JSON-lines input files."""


class EmptyVocabularyError(ValueError):
    """Raised when document-frequency filtering removes every word."""


@dataclass(frozen=True)
class Document:
    """A raw input document. Ids must be unique within a corpus."""

    id: str
    text: str


# Tokens are maximal runs of ASCII letters, taken after lowercasing, so
# digits and punctuation split tokens.
TOKEN_PATTERN = re.compile(r"[A-Za-z]+")


@dataclass(frozen=True)
class TokenizerConfig:
    """Tokenization policy: stopwords and minimum token length."""

    stopwords: frozenset[str] = STOPWORDS_EN
    min_token_len: int = 2


DEFAULT_TOKENIZER = TokenizerConfig()


def tokenize(text, config=DEFAULT_TOKENIZER):
    """Split raw text into word tokens, preserving order.

    Lowercases, extracts runs of ASCII letters, then drops tokens shorter
    than the minimum length and stopwords. Empty input yields an empty list.
    """
    tokens = TOKEN_PATTERN.findall(text.lower())
    return [
        t
        for t in tokens
        if len(t) >= config.min_token_len and t not in config.stopwords
    ]


@dataclass
class Vocabulary:
    """Word-to-index bijection with per-word document frequencies.

    Indices are assigned in lexicographic word order so that identical
    corpora index identically across runs and platforms.
    """

    words: list[str]
    doc_freq: list[int]
    n_docs: int

    def __post_init__(self):
        self.index = {w: i for i, w in enumerate(self.words)}

    def __len__(self):
        return len(self.words)


def _check_unique_ids(docs):
    seen = set()
    for doc in docs:
        if doc.id in seen:
            raise ValueError(f"duplicate document id: {doc.id!r}")
        seen.add(doc.id)


def build_vocabulary(docs, min_df=1, max_df_ratio=1.0, config=DEFAULT_TOKENIZER):
    """Build the vocabulary of words with document frequency in
    [min_df, max_df_ratio * n_docs].

    Raises EmptyVocabularyError if the filters remove every word.
    """
    if min_df < 1:
        raise ValueError(f"min_df must be >= 1, got {min_df}")
    if not 0.0 < max_df_ratio <= 1.0:
        raise ValueError(f"max_df_ratio must be in (0, 1], got {max_df_ratio}")
    docs = list(docs)
    _check_unique_ids(docs)
    df = Counter()
    for doc in docs:
        df.update(set(tokenize(doc.text, config)))
    max_df = max_df_ratio * len(docs)
    kept = sorted(w for w, c in df.items() if min_df <= c <= max_df)
    if not kept:
        raise EmptyVocabularyError(
            f"no words survive document-frequency filtering "
            f"(min_df={min_df}, max_df_ratio={max_df_ratio}, n_docs={len(docs)})"
        )
    return Vocabulary(words=kept, doc_freq=[df[w] for w in kept], n_docs=len(docs))


@dataclass
class DocTermMatrix:
    """Sparse word-by-document weight matrix (words are rows).

    All stored entries are positive; documents left with no in-vocabulary
    tokens are dropped at build time, so there are no all-zero columns.
    """

    matrix: sp.csc_matrix
    vocab: Vocabulary
    doc_ids: list[str]
    weighting: str = RAW_COUNT

    @property
    def n_words(self):
        return self.matrix.shape[0]

    @property
    def n_docs(self):
        return self.matrix.shape[1]


def build_doc_term_matrix(docs, vocab, config=DEFAULT_TOKENIZER):
    """Count in-vocabulary word occurrences per document into a sparse matrix.

    Documents with no in-vocabulary tokens are dropped (with a warning)
    rather than kept as zero columns.
    """
    docs = list(docs)
    _check_unique_ids(docs)
    rows, cols, data = [], [], []
    doc_ids = []
    for doc in docs:
        counts = Counter(
            vocab.index[t] for t in tokenize(doc.text, config) if t in vocab.index
        )
        if not counts:
            warnings.warn(
                f"document {doc.id!r} has no in-vocabulary tokens and was dropped"
            )
            continue
        j = len(doc_ids)
        doc_ids.append(doc.id)
        for i in sorted(counts):
            rows.append(i)
            cols.append(j)
            data.append(float(counts[i]))
    matrix = sp.csc_matrix(
        (data, (rows, cols)), shape=(len(vocab), len(doc_ids)), dtype=np.float64
    )
    matrix.sort_indices()
    return DocTermMatrix(matrix=matrix, vocab=vocab, doc_ids=doc_ids)


def tfidf_transform(dtm):
    """Reweight a raw-count matrix to tf * ln(n_docs / df).

    Words occurring in every document get idf 0 and their entries are
    removed, so stored entries stay positive; no new nonzeros appear.
    """
    if dtm.weighting != RAW_COUNT:
        raise ValueError(f"tfidf_transform requires raw counts, got {dtm.weighting!r}")
    m = dtm.matrix.tocoo()
    df = dtm.matrix.getnnz(axis=1)
    idf = np.zeros(dtm.n_words)
    present = df > 0
    idf[present] = np.log(dtm.n_docs / df[present])
    data = m.data * idf[m.row]
    out = sp.csc_matrix((data, (m.row, m.col)), shape=m.shape, dtype=np.float64)
    out.eliminate_zeros()
    out.sort_indices()
    return DocTermMatrix(
        matrix=out, vocab=dtm.vocab, doc_ids=list(dtm.doc_ids), weighting=TFIDF
    )


def load_corpus_jsonl(path):
    """Read a JSON-lines corpus: one object per line with `id` and `text`.

    Raises CorpusFormatError naming the offending line on malformed input,
    and on empty or duplicate-id corpora.
    """
    seen = set()

    def parse(record):
        require_keys(record, ("id", "text"))
        if not (isinstance(record["id"], str) and isinstance(record["text"], str)):
            raise ValueError("fields 'id' and 'text' must be strings")
        if record["id"] in seen:
            raise ValueError(f"duplicate document id {record['id']!r}")
        seen.add(record["id"])
        return Document(id=record["id"], text=record["text"])

    docs = load_jsonl_records(path, parse)
    if not docs:
        raise CorpusFormatError(f"no documents in {path}")
    return docs


def save_corpus_jsonl(docs, path):
    records = ({"id": doc.id, "text": doc.text} for doc in docs)
    write_json_lines(records, path, separators=None)


DTM_FORMAT = "doc-term-matrix"
DTM_VERSION = 1


def save_doc_term_matrix(dtm, path):
    """Persist a matrix as a versioned JSON header plus (row, col, value)
    triplets in column-major order. Round-trips bit-exactly."""
    m = dtm.matrix
    cols = np.repeat(np.arange(m.shape[1]), np.diff(m.indptr))
    triplets = list(
        zip(m.indices.tolist(), cols.tolist(), m.data.astype(np.float64).tolist())
    )
    payload = {
        "format": DTM_FORMAT,
        "version": DTM_VERSION,
        "weighting": dtm.weighting,
        "n_words": dtm.n_words,
        "n_docs": dtm.n_docs,
        "vocab": list(dtm.vocab.words),
        "doc_freq": list(dtm.vocab.doc_freq),
        "vocab_n_docs": dtm.vocab.n_docs,
        "doc_ids": list(dtm.doc_ids),
        "triplets": triplets,
    }
    write_json_lines([payload], path)


_DTM_KEYS = (
    "weighting", "n_words", "n_docs", "vocab", "doc_freq", "vocab_n_docs",
    "doc_ids", "triplets",
)


@contextmanager
def atomic_write(path):
    """Text handle for writing ``path`` all at once or not at all.

    Writes go to a temporary file in the target's directory, which replaces
    ``path`` only when the block exits normally; on an error it is removed
    and an existing ``path`` is left as it was. A symbolic link is followed.
    A target that exists but is not a regular file (a device such as
    /dev/null, a pipe) is written in place, since it cannot be replaced.
    """
    path = os.path.realpath(path)
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
        return
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{secrets.token_hex(4)}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_json_lines(records, path, separators=(",", ":")):
    """Each record as one line of JSON, keys sorted, by default with no
    spaces. Encoding each whole string at once uses the C encoder, which
    ``json.dump`` does not."""
    with atomic_write(path) as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True, separators=separators))
            fh.write("\n")


def load_versioned_json(path, fmt, kind, version, keys, stale=""):
    """Payload of a JSON object file after checking its format tag, version
    and required keys; ValueError names what is wrong (``kind`` names the
    file type, ``stale`` extends a version mismatch message)."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or payload.get("format") != fmt:
        raise ValueError(f"{path}: not {kind} file")
    if payload.get("version") != version:
        raise ValueError(
            f"{path}: unsupported version {payload.get('version')}{stale}"
        )
    missing = [key for key in keys if key not in payload]
    if missing:
        raise ValueError(f"{path}: missing key(s) {', '.join(missing)}")
    return payload


def is_list_of(value, types, length=None):
    """``value`` is a list (of ``length`` items, if given) whose items are
    each of exactly one of ``types``, so a bool does not pass as an int."""
    return (
        isinstance(value, list)
        and (length is None or len(value) == length)
        and all(type(v) in types for v in value)
    )


def is_finite_number(value):
    return type(value) in (int, float) and math.isfinite(value)


def require_keys(record, keys):
    """ValueError unless ``record`` is a JSON object holding every key."""
    if not isinstance(record, dict):
        raise ValueError("expected an object")
    missing = [key for key in keys if key not in record]
    if missing:
        raise ValueError(f"missing key(s) {', '.join(missing)}")


def load_jsonl_records(path, parse):
    """``parse(record)`` for each object of a JSON-lines file, blank lines
    skipped. CorpusFormatError names the first line that is not valid JSON
    or that ``parse`` rejects with a ValueError."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                out.append(parse(json.loads(line)))
            except json.JSONDecodeError as exc:
                raise CorpusFormatError(
                    f"{path} line {lineno}: invalid JSON ({exc.msg})"
                ) from exc
            except ValueError as exc:
                raise CorpusFormatError(f"{path} line {lineno}: {exc}") from exc
    return out


def load_doc_term_matrix(path):
    payload = load_versioned_json(
        path, DTM_FORMAT, "a document-term matrix", DTM_VERSION, _DTM_KEYS
    )
    n_words, n_docs = payload["n_words"], payload["n_docs"]
    if not (
        is_list_of([n_words, n_docs, payload["vocab_n_docs"]], (int,))
        and is_list_of(payload["vocab"], (str,), n_words)
        and is_list_of(payload["doc_freq"], (int,), n_words)
        and is_list_of(payload["doc_ids"], (str,), n_docs)
    ):
        raise ValueError(
            f"{path}: n_words, n_docs and vocab_n_docs must be ints, vocab and "
            f"doc_freq lists of n_words strs and ints, doc_ids of n_docs strs"
        )
    if payload["weighting"] not in (RAW_COUNT, TFIDF):
        raise ValueError(f"{path}: weighting must be {RAW_COUNT!r} or {TFIDF!r}")
    if not (isinstance(payload["triplets"], list) and all(
        type(t) is list and len(t) == 3 and type(t[0]) is int
        and type(t[1]) is int and type(t[2]) in (int, float)
        and 0 <= t[0] < n_words and 0 <= t[1] < n_docs
        for t in payload["triplets"]
    )):
        raise ValueError(
            f"{path}: triplets must be [int, int, number] lists inside "
            f"n_words x n_docs"
        )
    rows = np.array([t[0] for t in payload["triplets"]], dtype=np.int64)
    cols = np.array([t[1] for t in payload["triplets"]], dtype=np.int64)
    data = np.array([t[2] for t in payload["triplets"]], dtype=np.float64)
    if not np.all(np.isfinite(data) & (data > 0)):
        raise ValueError(f"{path}: triplet values must be finite and > 0")
    if payload["weighting"] == RAW_COUNT and np.any(data != np.floor(data)):
        raise ValueError(f"{path}: raw-count values must be whole numbers")
    order = np.lexsort((rows, cols))
    if np.any((np.diff(rows[order]) == 0) & (np.diff(cols[order]) == 0)):
        raise ValueError(f"{path}: triplets repeat a (row, col) entry")
    matrix = sp.csc_matrix(
        (data, (rows, cols)),
        shape=(payload["n_words"], payload["n_docs"]),
        dtype=np.float64,
    )
    matrix.sort_indices()
    vocab = Vocabulary(
        words=list(payload["vocab"]),
        doc_freq=list(payload["doc_freq"]),
        n_docs=payload["vocab_n_docs"],
    )
    return DocTermMatrix(
        matrix=matrix,
        vocab=vocab,
        doc_ids=list(payload["doc_ids"]),
        weighting=payload["weighting"],
    )
