"""Corpus ingestion: tokenization by a bytes translate and split, vocabulary
construction, sparse document-term matrices with optional TF-IDF weights;
also the file helpers of every module, among them ``ArrayFile``, the
container of the matrix, model and ESA index files, and
``CompressedMatrix``, the sparse matrix that the doc-term matrix and the
ESA index both hold, with the checker of its arrays.

All builders are deterministic: the same documents and config produce
bit-identical vocabularies and matrices. Built structures are treated as
immutable afterwards and are safe to share across threads.
"""

from __future__ import annotations

import json
import math
import os
import secrets
import warnings
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import count

import numpy as np

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
# every other character splits tokens: this table maps it to a space.
_LETTERS = bytes(c if ord("a") <= c <= ord("z") else ord(" ") for c in range(256))


@dataclass(frozen=True)
class TokenizerConfig:
    """Tokenization policy: stopwords and minimum token length."""

    stopwords: frozenset[str] = STOPWORDS_EN
    min_token_len: int = 2


DEFAULT_TOKENIZER = TokenizerConfig()


@dataclass
class Vocabulary:
    """Word-to-index bijection with per-word document frequencies.

    Indices are assigned in lexicographic word order so that identical
    corpora index identically across runs and platforms.
    """

    words: list[str]
    doc_freq: list[int]
    n_docs: int

    def __len__(self):
        return len(self.words)


def _check_unique_ids(docs):
    seen = set()
    for doc in docs:
        if doc.id in seen:
            raise ValueError(f"duplicate document id: {doc.id!r}")
        seen.add(doc.id)


def _count_words(docs, min_df, max_df_ratio, config):
    """The vocabulary of ``docs`` (a list): the words with document
    frequency in [min_df, max_df_ratio * n_docs], and the (document, word,
    count) entries of those words, in document then word order.

    One pass tokenizes each document in C: lowercase (the Kelvin sign gives
    "k"), encode to ASCII with "?" for any other character or lone surrogate,
    map each byte but a-z to a space (``_LETTERS``) and split. Length and
    stopword rules run once per distinct token, decoded to str. ValueError
    for bad filters or duplicate ids; EmptyVocabularyError if no word is left.
    """
    if min_df < 1:
        raise ValueError(f"min_df must be >= 1, got {min_df}")
    if not 0.0 < max_df_ratio <= 1.0:
        raise ValueError(f"max_df_ratio must be in (0, 1], got {max_df_ratio}")
    _check_unique_ids(docs)
    ids = defaultdict(count().__next__)  # distinct token -> id, first seen first
    token_ids, lengths = [], []
    for doc in docs:
        tokens = doc.text.lower().encode("ascii", "replace").translate(_LETTERS).split()
        lengths.append(len(tokens))
        token_ids.extend(map(ids.__getitem__, tokens))
    distinct = [t.decode() for t in ids]
    words = sorted(
        t for t in distinct if len(t) >= config.min_token_len and t not in config.stopwords
    )
    rank = {word: i for i, word in enumerate(words)}
    word_of_id = np.fromiter((rank.get(t, -1) for t in distinct), np.int64, len(distinct))
    token_word = word_of_id[np.fromiter(token_ids, np.int64, len(token_ids))]
    del token_ids
    keys = np.repeat(np.arange(len(docs), dtype=np.int64) * len(words), lengths)
    keys += token_word
    keys, counts = np.unique(keys[token_word >= 0], return_counts=True)
    doc, word = np.divmod(keys, max(len(words), 1))
    df = np.bincount(word, minlength=len(words))
    in_vocab = (df >= min_df) & (df <= max_df_ratio * len(docs))
    if not in_vocab.any():
        raise EmptyVocabularyError(
            f"no words survive document-frequency filtering "
            f"(min_df={min_df}, max_df_ratio={max_df_ratio}, n_docs={len(docs)})"
        )
    vocab = Vocabulary(
        words=[w for w, keep in zip(words, in_vocab.tolist()) if keep],
        doc_freq=df[in_vocab].tolist(),
        n_docs=len(docs),
    )
    entry = in_vocab[word]
    return vocab, doc[entry], (np.cumsum(in_vocab) - 1)[word[entry]], counts[entry]


def build_vocabulary(docs, min_df=1, max_df_ratio=1.0, config=DEFAULT_TOKENIZER):
    """The vocabulary that ``build_doc_term_matrix`` gives for the same
    arguments, without its matrix or its warnings."""
    return _count_words(list(docs), min_df, max_df_ratio, config)[0]


class CompressedMatrix:
    """A sparse matrix of positive weights in compressed form: ``indptr``
    splits ``indices`` and ``data`` into one slice per column (``format``
    "csc") or per row ("csr"), each slice's indices ascending, as the arrays
    of scipy's matrices of that format. ``T`` is the transpose, the same
    arrays in the other format.

    The constructor checks the arrays with ``compressed_arrays``
    (ValueError, calling an index and a slice by ``names``), so the C
    products of ``kernels`` can trust them; ``trusted`` skips the
    check, for arrays this package built or derived from checked ones.
    """

    def __init__(self, indptr, indices, data, shape, format="csc",
                 names=("index", "slice")):
        n_slices, n_inner = shape[::-1] if format == "csc" else shape
        arrays = compressed_arrays(indptr, indices, data, n_slices, n_inner, *names)
        self._set(*arrays, shape, format)

    @classmethod
    def trusted(cls, indptr, indices, data, shape, format):
        matrix = cls.__new__(cls)
        matrix._set(indptr, indices, data, shape, format)
        return matrix

    def _set(self, indptr, indices, data, shape, format):
        if format not in ("csc", "csr"):
            raise ValueError(f"format must be 'csc' or 'csr', got {format!r}")
        self.indptr, self.indices, self.data = indptr, indices, data
        self.shape, self.format = tuple(shape), format

    @property
    def T(self):
        other = "csr" if self.format == "csc" else "csc"
        return self.trusted(self.indptr, self.indices, self.data, self.shape[::-1], other)

    @property
    def nnz(self):
        return len(self.data)

    def sum(self):
        return self.data.sum()


@dataclass
class DocTermMatrix:
    """Sparse word-by-document weight matrix (words are rows, CSC form).

    All stored entries are positive. Documents with no in-vocabulary tokens
    are dropped at build time, but TF-IDF can empty a document's column.
    """

    matrix: CompressedMatrix
    vocab: Vocabulary
    doc_ids: list[str]
    weighting: str = RAW_COUNT

    @property
    def n_words(self):
        return self.matrix.shape[0]

    @property
    def n_docs(self):
        return self.matrix.shape[1]


def build_doc_term_matrix(docs, min_df=1, max_df_ratio=1.0, config=DEFAULT_TOKENIZER):
    """Count each document's words into a sparse matrix whose ``vocab`` holds
    the words with document frequency in [min_df, max_df_ratio * n_docs].

    Documents with no in-vocabulary tokens are dropped (with a warning each,
    in document order) rather than kept as zero columns. Raises
    EmptyVocabularyError if the filters remove every word.
    """
    docs = list(docs)
    vocab, doc, word, counts = _count_words(docs, min_df, max_df_ratio, config)
    per_doc = np.bincount(doc, minlength=len(docs))
    for i in np.flatnonzero(per_doc == 0):
        warnings.warn(
            f"document {docs[i].id!r} has no in-vocabulary tokens and was dropped"
        )
    nonempty = per_doc > 0
    indptr = np.concatenate(([0], np.cumsum(per_doc[nonempty])))
    matrix = CompressedMatrix.trusted(
        indptr, word, counts.astype(np.float64), (len(vocab), int(nonempty.sum())), "csc"
    )
    doc_ids = [d.id for d, keep in zip(docs, nonempty.tolist()) if keep]
    return DocTermMatrix(matrix=matrix, vocab=vocab, doc_ids=doc_ids)


def tfidf_transform(dtm):
    """Reweight a raw-count matrix to tf * ln(n_docs / df).

    Words occurring in every document get idf 0 and their entries are
    removed, so stored entries stay positive; no new nonzeros appear.
    """
    if dtm.weighting != RAW_COUNT:
        raise ValueError(f"tfidf_transform requires raw counts, got {dtm.weighting!r}")
    m = dtm.matrix
    df = np.bincount(m.indices, minlength=dtm.n_words)
    idf = np.zeros(dtm.n_words)
    present = df > 0
    idf[present] = np.log(dtm.n_docs / df[present])
    data = m.data * idf[m.indices]
    keep = data != 0
    kept_before = np.concatenate(([0], np.cumsum(keep)))
    out = CompressedMatrix.trusted(
        kept_before[m.indptr], m.indices[keep], data[keep], m.shape, "csc"
    )
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


def save_doc_term_matrix(dtm, path):
    """Persist a matrix as an array file: the header (weighting, vocabulary,
    document frequencies, document ids) plus the CSC arrays (indptr,
    indices, data; one slice per document), the layout of the ESA index
    file. Round-trips bit-exactly."""
    m = dtm.matrix
    fields = {
        "weighting": dtm.weighting,
        "n_words": dtm.n_words,
        "n_docs": dtm.n_docs,
        "vocab": list(dtm.vocab.words),
        "doc_freq": list(dtm.vocab.doc_freq),
        "vocab_n_docs": dtm.vocab.n_docs,
        "doc_ids": list(dtm.doc_ids),
    }
    DTM_FILE.save(path, fields, {"indptr": m.indptr, "indices": m.indices, "data": m.data})


@contextmanager
def atomic_write(path, binary=False):
    """Text (or ``binary``) handle for writing ``path`` all at once or not
    at all.

    Writes go to a temporary file in the target's directory, which replaces
    ``path`` only when the block exits normally; on an error it is removed
    and an existing ``path`` is left as it was. A symbolic link is followed.
    A target that exists but is not a regular file (a device such as
    /dev/null, a pipe) is written in place, since it cannot be replaced.
    """
    mode, kwargs = ("b", {}) if binary else ("", {"encoding": "utf-8"})
    path = os.path.realpath(path)
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w" + mode, **kwargs) as fh:
            yield fh
        return
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{secrets.token_hex(4)}.tmp")
    try:
        with open(tmp, "x" + mode, **kwargs) as fh:
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


INT64, FLOAT64 = "<i8", "<f8"


@dataclass(frozen=True)
class ArrayFile:
    """A file type that holds a JSON header and flat numeric arrays.

    Line 1 is the header, one sorted-key compact JSON object: ``format``,
    ``version``, the type's fields and ``arrays``, a list of
    [name, dtype, length] in write order. The raw bytes of each array
    follow, back to back with no padding. ``arrays`` gives the type's
    (name, dtype) pairs in that order; an array named in ``optional`` may
    be left out. ``keys`` are the header fields a loader needs, ``kind``
    names the type in messages and ``stale`` extends a version mismatch
    message.
    """

    format: str
    version: int
    kind: str
    keys: tuple
    arrays: tuple
    stale: str = ""
    optional: tuple = ()

    def save(self, path, fields, arrays):
        """Write ``fields`` and ``arrays`` (name -> values, None to leave
        out an optional array) through ``atomic_write``."""
        values = [
            (name, dtype, np.ascontiguousarray(arrays[name], dtype=dtype))
            for name, dtype in self.arrays
            if arrays[name] is not None
        ]
        header = {
            **fields,
            "format": self.format,
            "version": self.version,
            "arrays": [[name, dtype, len(a)] for name, dtype, a in values],
        }
        with atomic_write(path, binary=True) as fh:
            fh.write(json.dumps(header, sort_keys=True, separators=(",", ":")).encode())
            fh.write(b"\n")
            for _, _, a in values:
                fh.write(a)

    def load(self, path, build):
        """``build(payload)`` for the header's fields plus each array by
        name (None for an optional one left out), after checking the
        format tag, version, keys, the array list against the type's and
        the byte count against the list's. The arrays are writable. Any
        ValueError, TypeError or OverflowError becomes a ValueError that
        starts with the path."""
        with open(path, "rb") as fh:
            try:
                payload = self._header(fh.readline())
                layout = payload.pop("arrays")
                body = bytearray(fh.read())
                total = sum(length * np.dtype(dtype).itemsize for _, dtype, length in layout)
                if len(body) != total:
                    raise ValueError(
                        f"the header declares {total} bytes of arrays, "
                        f"the file holds {len(body)}"
                    )
                payload.update(dict.fromkeys(self.optional))
                offset = 0
                for name, dtype, length in layout:
                    payload[name] = np.frombuffer(body, dtype, length, offset)
                    offset += payload[name].nbytes
                return build(payload)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"{path}: {exc}") from exc

    def _header(self, line):
        """The header object of line 1, if it tags this type and version,
        holds every key and lists this type's arrays."""
        try:
            header = json.loads(line)
        except ValueError:
            header = None
        except RecursionError as exc:
            raise ValueError("line 1: invalid JSON (nested too deeply)") from exc
        if not isinstance(header, dict) or header.get("format") != self.format:
            raise ValueError(f"not {self.kind} file")
        if header.get("version") != self.version:
            raise ValueError(f"unsupported version {header.get('version')}{self.stale}")
        require_keys(header, self.keys + ("arrays",))
        layout = header["arrays"]
        if isinstance(layout, list) and all(
            isinstance(entry, list) and len(entry) == 3
            and type(entry[2]) is int and entry[2] >= 0
            for entry in layout
        ):
            names = [entry[0] for entry in layout]
            expected = [[name, dtype] for name, dtype in self.arrays
                        if name not in self.optional or name in names]
            if [entry[:2] for entry in layout] == expected:
                return header
        listed = ", ".join(f"{name} {dtype}" for name, dtype in self.arrays)
        left_out = f" ({', '.join(self.optional)} may be left out)" if self.optional else ""
        raise ValueError(
            f"arrays must list [name, dtype, length >= 0] for {listed} in this "
            f"order{left_out}"
        )


def is_list_of(value, types, length=None):
    """``value`` is a list (of ``length`` items, if given) whose items are
    each of exactly one of ``types``, so a bool does not pass as an int."""
    return (
        isinstance(value, list)
        and (length is None or len(value) == length)
        and set(map(type, value)) <= set(types)
    )


def _flat_array(values, name, dtype):
    """``values`` as a flat int64 or float64 array; ValueError unless it is
    a 1-d array of integers (or floats too, for float64), so that a bool is
    no number."""
    ints = dtype == np.int64
    if not (isinstance(values, np.ndarray) and values.ndim == 1
            and values.dtype.kind in ("i" if ints else "if")):
        raise ValueError(f"{name} must be a flat array of {'ints' if ints else 'numbers'}")
    return np.ascontiguousarray(values, dtype=dtype)


def compressed_arrays(indptr, indices, data, n_slices, n_inner, inner, outer):
    """The checked int64, int64 and float64 arrays of a compressed sparse
    matrix (CSC or CSR) of ``n_slices`` slices over ``n_inner`` positions:
    ``indptr`` rises from 0 to nnz in n_slices + 1 non-decreasing entries
    (a slice may be empty), each slice's indices lie in [0, n_inner) and
    ascend strictly, data are finite and > 0. ValueError says what is wrong,
    calling an index ``inner`` and a slice ``outer``."""
    indptr = _flat_array(indptr, "indptr", np.int64)
    indices = _flat_array(indices, f"{inner} indices", np.int64)
    data = _flat_array(data, "data", np.float64)
    nnz, lengths = len(indices), np.diff(indptr)
    if not (len(indptr) == n_slices + 1 and indptr[0] == 0 and indptr[-1] == nnz
            and np.all(lengths >= 0)):
        raise ValueError(
            f"indptr must rise from 0 to {nnz} in {n_slices + 1} non-decreasing entries"
        )
    # (slice, index) pairs ascend strictly iff each slice's indices do
    key = np.repeat(np.arange(n_slices), lengths) * n_inner + indices
    if not (np.all((indices >= 0) & (indices < n_inner)) and np.all(np.diff(key) > 0)):
        raise ValueError(f"{inner} indices must lie in [0, {n_inner}) and ascend "
                         f"strictly within each {outer}")
    if not (len(data) == nnz and np.all(np.isfinite(data) & (data > 0))):
        raise ValueError(f"data must hold {nnz} finite positive weights")
    return indptr, indices, data


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
    skipped. CorpusFormatError names the first line that is not UTF-8, not
    valid JSON (or nested too deeply to decode), or that ``parse`` rejects
    with a ValueError."""
    out = []
    # surrogateescape defers a byte that is not UTF-8 to the line holding it
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                line = line.encode("utf-8", "surrogateescape").decode("utf-8")
                out.append(parse(json.loads(line)))
            except json.JSONDecodeError as exc:
                raise CorpusFormatError(
                    f"{path} line {lineno}: invalid JSON ({exc.msg})"
                ) from exc
            except RecursionError as exc:
                raise CorpusFormatError(
                    f"{path} line {lineno}: invalid JSON (nested too deeply)"
                ) from exc
            except ValueError as exc:
                raise CorpusFormatError(f"{path} line {lineno}: {exc}") from exc
    return out


DTM_FILE = ArrayFile(
    "doc-term-matrix", 3, "a document-term matrix",
    ("weighting", "n_words", "n_docs", "vocab", "doc_freq", "vocab_n_docs", "doc_ids"),
    (("indptr", INT64), ("indices", INT64), ("data", FLOAT64)),
    stale="; re-run `ingest` to rebuild it",
)


def load_doc_term_matrix(path):
    return DTM_FILE.load(path, _doc_term_matrix)


def _doc_term_matrix(payload):
    n_words, n_docs = payload["n_words"], payload["n_docs"]
    if not (
        is_list_of([n_words, n_docs, payload["vocab_n_docs"]], (int,))
        and is_list_of(payload["vocab"], (str,), n_words)
        and is_list_of(payload["doc_freq"], (int,), n_words)
        and is_list_of(payload["doc_ids"], (str,), n_docs)
    ):
        raise ValueError(
            "n_words, n_docs and vocab_n_docs must be ints, vocab and "
            "doc_freq lists of n_words strs and ints, doc_ids of n_docs strs"
        )
    if payload["weighting"] not in (RAW_COUNT, TFIDF):
        raise ValueError(f"weighting must be {RAW_COUNT!r} or {TFIDF!r}")
    matrix = CompressedMatrix(
        payload["indptr"], payload["indices"], payload["data"], (n_words, n_docs),
        "csc", ("word", "document"),
    )
    if payload["weighting"] == RAW_COUNT and np.any(matrix.data != np.floor(matrix.data)):
        raise ValueError("raw-count values must be whole numbers")
    return DocTermMatrix(
        matrix,
        Vocabulary(payload["vocab"], payload["doc_freq"], payload["vocab_n_docs"]),
        payload["doc_ids"],
        payload["weighting"],
    )
