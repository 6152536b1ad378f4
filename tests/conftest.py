import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from topicpuzzles import kernels
from topicpuzzles.corpus import build_doc_term_matrix
from topicpuzzles.esa import EsaIndex
from topicpuzzles.synthetic import planted_topic_corpus
from topicpuzzles.topic_models import sparse_code

needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no cc on PATH")
KERNELS = [pytest.param("native", marks=needs_cc), "fallback"]


def use_kernel(kernel, monkeypatch):
    """Run on the C kernels, asserting that they load, or on their Python
    fallbacks by replacing the loader."""
    if kernel == "native":
        assert kernels._native_kernels()[0] is not None
    else:
        monkeypatch.setattr(kernels, "_native_kernels", lambda: (None, "forced off"))


@pytest.fixture(scope="session", autouse=True)
def kernel_home(tmp_path_factory):
    """One fresh home directory for the session, set before any test loads
    the C kernels, so they build once, in a cache of their own, whatever
    HOME the suite runs under."""
    loader = kernels._native_kernels
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("HOME", str(tmp_path_factory.getbasetemp() / "kernel-home"))
        loader.cache_clear()
        yield
    loader.cache_clear()


@pytest.fixture(scope="session")
def planted():
    """The pure planted corpus: 8 topics x 10 disjoint words, 400 docs of
    50 single-topic tokens. Returns (docs, per-topic words, vocab, matrix)."""
    docs, topics = planted_topic_corpus(seed=7)
    dtm = build_doc_term_matrix(docs)
    vocab = dtm.vocab
    return docs, topics, vocab, dtm


@pytest.fixture(scope="session")
def planted_mixed():
    """Planted corpus with 15% background tokens, giving cross-topic word
    pairs small but nonzero relatedness (usable difficulty midband)."""
    docs, topics = planted_topic_corpus(seed=3, background_fraction=0.15)
    dtm = build_doc_term_matrix(docs)
    vocab = dtm.vocab
    return docs, topics, vocab, dtm


def make_sparse_planted_instance(seed, n=20, k=6, m=50, atoms_per_doc=2):
    """X = D* A* with unit-norm ground-truth atoms and sparse coefficients."""
    rng = np.random.default_rng(seed)
    dstar = rng.standard_normal((n, k))
    dstar /= np.linalg.norm(dstar, axis=0)
    astar = np.zeros((k, m))
    for j in range(m):
        chosen = rng.choice(k, size=atoms_per_doc, replace=False)
        astar[chosen, j] = rng.standard_normal(atoms_per_doc)
    return dstar @ astar, dstar, astar


def dictionary_objective(x, dictionary, kappa):
    """Mean l1 sparse-coding cost of a dictionary over the columns of a
    dense matrix, each coded fresh by ``sparse_code``: the batch objective
    that online dictionary learning lowers (at rho = 0)."""
    total = 0.0
    for i in range(x.shape[1]):
        total += sparse_code(x[:, i], dictionary, kappa).objective
    return total / x.shape[1]


def hand_index(vectors, n_concepts):
    """EsaIndex over concepts c0..c{n-1} from a dict word -> (concept ids,
    weights): rows in sorted word order, ids sorted within each row, words
    with an empty vector left out."""
    words = sorted(w for w, (ids, _) in vectors.items() if len(ids))
    indptr, indices, data = [0], [], []
    for word in words:
        ids, weights = vectors[word]
        order = np.argsort(ids)
        indices.extend(np.asarray(ids)[order].tolist())
        data.extend(np.asarray(weights, dtype=float)[order].tolist())
        indptr.append(len(indices))
    return EsaIndex(
        [f"c{i}" for i in range(n_concepts)], words, np.array(indptr, dtype=np.int64),
        np.array(indices, dtype=np.int64), np.array(data, dtype=np.float64),
    )


def index_vector(index, word):
    """(concept ids, raw weights) of an indexed word's row."""
    row = index.row(word)
    span = slice(index.indptr[row], index.indptr[row + 1])
    return index.indices[span], index.data[span]


def _header_line(header):
    return json.dumps(header, sort_keys=True, separators=(",", ":")).encode() + b"\n"


def decode_array_file(raw):
    """The bytes of an array file as one dict: the header's fields,
    "arrays" (its [name, dtype, length] entries) among them, plus each
    array as a list under its name."""
    line, body = raw.split(b"\n", 1)
    payload = json.loads(line)
    offset = 0
    for name, dtype, length in payload["arrays"]:
        values = np.frombuffer(body, dtype, length, offset)
        payload[name] = values.tolist()
        offset += values.nbytes
    return payload


def encode_array_file(payload):
    """The bytes of a dict of the form ``decode_array_file`` returns: each
    array that "arrays" lists and the dict holds, in that order and with
    its dtype, its length set to that of its list."""
    layout = payload["arrays"]
    header = {k: v for k, v in payload.items() if k not in {name for name, *_ in layout}}
    header["arrays"] = [[name, dtype, len(payload[name])]
                        for name, dtype, _ in layout if name in payload]
    return _header_line(header) + b"".join(
        np.array(payload[name], dtype=dtype).tobytes()
        for name, dtype, _ in header["arrays"]
    )


def _edit_header(change):
    """A change of an array file's bytes that applies ``change`` to the
    header object alone and keeps the arrays' bytes."""
    def apply(raw):
        line, body = raw.split(b"\n", 1)
        header = json.loads(line)
        change(header)
        return _header_line(header) + body
    return apply


def _swap_first_arrays(raw):
    """The first two arrays swapped, bytes and header entries alike."""
    payload = decode_array_file(raw)
    payload["arrays"][:2] = payload["arrays"][1::-1]
    return encode_array_file(payload)


def _grow_first_length(header):
    header["arrays"][0][2] += 1


def _rename_first_array(header):
    header["arrays"][0][0] += "s"


# (id, change of an array file's bytes, message fragment); each applies to
# the matrix, index and LSA model files
CONTAINER_CORRUPTIONS = [
    ("truncated", lambda raw: raw[:-1], "bytes of arrays"),
    ("trailing-byte", lambda raw: raw + b"\0", "bytes of arrays"),
    ("length-off-by-one", _edit_header(_grow_first_length), "bytes of arrays"),
    ("misnamed-array", _edit_header(_rename_first_array), "arrays must list"),
    ("arrays-out-of-order", _swap_first_arrays, "arrays must list"),
    ("header-not-json", lambda raw: raw[1:], "not a"),
]


def redeclare(payload, key, dtype):
    """A decoded array file whose array ``key`` is declared, and so
    encoded, as ``dtype``."""
    return {**payload, "arrays": [[name, dtype if name == key else d, n]
                                  for name, d, n in payload["arrays"]]}


def rewrite_array_file(path, change, out):
    """Write to ``out`` the array file ``path`` with ``change`` applied to
    its decoded dict, and return ``out`` as a str."""
    Path(out).write_bytes(encode_array_file(change(decode_array_file(Path(path).read_bytes()))))
    return str(out)


# (key, how to corrupt it, message fragment) for a decoded ESA index file
INDEX_CORRUPTIONS = [
    ("words", "delete", "missing key"),
    ("indptr", "delete", "arrays must list"),
    ("truncation", "delete", "missing key"),
    ("indptr", [0, 1], "indptr"),
    ("indptr", "tail", "indptr"),
    ("indptr", "dip", "indptr"),
    ("words", [], "no words"),
    ("words", "reversed", "sorted"),
    ("words", "duplicate", "sorted"),
    ("indices", "out of range", "concept indices"),
    ("indices", "unsorted", "concept indices"),
    ("data", "negative", "positive"),
    ("data", "nan", "positive"),
    ("data", "short", "positive"),
    ("concept_ids", "c0", "concept_ids must be a list of str"),
    ("concept_ids", [0, 1], "concept_ids must be a list of str"),
    ("truncation", 0, "truncation must be an int >= 1"),
    ("truncation", True, "truncation must be an int >= 1"),
    ("truncation", 2.5, "truncation must be an int >= 1"),
    ("truncation", "1000", "truncation must be an int >= 1"),
    ("truncation", None, "truncation must be an int >= 1"),
    ("indices", "|b1", "arrays must list"),
    ("indptr", "<f4", "arrays must list"),
    ("data", ">i8", "arrays must list"),
]


def mangle_index(payload, key, how):
    """A decoded ESA index file with one field or array deleted or made
    inconsistent, or with an array declared (and encoded) in another dtype."""
    broken = dict(payload)
    value = payload.get(key)
    if how == "delete":
        del broken[key]
        return broken
    if how in ("|b1", "<f4", ">i8"):
        return redeclare(payload, key, how)
    if how == "tail":
        value = value[:-1] + [value[-1] + 1]
    elif how == "dip":
        value = [value[0], value[2], value[1]] + value[3:]
    elif how == "reversed":
        value = value[::-1]
    elif how == "duplicate":
        value = [value[0]] + value[:-1]
    elif how == "out of range":
        value = value[:-1] + [len(payload["concept_ids"])]
    elif how == "unsorted":
        indptr = payload["indptr"]
        start = next(a for a, b in zip(indptr, indptr[1:]) if b - a >= 2)
        value = list(value)
        value[start], value[start + 1] = value[start + 1], value[start]
    elif how == "negative":
        value = [-value[0]] + value[1:]
    elif how == "nan":
        value = [float("nan")] + value[1:]
    elif how == "short":
        value = value[:-1]
    else:
        value = how
    broken[key] = value
    return broken
