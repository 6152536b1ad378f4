import numpy as np
import pytest

from topicpuzzles.corpus import build_doc_term_matrix, build_vocabulary
from topicpuzzles.esa import EsaIndex
from topicpuzzles.synthetic import planted_topic_corpus
from topicpuzzles.topic_models import sparse_code


@pytest.fixture(scope="session")
def planted():
    """The pure planted corpus: 8 topics x 10 disjoint words, 400 docs of
    50 single-topic tokens. Returns (docs, per-topic words, vocab, matrix)."""
    docs, topics = planted_topic_corpus(seed=7)
    vocab = build_vocabulary(docs)
    dtm = build_doc_term_matrix(docs, vocab)
    return docs, topics, vocab, dtm


@pytest.fixture(scope="session")
def planted_mixed():
    """Planted corpus with 15% background tokens, giving cross-topic word
    pairs small but nonzero relatedness (usable difficulty midband)."""
    docs, topics = planted_topic_corpus(seed=3, background_fraction=0.15)
    vocab = build_vocabulary(docs)
    dtm = build_doc_term_matrix(docs, vocab)
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
    return EsaIndex([f"c{i}" for i in range(n_concepts)], words, indptr, indices, data)


def index_vector(index, word):
    """(concept ids, raw weights) of an indexed word's row."""
    row = index.row(word)
    span = slice(index.indptr[row], index.indptr[row + 1])
    return index.indices[span], index.data[span]


# (key, how to corrupt it, message fragment) for a saved ESA index payload
INDEX_CORRUPTIONS = [
    ("words", "delete", "missing key"),
    ("indptr", "delete", "missing key"),
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
]


def mangle_index(payload, key, how):
    """An ESA index payload with one field deleted or made inconsistent."""
    broken = dict(payload)
    value = payload.get(key)
    if how == "delete":
        del broken[key]
        return broken
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
