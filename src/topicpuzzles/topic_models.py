"""Topic dictionary induction from a document-term matrix.

Three interchangeable models produce an N x K dictionary of topic columns:

* ``lsa_fit``       -- truncated SVD via a seeded randomized range finder
* ``lda_fit``       -- latent Dirichlet allocation by collapsed Gibbs sampling
* ``dict_learn_fit``-- online sparse dictionary learning with an l1 or
                       group-l2 coefficient penalty and recency weighting

``extract_top_k`` then truncates each topic to its k most significant words.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .corpus import (
    RAW_COUNT,
    DocTermMatrix,
    is_list_of,
    load_versioned_json,
    write_json_lines,
)

MODEL_LSA = "lsa"
MODEL_LDA = "lda"
MODEL_DICTLEARN = "dictlearn"
MODELS = (MODEL_LSA, MODEL_LDA, MODEL_DICTLEARN)

# Desk-scale defaults; production-size corpora in the reference setting use
# many more topics.
DEFAULT_NUM_TOPICS = 400
DEFAULT_TOP_K = 4

L1 = "l1"
GROUP_L2 = "group-l2"
REGULARIZERS = (L1, GROUP_L2)


@dataclass
class TopicDictionary:
    """An N x K matrix of topic columns plus the metadata needed to
    reproduce and persist the fit."""

    weights: np.ndarray
    model: str
    meta: dict = field(default_factory=dict)
    vocab: list[str] | None = None
    singular_values: np.ndarray | None = None

    @property
    def n_words(self):
        return self.weights.shape[0]

    @property
    def n_topics(self):
        return self.weights.shape[1]

    def validate(self):
        """Check that every value is finite and the per-model column
        invariants hold; raises ValueError."""
        w = self.weights
        vocab = self.vocab
        if vocab is not None and not is_list_of(vocab, (str,), self.n_words):
            raise ValueError(f"vocab must list n_words = {self.n_words} strings")
        if not np.all(np.isfinite(w)):
            raise ValueError("topic dictionary weights must be finite")
        sv = self.singular_values
        if sv is not None and not np.all(np.isfinite(sv)):
            raise ValueError("singular values must be finite")
        norms = np.linalg.norm(w, axis=0)
        if np.any(norms == 0.0):
            raise ValueError("topic dictionary contains an all-zero column")
        if self.model == MODEL_LDA:
            sums = w.sum(axis=0)
            if np.any(w < 0) or np.any(np.abs(sums - 1.0) > 1e-9):
                raise ValueError("lda columns must be probability vectors")
        elif self.model == MODEL_DICTLEARN:
            if np.any(norms > 1.0 + 1e-12):
                raise ValueError("dictlearn columns must have norm <= 1")
        return self


@dataclass(frozen=True)
class LdaConfig:
    n_topics: int
    alpha: float = 0.1
    beta: float = 0.01
    iterations: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.n_topics < 1:
            raise ValueError("n_topics must be >= 1")
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("alpha and beta must be > 0")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")


@dataclass(frozen=True)
class DictLearnConfig:
    n_topics: int
    kappa: float = 0.1
    rho: float = 0.0
    regularizer: str = L1
    n_groups: int = 2
    epochs: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.n_topics < 1:
            raise ValueError("n_topics must be >= 1")
        if self.kappa <= 0:
            raise ValueError("kappa must be > 0")
        if self.rho < 0:
            raise ValueError("rho must be >= 0")
        if self.regularizer not in REGULARIZERS:
            raise ValueError(f"unknown regularizer {self.regularizer!r}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")


def contiguous_groups(n, n_groups):
    """Partition indices 0..n-1 into n_groups contiguous near-equal blocks."""
    if not 1 <= n_groups <= n:
        raise ValueError(f"n_groups must be in [1, {n}], got {n_groups}")
    bounds = np.linspace(0, n, n_groups + 1).astype(int)
    return tuple(
        tuple(range(bounds[g], bounds[g + 1])) for g in range(n_groups)
    )


@dataclass
class SparseCode:
    """Coefficients of one document against a dictionary, with the achieved
    value of the penalized least-squares objective."""

    coeffs: np.ndarray
    objective: float


def _as_matrix(X):
    if isinstance(X, DocTermMatrix):
        return X.matrix, list(X.vocab.words)
    return X, None


# ---------------------------------------------------------------------------
# LSA
# ---------------------------------------------------------------------------


# Randomized range finder (Halko, Martinsson & Tropp 2011): sample columns
# beyond K, and subspace iterations that separate close singular values.
LSA_OVERSAMPLING = 8
LSA_POWER_ITERS = 16


def lsa_fit(X, n_topics, seed=0):
    """Top-K left singular vectors of X by seeded randomized subspace
    iteration, sign-normalized so each column's largest-magnitude entry
    is positive. Singular values are attached in descending order.

    Raises ValueError when n_topics exceeds min(N, M) or the effective
    numerical rank of X.
    """
    A, vocab = _as_matrix(X)
    n, m = A.shape
    if not 1 <= n_topics <= min(n, m):
        raise ValueError(
            f"n_topics must be in [1, {min(n, m)}] for a {n}x{m} matrix, "
            f"got {n_topics}"
        )
    rng = np.random.default_rng(seed)
    width = min(n_topics + LSA_OVERSAMPLING, m)
    omega = rng.standard_normal((m, width))
    q, _ = np.linalg.qr(A @ omega)
    for _ in range(LSA_POWER_ITERS):
        w, _ = np.linalg.qr(A.T @ q)
        q, _ = np.linalg.qr(A @ w)
    b = (A.T @ q).T
    ub, s, _ = np.linalg.svd(b, full_matrices=False)
    tol = s[0] * max(n, m) * np.finfo(np.float64).eps if s.size else 0.0
    effective_rank = int(np.sum(s > tol))
    if effective_rank < n_topics:
        raise ValueError(
            f"requested {n_topics} topics but the matrix has effective "
            f"rank {effective_rank}"
        )
    u = q @ ub[:, :n_topics]
    for j in range(n_topics):
        peak = np.argmax(np.abs(u[:, j]))
        if u[peak, j] < 0:
            u[:, j] = -u[:, j]
    return TopicDictionary(
        weights=u,
        model=MODEL_LSA,
        meta={
            "n_topics": n_topics,
            "seed": seed,
            "n_power_iters": LSA_POWER_ITERS,
            "oversampling": LSA_OVERSAMPLING,
        },
        vocab=vocab,
        singular_values=s[:n_topics].copy(),
    )


# ---------------------------------------------------------------------------
# LDA
# ---------------------------------------------------------------------------

LdaState = namedtuple("LdaState", "sweep word_topic topic_counts doc_topic")

# Topic count from which lda_fit samples with the numpy row kernel. Below it a
# Python loop over K costs less per token than the row kernel's fixed numpy
# call overhead. Measured, not tuned per corpus; see the crossover table in
# CHANGES.md.
_ROW_KERNEL_MIN_TOPICS = 20

# Uniforms are drawn this many at a time. rng.random(n) continues the same
# PCG64 stream as n calls of rng.random(), so the chunk size changes no draw.
_UNIFORM_CHUNK = 4096


def _token_stream(matrix):
    """Flatten a raw-count matrix into parallel word/doc index arrays,
    column by column with rows ascending (deterministic)."""
    m = matrix.tocsc()
    m.sort_indices()
    counts = np.rint(m.data).astype(np.int64)
    cols = np.repeat(np.arange(m.shape[1], dtype=np.int64), np.diff(m.indptr))
    return np.repeat(m.indices.astype(np.int64), counts), np.repeat(cols, counts)


def _count_table(rows, z, n_rows, k):
    """rows x K table of token counts per (row, topic), as nested lists."""
    flat = np.bincount(rows * k + z, minlength=n_rows * k)
    return flat.reshape(n_rows, k).tolist()


def _uniform_chunks(rng, n_tokens):
    """(first token, uniforms) for consecutive chunks of one sweep."""
    for start in range(0, n_tokens, _UNIFORM_CHUNK):
        yield start, rng.random(min(_UNIFORM_CHUNK, n_tokens - start)).tolist()


def _sweep_lists(words, docs, z, n_wt, n_dt, n_t, alpha, beta, nbeta, rng):
    """One Gibbs sweep with each token's K weights built in a Python loop."""
    k = len(n_t)
    p = [0.0] * k
    topics = range(k)
    for start, uniforms in _uniform_chunks(rng, len(z)):
        for idx, r in enumerate(uniforms, start):
            t_old = z[idx]
            nw = n_wt[words[idx]]
            nd = n_dt[docs[idx]]
            nw[t_old] -= 1
            nd[t_old] -= 1
            n_t[t_old] -= 1
            total = 0.0
            for t in topics:
                pt = (nw[t] + beta) * (nd[t] + alpha) / (n_t[t] + nbeta)
                p[t] = pt
                total += pt
            u = r * total
            acc = 0.0
            t_new = k - 1
            for t in topics:
                acc += p[t]
                if u < acc:
                    t_new = t
                    break
            z[idx] = t_new
            nw[t_new] += 1
            nd[t_new] += 1
            n_t[t_new] += 1


def _sweep_rows(words, docs, z, n_wt, n_dt, n_t, alpha, beta, nbeta, rng):
    """One Gibbs sweep with each token's K weights built by numpy row ops.

    Float tables hold count + prior beside the integer counts. A changed
    cell is assigned ``count + prior`` from its integer count, never
    incremented in place, so every operand equals the list kernel's. The
    weights are then formed in the list kernel's order (multiply, divide)
    and accumulated left to right by cumsum, and searchsorted(side="right")
    finds the same first partial sum above u: the draws are bit-identical.
    """
    last = len(n_t) - 1
    # Lists of row views: a list lookup costs less than indexing a 2-D array.
    f_wt = list(np.array(n_wt, dtype=np.float64) + beta)
    f_dt = list(np.array(n_dt, dtype=np.float64) + alpha)
    f_t = np.array(n_t, dtype=np.float64) + nbeta
    acc = np.empty(len(n_t))
    multiply, divide, cumsum = np.multiply, np.divide, np.add.accumulate
    searchsorted = acc.searchsorted
    for start, uniforms in _uniform_chunks(rng, len(z)):
        for idx, r in enumerate(uniforms, start):
            t = z[idx]
            w = words[idx]
            d = docs[idx]
            nw, fw = n_wt[w], f_wt[w]
            nd, fd = n_dt[d], f_dt[d]
            c = nw[t] - 1
            nw[t] = c
            fw[t] = c + beta
            c = nd[t] - 1
            nd[t] = c
            fd[t] = c + alpha
            c = n_t[t] - 1
            n_t[t] = c
            f_t[t] = c + nbeta
            multiply(fw, fd, acc)
            divide(acc, f_t, acc)
            cumsum(acc, out=acc)
            t = int(searchsorted(r * acc[last], "right"))
            if t > last:
                t = last
            z[idx] = t
            c = nw[t] + 1
            nw[t] = c
            fw[t] = c + beta
            c = nd[t] + 1
            nd[t] = c
            fd[t] = c + alpha
            c = n_t[t] + 1
            n_t[t] = c
            f_t[t] = c + nbeta


def lda_fit(X, config, sweep_hook=None):
    """Collapsed Gibbs sampling over token-topic assignments.

    Topics are the posterior-mean word distributions
    (count(word, topic) + beta) / (count(topic) + N*beta), averaged over
    the final 20% of sweeps. Deterministic for a fixed seed.

    Each sweep runs one of two kernels chosen by the topic count: a Python
    loop over K below ``_ROW_KERNEL_MIN_TOPICS`` topics, numpy row ops from
    there on. Both compute the same arithmetic in the same order from the
    same uniforms, so the weights do not depend on which one ran.

    ``sweep_hook(state)`` is called after every sweep with copies of the
    count tables (an LdaState), for diagnostics and invariant checks.
    """
    if not isinstance(X, DocTermMatrix):
        raise TypeError("lda_fit requires a DocTermMatrix")
    if X.weighting != RAW_COUNT:
        raise ValueError(
            f"lda_fit requires raw counts for token-level sampling, "
            f"got {X.weighting!r} weighting"
        )
    n, m = X.matrix.shape
    if m == 0 or n == 0:
        raise ValueError("empty document-term matrix")
    k = config.n_topics
    alpha, beta = config.alpha, config.beta
    nbeta = n * beta
    words, docs = _token_stream(X.matrix)
    rng = np.random.default_rng(config.seed)
    z = rng.integers(0, k, words.size)
    n_wt = _count_table(words, z, n, k)
    n_dt = _count_table(docs, z, m, k)
    n_t = np.bincount(z, minlength=k).tolist()
    words, docs, z = words.tolist(), docs.tolist(), z.tolist()

    sweep_once = _sweep_rows if k >= _ROW_KERNEL_MIN_TOPICS else _sweep_lists
    n_avg = max(1, config.iterations // 5)
    avg_start = config.iterations - n_avg
    phi_acc = np.zeros((n, k))
    for sweep in range(config.iterations):
        sweep_once(words, docs, z, n_wt, n_dt, n_t, alpha, beta, nbeta, rng)
        if sweep_hook is not None:
            sweep_hook(
                LdaState(
                    sweep=sweep,
                    word_topic=np.array(n_wt, dtype=np.int64),
                    topic_counts=np.array(n_t, dtype=np.int64),
                    doc_topic=np.array(n_dt, dtype=np.int64),
                )
            )
        if sweep >= avg_start:
            counts = np.array(n_wt, dtype=np.float64)
            totals = np.array(n_t, dtype=np.float64)
            phi_acc += (counts + beta) / (totals + nbeta)

    weights = phi_acc / n_avg
    return TopicDictionary(
        weights=weights,
        model=MODEL_LDA,
        meta={
            "n_topics": k,
            "alpha": alpha,
            "beta": beta,
            "iterations": config.iterations,
            "seed": config.seed,
        },
        vocab=list(X.vocab.words),
    )


# ---------------------------------------------------------------------------
# Sparse coding and dictionary learning
# ---------------------------------------------------------------------------


def _group_objective(alpha, gram, b, xx, kappa, groups):
    quad = 0.5 * (xx - 2.0 * float(b @ alpha) + float(alpha @ gram @ alpha))
    return quad + kappa * sum(float(np.linalg.norm(alpha[list(g)])) for g in groups)


def sparse_code(
    x,
    dictionary,
    kappa,
    regularizer=L1,
    groups=None,
    tol=1e-8,
    max_iter=1000,
):
    """Minimize 0.5*||x - D a||^2 + kappa*Omega(a).

    Cyclic coordinate descent with covariance updates for the l1 penalty
    (Friedman, Hastie & Tibshirani 2010): the vector c = (D^T D) a is kept
    up to date by one axpy per changed coefficient, so a coordinate step
    costs O(1) unless it moves. Block coordinate descent with group
    soft-thresholding for group-l2. Starts from a = 0 and descends
    monotonically, so the achieved objective never exceeds 0.5*||x||^2.
    Iterates until a pass improves the objective by less than ``tol``, or
    for ``max_iter`` passes.

    The l1 loop takes the same steps as plain coordinate descent, which
    forms (D^T D)[j] @ a at every step; its coefficients and objective
    differ from that loop's only by rounding (last-ulp).
    """
    if kappa <= 0:
        raise ValueError("kappa must be > 0")
    d = dictionary.weights if isinstance(dictionary, TopicDictionary) else dictionary
    d = np.asarray(d, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64).ravel()
    k = d.shape[1]
    if regularizer == GROUP_L2:
        if groups is None:
            groups = contiguous_groups(k, DictLearnConfig.n_groups)
    elif regularizer != L1:
        raise ValueError(f"unknown regularizer {regularizer!r}")

    gram = d.T @ d
    b = d.T @ x
    xx = float(x @ x)
    alpha = np.zeros(k)
    prev = 0.5 * xx

    if regularizer == L1:
        # c = gram @ alpha, moved by one axpy per changed coefficient and
        # recomputed by one matvec per pass so rounding cannot build up
        # across passes; the pass objective is summed from it over the
        # support.
        bl = b.tolist()
        diag = np.diag(gram).tolist()
        steps = [(j, diag[j], bl[j], gram[j]) for j in range(k) if diag[j] > 1e-15]
        coef = [0.0] * k
        c = np.zeros(k)
        for _ in range(max_iter):
            for j, dj, bj, row in steps:
                old = coef[j]
                r = bj - float(c[j]) + dj * old
                # Soft threshold; r + kappa == -(|r| - kappa) exactly for r < 0.
                if r > kappa:
                    new = (r - kappa) / dj
                elif r < -kappa:
                    new = (r + kappa) / dj
                else:
                    new = 0.0
                if new != old:
                    coef[j] = new
                    alpha[j] = new
                    c += (new - old) * row
            np.matmul(gram, alpha, out=c)
            cl = c.tolist()
            quad, l1 = xx, 0.0
            for j, _, bj, _ in steps:
                aj = coef[j]
                if aj:
                    quad += aj * (cl[j] - 2.0 * bj)
                    l1 += abs(aj)
            cur = 0.5 * quad + kappa * l1
            if abs(prev - cur) < tol:
                prev = cur
                break
            prev = cur
    else:
        idx = [np.asarray(g, dtype=int) for g in groups]
        lips = []
        for g in idx:
            sub = gram[np.ix_(g, g)]
            lips.append(max(float(np.linalg.eigvalsh(sub)[-1]), 1e-15))
        for _ in range(max_iter):
            for g, lg in zip(idx, lips):
                grad = gram[g] @ alpha - b[g]
                y = alpha[g] - grad / lg
                nrm = float(np.linalg.norm(y))
                scale = max(0.0, 1.0 - kappa / (lg * nrm)) if nrm > 0 else 0.0
                alpha[g] = y * scale
            cur = _group_objective(alpha, gram, b, xx, kappa, groups)
            if abs(prev - cur) < tol:
                prev = cur
                break
            prev = cur

    return SparseCode(coeffs=alpha, objective=float(prev))


def recency_weights(n_docs, rho):
    """Per-document weights (i/M)^rho for i = 1..M; all ones at rho = 0."""
    return ((np.arange(1, n_docs + 1)) / n_docs) ** rho


def _columns(A):
    """Each column of A as a dense vector, in index order. A sparse matrix
    is read through its CSC arrays, one slice per column."""
    if not sp.issparse(A):
        A = np.asarray(A)
        for i in range(A.shape[1]):
            yield A[:, i]
        return
    A = sp.csc_matrix(A)
    if not A.has_canonical_format:
        A = A.copy()
        A.sum_duplicates()
    indptr, indices, data = A.indptr, A.indices, A.data
    for i in range(A.shape[1]):
        x = np.zeros(A.shape[0])
        span = slice(indptr[i], indptr[i + 1])
        x[indices[span]] = data[span]
        yield x


def dict_learn_fit(X, config):
    """Online dictionary learning: alternate sparse coding of each document
    (in index order) with one projected block-coordinate update of the
    dictionary from recency-weighted sufficient statistics.

    Columns are projected onto the unit Euclidean ball; statistics
    accumulate across epochs. Deterministic for a fixed seed.
    """
    A, vocab = _as_matrix(X)
    n, m = A.shape
    if m == 0:
        raise ValueError("empty document-term matrix")
    k = config.n_topics
    groups = None if config.regularizer == L1 else contiguous_groups(k, config.n_groups)
    rng = np.random.default_rng(config.seed)
    d = rng.standard_normal((n, k))
    d /= np.linalg.norm(d, axis=0, keepdims=True)

    stat_a = np.zeros((k, k))
    stat_b = np.zeros((n, k))
    w = recency_weights(m, config.rho)
    for _ in range(config.epochs):
        for i, x in enumerate(_columns(A)):
            code = sparse_code(x, d, config.kappa, config.regularizer, groups)
            a = code.coeffs
            stat_a += w[i] * np.outer(a, a)
            stat_b += w[i] * np.outer(x, a)
            for j in range(k):
                ajj = stat_a[j, j]
                if ajj <= 1e-12:
                    continue
                u = d[:, j] + (stat_b[:, j] - d @ stat_a[:, j]) / ajj
                d[:, j] = u / max(1.0, math.sqrt(u @ u))
    return TopicDictionary(
        weights=d,
        model=MODEL_DICTLEARN,
        meta={
            "n_topics": k,
            "kappa": config.kappa,
            "rho": config.rho,
            "regularizer": config.regularizer,
            "n_groups": config.n_groups,
            "epochs": config.epochs,
            "seed": config.seed,
        },
        vocab=vocab,
    )


# ---------------------------------------------------------------------------
# Topic word sets
# ---------------------------------------------------------------------------


@dataclass
class TopicWordSet:
    """The k most significant word indices of one topic, weights descending."""

    topic_index: int
    word_indices: tuple[int, ...]
    weights: tuple[float, ...]


def extract_top_k(dictionary, k):
    """Keep each topic's k most significant words.

    Significance is |entry| for LSA (columns are signed) and the raw entry
    for LDA and dictionary learning. Ties break toward the lower word index.
    """
    n = dictionary.n_words
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    out = []
    indices = np.arange(n)
    for t in range(dictionary.n_topics):
        col = dictionary.weights[:, t]
        sig = np.abs(col) if dictionary.model == MODEL_LSA else col
        order = np.lexsort((indices, -sig))[:k]
        out.append(
            TopicWordSet(
                topic_index=t,
                word_indices=tuple(int(i) for i in order),
                weights=tuple(float(sig[i]) for i in order),
            )
        )
    return out


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

MODEL_FORMAT = "topic-dictionary"
MODEL_VERSION = 1


def save_topic_dictionary(dictionary, path):
    """Versioned JSON header plus a dense column-major weight payload;
    round-trips bit-exactly."""
    payload = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "model": dictionary.model,
        "n_words": dictionary.n_words,
        "n_topics": dictionary.n_topics,
        "config": dictionary.meta,
        "seed": dictionary.meta.get("seed"),
        "vocab": dictionary.vocab,
        "singular_values": (
            None
            if dictionary.singular_values is None
            else np.asarray(dictionary.singular_values, dtype=np.float64).tolist()
        ),
        "weights": dictionary.weights.flatten(order="F").astype(np.float64).tolist(),
    }
    write_json_lines([payload], path)


_MODEL_KEYS = ("model", "n_words", "n_topics", "weights")


def load_topic_dictionary(path):
    payload = load_versioned_json(
        path, MODEL_FORMAT, "a topic dictionary", MODEL_VERSION, _MODEL_KEYS
    )
    n_words, n_topics = payload["n_words"], payload["n_topics"]
    weights = payload["weights"]
    if not (
        is_list_of([n_words, n_topics], (int,))
        and is_list_of(weights, (int, float), n_words * n_topics)
    ):
        raise ValueError(
            f"{path}: weights must be a list of n_words * n_topics = "
            f"{n_words} * {n_topics} values"
        )
    weights = np.array(weights, dtype=np.float64).reshape(
        (n_words, n_topics), order="F"
    )
    sv = payload.get("singular_values")
    model = TopicDictionary(
        weights=weights,
        model=payload["model"],
        meta=payload.get("config", {}),
        vocab=payload.get("vocab"),
        singular_values=None if sv is None else np.array(sv, dtype=np.float64),
    )
    try:
        return model.validate()
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
