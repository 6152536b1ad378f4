"""Topic dictionary induction from a document-term matrix.

Three interchangeable models produce an N x K dictionary of topic columns:

* ``lsa_fit``       -- truncated SVD via a seeded randomized range finder
* ``lda_fit``       -- latent Dirichlet allocation by collapsed Gibbs sampling
* ``dict_learn_fit``-- online sparse dictionary learning with an l1 or
                       group-l2 coefficient penalty and recency weighting

``extract_top_k`` then truncates each topic to its k most significant words.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import math
import os
import platform
import secrets
import subprocess
from collections import namedtuple
from dataclasses import asdict, dataclass, field
from pathlib import Path

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


def _token_stream(matrix):
    """Flatten a raw-count matrix into parallel word/doc index arrays,
    column by column with rows ascending (deterministic)."""
    m = matrix.tocsc()
    m.sort_indices()
    counts = np.rint(m.data).astype(np.int64)
    cols = np.repeat(np.arange(m.shape[1], dtype=np.int64), np.diff(m.indptr))
    return np.repeat(m.indices.astype(np.int64), counts), np.repeat(cols, counts)


def _sweep_lists(words, docs, z, n_wt, n_dt, n_t, alpha, beta, nbeta, uniforms):
    """One Gibbs sweep in Python, each token's K weights built in a loop
    over lists. The int64 tables are read into lists and written back once."""
    k = len(n_t)
    z_list, wt, dt, nt = z.tolist(), n_wt.tolist(), n_dt.tolist(), n_t.tolist()
    p = [0.0] * k
    topics = range(k)
    for idx, (w, d, r) in enumerate(zip(words.tolist(), docs.tolist(), uniforms.tolist())):
        t_old = z_list[idx]
        nw = wt[w]
        nd = dt[d]
        nw[t_old] -= 1
        nd[t_old] -= 1
        nt[t_old] -= 1
        total = 0.0
        for t in topics:
            pt = (nw[t] + beta) * (nd[t] + alpha) / (nt[t] + nbeta)
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
        z_list[idx] = t_new
        nw[t_new] += 1
        nd[t_new] += 1
        nt[t_new] += 1
    z[:], n_wt[:], n_dt[:], n_t[:] = z_list, wt, dt, nt


# _sweep_lists in C. Each weight is formed and summed in the same order, and
# -ffp-contract=off forbids fusing a multiply and an add, so both kernels
# draw the same topics from the same uniforms.
_SWEEP_C = r"""
#include <stdint.h>
void sweep(int64_t n_tokens, int64_t k, const int64_t *words,
           const int64_t *docs, int64_t *z, int64_t *n_wt, int64_t *n_dt,
           int64_t *n_t, double alpha, double beta, double nbeta,
           const double *uniforms, double *p) {
    for (int64_t idx = 0; idx < n_tokens; idx++) {
        int64_t t = z[idx];
        int64_t *nw = n_wt + words[idx] * k, *nd = n_dt + docs[idx] * k;
        nw[t] -= 1, nd[t] -= 1, n_t[t] -= 1;
        double total = 0.0, acc = 0.0;
        for (t = 0; t < k; t++) {
            p[t] = (nw[t] + beta) * (nd[t] + alpha) / (n_t[t] + nbeta);
            total += p[t];
        }
        double u = uniforms[idx] * total;
        for (t = 0; t < k - 1; t++) {  /* t = k - 1 if no break */
            acc += p[t];
            if (u < acc)
                break;
        }
        z[idx] = t;
        nw[t] += 1, nd[t] += 1, n_t[t] += 1;
    }
}
"""
_CC_FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")


def _private(path):
    """``path`` is owned by this user and no one else can write to it."""
    st = os.stat(path)
    return st.st_uid == os.getuid() and not st.st_mode & 0o022


def _compile_sweep(lib):
    """Build _SWEEP_C with the system ``cc`` beside ``lib``, then move it in."""
    tmp = lib.with_name(f".{lib.name}.{secrets.token_hex(4)}.tmp")
    try:
        subprocess.run(
            ["cc", *_CC_FLAGS, "-o", tmp, "-x", "c", "-"],
            input=_SWEEP_C.encode(), capture_output=True, check=True, timeout=300,
        )
        data = tmp.read_bytes()  # loads check the digest: dlopen can crash on torn files
        tmp.write_bytes(data + hashlib.sha256(data).digest())
        tmp.chmod(0o700)
        tmp.replace(lib)
    finally:
        tmp.unlink(missing_ok=True)


@functools.cache
def _native_sweep():
    """The C sweep with _sweep_lists' signature, or None where it cannot be
    built or loaded. The library is cached in ~/.cache/topicpuzzles, named by
    the hash of source, flags and machine, and loaded only from an intact,
    private file in a private directory; any other file there is rebuilt."""
    key = "\0".join((_SWEEP_C, *_CC_FLAGS, platform.machine())).encode()
    try:
        cache = Path.home() / ".cache" / "topicpuzzles"
        cache.mkdir(mode=0o700, parents=True, exist_ok=True)
        if not _private(cache):
            return None
        lib = cache / f"gibbs-{hashlib.sha256(key).hexdigest()}.so"
        try:
            data = lib.read_bytes()
            if not _private(lib) or hashlib.sha256(data[:-32]).digest() != data[-32:]:
                raise OSError(f"{lib} is damaged or writable by others")
            fn = ctypes.CDLL(str(lib)).sweep
        except OSError:
            _compile_sweep(lib)
            fn = ctypes.CDLL(str(lib)).sweep
    except (OSError, RuntimeError, AttributeError, subprocess.SubprocessError):
        return None
    i64, f64 = (np.ctypeslib.ndpointer(t, flags="C") for t in (np.int64, np.float64))
    fn.argtypes = [ctypes.c_int64] * 2 + [i64] * 6 + [ctypes.c_double] * 3 + [f64] * 2
    fn.restype = None

    def sweep(words, docs, z, n_wt, n_dt, n_t, alpha, beta, nbeta, uniforms):
        fn(z.size, n_t.size, words, docs, z, n_wt, n_dt, n_t, alpha, beta, nbeta,
           uniforms, np.empty(n_t.size))

    return sweep


def lda_fit(X, config, sweep_hook=None):
    """Collapsed Gibbs sampling over token-topic assignments.

    Topics are the posterior-mean word distributions
    (count(word, topic) + beta) / (count(topic) + N*beta), averaged over
    the final 20% of sweeps. Deterministic for a fixed seed.

    Each sweep runs a C kernel, compiled with the system ``cc`` on the first
    call and cached per user, or ``_sweep_lists`` where it cannot be built or
    loaded. Both draw one uniform per token and form every weight and partial
    sum in the same order, so the weights do not depend on which one ran.

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
    k, alpha, beta = config.n_topics, config.alpha, config.beta
    nbeta = n * beta
    words, docs = _token_stream(X.matrix)
    rng = np.random.default_rng(config.seed)
    z = rng.integers(0, k, words.size)
    n_wt = np.bincount(words * k + z, minlength=n * k).reshape(n, k)
    n_dt = np.bincount(docs * k + z, minlength=m * k).reshape(m, k)
    n_t = np.bincount(z, minlength=k)

    sweep_once = _native_sweep() or _sweep_lists
    n_avg = max(1, config.iterations // 5)
    avg_start = config.iterations - n_avg
    phi_acc = np.zeros((n, k))
    for sweep in range(config.iterations):
        uniforms = rng.random(z.size)
        sweep_once(words, docs, z, n_wt, n_dt, n_t, alpha, beta, nbeta, uniforms)
        if sweep_hook is not None:
            sweep_hook(LdaState(sweep, n_wt.copy(), n_t.copy(), n_dt.copy()))
        if sweep >= avg_start:
            phi_acc += (n_wt + beta) / (n_t + nbeta)

    return TopicDictionary(
        weights=phi_acc / n_avg,
        model=MODEL_LDA,
        meta=asdict(config),
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
        meta=asdict(config),
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
    if sv is not None and not is_list_of(sv, (int, float)):
        raise ValueError(f"{path}: singular_values must be null or a list of numbers")
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
