"""Topic dictionary induction from a document-term matrix.

Three interchangeable models produce an N x K dictionary of topic columns:

* ``lsa_fit``       -- truncated SVD by seeded randomized subspace iteration
* ``lda_fit``       -- latent Dirichlet allocation by collapsed Gibbs sampling
* ``dict_learn_fit``-- online sparse dictionary learning with an l1 or
                       group-l2 coefficient penalty and recency weighting

``extract_top_k`` then truncates each topic to its k most significant words.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import asdict, dataclass, field

import numpy as np

from .corpus import (
    FLOAT64,
    RAW_COUNT,
    ArrayFile,
    CompressedMatrix,
    DocTermMatrix,
    is_list_of,
)
from .kernels import load_kernels

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
        if not (0 < self.alpha < math.inf and 0 < self.beta < math.inf):
            raise ValueError(
                f"alpha and beta must be finite and > 0, got {self.alpha}, {self.beta}"
            )
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
        if not 0 < self.kappa < math.inf:
            raise ValueError(f"kappa must be finite and > 0, got {self.kappa}")
        if not 0 <= self.rho < math.inf:
            raise ValueError(f"rho must be finite and >= 0, got {self.rho}")
        if self.regularizer not in REGULARIZERS:
            raise ValueError(f"unknown regularizer {self.regularizer!r}")
        if self.regularizer == GROUP_L2 and not 1 <= self.n_groups <= self.n_topics:
            raise ValueError(f"n_groups must be in [1, {self.n_topics}], got {self.n_groups}")
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


# Randomized subspace iteration (Halko, Martinsson & Tropp 2011): sample
# columns beyond K, then power steps q <- qr(A (A^T q)) that separate close
# singular values. A step orthonormalizes only the N-row word block: the QR
# of the M-row document block A^T q would not change the span of q, and at
# 676 words x 5000 documents it took 26 ms of a 38 ms step (one core).
LSA_OVERSAMPLING = 8
LSA_POWER_ITERS = 16


def lsa_fit(X, n_topics, seed=0):
    """Top-K left singular vectors of X by seeded randomized subspace
    iteration, sign-normalized so each column's largest-magnitude entry
    is positive. Singular values are attached in descending order.

    Each power step runs one QR, of A (A^T q); a QR of A^T q between the
    two products would change the fit only by rounding. For a
    DocTermMatrix the 34 products run as ``kernels.load_kernels()``'s
    ``matvecs``: the C kernel, or scipy's product, which it transcribes,
    so the weights are the same either way. A dense array or a scipy
    matrix ``X`` uses its own ``@``.

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
    if isinstance(A, CompressedMatrix):
        kernels = load_kernels()[0]
        times, times_t = (functools.partial(kernels.matvecs, M) for M in (A, A.T))
    else:
        times, times_t = A.__matmul__, A.T.__matmul__
    rng = np.random.default_rng(seed)
    width = min(n_topics + LSA_OVERSAMPLING, m)
    omega = rng.standard_normal((m, width))
    q, _ = np.linalg.qr(times(omega))
    for _ in range(LSA_POWER_ITERS):
        q, _ = np.linalg.qr(times(times_t(q)))
    b = times_t(q).T
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
    """Flatten a raw-count CSC matrix into parallel word/doc index arrays,
    column by column with rows ascending (deterministic)."""
    counts = np.rint(matrix.data).astype(np.int64)
    cols = np.repeat(np.arange(matrix.shape[1], dtype=np.int64), np.diff(matrix.indptr))
    return np.repeat(matrix.indices, counts), np.repeat(cols, counts)


def lda_fit(X, config, sweep_hook=None):
    """Collapsed Gibbs sampling over token-topic assignments.

    Topics are the posterior-mean word distributions
    (count(word, topic) + beta) / (count(topic) + N*beta), averaged over
    the final 20% of sweeps. Deterministic for a fixed seed.

    Each sweep runs ``kernels.load_kernels()``'s ``sweep``: the C kernel,
    or its Python twin ``_sweep_lists``. Both draw one uniform per token
    and form every weight and partial sum in the same order, so the
    weights do not depend on which one ran.

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

    kernels = load_kernels()[0]
    n_avg = max(1, config.iterations // 5)
    avg_start = config.iterations - n_avg
    phi_acc = np.zeros((n, k))
    for sweep in range(config.iterations):
        uniforms = rng.random(z.size)
        kernels.sweep(words, docs, z, n_wt, n_dt, n_t, alpha, beta, nbeta, uniforms)
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


# The l1 solve's stopping rule, in sparse_code and in dict_learn_fit.
_CD_TOL, _CD_MAX_ITER = 1e-8, 1000


def _group_objective(alpha, gram, b, xx, kappa, groups):
    quad = 0.5 * (xx - 2.0 * float(b @ alpha) + float(alpha @ gram @ alpha))
    return quad + kappa * sum(float(np.linalg.norm(alpha[list(g)])) for g in groups)


def _require_finite(x, d):
    if not (np.isfinite(x).all() and np.isfinite(d).all()):
        raise ValueError("x and the dictionary must hold only finite values")


def sparse_code(
    x,
    dictionary,
    kappa,
    regularizer=L1,
    groups=None,
    tol=_CD_TOL,
    max_iter=_CD_MAX_ITER,
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
    differ from that loop's only by rounding (last-ulp). The whole loop is
    one call of ``kernels.load_kernels()``'s ``cd``: the C ``cd_solve``, or
    its Python twin ``_cd_solve``. D^T D and D^T x stay in numpy, so the
    result has the same bits either way.
    Raises ValueError unless 0 < kappa < inf and every entry of ``x`` and
    of the dictionary is finite.
    """
    if not 0 < kappa < math.inf:
        raise ValueError(f"kappa must be finite and > 0, got {kappa}")
    d = dictionary.weights if isinstance(dictionary, TopicDictionary) else dictionary
    d = np.asarray(d, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64).ravel()
    _require_finite(x, d)
    k = d.shape[1]
    if regularizer == GROUP_L2:
        if groups is None:
            groups = contiguous_groups(k, DictLearnConfig.n_groups)
    elif regularizer != L1:
        raise ValueError(f"unknown regularizer {regularizer!r}")

    gram = d.T @ d
    b = d.T @ x
    xx = float(x @ x)
    if regularizer == L1:
        alpha, prev = load_kernels()[0].cd(gram, b, xx, kappa, tol, max_iter)
    else:
        alpha = np.zeros(k)
        prev = 0.5 * xx
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


def _columns(A, x):
    """Fill ``x`` with each column of A in index order, yielding the column
    index each time. A CompressedMatrix (CSC, as a DocTermMatrix holds)
    or a scipy sparse matrix is read through its CSC arrays, one slice per
    column; anything else is read as a dense array."""
    if hasattr(A, "tocsc"):  # scipy, in canonical form
        A = A.tocsc(copy=True)
        A.sum_duplicates()
    elif not isinstance(A, CompressedMatrix):
        A = np.asarray(A, dtype=np.float64)
        for i in range(A.shape[1]):
            x[:] = A[:, i]
            yield i
        return
    indptr, indices, data = A.indptr, A.indices, A.data
    for i in range(A.shape[1]):
        span = slice(indptr[i], indptr[i + 1])
        x[:] = 0.0
        x[indices[span]] = data[span]
        yield i


def dict_learn_fit(X, config):
    """Online dictionary learning: alternate sparse coding of each document
    (in index order) with one projected block-coordinate update of the
    dictionary from recency-weighted sufficient statistics (Mairal et al.
    2010, Alg. 2).

    Columns are projected onto the unit Euclidean ball; statistics
    accumulate across epochs. An l1 document is one call of
    ``kernels.load_kernels()``'s ``step``, bound to the fit's buffers once:
    the C ``dl_step``, or its Python twin ``_dl_step``. It gets
    ``sparse_code``'s D^T D and D^T x from numpy, and its check that x and
    the dictionary are finite. A group-l2 document runs ``sparse_code`` and
    then the update, ``dl_update`` or ``_dl_update``. Deterministic for a
    fixed seed, and the same whichever kernels ran.
    """
    A, vocab = _as_matrix(X)
    n, m = A.shape
    if m == 0:
        raise ValueError("empty document-term matrix")
    k = config.n_topics
    kernels = load_kernels()[0]
    rng = np.random.default_rng(config.seed)
    d = rng.standard_normal((n, k))
    d /= np.linalg.norm(d, axis=0, keepdims=True)

    stat_a = np.zeros((k, k))
    stat_b = np.zeros((n, k))
    x = np.empty(n)
    if config.regularizer == L1:
        gram, b = np.empty((k, k)), np.empty(k)
        kernel = kernels.step(x, gram, b, np.empty(k), np.empty(k), stat_a, stat_b, d,
                              np.empty(n), config.kappa, _CD_TOL, _CD_MAX_ITER)

        def step(w):
            _require_finite(x, d)
            np.matmul(d.T, d, out=gram)
            np.matmul(d.T, x, out=b)
            kernel(w, float(x @ x))
    else:
        groups = contiguous_groups(k, config.n_groups)

        def step(w):
            code = sparse_code(x, d, config.kappa, GROUP_L2, groups)
            kernels.dl(w, x, code.coeffs, stat_a, stat_b, d)

    w = recency_weights(m, config.rho)
    for _ in range(config.epochs):
        for i in _columns(A, x):
            step(w[i])
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
    """The k most significant word indices of one topic, weights descending,
    and their words (None for a model without a vocabulary)."""

    topic_index: int
    word_indices: tuple[int, ...]
    weights: tuple[float, ...]
    words: tuple[str, ...] | None


def extract_top_k(dictionary, k):
    """Keep each topic's k most significant words.

    Significance is |entry| for LSA (columns are signed) and the raw entry
    for LDA and dictionary learning. Ties break toward the lower word index.
    """
    n = dictionary.n_words
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    out, vocab = [], dictionary.vocab
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
                words=None if vocab is None else tuple(vocab[i] for i in order),
            )
        )
    return out


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

MODEL_FILE = ArrayFile(
    "topic-dictionary", 2, "a topic dictionary", ("model", "n_words", "n_topics"),
    (("weights", FLOAT64), ("singular_values", FLOAT64)),
    stale="; re-run `train` to rebuild it",
    optional=("singular_values",),
)


def save_topic_dictionary(dictionary, path):
    """An array file: the header (model, shape, config, seed, vocabulary)
    plus the column-major weights and the singular values, if any;
    round-trips bit-exactly."""
    fields = {
        "model": dictionary.model,
        "n_words": dictionary.n_words,
        "n_topics": dictionary.n_topics,
        "config": dictionary.meta,
        "seed": dictionary.meta.get("seed"),
        "vocab": dictionary.vocab,
    }
    MODEL_FILE.save(path, fields, {
        "weights": dictionary.weights.flatten(order="F"),
        "singular_values": dictionary.singular_values,
    })


def load_topic_dictionary(path):
    return MODEL_FILE.load(path, _topic_dictionary)


def _topic_dictionary(payload):
    n_words, n_topics = payload["n_words"], payload["n_topics"]
    weights = payload["weights"]
    if not (is_list_of([n_words, n_topics], (int,)) and len(weights) == n_words * n_topics):
        raise ValueError(
            f"weights must hold n_words * n_topics = {n_words} * {n_topics} values"
        )
    if payload["model"] not in MODELS:
        raise ValueError(f"model must be one of {', '.join(MODELS)}")
    return TopicDictionary(
        weights.reshape((n_words, n_topics), order="F"), payload["model"],
        payload.get("config", {}), payload.get("vocab"), payload["singular_values"],
    ).validate()
