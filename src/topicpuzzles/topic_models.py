"""Topic dictionary induction from a document-term matrix.

Three interchangeable models produce an N x K dictionary of topic columns:

* ``lsa_fit``       -- truncated SVD by seeded randomized subspace iteration
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
import re
import secrets
import stat
import subprocess
from collections import namedtuple
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .corpus import (
    FLOAT64,
    RAW_COUNT,
    ArrayFile,
    CompressedMatrix,
    DocTermMatrix,
    is_list_of,
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
    reproduce and persist the fit. ``fallback`` (not saved) says why the
    fit ran a Python kernel where a C one exists, or is None."""

    weights: np.ndarray
    model: str
    meta: dict = field(default_factory=dict)
    vocab: list[str] | None = None
    singular_values: np.ndarray | None = None
    fallback: str | None = None

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
    DocTermMatrix the 34 products run as the ``matvecs`` kernel of the
    native library, or where it cannot be built or loaded as scipy's
    product, which the kernel transcribes, so the weights are the same
    either way (the result's ``fallback`` then says why). A dense array
    or a scipy matrix ``X`` uses its own ``@``.

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
    why = None
    if isinstance(A, CompressedMatrix):
        kernels, why = load_kernels()
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
        fallback=why,
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


# _sweep_lists in C, the whole l1 solve of sparse_code (_cd_solve), the
# dictionary update of dict_learn_fit (_dl_update), dl_step, which runs
# both for one document of an l1 fit (_dl_step), and the sparse products
# of LSA and ESA (_matvecs, _block, _tocsc), each looping in the order of
# the scipy routine it is named after. Each value is formed and summed in
# the same order as in its twin, and -ffp-contract=off forbids fusing a
# multiply and an add, so either side of each pair gives the same bits.
# -ftree-vectorize runs the products' inner loops two lanes at a time and
# the pragmas unroll them; neither reorders a sum. At -O2 alone the
# products took twice scipy's time.
_KERNELS_C = r"""
#include <math.h>
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

/* alpha and c come in as zeros; returns the last pass objective. */
double cd_solve(int64_t k, const double *gram, const double *b, double xx,
                double kappa, double tol, int64_t max_iter, double *alpha,
                double *c) {
    double prev = 0.5 * xx;
    for (int64_t it = 0; it < max_iter; it++) {
        for (int64_t j = 0; j < k; j++) {
            const double *row = gram + j * k;
            double dj = row[j], old = alpha[j], r, a;
            if (!(dj > 1e-15))
                continue;
            r = b[j] - c[j] + dj * old;
            a = r > kappa ? (r - kappa) / dj : r < -kappa ? (r + kappa) / dj : 0.0;
            if (a != old) {
                double step = a - old;
                alpha[j] = a;
                for (int64_t i = 0; i < k; i++)
                    c[i] += step * row[i];
            }
        }
        for (int64_t i = 0; i < k; i++)  /* c = gram @ alpha, afresh */
            c[i] = 0.0;
        for (int64_t j = 0; j < k; j++)
            if (alpha[j] != 0.0)
                for (int64_t i = 0; i < k; i++)
                    c[i] += gram[i * k + j] * alpha[j];
        double quad = xx, l1 = 0.0;
        for (int64_t j = 0; j < k; j++)
            if (alpha[j] != 0.0) {
                quad += alpha[j] * (c[j] - 2.0 * b[j]);
                l1 += fabs(alpha[j]);
            }
        double cur = 0.5 * quad + kappa * l1, change = fabs(prev - cur);
        prev = cur;
        if (change < tol)
            break;
    }
    return prev;
}

/* d is n x k, stat_a k x k (symmetric), stat_b n x k, all row-major; u is
   scratch of n. A zero a[r] or x[r] adds only zeros to statistics that
   start at +0.0, so skipping it keeps the bits. Four rows of d @ stat_a[:, j]
   are summed at once, each left to right from 0.0 in a chain of its own:
   four adds run at once where one chain would wait on each. */
void dl_update(int64_t n, int64_t k, double w, const double *x,
               const double *a, double *stat_a, double *stat_b, double *d,
               double *u) {
    for (int64_t r = 0; r < k; r++)
        if (a[r] != 0.0)
            for (int64_t c = 0; c < k; c++)
                stat_a[r * k + c] += w * (a[r] * a[c]);
    for (int64_t r = 0; r < n; r++)
        if (x[r] != 0.0)
            for (int64_t c = 0; c < k; c++)
                stat_b[r * k + c] += w * (x[r] * a[c]);
    for (int64_t j = 0; j < k; j++) {
        const double *sa = stat_a + j * k;  /* row j == column j */
        double ajj = sa[j], norm = 0.0;
        if (ajj <= 1e-12)
            continue;
        int64_t r = 0;
        for (; r + 4 <= n; r += 4) {  /* u[r] = (d @ sa)[r], four chains */
            const double *r0 = d + r * k, *r1 = r0 + k, *r2 = r1 + k, *r3 = r2 + k;
            double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
            for (int64_t c = 0; c < k; c++) {
                s0 += r0[c] * sa[c];
                s1 += r1[c] * sa[c];
                s2 += r2[c] * sa[c];
                s3 += r3[c] * sa[c];
            }
            u[r] = s0, u[r + 1] = s1, u[r + 2] = s2, u[r + 3] = s3;
        }
        for (; r < n; r++) {
            double acc = 0.0;
            for (int64_t c = 0; c < k; c++)
                acc += d[r * k + c] * sa[c];
            u[r] = acc;
        }
        for (r = 0; r < n; r++) {
            u[r] = d[r * k + j] + (stat_b[r * k + j] - u[r]) / ajj;
            norm += u[r] * u[r];
        }
        double scale = sqrt(norm);
        if (scale < 1.0)
            scale = 1.0;
        for (int64_t r = 0; r < n; r++)
            d[r * k + j] = u[r] / scale;
    }
}

/* One document of an l1 fit: cd_solve from zeros, then dl_update with its
   coefficients; returns the solve's objective. */
double dl_step(int64_t n, int64_t k, const double *x, const double *gram,
               const double *b, double *alpha, double *c, double *stat_a,
               double *stat_b, double *d, double *u, double kappa, double tol,
               int64_t max_iter, double w, double xx) {
    for (int64_t j = 0; j < k; j++)
        alpha[j] = c[j] = 0.0;
    double objective = cd_solve(k, gram, b, xx, kappa, tol, max_iter, alpha, c);
    dl_update(n, k, w, x, alpha, stat_a, stat_b, d, u);
    return objective;
}

/* y += A x for CSC A of n_col columns and x of n_col rows, y and x
   row-major with w columns: a(i, j) x[j] is added to y[i] column by
   column, as scipy's csc_matvecs does. */
void csc_matvecs(int64_t n_col, int64_t w, const int64_t *ap,
                 const int64_t *ai, const double *ax, const double *x,
                 double *y) {
    for (int64_t j = 0; j < n_col; j++)
        for (int64_t p = ap[j]; p < ap[j + 1]; p++) {
            const double a = ax[p], *xj = x + j * w;
            double *yi = y + ai[p] * w;
#pragma GCC unroll 4
            for (int64_t c = 0; c < w; c++)
                yi[c] += a * xj[c];
        }
}

/* y += A x for CSR A of n_row rows: row i of y gains a(i, j) x[j] over
   the row's entries in order, as scipy's csr_matvecs does. */
void csr_matvecs(int64_t n_row, int64_t w, const int64_t *ap,
                 const int64_t *aj, const double *ax, const double *x,
                 double *y) {
    for (int64_t i = 0; i < n_row; i++) {
        double *yi = y + i * w;
        for (int64_t p = ap[i]; p < ap[i + 1]; p++) {
            const double a = ax[p], *xj = x + aj[p] * w;
#pragma GCC unroll 4
            for (int64_t c = 0; c < w; c++)
                yi[c] += a * xj[c];
        }
    }
}

/* out += A[rows] B for CSR A and CSR B of n_col columns, out row-major
   n x n_col: entry (r, k) sums a(rows[r], j) b(j, k) over the entries j of
   A's row in order, as scipy's csr_matmat does before it drops zeros. */
void csr_matmat(int64_t n, const int64_t *rows, int64_t n_col,
                const int64_t *ap, const int64_t *aj, const double *ax,
                const int64_t *bp, const int64_t *bj, const double *bx,
                double *out) {
    for (int64_t r = 0; r < n; r++) {
        double *o = out + r * n_col;
        for (int64_t p = ap[rows[r]]; p < ap[rows[r] + 1]; p++) {
            const double a = ax[p];
            for (int64_t q = bp[aj[p]]; q < bp[aj[p] + 1]; q++)
                o[bj[q]] += a * bx[q];
        }
    }
}

/* The CSC arrays (bp of n_col + 1 entries) of A[rows] for CSR A: a
   counting sort by column, as scipy's csr_tocsc does, so each column's
   row numbers ascend. */
void csr_tocsc(int64_t n, const int64_t *rows, int64_t n_col,
               const int64_t *ap, const int64_t *aj, const double *ax,
               int64_t *bp, int64_t *bi, double *bx) {
    for (int64_t c = 0; c <= n_col; c++)
        bp[c] = 0;
    for (int64_t r = 0; r < n; r++)
        for (int64_t p = ap[rows[r]]; p < ap[rows[r] + 1]; p++)
            bp[aj[p] + 1]++;
    for (int64_t c = 0; c < n_col; c++)  /* bp[c]: where column c starts */
        bp[c + 1] += bp[c];
    for (int64_t r = 0; r < n; r++)
        for (int64_t p = ap[rows[r]]; p < ap[rows[r] + 1]; p++) {
            int64_t dest = bp[aj[p]]++;
            bi[dest] = r;
            bx[dest] = ax[p];
        }
    for (int64_t c = n_col; c > 0; c--)  /* bp[c - 1] ran to column c's start */
        bp[c] = bp[c - 1];
    bp[0] = 0;
}
"""
_CC_FLAGS = ("-O2", "-ftree-vectorize", "-ffp-contract=off", "-shared", "-fPIC")

NativeKernels = namedtuple("NativeKernels", "sweep cd dl step matvecs block tocsc")


def _private(path):
    """``path`` is owned by this user and no one else can write to it."""
    st = os.stat(path)
    return st.st_uid == os.getuid() and not st.st_mode & 0o022


def _compile_kernels(lib):
    """Build _KERNELS_C with the system ``cc`` beside ``lib``, then move it in."""
    tmp = lib.with_name(f".{lib.name}.{secrets.token_hex(4)}.tmp")
    try:
        subprocess.run(
            ["cc", *_CC_FLAGS, "-o", tmp, "-x", "c", "-"],
            input=_KERNELS_C.encode(), capture_output=True, check=True, timeout=300,
        )
        data = tmp.read_bytes()  # loads check the digest: dlopen can crash on torn files
        tmp.write_bytes(data + hashlib.sha256(data).digest())
        tmp.chmod(0o700)
        tmp.replace(lib)
    finally:
        tmp.unlink(missing_ok=True)


def _bind(dll):
    """NativeKernels over a loaded library: ``sweep`` takes _sweep_lists'
    arguments, ``cd`` _cd_solve's, ``dl`` _dl_update's, ``step``
    _dl_step's, ``matvecs`` _matvecs', ``block`` _block's and ``tocsc``
    _tocsc's, and each returns (or updates in place) what its twin does.
    A sparse operand is a CompressedMatrix, whose arrays were checked when
    it was built; each binding checks its other operands (ValueError)."""
    i64, f64 = (np.ctypeslib.ndpointer(t, flags="C") for t in (np.int64, np.float64))
    n, x = ctypes.c_int64, ctypes.c_double
    sweep, cd_solve, dl_update, dl_step = dll.sweep, dll.cd_solve, dll.dl_update, dll.dl_step
    sweep.argtypes = [n, n] + [i64] * 6 + [x] * 3 + [f64] * 2
    sweep.restype = None
    cd_solve.argtypes = [n, f64, f64, x, x, x, n, f64, f64]
    cd_solve.restype = x
    dl_update.argtypes = [n, n, x] + [f64] * 6
    dl_update.restype = None
    dl_step.argtypes = [n, n] + [ctypes.c_void_p] * 9 + [x, x, n, x, x]
    dl_step.restype = x
    products = {"csc": dll.csc_matvecs, "csr": dll.csr_matvecs}
    csr_matmat, csr_tocsc = dll.csr_matmat, dll.csr_tocsc
    for product in products.values():
        product.argtypes = [n, n, i64, i64, f64, f64, f64]
        product.restype = None
    csr_matmat.argtypes = [n, i64, n, i64, i64, f64, i64, i64, f64, f64]
    csr_matmat.restype = None
    csr_tocsc.argtypes = [n, i64, n, i64, i64, f64, i64, i64, f64]
    csr_tocsc.restype = None

    def run_sweep(words, docs, z, n_wt, n_dt, n_t, alpha, beta, nbeta, uniforms):
        sweep(z.size, n_t.size, words, docs, z, n_wt, n_dt, n_t, alpha, beta, nbeta,
              uniforms, np.empty(n_t.size))

    def cd(gram, b, xx, kappa, tol, max_iter):
        k = b.size
        if gram.shape != (k, k):
            raise ValueError(f"cd needs a {k} x {k} gram, got {gram.shape}")
        alpha, c = np.zeros(k), np.zeros(k)
        return alpha, cd_solve(k, gram, b, xx, kappa, tol, max_iter, alpha, c)

    def dl(w, x, a, stat_a, stat_b, d):
        n, k = d.shape
        for name, array, shape in (("x", x, (n,)), ("a", a, (k,)),
                                   ("stat_a", stat_a, (k, k)), ("stat_b", stat_b, (n, k))):
            if array.shape != shape:
                raise ValueError(f"dl needs {name} of shape {shape}, got {array.shape}")
        dl_update(n, k, w, x, a, stat_a, stat_b, d, np.empty(n))

    def step(x, gram, b, alpha, c, stat_a, stat_b, d, u, kappa, tol, max_iter):
        n, k = d.shape
        arrays = (x, gram, b, alpha, c, stat_a, stat_b, d, u)
        shapes = {"x": (n,), "gram": (k, k), "b": (k,), "alpha": (k,), "c": (k,),
                  "stat_a": (k, k), "stat_b": (n, k), "d": (n, k), "u": (n,)}
        for array, (name, shape) in zip(arrays, shapes.items()):
            if not (array.dtype == np.float64 and array.shape == shape
                    and array.flags.c_contiguous and array.flags.writeable):
                raise ValueError(f"step needs {name} as a writable C-ordered "
                                 f"float64 array of shape {shape}")
        # Checked and converted once: each view keeps its array alive and
        # passes as a bare pointer, so a call converts no array.
        views = [np.ctypeslib.as_ctypes(array) for array in arrays]
        return functools.partial(dl_step, n, k, *views, kappa, tol, max_iter)

    def matvecs(A, x):
        if not (isinstance(x, np.ndarray) and x.ndim == 2 and x.shape[0] == A.shape[1]
                and x.dtype == np.float64 and x.flags.c_contiguous):
            raise ValueError(f"matvecs needs x as a C-ordered float64 array of "
                             f"{A.shape[1]} rows")
        y = np.zeros((A.shape[0], x.shape[1]))
        products[A.format](len(A.indptr) - 1, x.shape[1], A.indptr, A.indices, A.data, x, y)
        return y

    def block(A, rows, B):
        _require_csr_rows("block", A, rows)
        if B.format != "csr" or B.shape[0] != A.shape[1]:
            raise ValueError(f"block needs a CSR B of {A.shape[1]} rows")
        out = np.zeros((len(rows), B.shape[1]))
        csr_matmat(len(rows), rows, B.shape[1], A.indptr, A.indices, A.data,
                   B.indptr, B.indices, B.data, out)
        return out

    def tocsc(A, rows):
        _require_csr_rows("tocsc", A, rows)
        nnz = int(np.diff(A.indptr)[rows].sum())
        indptr, indices = np.empty(A.shape[1] + 1, np.int64), np.empty(nnz, np.int64)
        data = np.empty(nnz)
        csr_tocsc(len(rows), rows, A.shape[1], A.indptr, A.indices, A.data,
                  indptr, indices, data)
        return CompressedMatrix.trusted(indptr, indices, data, (len(rows), A.shape[1]), "csc")

    return NativeKernels(run_sweep, cd, dl, step, matvecs, block, tocsc)


def _require_csr_rows(name, A, rows):
    """ValueError unless ``A`` is CSR and ``rows`` a flat C-ordered int64
    array of its row numbers."""
    if not (A.format == "csr" and isinstance(rows, np.ndarray) and rows.ndim == 1
            and rows.dtype == np.int64 and rows.flags.c_contiguous
            and np.all((rows >= 0) & (rows < A.shape[0]))):
        raise ValueError(f"{name} needs a CSR A and an int64 array of its row "
                         f"numbers in [0, {A.shape[0]})")


def _scipy(A):
    """A CompressedMatrix as the scipy matrix of its format over its arrays."""
    import scipy.sparse as sp  # only where the C kernels cannot load

    return getattr(sp, f"{A.format}_matrix")((A.data, A.indices, A.indptr), shape=A.shape)


def _matvecs(A, x):
    """``A @ x`` for a CompressedMatrix ``A`` and a dense ``x``."""
    return _scipy(A) @ x


def _block(A, rows, B):
    """``A[rows] @ B`` as a dense array, for CSR ``A`` and ``B``."""
    return (_scipy(A)[rows] @ _scipy(B)).toarray()


def _tocsc(A, rows):
    """``A[rows]`` in CSC form, for CSR ``A``."""
    m = _scipy(A)[rows].tocsc()
    return CompressedMatrix.trusted(
        m.indptr.astype(np.int64), m.indices.astype(np.int64), m.data, m.shape, "csc"
    )


# The libraries this package has written to its cache: today's name, and the
# name before the LDA sweep and the l1 solve shared one library.
_CACHED_LIBRARY = re.compile(r"(kernels|gibbs)-[0-9a-f]{64}\.so")


def _prune_cache(cache, keep):
    """Remove from ``cache`` every other regular file named like a cached
    library and owned by this user: each one was built from another
    source. A file that another process removed first is skipped."""
    for path in cache.iterdir():
        if path == keep or not _CACHED_LIBRARY.fullmatch(path.name):
            continue
        try:
            st = path.lstat()
            if stat.S_ISREG(st.st_mode) and st.st_uid == os.getuid():
                path.unlink()
        except FileNotFoundError:
            pass


@functools.cache
def _native_kernels():
    """``(NativeKernels, None)``, or ``(None, reason)`` where the C kernels
    cannot be built or loaded. The library is cached in
    ~/.cache/topicpuzzles, named by the hash of source, flags and machine,
    and loaded only from an intact, private file in a private directory;
    any other file there is rebuilt. A fresh build that loads removes the
    libraries of other sources from the directory."""
    key = "\0".join((_KERNELS_C, *_CC_FLAGS, platform.machine())).encode()
    try:
        cache = Path.home() / ".cache" / "topicpuzzles"
        cache.mkdir(mode=0o700, parents=True, exist_ok=True)
        if not _private(cache):
            raise OSError(f"{cache} is not private to this user")
        lib = cache / f"kernels-{hashlib.sha256(key).hexdigest()}.so"
        try:
            data = lib.read_bytes()
            if not _private(lib) or hashlib.sha256(data[:-32]).digest() != data[-32:]:
                raise OSError(f"{lib} is damaged or writable by others")
            dll = ctypes.CDLL(str(lib))
        except OSError:
            _compile_kernels(lib)
            dll = ctypes.CDLL(str(lib))
            _prune_cache(cache, lib)
        return _bind(dll), None
    except (OSError, RuntimeError, AttributeError, subprocess.SubprocessError) as exc:
        return None, str(exc)


def load_kernels():
    """``(kernels, None)`` with the C kernels, or where they cannot be built
    or loaded ``(kernels, reason)`` with their Python twins, a
    NativeKernels of the same signatures and results."""
    native, why = _native_kernels()
    if native:
        return native, None
    return NativeKernels(
        _sweep_lists, _cd_solve, _dl_update, _dl_step, _matvecs, _block, _tocsc
    ), why


def lda_fit(X, config, sweep_hook=None):
    """Collapsed Gibbs sampling over token-topic assignments.

    Topics are the posterior-mean word distributions
    (count(word, topic) + beta) / (count(topic) + N*beta), averaged over
    the final 20% of sweeps. Deterministic for a fixed seed.

    Each sweep runs the C ``sweep`` of the native kernel library, compiled
    with the system ``cc`` on first use and cached per user, or
    ``_sweep_lists`` where the library cannot be built or loaded (the
    result's ``fallback`` then says why). Both draw one uniform per token and
    form every weight and partial sum in the same order, so the weights do
    not depend on which one ran.

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

    kernels, why = load_kernels()
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
        fallback=why,
    )


# ---------------------------------------------------------------------------
# Sparse coding and dictionary learning
# ---------------------------------------------------------------------------


# The l1 solve's stopping rule, in sparse_code and in dict_learn_fit.
_CD_TOL, _CD_MAX_ITER = 1e-8, 1000


def _cd_solve(gram, b, xx, kappa, tol, max_iter):
    """The l1 loop of ``sparse_code`` in Python; returns (alpha, objective).
    A pass visits the atoms with gram[j][j] > 1e-15 in order and moves
    alpha[j], and c = gram @ alpha by one axpy, only when the
    soft-thresholded coefficient changes. Then c is summed afresh from 0.0
    over the support in ascending order, so rounding cannot build up across
    passes, and the objective 0.5*quad + kappa*l1 is summed from c over the
    support."""
    k = b.size
    bl = b.tolist()
    diag = np.diag(gram).tolist()
    steps = [(j, diag[j], bl[j], gram[j]) for j in range(k) if diag[j] > 1e-15]
    coef = [0.0] * k
    c = np.zeros(k)
    prev = 0.5 * xx
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
                np.add(c, (new - old) * row, out=c)
        alpha = np.array(coef)
        support = np.flatnonzero(alpha)
        # A sum over axis 0 adds the rows one at a time into 0.0 (numpy sums
        # pairwise only along the contiguous axis): the C loop's order.
        c = (gram.T[support] * alpha[support, None]).sum(axis=0, initial=0.0)
        cl = c.tolist()
        quad, l1 = xx, 0.0
        for j in support.tolist():
            quad += coef[j] * (cl[j] - 2.0 * bl[j])
            l1 += abs(coef[j])
        cur = 0.5 * quad + kappa * l1
        change = abs(prev - cur)
        prev = cur
        if change < tol:
            break
    return np.array(coef), prev


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
    one call of ``cd_solve`` in the native kernel library, or of
    ``_cd_solve`` where the library cannot be built or loaded; D^T D and
    D^T x stay in numpy, so the result has the same bits either way.
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


def _dl_update(w, x, a, stat_a, stat_b, d):
    """One document's dictionary update in numpy, in place: the statistics
    gain w * (a a^T) and w * (x a^T), then each column j with
    stat_a[j, j] > 1e-12 moves to u = d[:, j] + (stat_b[:, j] - d @
    stat_a[:, j]) / stat_a[j, j] and is projected onto the unit ball.
    Each entry of ``d @ stat_a[:, j]`` and of ``u @ u`` is summed left to
    right from 0.0, the order of the C ``dl_update``."""
    stat_a += w * np.outer(a, a)
    stat_b += w * np.outer(x, a)
    dt = d.T.copy()  # row j is column j, so a column update writes one row
    products = np.empty_like(dt)
    for j in range(a.size):
        ajj = stat_a[j, j]
        if ajj <= 1e-12:
            continue
        # A sum over axis 0 adds the rows one at a time into 0.0 (numpy
        # sums pairwise only along the contiguous axis).
        np.multiply(dt, stat_a[j, :, None], out=products)
        dot = np.add.reduce(products, axis=0, initial=0.0)
        u = dt[j] + (stat_b[:, j] - dot) / ajj
        dt[j] = u / max(1.0, math.sqrt(np.add.accumulate(u * u)[-1]))
    d[:] = dt.T


def _dl_step(x, gram, b, alpha, c, stat_a, stat_b, d, u, kappa, tol, max_iter):
    """The C ``dl_step`` in Python over the same buffers: returns
    ``step(w, xx)``, which puts the ``_cd_solve`` of (gram, b, xx) in
    ``alpha``, applies ``_dl_update`` with it and returns the solve's
    objective. ``c`` and ``u`` are scratch of the C kernel only."""

    def step(w, xx):
        alpha[:], objective = _cd_solve(gram, b, xx, kappa, tol, max_iter)
        _dl_update(w, x, alpha, stat_a, stat_b, d)
        return objective

    return step


def dict_learn_fit(X, config):
    """Online dictionary learning: alternate sparse coding of each document
    (in index order) with one projected block-coordinate update of the
    dictionary from recency-weighted sufficient statistics (Mairal et al.
    2010, Alg. 2).

    Columns are projected onto the unit Euclidean ball; statistics
    accumulate across epochs. An l1 document is one call of ``dl_step`` in
    the native kernel library, bound to the fit's buffers once, or of its
    twin ``_dl_step`` where the library cannot be built or loaded; it gets
    ``sparse_code``'s D^T D and D^T x from numpy, and its check that x and
    the dictionary are finite. A group-l2 document runs ``sparse_code`` and
    then the update, ``dl_update`` or ``_dl_update``. Deterministic for a
    fixed seed, and the same whichever kernels ran (the result's
    ``fallback`` says why it ran the Python ones).
    """
    A, vocab = _as_matrix(X)
    n, m = A.shape
    if m == 0:
        raise ValueError("empty document-term matrix")
    k = config.n_topics
    kernels, why = load_kernels()
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
        fallback=why,
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
