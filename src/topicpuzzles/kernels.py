"""The C kernel library, ``kernels.c``, and its Python twins.

The library holds the Gibbs sweep of ``lda_fit`` (twin ``_sweep_lists``),
the whole l1 solve of ``sparse_code`` (``_cd_solve``), the dictionary
update of ``dict_learn_fit`` (``_dl_update``), ``dl_step``, which runs both
for one document of an l1 fit (``_dl_step``), and the sparse products of
LSA and ESA (``_matvecs``, ``_block``, ``_tocsc``), each looping in the
order of the scipy routine it is named after. Each value is formed and
summed in the same order as in its twin, and -ffp-contract=off forbids
fusing a multiply and an add, so either side of each pair gives the same
bits. -ftree-vectorize runs the products' inner loops two lanes at a time
and the pragmas unroll them; neither reorders a sum. At -O2 alone the
products took twice scipy's time.

The first ``load_kernels()`` of a process reads ``kernels.c`` and loads the
library from ~/.cache/topicpuzzles, named by the hash of source, flags and
machine. It loads only an intact, private file in a private directory; any
other file there is rebuilt with the system ``cc``, and a fresh build that
loads removes the libraries of other sources from the directory. Where the
source cannot be read or the library built or loaded, the twins replace
the C kernels, and ``load_kernels()`` says why.
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
from pathlib import Path

import numpy as np

from .corpus import CompressedMatrix

_SOURCE = Path(__file__).with_name("kernels.c")
_CC_FLAGS = ("-O2", "-ftree-vectorize", "-ffp-contract=off", "-shared", "-fPIC")

NativeKernels = namedtuple("NativeKernels", "sweep cd dl step matvecs block tocsc")


def _private(path):
    """``path`` is owned by this user and no one else can write to it."""
    st = os.stat(path)
    return st.st_uid == os.getuid() and not st.st_mode & 0o022


def _compile_kernels(lib, source):
    """Build the C ``source`` with the system ``cc`` beside ``lib``, then
    move it in."""
    tmp = lib.with_name(f".{lib.name}.{secrets.token_hex(4)}.tmp")
    try:
        subprocess.run(
            ["cc", *_CC_FLAGS, "-o", tmp, "-x", "c", "-"],
            input=source, capture_output=True, check=True, timeout=300,
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
    cannot be read, built or loaded (see the module docstring)."""
    try:
        source = _SOURCE.read_bytes()
        key = b"\0".join((source, *(s.encode() for s in (*_CC_FLAGS, platform.machine()))))
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
            _compile_kernels(lib, source)
            dll = ctypes.CDLL(str(lib))
            _prune_cache(cache, lib)
        return _bind(dll), None
    except (OSError, RuntimeError, AttributeError, subprocess.SubprocessError) as exc:
        return None, str(exc)


def load_kernels():
    """``(kernels, None)`` with the C kernels, or where they cannot be read,
    built or loaded ``(kernels, reason)`` with their Python twins, a
    NativeKernels of the same signatures and results."""
    native, why = _native_kernels()
    if native:
        return native, None
    return NativeKernels(
        _sweep_lists, _cd_solve, _dl_update, _dl_step, _matvecs, _block, _tocsc
    ), why
