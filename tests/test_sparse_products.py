"""The sparse products of the C kernel library (``matvecs``, ``block`` and
``tocsc``) and their scipy twins against scipy itself, byte for byte; the
checks that keep the C products in bounds; and the CLI chain, which must
run without importing scipy when the C kernels load."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from conftest import KERNELS, needs_cc, use_kernel
from oracles import as_scipy, compressed

from topicpuzzles import kernels as kernel_lib
from topicpuzzles.corpus import CompressedMatrix
from topicpuzzles.esa import EsaIndex, SimilarityProvider

SRC = Path(__file__).resolve().parent.parent / "src"


def random_csc(seed, shape, density=0.15):
    """A seeded scipy CSC matrix of positive entries in which the first and
    every seventh row and column are empty."""
    rng = np.random.default_rng(seed)
    dense = rng.random(shape) * (rng.random(shape) < density)
    dense[::7, :] = 0.0
    dense[:, ::7] = 0.0
    return sp.csc_matrix(dense)


def same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


SHAPES = [(40, 60), (60, 40), (1, 9), (9, 1)]
WIDTHS = [1, 3, 68]


@pytest.mark.parametrize("kernel", KERNELS)
class TestAgainstScipy:
    """Each product equals the scipy expression it replaces, byte for byte,
    with the C kernels and with the fallback forced."""

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matvecs(self, kernel, monkeypatch, shape, width, seed):
        use_kernel(kernel, monkeypatch)
        kernels = kernel_lib.load_kernels()[0]
        S = random_csc(seed, shape)
        A = compressed(S, "csc")
        rng = np.random.default_rng(seed + 100)
        x, q = rng.standard_normal((shape[1], width)), rng.standard_normal((shape[0], width))
        same_bytes(kernels.matvecs(A, x), S @ x)
        same_bytes(kernels.matvecs(A.T, q), S.T @ q)
        same_bytes(kernels.matvecs(compressed(S, "csr"), x), S.tocsr() @ x)

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_tocsc(self, kernel, monkeypatch, shape, seed):
        use_kernel(kernel, monkeypatch)
        kernels = kernel_lib.load_kernels()[0]
        S = random_csc(seed, shape).tocsr()
        rng = np.random.default_rng(seed)
        for rows in (np.arange(shape[0]), rng.integers(0, shape[0], 2 * shape[0]),
                     np.array([], dtype=np.int64)):
            got, want = kernels.tocsc(compressed(S, "csr"), rows), S[rows].tocsc()
            assert got.format == "csc" and got.shape == want.shape
            for name in ("indptr", "indices"):
                same_bytes(getattr(got, name), getattr(want, name).astype(np.int64))
            same_bytes(got.data, want.data)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_block(self, kernel, monkeypatch, seed):
        use_kernel(kernel, monkeypatch)
        kernels = kernel_lib.load_kernels()[0]
        R = random_csc(seed, (30, 50)).tocsr()
        rng = np.random.default_rng(seed)
        for n_right in (1, 12, 30):
            right = R[rng.integers(0, 30, n_right)].T.tocsr()
            rows = rng.integers(0, 30, 17)  # repeats included
            same_bytes(kernels.block(compressed(R, "csr"), rows, compressed(right, "csr")),
                       (R[rows] @ right).toarray())


def index_and_provider(seed, n_words=25, n_concepts=40):
    """An EsaIndex of random positive rows, none empty, and a provider."""
    rng = np.random.default_rng(seed)
    dense = rng.random((n_words, n_concepts)) * (rng.random((n_words, n_concepts)) < 0.2)
    dense[np.arange(n_words), rng.integers(0, n_concepts, n_words)] = 1.0 + rng.random(n_words)
    m = sp.csr_matrix(dense)
    words = [f"w{i:03d}" for i in range(n_words)]
    index = EsaIndex([f"c{j}" for j in range(n_concepts)], words, m.indptr.astype(np.int64),
                     m.indices.astype(np.int64), m.data)
    return index, SimilarityProvider(index)


def scipy_block(index, words_a, words_b):
    """The relatedness block from scipy: min(R[A] R[B]^T, 1), 1 where an
    indexed word meets itself, 0 in the rows and columns of unindexed words."""
    R = as_scipy(index.R)
    rows_a = np.array([index.row(w) for w in words_a])
    rows_b = np.array([index.row(w) for w in words_b])
    out = np.zeros((len(rows_a), len(rows_b)))
    ia, ib = np.flatnonzero(rows_a >= 0), np.flatnonzero(rows_b >= 0)
    if ia.size and ib.size:
        block = (R[rows_a[ia]] @ R[rows_b[ib]].T.tocsr()).toarray()
        out[np.ix_(ia, ib)] = np.minimum(block, 1.0)
    out[(rows_a[:, None] == rows_b[None, :]) & (rows_a[:, None] >= 0)] = 1.0
    return out


BLOCK_CASES = {
    "missing-rows": (["w003", "nope", "w007", "also-missing"], ["w001", "w003", "nope"]),
    "meets-itself": (["w005", "w006"], ["w006", "w005", "w005"]),
    "repeated-rows": (["w002", "w009", "w002", "w002"], ["w009", "w010", "w002"]),
    "all-missing": (["nope"], ["w001"]),
}


@pytest.mark.parametrize("kernel", KERNELS)
class TestBlockCases:
    """``_block`` through the provider's public paths, against scipy."""

    @pytest.mark.parametrize("case", list(BLOCK_CASES))
    def test_cross_relatedness(self, kernel, monkeypatch, case):
        use_kernel(kernel, monkeypatch)
        index, provider = index_and_provider(3)
        words_a, words_b = BLOCK_CASES[case]
        same_bytes(provider.cross_relatedness(words_a, words_b),
                   scipy_block(index, words_a, words_b))
        assert kernel_lib.load_kernels()[1] == (None if kernel == "native" else "forced off")

    @pytest.mark.parametrize("among", [None, ["w004", "nope", "w000", "w004"], ["nope"]],
                             ids=["every-word", "subset", "missing-only"])
    def test_related_rows(self, kernel, monkeypatch, among):
        use_kernel(kernel, monkeypatch)
        index, provider = index_and_provider(4, n_words=150)
        words = [f"w{i:03d}" for i in range(0, 150, 2)] + ["nope", "w004", "w004"]
        got = np.vstack(list(provider.related_rows(words, among=among)))
        same_bytes(got, scipy_block(index, words, index.words() if among is None else among))


@needs_cc
class TestBoundsChecks:
    """Bad inputs raise ValueError before any C code reads them."""

    def kernels(self):
        native = kernel_lib._native_kernels()[0]
        assert native is not None
        return native

    @pytest.mark.parametrize("indptr, indices, message", [
        ([0, 1, 2], [0, 5], "indices must lie in"),
        ([0, 1, -1], [0, 1], "indptr must rise"),
        ([0, 2], [0, 1], "indptr must rise"),
    ], ids=["index-out-of-range", "indptr-dips", "short-indptr"])
    def test_bad_arrays(self, indptr, indices, message):
        with pytest.raises(ValueError, match=message):
            CompressedMatrix(np.array(indptr), np.array(indices), np.ones(len(indices)),
                             (3, 2), "csc")

    def test_fortran_operand(self):
        A = compressed(random_csc(0, (6, 5)), "csc")
        with pytest.raises(ValueError, match="C-ordered float64"):
            self.kernels().matvecs(A, np.asfortranarray(np.ones((5, 3))))

    @pytest.mark.parametrize("x", [np.ones((4, 3)), np.ones(5), np.ones((5, 3), np.float32)],
                             ids=["wrong-width", "one-dimensional", "float32"])
    def test_wrong_operand(self, x):
        A = compressed(random_csc(0, (6, 5)), "csc")
        with pytest.raises(ValueError, match="matvecs needs x"):
            self.kernels().matvecs(A, x)

    @pytest.mark.parametrize("rows", [np.array([0, 6]), np.array([-1]),
                                      np.array([0, 1], dtype=np.int32)],
                             ids=["past-the-end", "negative", "int32"])
    def test_rows_out_of_range(self, rows):
        R = compressed(random_csc(0, (6, 5)).tocsr(), "csr")
        right = compressed(sp.csr_matrix(np.ones((5, 2))), "csr")
        with pytest.raises(ValueError, match="row numbers"):
            self.kernels().tocsc(R, rows)
        with pytest.raises(ValueError, match="row numbers"):
            self.kernels().block(R, rows, right)

    def test_wrong_right_operand(self):
        R = compressed(random_csc(0, (6, 5)).tocsr(), "csr")
        for right in (compressed(sp.csr_matrix(np.ones((4, 2))), "csr"),
                      compressed(sp.csr_matrix(np.ones((5, 2))), "csc")):
            with pytest.raises(ValueError, match="block needs a CSR B of 5 rows"):
                self.kernels().block(R, np.array([0, 1]), right)
        with pytest.raises(ValueError, match="CSR A"):
            self.kernels().tocsc(R.T, np.array([0]))


# The README smoke chain through cli.main on a tiny planted corpus, run in a
# fresh interpreter, "@" standing for the output directory (argv[1]): after
# each command it records the exit code and whether scipy was imported.
# With "fallback" as argv[2] it first replaces the kernel loader.
CHAIN = r"""
import json, sys
from topicpuzzles import cli, kernels
from topicpuzzles.corpus import save_corpus_jsonl
from topicpuzzles.synthetic import planted_topic_corpus

out = sys.argv[1]
if sys.argv[2] == "fallback":
    kernels._native_kernels = lambda: (None, "forced off")
save_corpus_jsonl(planted_topic_corpus(n_docs=120, seed=1, background_fraction=0.15)[0],
                  f"{out}/corpus.jsonl")
commands = [
    ["ingest", "--corpus", "@corpus.jsonl", "--out", "@matrix.json"],
    ["train", "--model", "lsa", "--matrix", "@matrix.json", "--out", "@model.json",
     "--num-topics", "8"],
    ["train", "--model", "lda", "--matrix", "@matrix.json", "--out", "@lda.json",
     "--num-topics", "8", "--iterations", "20"],
    ["train", "--model", "dictlearn", "--matrix", "@matrix.json", "--out",
     "@dictlearn.json", "--num-topics", "8", "--epochs", "1"],
    ["index", "--concepts", "@corpus.jsonl", "--out", "@index.json"],
    ["extract-sets", "--model", "@model.json", "--index", "@index.json", "--out",
     "@sets.jsonl"],
    ["generate", "--sets", "@sets.jsonl", "--index", "@index.json", "--out",
     "@bank.jsonl", "--band", "beginner", "--no-solutions"],
    ["generate", "--sets", "@sets.jsonl", "--index", "@index.json", "--out",
     "@bank.intermediate.jsonl", "--band", "intermediate"],
    ["eval-yield", "--matrix", "@matrix.json", "--index", "@index.json", "--models",
     "lsa,lda,dictlearn", "--num-topics", "8", "--iterations", "20", "--epochs", "1",
     "--delta-grid", "0.05,0.1,0.2", "--out", "@yield.csv"],
]
log = []
for argv in commands:
    argv = [a.replace("@", f"{out}/") for a in argv]
    log.append([argv[0], cli.main(argv), "scipy" in sys.modules])
print(json.dumps(log))
"""


def run_chain(out, kernel):
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", CHAIN, str(out), kernel], env=env,
                          capture_output=True, text=True, timeout=600, check=True)
    return json.loads(done.stdout.splitlines()[-1])


@needs_cc
def test_cli_chain_runs_without_scipy_and_fallback_writes_the_same_files(tmp_path):
    native, fallback = tmp_path / "native", tmp_path / "fallback"
    native.mkdir()
    fallback.mkdir()
    log = run_chain(native, "native")
    assert [name for name, _, _ in log] == [
        "ingest", "train", "train", "train", "index", "extract-sets", "generate",
        "generate", "eval-yield"]
    assert all(code == 0 for _, code, _ in log), log
    assert not any(imported for _, _, imported in log), log
    assert all(code == 0 for _, code, _ in run_chain(fallback, "fallback"))
    files = sorted(p.name for p in native.iterdir())
    assert "bank.nosolutions.jsonl" in files and len(files) == 11
    assert files == sorted(p.name for p in fallback.iterdir())
    for name in files:
        assert (native / name).read_bytes() == (fallback / name).read_bytes(), name


def test_module_boundaries_in_a_fresh_interpreter():
    """The corpus code imports no kernels, the kernels no model or ESA
    code, and ESA no topic models."""
    script = (
        "import sys\n"
        "def loaded():\n"
        "    return sorted(m.split('.')[1] for m in sys.modules if m.startswith('topicpuzzles.'))\n"
        "import topicpuzzles.corpus; print(loaded())\n"
        "import topicpuzzles.kernels; print(loaded())\n"
        "import topicpuzzles.esa; print(loaded())\n"
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60, check=True)
    assert done.stdout.splitlines() == [
        "['corpus']", "['corpus', 'kernels']", "['corpus', 'esa', 'kernels']"]
