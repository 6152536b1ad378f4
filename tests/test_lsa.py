import json
import os
import subprocess
import sys

import numpy as np
import pytest
from conftest import decode_array_file, rewrite_array_file
from oracles import jacobi_singular_values, two_qr_lsa_fit

import topicpuzzles
from topicpuzzles.corpus import (
    Document,
    build_doc_term_matrix,
    save_doc_term_matrix,
)
from topicpuzzles.synthetic import planted_topic_corpus
from topicpuzzles.topic_models import (
    TopicDictionary,
    extract_top_k,
    load_topic_dictionary,
    lsa_fit,
    save_topic_dictionary,
)


class TestLsaFit:
    def test_identity_matrix(self):
        td = lsa_fit(np.eye(2), 2)
        np.testing.assert_allclose(td.singular_values, [1.0, 1.0], atol=1e-12)
        # columns are the standard basis vectors, in either order
        cols = np.abs(td.weights)
        assert sorted(map(tuple, np.round(cols.T, 9))) == [(0, 1), (1, 0)]

    def test_rank_one_outer_product(self):
        rng = np.random.default_rng(0)
        u = rng.standard_normal(6)
        u /= np.linalg.norm(u)
        v = rng.standard_normal(9)
        v /= np.linalg.norm(v)
        td = lsa_fit(np.outer(u, v), 1)
        assert td.singular_values[0] == pytest.approx(1.0, abs=1e-10)
        expected = u if u[np.argmax(np.abs(u))] > 0 else -u
        np.testing.assert_allclose(td.weights.ravel(), expected, atol=1e-9)

    def test_matches_jacobi_oracle(self):
        rng = np.random.default_rng(42)
        for trial in range(5):
            a = rng.standard_normal((20, 30))
            td = lsa_fit(a, 5, seed=trial)
            reference = jacobi_singular_values(a)[:5]
            np.testing.assert_allclose(td.singular_values, reference, atol=1e-8)

    def test_columns_orthonormal(self):
        rng = np.random.default_rng(3)
        td = lsa_fit(rng.standard_normal((15, 25)), 6)
        gram = td.weights.T @ td.weights
        assert np.max(np.abs(gram - np.eye(6))) < 1e-6

    def test_sign_normalization(self):
        rng = np.random.default_rng(4)
        td = lsa_fit(rng.standard_normal((10, 12)), 4)
        for j in range(4):
            col = td.weights[:, j]
            assert col[np.argmax(np.abs(col))] > 0

    def test_singular_values_descending(self):
        rng = np.random.default_rng(5)
        td = lsa_fit(rng.standard_normal((20, 30)), 8)
        assert np.all(np.diff(td.singular_values) <= 0)

    def test_rank_deficient_reports_effective_rank(self):
        rng = np.random.default_rng(6)
        low_rank = rng.standard_normal((10, 2)) @ rng.standard_normal((2, 12))
        with pytest.raises(ValueError, match="rank 2"):
            lsa_fit(low_rank, 3)

    def test_k_beyond_dimensions_rejected(self):
        with pytest.raises(ValueError, match="n_topics"):
            lsa_fit(np.eye(3), 4)

    def test_eckart_young_dominance(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((20, 30))
        td = lsa_fit(a, 5)
        d = td.weights
        optimal = np.linalg.norm(a - d @ (d.T @ a))
        for _ in range(100):
            q, _ = np.linalg.qr(rng.standard_normal((20, 5)))
            competitor = np.linalg.norm(a - q @ (q.T @ a))
            assert optimal <= competitor + 1e-6

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((12, 18))
        td1 = lsa_fit(a, 4, seed=11)
        td2 = lsa_fit(a, 4, seed=11)
        np.testing.assert_array_equal(td1.weights, td2.weights)
        np.testing.assert_array_equal(td1.singular_values, td2.singular_values)

    def test_accepts_doc_term_matrix(self):
        docs = [
            Document("1", "apple banana"),
            Document("2", "banana cherry"),
            Document("3", "cherry apple plum"),
        ]
        dtm = build_doc_term_matrix(docs)
        vocab = dtm.vocab
        td = lsa_fit(dtm, 2)
        assert td.vocab == list(vocab.words)
        assert td.weights.shape == (len(vocab), 2)


def graded_spectrum(seed, n=30, m=50):
    """U diag(sigma) V^T with sigma log-spaced from 1 down to 1e-12 and
    seeded orthonormal U (n x n) and V (m x n); returns (matrix, U, sigma)."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((n, n)))
    v, _ = np.linalg.qr(rng.standard_normal((m, n)))
    sigma = np.logspace(0, -12, n)
    return (u * sigma) @ v.T, u, sigma


@pytest.fixture(scope="module")
def flat_tail_planted():
    """6 planted topics x 8 words with 15% background tokens: past the 6
    planted singular values the spectrum is flat (about 20-24)."""
    docs, _ = planted_topic_corpus(6, 8, 300, seed=3, background_fraction=0.15)
    return build_doc_term_matrix(docs)


class TestAgainstTwoQrOracle:
    """Each power step of ``lsa_fit`` runs one QR, of A (A^T q); the frozen
    ``two_qr_lsa_fit`` ran one of A^T q and one of A w. In exact arithmetic
    both give the same q up to column signs at every step, which the final
    SVD and the sign rule absorb, so the fits differ only by rounding."""

    def assert_matches(self, X, k, seed, floor=None):
        """Weights within 1e-10 and singular values within rtol 1e-12.
        ``floor`` (one value per column) widens both by the rounding floor
        of an ill-conditioned column, where any two stable SVDs differ."""
        new, old = lsa_fit(X, k, seed=seed), two_qr_lsa_fit(X, k, seed=seed)
        floor = np.zeros(k) if floor is None else floor
        assert np.all(np.abs(new.weights - old.weights) <= 1e-10 + floor)
        relative = np.abs(new.singular_values - old.singular_values) / old.singular_values
        assert np.all(relative <= 1e-12 + floor)
        return new, old

    def test_flat_tail_planted_corpus(self, flat_tail_planted):
        sv = two_qr_lsa_fit(flat_tail_planted, 14).singular_values
        assert sv[5] / sv[6] > 4 and sv[6] / sv[13] < 1.3
        new, old = self.assert_matches(flat_tail_planted, 12, seed=0)
        sets = [[t.word_indices for t in extract_top_k(fit, 4)] for fit in (new, old)]
        assert sets[0] == sets[1]

    @pytest.mark.parametrize("shape,k", [((40, 60), 10), ((25, 70), 20), ((60, 30), 12)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_gaussian(self, shape, k, seed):
        a = np.random.default_rng(seed).standard_normal(shape)
        self.assert_matches(a, k, seed)

    @pytest.mark.parametrize("k", [8, 20, 28])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_graded_spectrum(self, k, seed):
        """Rounding can move column j by about n * eps * sigma_1 / sigma_j
        (5e-12 at K=8, 5e-7 at K=20, 1e-3 at K=28 for n = 30), so only K=8
        holds to 1e-10. The new fit lies within that floor of the planted
        singular vectors."""
        a, u, sigma = graded_spectrum(seed)
        floor = a.shape[0] * np.finfo(np.float64).eps * sigma[0] / sigma[:k]
        new, _ = self.assert_matches(a, k, seed, floor)
        error = np.minimum(np.abs(new.weights - u[:, :k]),
                           np.abs(new.weights + u[:, :k])).max(axis=0)
        assert np.all(error <= floor)


class TestLsaPersistence:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(9)
        td = lsa_fit(rng.standard_normal((10, 14)), 3, seed=2)
        path = tmp_path / "model.json"
        save_topic_dictionary(td, path)
        loaded = load_topic_dictionary(path)
        np.testing.assert_array_equal(loaded.weights, td.weights)
        np.testing.assert_array_equal(loaded.singular_values, td.singular_values)
        assert loaded.model == "lsa"
        assert loaded.meta == td.meta

    @pytest.mark.parametrize("singular_values", [[2.5, 0.75], None],
                             ids=["singular-values", "no-singular-values"])
    def test_arrays_and_file_round_trip_bit_for_bit(self, tmp_path, singular_values):
        td = TopicDictionary(
            weights=np.arange(1.0, 7.0).reshape(3, 2) / 7.0, model="lsa",
            meta={"seed": 0}, vocab=["a", "b", "c"],
            singular_values=None if singular_values is None else np.array(singular_values),
        )
        path, again = tmp_path / "model.json", tmp_path / "again.json"
        save_topic_dictionary(td, path)
        loaded = load_topic_dictionary(path)
        assert loaded.weights.tobytes() == td.weights.tobytes()
        assert loaded.weights.tobytes(order="F") == td.weights.tobytes(order="F")
        if singular_values is None:
            assert loaded.singular_values is None
            assert [name for name, *_ in decode_array_file(path.read_bytes())["arrays"]] == [
                "weights"
            ]
        else:
            assert loaded.singular_values.tobytes() == td.singular_values.tobytes()
        save_topic_dictionary(loaded, again)
        assert again.read_bytes() == path.read_bytes()

    def test_unknown_model_name_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        save_topic_dictionary(lsa_fit(np.eye(3), 2), path)
        broken = rewrite_array_file(path, lambda p: {**p, "model": "bogus"},
                                    tmp_path / "bogus.json")
        with pytest.raises(ValueError) as caught:
            load_topic_dictionary(broken)
        assert str(caught.value) == f"{broken}: model must be one of lsa, lda, dictlearn"

    def test_version_1_json_file_asks_for_train(self, tmp_path):
        path = tmp_path / "model.json"
        save_topic_dictionary(lsa_fit(np.eye(3), 2), path)
        payload = decode_array_file(path.read_bytes())
        del payload["arrays"]
        path.write_text(json.dumps({**payload, "version": 1}) + "\n")
        with pytest.raises(ValueError) as caught:
            load_topic_dictionary(path)
        assert str(caught.value) == (
            f"{path}: unsupported version 1; re-run `train` to rebuild it"
        )

    def test_deterministic_file_bytes(self, tmp_path):
        rng = np.random.default_rng(10)
        td = lsa_fit(rng.standard_normal((8, 9)), 2, seed=5)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_topic_dictionary(td, p1)
        save_topic_dictionary(td, p2)
        assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize(
    "model, shape",
    [("lsa", "80x400"), ("lsa", "225x1000"), ("dictlearn", "225x1000")],
    ids=["80x400", "225x1000", "dictlearn-225x1000"],
)
def test_train_bytes_independent_of_blas_threads(tmp_path, planted_mixed, model, shape):
    """`train` writes the same bytes with one and two BLAS threads.
    OpenBLAS splits the products of the 80 x 400 matrix over two threads;
    LAPACK splits its factorizations only at larger sizes. At 225 x 1000
    with background tokens (a dense Gram matrix A A^T; without them it is
    block-diagonal) an eigh of the Gram matrix gives different bits with
    one and two threads. A dictlearn fit codes each of the 1000 documents
    with the l1 solve, which makes no BLAS call."""
    if shape == "80x400":
        dtm, k = planted_mixed[-1], "8"
    else:
        docs, _ = planted_topic_corpus(15, 15, 1000, background_fraction=0.15)
        dtm, k = build_doc_term_matrix(docs), "20"
    assert f"{dtm.n_words}x{dtm.n_docs}" == shape
    hyper = ["--epochs", "1", "--kappa", "0.5"] if model == "dictlearn" else []
    matrix = tmp_path / "matrix.json"
    save_doc_term_matrix(dtm, matrix)
    src = os.path.dirname(os.path.dirname(topicpuzzles.__file__))
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"{model}-{threads}.json"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
        subprocess.run(
            [sys.executable, "-m", "topicpuzzles.cli", "train", "--model", model,
             "--matrix", str(matrix), "--out", str(out), "--num-topics", k, *hyper],
            env=env, check=True, capture_output=True,
        )
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
