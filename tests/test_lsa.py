import os
import subprocess
import sys

import numpy as np
import pytest
from oracles import jacobi_singular_values

import topicpuzzles
from topicpuzzles.corpus import (
    Document,
    build_doc_term_matrix,
    build_vocabulary,
    save_doc_term_matrix,
)
from topicpuzzles.topic_models import (
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
        vocab = build_vocabulary(docs)
        dtm = build_doc_term_matrix(docs, vocab)
        td = lsa_fit(dtm, 2)
        assert td.vocab == list(vocab.words)
        assert td.weights.shape == (len(vocab), 2)


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

    def test_deterministic_file_bytes(self, tmp_path):
        rng = np.random.default_rng(10)
        td = lsa_fit(rng.standard_normal((8, 9)), 2, seed=5)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_topic_dictionary(td, p1)
        save_topic_dictionary(td, p2)
        assert p1.read_bytes() == p2.read_bytes()


def test_train_bytes_independent_of_blas_threads(tmp_path, planted_mixed):
    """`train --model lsa` writes the same bytes with one and two BLAS
    threads. The 80 x 400 matrix is large enough for OpenBLAS to split its
    products over two threads."""
    *_, dtm = planted_mixed
    matrix = tmp_path / "matrix.json"
    save_doc_term_matrix(dtm, matrix)
    src = os.path.dirname(os.path.dirname(topicpuzzles.__file__))
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"lsa-{threads}.json"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
        subprocess.run(
            [sys.executable, "-m", "topicpuzzles.cli", "train", "--model", "lsa",
             "--matrix", str(matrix), "--out", str(out), "--num-topics", "8"],
            env=env, check=True, capture_output=True,
        )
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
