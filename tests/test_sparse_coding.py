import ctypes

import numpy as np
import pytest
from conftest import (
    KERNELS,
    dictionary_objective,
    make_sparse_planted_instance,
    needs_cc,
    use_kernel,
)
from oracles import (
    as_scipy,
    blas_update,
    grid_search_lasso_objective,
    naive_cd_lasso,
    per_document_dict_learn_fit,
)

from topicpuzzles import kernels
from topicpuzzles.topic_models import (
    DictLearnConfig,
    TopicDictionary,
    contiguous_groups,
    dict_learn_fit,
    extract_top_k,
    load_topic_dictionary,
    recency_weights,
    save_topic_dictionary,
    sparse_code,
)


def random_orthonormal(n, k, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, k)))
    return q


def soft_threshold(value, kappa):
    return np.sign(value) * np.maximum(np.abs(value) - kappa, 0.0)


class TestSparseCodeL1:
    def test_orthonormal_closed_form(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            d = random_orthonormal(8, 5, seed)
            x = rng.standard_normal(8)
            for kappa in (0.01, 0.1, 0.5):
                code = sparse_code(x, d, kappa)
                expected = soft_threshold(d.T @ x, kappa)
                np.testing.assert_allclose(code.coeffs, expected, atol=1e-10)

    def test_full_shrinkage_gives_zero(self):
        rng = np.random.default_rng(1)
        d = rng.standard_normal((6, 4))
        x = rng.standard_normal(6)
        kappa = float(np.max(np.abs(d.T @ x))) + 1e-9
        code = sparse_code(x, d, kappa)
        np.testing.assert_array_equal(code.coeffs, np.zeros(4))
        assert code.objective == pytest.approx(0.5 * float(x @ x), rel=1e-12)

    def test_objective_never_exceeds_zero_solution(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            d = rng.standard_normal((7, 4))
            x = rng.standard_normal(7)
            code = sparse_code(x, d, 0.05)
            assert code.objective <= 0.5 * float(x @ x) + 1e-12

    def test_matches_grid_search_oracle(self):
        # the acceptance suite runs the full 25-instance sweep
        for seed in range(4):
            rng = np.random.default_rng(100 + seed)
            d = rng.standard_normal((5, 3))
            d /= np.linalg.norm(d, axis=0)
            x = rng.standard_normal(5)
            x *= 1.2 / np.linalg.norm(x)
            kappa = 0.1
            code = sparse_code(x, d, kappa)
            oracle = grid_search_lasso_objective(x, d, kappa)
            assert code.objective == pytest.approx(oracle, abs=1e-4)

    @pytest.mark.parametrize("kappa", [0.0, -1.0, float("nan"), float("inf")])
    def test_kappa_must_be_finite_and_positive(self, kappa):
        with pytest.raises(ValueError, match="kappa must be finite and > 0"):
            sparse_code(np.array([1.0, 2.0, 3.0]), np.eye(3), kappa)


@pytest.mark.parametrize("kernel", KERNELS)
class TestNonFiniteInputsRejected:
    """A NaN in the dictionary once gave finite coefficients and objective,
    and a NaN in x gave zeros and a NaN objective; both kernels now refuse
    either before solving, in sparse_code and in an l1 fit's documents."""

    def test_nan_in_dictionary(self, kernel, monkeypatch):
        use_kernel(kernel, monkeypatch)
        d = np.eye(3)
        d[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            sparse_code(np.array([1.0, 2.0, 3.0]), d, 0.1)

    def test_nan_in_x(self, kernel, monkeypatch):
        use_kernel(kernel, monkeypatch)
        with pytest.raises(ValueError, match="finite"):
            sparse_code(np.array([1.0, np.nan, 3.0]), np.eye(3), 0.1)

    def test_nan_in_fit_input(self, kernel, monkeypatch):
        use_kernel(kernel, monkeypatch)
        X = np.ones((4, 3))
        X[2, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            dict_learn_fit(X, DictLearnConfig(n_topics=2))


def oracle_cases():
    """(label, x, dictionary, kappa) over random, orthonormal and
    rank-deficient dictionaries with 1, 3 and 40 atoms."""
    rng = np.random.default_rng(31)
    cases = []
    for k in (1, 3, 40):
        for trial in range(3):
            d = rng.standard_normal((60, k))
            d /= np.linalg.norm(d, axis=0)
            x = rng.standard_normal(60)
            cases.append((f"random-k{k}-{trial}", x, d, 0.3))
        q = random_orthonormal(60, k, seed=k)
        cases.append((f"orthonormal-k{k}", rng.standard_normal(60), q, 0.2))
        # rank min(k, 4): more atoms than directions, repeated atoms, and a
        # zero atom (skipped by both loops)
        low = rng.standard_normal((12, 4)) @ rng.standard_normal((4, k))
        low[:, -1] = 0.0
        if k > 2:
            low[:, 1] = low[:, 0]
        x = low @ rng.standard_normal(k) + 0.1 * rng.standard_normal(12)
        cases.append((f"rank-deficient-k{k}", x, low, 0.05))
    return cases


def capped_case():
    """A rank-deficient 40-atom problem that is still descending after 5
    passes, so max_iter=5 ends the loop."""
    rng = np.random.default_rng(5)
    d = rng.standard_normal((8, 3)) @ rng.standard_normal((3, 40))
    x = d @ rng.standard_normal(40)
    return x, d, 0.01


@pytest.mark.parametrize("kernel", KERNELS)
class TestCovarianceUpdateAgainstPlainLoop:
    """The covariance-update loop takes the plain loop's steps, so only
    rounding may differ, on either kernel; the C l1 solve gives the
    Python fallback's bits."""

    @staticmethod
    def assert_agrees(x, d, kappa, kernel, monkeypatch, max_iter=1000):
        use_kernel(kernel, monkeypatch)
        code = sparse_code(x, d, kappa, max_iter=max_iter)
        coeffs, objective = naive_cd_lasso(x, d, kappa, max_iter=max_iter)
        np.testing.assert_allclose(code.coeffs, coeffs, rtol=0, atol=1e-10)
        assert code.objective == pytest.approx(objective, rel=0, abs=1e-10)
        if kernel == "native":
            with monkeypatch.context() as patch:
                use_kernel("fallback", patch)
                fallback = sparse_code(x, d, kappa, max_iter=max_iter)
            np.testing.assert_array_equal(code.coeffs, fallback.coeffs)
            assert code.objective == fallback.objective

    @pytest.mark.parametrize("case", oracle_cases(), ids=lambda case: case[0])
    def test_matches_plain_loop(self, case, kernel, monkeypatch):
        _, x, d, kappa = case
        self.assert_agrees(x, d, kappa, kernel, monkeypatch)

    def test_matches_plain_loop_when_max_iter_ends_it(self, kernel, monkeypatch):
        x, d, kappa = capped_case()
        five, _ = naive_cd_lasso(x, d, kappa, max_iter=5)
        six, _ = naive_cd_lasso(x, d, kappa, max_iter=6)
        assert np.max(np.abs(five - six)) > 1e-6, "case converged before the cap"
        self.assert_agrees(x, d, kappa, kernel, monkeypatch, 5)

    def test_matches_plain_loop_on_corpus_columns(self, planted, kernel, monkeypatch):
        _, _, _, dtm = planted
        d = np.random.default_rng(2).standard_normal((dtm.n_words, 40))
        d /= np.linalg.norm(d, axis=0)
        columns = as_scipy(dtm.matrix).toarray().T
        for x in columns[::40]:
            self.assert_agrees(x, d, 0.5, kernel, monkeypatch)


class TestSparseCodeGroupL2:
    def test_orthonormal_group_closed_form(self):
        for seed in range(4):
            rng = np.random.default_rng(seed)
            d = random_orthonormal(10, 6, seed + 50)
            x = rng.standard_normal(10)
            groups = contiguous_groups(6, 3)
            kappa = 0.2
            code = sparse_code(x, d, kappa, regularizer="group-l2", groups=groups)
            b = d.T @ x
            expected = np.zeros(6)
            for g in groups:
                g = list(g)
                norm = np.linalg.norm(b[g])
                if norm > kappa:
                    expected[g] = b[g] * (1.0 - kappa / norm)
            np.testing.assert_allclose(code.coeffs, expected, atol=1e-10)

    def test_large_kappa_shrinks_to_zero(self):
        rng = np.random.default_rng(3)
        d = rng.standard_normal((8, 4))
        x = rng.standard_normal(8)
        groups = contiguous_groups(4, 2)
        b = d.T @ x
        kappa = max(np.linalg.norm(b[list(g)]) for g in groups) * 4.0
        code = sparse_code(x, d, kappa, regularizer="group-l2", groups=groups)
        np.testing.assert_allclose(code.coeffs, np.zeros(4), atol=1e-12)

    def test_objective_bounded_by_zero_solution(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            d = rng.standard_normal((9, 6))
            x = rng.standard_normal(9)
            code = sparse_code(x, d, 0.1, regularizer="group-l2")
            assert code.objective <= 0.5 * float(x @ x) + 1e-12

    def test_unknown_regularizer_rejected(self):
        with pytest.raises(ValueError, match="regularizer"):
            sparse_code(np.ones(3), np.eye(3), 0.1, regularizer="l7")


class TestRecencyWeights:
    def test_rho_zero_weights_equal(self):
        np.testing.assert_array_equal(recency_weights(10, 0.0), np.ones(10))

    def test_rho_emphasizes_later_documents(self):
        w = recency_weights(5, 2.0)
        np.testing.assert_allclose(w, (np.arange(1, 6) / 5.0) ** 2)
        assert np.all(np.diff(w) > 0)


class TestDictLearn:
    def test_batch_objective_non_increasing_per_epoch(self):
        x, _, _ = make_sparse_planted_instance(seed=5)
        kappa = 0.1
        objectives = []
        for epochs in range(1, 6):
            config = DictLearnConfig(n_topics=6, kappa=kappa, epochs=epochs, seed=0)
            td = dict_learn_fit(x, config)
            objectives.append(dictionary_objective(x, td, kappa))
        diffs = np.diff(objectives)
        assert np.all(diffs <= 1e-9), f"objective increased: {objectives}"

    def test_reconstructs_planted_dictionary(self):
        x, _, _ = make_sparse_planted_instance(seed=11)
        config = DictLearnConfig(n_topics=6, kappa=0.05, epochs=20, seed=3)
        td = dict_learn_fit(x, config)
        m = x.shape[1]
        codes = np.column_stack(
            [sparse_code(x[:, i], td.weights, 0.05).coeffs for i in range(m)]
        )
        err = 0.5 * np.linalg.norm(x - td.weights @ codes) ** 2 / m
        baseline = 0.5 * np.linalg.norm(x) ** 2 / m
        assert err < 0.1 * baseline

    def test_columns_in_unit_ball(self):
        x, _, _ = make_sparse_planted_instance(seed=6)
        td = dict_learn_fit(x, DictLearnConfig(n_topics=6, kappa=0.1, epochs=3, seed=1))
        norms = np.linalg.norm(td.weights, axis=0)
        assert np.all(norms <= 1.0 + 1e-12)
        assert np.all(norms > 0)
        td.validate()

    def test_deterministic_per_seed(self):
        x, _, _ = make_sparse_planted_instance(seed=7)
        config = DictLearnConfig(n_topics=5, kappa=0.1, epochs=2, seed=9)
        td1 = dict_learn_fit(x, config)
        td2 = dict_learn_fit(x, config)
        np.testing.assert_array_equal(td1.weights, td2.weights)

    def test_recency_weighting_changes_fit(self):
        x, _, _ = make_sparse_planted_instance(seed=8)
        flat = dict_learn_fit(x, DictLearnConfig(n_topics=5, kappa=0.1, epochs=2, seed=0))
        recent = dict_learn_fit(
            x, DictLearnConfig(n_topics=5, kappa=0.1, rho=2.0, epochs=2, seed=0)
        )
        assert not np.array_equal(flat.weights, recent.weights)

    def test_group_regularizer_runs(self):
        x, _, _ = make_sparse_planted_instance(seed=9)
        config = DictLearnConfig(
            n_topics=6, kappa=0.1, regularizer="group-l2", n_groups=3,
            epochs=2, seed=2,
        )
        td = dict_learn_fit(x, config)
        td.validate()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DictLearnConfig(n_topics=4, kappa=0.0)
        with pytest.raises(ValueError):
            DictLearnConfig(n_topics=4, rho=-0.5)
        with pytest.raises(ValueError):
            DictLearnConfig(n_topics=4, regularizer="bogus")
        with pytest.raises(ValueError):
            DictLearnConfig(n_topics=4, epochs=0)
        for n_groups in (0, 5):
            with pytest.raises(ValueError, match="n_groups must be in"):
                DictLearnConfig(n_topics=4, regularizer="group-l2", n_groups=n_groups)
        assert DictLearnConfig(n_topics=1).n_groups == 2  # an l1 fit has no groups

    def test_persistence_round_trip(self, tmp_path):
        x, _, _ = make_sparse_planted_instance(seed=10)
        td = dict_learn_fit(x, DictLearnConfig(n_topics=4, kappa=0.1, epochs=2, seed=5))
        path = tmp_path / "dict.json"
        save_topic_dictionary(td, path)
        loaded = load_topic_dictionary(path)
        np.testing.assert_array_equal(loaded.weights, td.weights)
        assert loaded.model == "dictlearn"
        assert loaded.meta == td.meta


class TestDictLearnOnBothKernels:
    """A whole fit gives the same bits on the C kernels (the l1 solve and
    the dictionary update) and on their Python twins."""

    @staticmethod
    def assert_same_fit(X, config, monkeypatch):
        fits, whys = {}, {}
        for kernel in ("native", "fallback"):
            with monkeypatch.context() as patch:
                use_kernel(kernel, patch)
                fits[kernel] = dict_learn_fit(X, config)
                whys[kernel] = kernels.load_kernels()[1]
        np.testing.assert_array_equal(fits["native"].weights, fits["fallback"].weights)
        assert whys == {"native": None, "fallback": "forced off"}

    @needs_cc
    def test_weights_bit_identical(self, planted_mixed, monkeypatch):
        """At the yield-sweep width, K = 40."""
        _, _, _, dtm = planted_mixed
        config = DictLearnConfig(n_topics=40, kappa=0.5, epochs=2, seed=3)
        self.assert_same_fit(as_scipy(dtm.matrix)[:, ::2], config, monkeypatch)

    @needs_cc
    def test_group_l2_weights_bit_identical(self, planted_mixed, monkeypatch):
        _, _, _, dtm = planted_mixed
        config = DictLearnConfig(n_topics=40, kappa=0.5, regularizer="group-l2",
                                 n_groups=4, epochs=2, seed=3)
        self.assert_same_fit(as_scipy(dtm.matrix)[:, ::8], config, monkeypatch)

    @needs_cc
    @pytest.mark.parametrize("rows", [77, 78, 79, 80])
    def test_weights_bit_identical_at_every_row_remainder(self, planted_mixed, monkeypatch,
                                                          rows):
        """The C update sums four rows of the dictionary at a time."""
        _, _, _, dtm = planted_mixed
        config = DictLearnConfig(n_topics=40, kappa=0.5, epochs=1, seed=3)
        self.assert_same_fit(as_scipy(dtm.matrix)[:rows, ::4], config, monkeypatch)

    @needs_cc
    def test_dense_input_weights_bit_identical(self, planted_mixed, monkeypatch):
        """A dense matrix's columns are strided views; both updates read
        them as contiguous vectors."""
        _, _, _, dtm = planted_mixed
        dense = np.ascontiguousarray(as_scipy(dtm.matrix)[:, ::4].toarray())
        assert not dense[:, 0].flags.c_contiguous
        config = DictLearnConfig(n_topics=12, kappa=0.3, rho=1.0, epochs=2, seed=4)
        self.assert_same_fit(dense, config, monkeypatch)

    def test_weights_match_blas_update(self, planted_mixed):
        """Against the original update, whose products summed through BLAS,
        only rounding differs: the weights agree to 1e-9 and every topic
        keeps its top words."""
        _, _, _, dtm = planted_mixed
        config = DictLearnConfig(n_topics=40, kappa=0.5, epochs=2, seed=3)
        td = dict_learn_fit(dtm, config)
        expected = per_document_dict_learn_fit(dtm, config, blas_update)
        np.testing.assert_allclose(td.weights, expected, rtol=0, atol=1e-9)
        oracle = TopicDictionary(expected, td.model)
        assert [set(t.word_indices) for t in extract_top_k(td, 4)] == [
            set(t.word_indices) for t in extract_top_k(oracle, 4)
        ]

    @needs_cc
    def test_native_solve_checks_its_arrays(self):
        """The C solve reads k*k gram entries and k of each vector, so a
        gram of another shape, dtype or layout never reaches it."""
        cd = kernels._native_kernels()[0].cd
        b = np.ones(3)
        with pytest.raises(ValueError, match="3 x 3 gram"):
            cd(np.eye(2), b, 1.0, 0.5, 1e-8, 10)
        for gram in (np.eye(3, dtype=np.float32), np.eye(6)[::2, ::2]):
            with pytest.raises(ctypes.ArgumentError):
                cd(gram, b, 1.0, 0.5, 1e-8, 10)
        alpha, objective = cd(np.eye(3), np.array([1.0, -0.2, 0.0]), 1.0, 0.5, 1e-8, 10)
        np.testing.assert_array_equal(alpha, [0.5, 0.0, 0.0])
        assert objective == 0.5 * 0.25 + 0.5 * 0.5

    @needs_cc
    def test_native_update_checks_its_arrays(self):
        """The C update reads and writes n x k and k x k blocks sized by the
        dictionary, so an array of another shape, dtype or layout never
        reaches it."""
        dl = kernels._native_kernels()[0].dl
        n, k = 7, 5

        def arrays():
            return update_arrays(n, k, seed=8)

        wrong_shape = {"x": np.ones(n + 1), "a": np.ones(k + 1),
                       "stat_a": np.zeros((k, k + 1)), "stat_b": np.zeros((k, n))}
        for name, bad in wrong_shape.items():
            with pytest.raises(ValueError, match=f"dl needs {name} of shape"):
                dl(0.3, **{**arrays(), name: bad})
        for name, good in arrays().items():
            strided = np.repeat(good, 2, axis=-1)[..., ::2]
            for bad in (good.astype(np.float32), strided):
                with pytest.raises(ctypes.ArgumentError):
                    dl(0.3, **{**arrays(), name: bad})

    @needs_cc
    @pytest.mark.parametrize("n", range(4, 12))
    def test_native_update_matches_numpy(self, n):
        """Every remainder of the four-row sums, with zero entries of a and
        x, and two columns whose stat_a[j, j] <= 1e-12 stay put."""
        native = update_arrays(n, 6, seed=n)
        fallback = {name: array.copy() for name, array in native.items()}
        before = native["d"].copy()
        kernels._native_kernels()[0].dl(0.3, **native)
        kernels._dl_update(0.3, **fallback)
        for name in native:
            np.testing.assert_array_equal(native[name], fallback[name])
        np.testing.assert_array_equal(native["d"][:, 1:3], before[:, 1:3])
        assert not np.array_equal(native["d"][:, 3:], before[:, 3:])

    @needs_cc
    @pytest.mark.parametrize("n", range(4, 12))
    def test_native_step_matches_python_twin(self, n):
        """One document's solve and update, whatever alpha and c held."""
        native = step_arrays(n, 6, seed=n)
        fallback = {name: array.copy() for name, array in native.items()}
        xx = float(native["x"] @ native["x"])
        objectives = [
            bind(**arrays, kappa=0.2, tol=1e-8, max_iter=1000)(0.3, xx)
            for bind, arrays in ((kernels._native_kernels()[0].step, native),
                                 (kernels._dl_step, fallback))
        ]
        assert objectives[0] == objectives[1]
        expected, _ = kernels._cd_solve(native["gram"], native["b"], xx, 0.2, 1e-8, 1000)
        np.testing.assert_array_equal(native["alpha"], expected)
        assert np.count_nonzero(expected)
        for name in ("alpha", "stat_a", "stat_b", "d"):
            np.testing.assert_array_equal(native[name], fallback[name])

    @needs_cc
    def test_native_step_checks_its_arrays(self):
        """The C step reads and writes every buffer at sizes set by the
        dictionary, so binding it refuses an array of another shape, dtype
        or layout, or a read-only one."""
        bind = kernels._native_kernels()[0].step
        for name, good in step_arrays(7, 5, seed=3).items():
            read_only = good.copy()
            read_only.flags.writeable = False
            for bad in (good.astype(np.float32), np.repeat(good, 2, axis=-1)[..., ::2],
                        np.zeros(good.shape[:-1] + (good.shape[-1] + 1,)), read_only):
                with pytest.raises(ValueError, match="step needs .* float64 array"):
                    bind(**{**step_arrays(7, 5, seed=3), name: bad},
                         kappa=0.2, tol=1e-8, max_iter=10)


def update_arrays(n, k, seed):
    """Seeded dictionary-update inputs. a[1], x[1] and x[-1] are zero, and
    column 1 (0.0) and column 2 (about 2e-14) have stat_a[j, j] <= 1e-12."""
    rng = np.random.default_rng(seed)
    a, x = rng.standard_normal(k), rng.standard_normal(n)
    a[1] = x[1] = x[-1] = 0.0
    a[2] = 1e-7
    return {"x": x, "a": a, "stat_a": 2.0 * np.outer(a, a),
            "stat_b": 2.0 * np.outer(x, a), "d": rng.standard_normal((n, k))}


def step_arrays(n, k, seed):
    """The buffers of one l1 document: update_arrays' x, statistics and
    dictionary, gram = D^T D and b = D^T x, and alpha, c and u holding
    leftovers from an earlier document."""
    arrays = update_arrays(n, k, seed)
    d, x = arrays["d"], arrays["x"]
    return {"x": x, "gram": d.T @ d, "b": d.T @ x, "alpha": np.full(k, 7.0),
            "c": np.full(k, -3.0), "stat_a": arrays["stat_a"],
            "stat_b": arrays["stat_b"], "d": d, "u": np.full(n, 5.0)}


@pytest.mark.parametrize("kernel", KERNELS)
class TestDictLearnAgainstPerDocumentLoop:
    """An l1 fit, one step per document over buffers bound once, gives the
    bits of the original loop: sparse_code, then _dl_update, per document."""

    @pytest.mark.parametrize("rho", [0.0, 1.0])
    @pytest.mark.parametrize("epochs", [1, 2, 3])
    @pytest.mark.parametrize("layout", ["sparse", "dense"])
    def test_weights_bit_identical(self, planted_mixed, kernel, monkeypatch, rho, epochs,
                                   layout):
        use_kernel(kernel, monkeypatch)
        _, _, _, dtm = planted_mixed
        X = as_scipy(dtm.matrix)[:, ::10]
        if layout == "dense":
            X = X.toarray()
        config = DictLearnConfig(n_topics=12, kappa=0.3, rho=rho, epochs=epochs, seed=4)
        np.testing.assert_array_equal(dict_learn_fit(X, config).weights,
                                      per_document_dict_learn_fit(X, config))


class TestContiguousGroups:
    def test_even_partition(self):
        assert contiguous_groups(6, 3) == ((0, 1), (2, 3), (4, 5))

    def test_uneven_partition_covers_everything(self):
        groups = contiguous_groups(7, 3)
        flat = [i for g in groups for i in g]
        assert flat == list(range(7))

    def test_invalid_group_count(self):
        with pytest.raises(ValueError):
            contiguous_groups(4, 5)
