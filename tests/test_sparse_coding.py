import numpy as np
import pytest
from conftest import dictionary_objective, make_sparse_planted_instance
from oracles import grid_search_lasso_objective, naive_cd_lasso

from topicpuzzles.topic_models import (
    DictLearnConfig,
    contiguous_groups,
    dict_learn_fit,
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

    def test_kappa_must_be_positive(self):
        with pytest.raises(ValueError, match="kappa"):
            sparse_code(np.ones(3), np.eye(3), 0.0)


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


class TestCovarianceUpdateAgainstPlainLoop:
    """The covariance-update loop takes the plain loop's steps; only
    rounding may differ."""

    @staticmethod
    def assert_agrees(x, d, kappa, max_iter=1000):
        code = sparse_code(x, d, kappa, max_iter=max_iter)
        coeffs, objective = naive_cd_lasso(x, d, kappa, max_iter=max_iter)
        np.testing.assert_allclose(code.coeffs, coeffs, rtol=0, atol=1e-10)
        assert code.objective == pytest.approx(objective, rel=0, abs=1e-10)

    @pytest.mark.parametrize("case", oracle_cases(), ids=lambda case: case[0])
    def test_matches_plain_loop(self, case):
        _, x, d, kappa = case
        self.assert_agrees(x, d, kappa)

    def test_matches_plain_loop_when_max_iter_ends_it(self):
        x, d, kappa = capped_case()
        five, _ = naive_cd_lasso(x, d, kappa, max_iter=5)
        six, _ = naive_cd_lasso(x, d, kappa, max_iter=6)
        assert np.max(np.abs(five - six)) > 1e-6, "case converged before the cap"
        self.assert_agrees(x, d, kappa, 5)

    def test_matches_plain_loop_on_corpus_columns(self, planted):
        _, _, _, dtm = planted
        d = np.random.default_rng(2).standard_normal((dtm.n_words, 40))
        d /= np.linalg.norm(d, axis=0)
        columns = dtm.matrix.toarray().T
        for x in columns[::40]:
            self.assert_agrees(x, d, 0.5)


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

    def test_persistence_round_trip(self, tmp_path):
        x, _, _ = make_sparse_planted_instance(seed=10)
        td = dict_learn_fit(x, DictLearnConfig(n_topics=4, kappa=0.1, epochs=2, seed=5))
        path = tmp_path / "dict.json"
        save_topic_dictionary(td, path)
        loaded = load_topic_dictionary(path)
        np.testing.assert_array_equal(loaded.weights, td.weights)
        assert loaded.model == "dictlearn"
        assert loaded.meta == td.meta


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
