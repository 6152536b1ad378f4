import hashlib
import itertools
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest
from conftest import KERNELS, needs_cc, use_kernel
from oracles import as_scipy, list_gibbs_lda_weights

from topicpuzzles import kernels
from topicpuzzles.corpus import (
    Document,
    build_doc_term_matrix,
    tfidf_transform,
)
from topicpuzzles.synthetic import planted_topic_corpus
from topicpuzzles.topic_models import (
    LdaConfig,
    extract_top_k,
    lda_fit,
    load_topic_dictionary,
    save_topic_dictionary,
)


def small_corpus():
    docs = [
        Document("1", "apple banana apple cherry"),
        Document("2", "banana cherry banana"),
        Document("3", "plum apple plum plum"),
        Document("4", "cherry plum banana apple"),
    ]
    dtm = build_doc_term_matrix(docs)
    return docs, dtm.vocab, dtm


def conservation_check(dtm, sweeps_seen):
    """A sweep_hook asserting that every sweep's count tables agree with
    the corpus and with each other."""
    matrix = as_scipy(dtm.matrix)
    word_freq = np.asarray(matrix.sum(axis=1)).ravel().astype(np.int64)
    doc_len = np.asarray(matrix.sum(axis=0)).ravel().astype(np.int64)

    def check(state):
        sweeps_seen.append(state.sweep)
        np.testing.assert_array_equal(state.word_topic.sum(axis=1), word_freq)
        np.testing.assert_array_equal(state.doc_topic.sum(axis=1), doc_len)
        np.testing.assert_array_equal(
            state.word_topic.sum(axis=0), state.topic_counts
        )
        np.testing.assert_array_equal(
            state.doc_topic.sum(axis=0), state.topic_counts
        )

    return check


class TestLdaConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            LdaConfig(n_topics=0)
        with pytest.raises(ValueError):
            LdaConfig(n_topics=2, alpha=0.0)
        with pytest.raises(ValueError):
            LdaConfig(n_topics=2, beta=-1.0)
        with pytest.raises(ValueError):
            LdaConfig(n_topics=2, iterations=0)


class TestLdaFit:
    def test_columns_sum_to_one(self):
        _, _, dtm = small_corpus()
        td = lda_fit(dtm, LdaConfig(n_topics=3, iterations=20, seed=1))
        np.testing.assert_allclose(td.weights.sum(axis=0), 1.0, atol=1e-9)
        assert np.all(td.weights >= 0)

    def test_rejects_tfidf_weighting(self):
        _, _, dtm = small_corpus()
        weighted = tfidf_transform(dtm)
        with pytest.raises(ValueError, match="raw counts"):
            lda_fit(weighted, LdaConfig(n_topics=2, iterations=5))

    def test_seeded_determinism_bit_identical(self):
        _, _, dtm = small_corpus()
        config = LdaConfig(n_topics=3, iterations=30, seed=99)
        td1 = lda_fit(dtm, config)
        td2 = lda_fit(dtm, config)
        np.testing.assert_array_equal(td1.weights, td2.weights)

    def test_different_seeds_differ(self):
        _, _, dtm = small_corpus()
        td1 = lda_fit(dtm, LdaConfig(n_topics=3, iterations=30, seed=0))
        td2 = lda_fit(dtm, LdaConfig(n_topics=3, iterations=30, seed=1))
        assert not np.array_equal(td1.weights, td2.weights)

    def test_count_conservation_every_sweep(self):
        _, _, dtm = small_corpus()
        sweeps_seen = []
        check = conservation_check(dtm, sweeps_seen)
        lda_fit(dtm, LdaConfig(n_topics=3, iterations=15, seed=4), sweep_hook=check)
        assert sweeps_seen == list(range(15))

    def test_planted_topic_recovery_smoke(self):
        # small planted instance; the full 8-topic configuration runs in
        # the acceptance suite
        docs, topics = planted_topic_corpus(
            n_topics=4, n_docs=80, tokens_per_doc=40, seed=2
        )
        dtm = build_doc_term_matrix(docs)
        vocab = dtm.vocab
        td = lda_fit(dtm, LdaConfig(n_topics=4, iterations=80, seed=0))
        matched = set()
        for ws in extract_top_k(td, 4):
            top = {vocab.words[i] for i in ws.word_indices}
            for t, planted_words in enumerate(topics):
                if len(top & set(planted_words)) >= 3:
                    matched.add(t)
        assert len(matched) >= 3

    def test_persistence_round_trip(self, tmp_path):
        _, _, dtm = small_corpus()
        td = lda_fit(dtm, LdaConfig(n_topics=2, iterations=10, seed=3))
        path = tmp_path / "lda.json"
        save_topic_dictionary(td, path)
        loaded = load_topic_dictionary(path)
        np.testing.assert_array_equal(loaded.weights, td.weights)
        assert loaded.model == "lda"
        assert loaded.vocab == td.vocab
        assert loaded.meta == td.meta


@pytest.fixture(scope="module")
def planted_small():
    docs, _ = planted_topic_corpus(
        n_topics=4, n_docs=40, tokens_per_doc=30, seed=6, background_fraction=0.15
    )
    return build_doc_term_matrix(docs)


@pytest.fixture
def home(tmp_path, monkeypatch):
    """A fresh home directory, with the kernel loader's memo cleared before
    and after, so the test builds (or fails to build) its own kernel."""
    loader = kernels._native_kernels
    monkeypatch.setenv("HOME", str(tmp_path))
    loader.cache_clear()
    yield tmp_path
    loader.cache_clear()


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("n_topics", [3, 8, 19, 20, 100])
def test_weights_bit_identical_to_list_sampler(
    planted_small, monkeypatch, kernel, n_topics, seed
):
    """Both sweep kernels reproduce the original sampler's weights exactly,
    and keep the count tables consistent after every sweep."""
    use_kernel(kernel, monkeypatch)
    config = LdaConfig(n_topics=n_topics, iterations=10, seed=seed)
    sweeps_seen = []
    td = lda_fit(
        planted_small, config, sweep_hook=conservation_check(planted_small, sweeps_seen)
    )
    assert sweeps_seen == list(range(10))
    expected = list_gibbs_lda_weights(
        planted_small.matrix, n_topics, config.alpha, config.beta,
        config.iterations, seed,
    )
    np.testing.assert_array_equal(td.weights, expected)


@needs_cc
@pytest.mark.parametrize("n_topics", [3, 20])
def test_native_and_fallback_count_tables_equal_after_every_sweep(
    planted_small, monkeypatch, n_topics
):
    """Equal weights can hide a last-ulp or count slip that the averaging
    washes out; the count tables after each sweep cannot."""
    config = LdaConfig(n_topics=n_topics, iterations=8, seed=5)
    states = {}
    for kernel in ("native", "fallback"):
        use_kernel(kernel, monkeypatch)
        states[kernel] = []
        lda_fit(planted_small, config, sweep_hook=states[kernel].append)
    assert len(states["native"]) == len(states["fallback"]) == 8
    for a, b in zip(states["native"], states["fallback"]):
        assert a.sweep == b.sweep
        for name in ("word_topic", "doc_topic", "topic_counts"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


@needs_cc
def test_kernels_draw_alike_next_to_every_partial_sum():
    """One-token sweeps with uniforms a few ulps either side of each
    boundary u == acc pick the same topic in both kernels. Random draws
    almost never land there, so a weight or sum that differs only in its
    last ulp (reassociated, or fused into a multiply-add) shows only here."""
    native, _ = kernels._native_kernels()
    assert native is not None
    rng = np.random.default_rng(0)
    k, alpha, beta, nbeta = 7, 0.1, 0.01, 0.5
    words = docs = np.zeros(1, dtype=np.int64)
    for _ in range(40):
        n_wt, n_dt = rng.integers(1, 30, (2, 1, k))
        n_t = n_wt[0] + rng.integers(0, 300, k)
        z = rng.integers(0, k, 1)
        nw, nd, nt = n_wt[0].tolist(), n_dt[0].tolist(), n_t.tolist()
        for counts in (nw, nd, nt):
            counts[z[0]] -= 1
        partial = list(itertools.accumulate(
            (nw[t] + beta) * (nd[t] + alpha) / (nt[t] + nbeta) for t in range(k)
        ))
        for acc in partial[:-1]:
            r = acc / partial[-1]
            for _ in range(4):
                r = np.nextafter(r, 0.0)
            for _ in range(9):
                drawn = []
                for sweep in (native.sweep, kernels._sweep_lists):
                    tables = [a.copy() for a in (z, n_wt, n_dt, n_t)]
                    sweep(words, docs, *tables, alpha, beta, nbeta, np.array([r]))
                    drawn.append(tables[0][0])
                assert drawn[0] == drawn[1], (acc, r)
                r = np.nextafter(r, 1.0)


class TestKernelCache:
    """Whatever state the per-user kernel cache is in, lda_fit gives the
    oracle's weights, prints nothing, records why it fell back, if it did,
    and leaves no temporary file."""

    def fit_and_check(self, dtm, cache_dir, capfd):
        config = LdaConfig(n_topics=5, iterations=6, seed=2)
        td = lda_fit(dtm, config)
        expected = list_gibbs_lda_weights(
            dtm.matrix, 5, config.alpha, config.beta, config.iterations, 2
        )
        np.testing.assert_array_equal(td.weights, expected)
        native, why = kernels._native_kernels()
        assert kernels.load_kernels()[1] == why and (native is None) == bool(why)
        out, err = capfd.readouterr()
        assert out == err == ""
        if cache_dir.is_dir():
            for name in os.listdir(cache_dir):
                assert re.fullmatch(r"kernels-[0-9a-f]{64}\.so", name), name

    def built_library(self, home):
        """Build the kernel into ``home``'s cache in another process, so this
        one has not mapped the file that the test then changes."""
        subprocess.run(
            [sys.executable, "-c", "from topicpuzzles.kernels import "
             "_native_kernels; assert _native_kernels()[0]"],
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}, check=True,
        )
        cache_dir = home / ".cache" / "topicpuzzles"
        (lib,) = cache_dir.iterdir()
        return cache_dir, lib

    @needs_cc
    def test_native_kernel_is_built_with_private_modes(
        self, planted_small, home, capfd
    ):
        cache_dir, lib = self.built_library(home)
        assert cache_dir.stat().st_mode & 0o777 == 0o700
        assert not lib.stat().st_mode & 0o022
        self.fit_and_check(planted_small, cache_dir, capfd)
        assert kernels._native_kernels()[0] is not None

    @needs_cc
    @pytest.mark.parametrize("damage", ["truncated", "garbage", "unloadable"])
    def test_damaged_library_is_rebuilt(self, planted_small, home, capfd, damage):
        """A truncated or garbage file fails its digest check; one whose
        digest matches but that is no library fails to load."""
        cache_dir, lib = self.built_library(home)
        data = lib.read_bytes()
        junk = b"\x7fELF not a library"
        lib.write_bytes({
            "truncated": data[: len(data) // 2],
            "garbage": junk,
            "unloadable": junk + hashlib.sha256(junk).digest(),
        }[damage])
        self.fit_and_check(planted_small, cache_dir, capfd)
        assert kernels._native_kernels()[0] is not None
        assert lib.read_bytes() == data

    @needs_cc
    def test_library_writable_by_others_is_not_loaded(
        self, planted_small, home, capfd
    ):
        cache_dir, lib = self.built_library(home)
        lib.chmod(0o666)
        self.fit_and_check(planted_small, cache_dir, capfd)
        assert kernels._native_kernels()[0] is not None
        assert not lib.stat().st_mode & 0o022

    @needs_cc
    def test_new_build_removes_libraries_of_other_sources(self, home, monkeypatch):
        """Two builds from different sources leave one library. The second
        also removes a library from before the kernels shared one file, and
        leaves files that are not this package's libraries, or not this
        user's, alone."""
        cache_dir = home / ".cache" / "topicpuzzles"
        with monkeypatch.context() as patch:
            other = home / "kernels.c"
            other.write_bytes(kernels._SOURCE.read_bytes() + b"/**/\n")
            patch.setattr(kernels, "_SOURCE", other)
            assert kernels._native_kernels()[0] is not None
        (older,) = cache_dir.iterdir()
        (cache_dir / f"gibbs-{'0' * 64}.so").write_bytes(b"built before")
        foreign = [cache_dir / name for name in (
            "notes.txt", "kernels-0.so", f".kernels-{'1' * 64}.so.0a1b2c3d.tmp",
        )]
        if os.geteuid() == 0:
            foreign.append(cache_dir / f"kernels-{'2' * 64}.so")
        for path in foreign:
            path.write_text("not ours")
        if os.geteuid() == 0:
            os.chown(foreign[-1], os.getuid() + 1, -1)
        kernels._native_kernels.cache_clear()
        assert kernels._native_kernels()[0] is not None
        libraries = set(cache_dir.iterdir()) - set(foreign)
        assert len(libraries) == 1 and older not in libraries

    def test_library_already_removed_is_skipped(self, home, monkeypatch):
        """Another process may prune the same file first."""
        gone = home / f"kernels-{'3' * 64}.so"
        monkeypatch.setattr(type(home), "iterdir", lambda self: iter([gone]))
        kernels._prune_cache(home, home / f"kernels-{'4' * 64}.so")
        assert not gone.exists()

    def test_cache_that_cannot_be_created_falls_back(self, planted_small, home, capfd):
        (home / ".cache").write_text("not a directory")
        self.fit_and_check(planted_small, home / ".cache" / "topicpuzzles", capfd)
        assert kernels._native_kernels()[0] is None

    @pytest.mark.skipif(os.geteuid() == 0, reason="root can write to read-only dirs")
    def test_read_only_cache_falls_back(self, planted_small, home, capfd):
        cache_dir = home / ".cache" / "topicpuzzles"
        cache_dir.mkdir(parents=True, mode=0o700)
        cache_dir.chmod(0o500)
        try:
            self.fit_and_check(planted_small, cache_dir, capfd)
            assert kernels._native_kernels()[0] is None
            assert not any(cache_dir.iterdir())
        finally:
            cache_dir.chmod(0o700)

    def test_no_compiler_on_path_falls_back(
        self, planted_small, home, monkeypatch, capfd
    ):
        monkeypatch.setenv("PATH", str(home))
        assert shutil.which("cc") is None
        cache_dir = home / ".cache" / "topicpuzzles"
        self.fit_and_check(planted_small, cache_dir, capfd)
        assert kernels._native_kernels()[0] is None
        assert not any(cache_dir.iterdir())
