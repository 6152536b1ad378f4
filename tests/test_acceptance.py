"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. Expected values tagged as derived are computed by
the independent oracles in oracles.py (Jacobi SVD, grid search, exhaustive
path/tree enumeration), never by the code paths under test.
"""

import time

import numpy as np
import pytest
from conftest import dictionary_objective, hand_index, make_sparse_planted_instance
from oracles import (
    grid_search_lasso_objective,
    jacobi_singular_values,
    widest_path_sim,
)

from topicpuzzles.cli import main as cli_main
from topicpuzzles.consistency import (
    WeightedGraph,
    bottleneck_score,
    identify_consistent_sets,
    load_consistent_sets,
    max_spanning_tree,
)
from topicpuzzles.corpus import (
    build_doc_term_matrix,
    build_vocabulary,
    save_corpus_jsonl,
)
from topicpuzzles.esa import SimilarityProvider, build_esa_index
from topicpuzzles.puzzles import load_puzzle_bank, verify_puzzle
from topicpuzzles.synthetic import planted_topic_corpus
from topicpuzzles.topic_models import (
    DictLearnConfig,
    LdaConfig,
    dict_learn_fit,
    extract_top_k,
    lda_fit,
    lsa_fit,
    sparse_code,
)

DELTA_GRID = [round(0.05 * i, 2) for i in range(11)]  # 0.0 .. 0.5


def random_complete_graphs(count=1000, seed=20120622):
    """Seeded random complete graphs with sizes 3-7 and uniform [0,1]
    weights, shared by criteria 1 and 2."""
    rng = np.random.default_rng(seed)
    graphs = []
    for _ in range(count):
        size = int(rng.integers(3, 8))
        w = np.triu(rng.uniform(0.0, 1.0, (size, size)), 1)
        w = w + w.T
        graphs.append(WeightedGraph(nodes=tuple(range(size)), weights=w))
    return graphs


def count_consistent(model, provider, k, deltas):
    sets = extract_top_k(model, k)
    return [len(identify_consistent_sets(sets, provider, d)) for d in deltas]


def pipeline_pieces(docs):
    vocab = build_vocabulary(docs)
    dtm = build_doc_term_matrix(docs, vocab)
    index = build_esa_index(docs)
    provider = SimilarityProvider(index, vocabulary=list(vocab.words))
    return vocab, dtm, provider


def test_criterion_01_bottleneck_oracle_equivalence():
    start = time.perf_counter()
    graphs = random_complete_graphs()
    for graph in graphs:
        score = bottleneck_score(graph)
        pair_min = min(
            widest_path_sim(graph, i, j)
            for i in graph.nodes
            for j in graph.nodes
            if i < j
        )
        assert abs(score - pair_min) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s, budget 10s"
    print(
        f"[criterion 1] PASS - bottleneck equals brute-force widest-path "
        f"minimum on 1000 random graphs ({elapsed:.1f}s)"
    )


def test_criterion_02_mst_identity_and_hand_case():
    graphs = random_complete_graphs()
    for graph in graphs:
        tree = max_spanning_tree(graph)
        pair_min = min(
            widest_path_sim(graph, i, j)
            for i in graph.nodes
            for j in graph.nodes
            if i < j
        )
        assert abs(tree.min_edge_weight - pair_min) <= 1e-12
    k4 = WeightedGraph(
        nodes=(0, 1, 2, 3),
        weights=np.array(
            [
                [0.0, 0.9, 0.2, 0.3],
                [0.9, 0.0, 0.8, 0.1],
                [0.2, 0.8, 0.0, 0.7],
                [0.3, 0.1, 0.7, 0.0],
            ]
        ),
    )
    assert bottleneck_score(k4) == pytest.approx(0.7, abs=1e-12)
    print(
        "[criterion 2] PASS - max-spanning-tree min edge equals widest-path "
        "bottleneck on 1000 graphs; K4 hand case scores 0.7"
    )


def test_criterion_03_yield_monotonicity(planted, planted_mixed):
    for label, (docs, _, vocab, dtm) in (
        ("planted", planted),
        ("planted+background", planted_mixed),
    ):
        index = build_esa_index(docs)
        provider = SimilarityProvider(index, vocabulary=list(vocab.words))
        models = {
            "lsa": lsa_fit(dtm, 8, seed=0),
            "lda": lda_fit(dtm, LdaConfig(n_topics=8, iterations=60, seed=0)),
            "dictlearn": dict_learn_fit(
                dtm, DictLearnConfig(n_topics=8, kappa=0.5, epochs=2, seed=0)
            ),
        }
        for name, model in models.items():
            counts = count_consistent(model, provider, 4, DELTA_GRID)
            assert all(
                a >= b for a, b in zip(counts, counts[1:])
            ), f"{name} on {label}: counts {counts} not non-increasing"
    print(
        "[criterion 3] PASS - consistent-set counts non-increasing over the "
        "delta grid 0.0..0.5 for lsa/lda/dictlearn on both test corpora"
    )


def test_criterion_04_model_ordering_at_desk_scale():
    # the background fraction makes words co-occur across topics, as in
    # real text; on the zero-background corpus the count matrix is block
    # diagonal and every singular vector is a topic block, which makes the
    # lsa-vs-lda comparison vacuous
    start = time.perf_counter()
    lda_wins = 0
    rows = []
    for master_seed in range(10):
        docs, _ = planted_topic_corpus(seed=master_seed, background_fraction=0.15)
        vocab, dtm, provider = pipeline_pieces(docs)
        lda_model = lda_fit(
            dtm, LdaConfig(n_topics=8, iterations=100, seed=master_seed)
        )
        lsa_model = lsa_fit(dtm, 8, seed=master_seed)
        lda_counts = count_consistent(lda_model, provider, 4, DELTA_GRID)
        lsa_counts = count_consistent(lsa_model, provider, 4, DELTA_GRID)
        at_01 = DELTA_GRID.index(0.1)
        rows.append((master_seed, lda_counts[at_01], lsa_counts[at_01]))
        if lda_counts[at_01] >= lsa_counts[at_01]:
            lda_wins += 1
    elapsed = time.perf_counter() - start
    print("seed  lda@0.1  lsa@0.1")
    for seed, lda_count, lsa_count in rows:
        print(f"{seed:4d}  {lda_count:7d}  {lsa_count:7d}")
    assert elapsed < 300.0, f"took {elapsed:.0f}s, budget 300s"
    if lda_wins >= 8:
        print(
            f"[criterion 4] PASS - lda >= lsa consistent-set count at "
            f"delta=0.1 in {lda_wins}/10 seeds ({elapsed:.0f}s)"
        )
    else:
        # reported, not failed: the ordering is an empirical claim
        print(
            f"[criterion 4] REPORT - lda >= lsa in only {lda_wins}/10 seeds; "
            f"curve table above ({elapsed:.0f}s)"
        )


def test_criterion_05_lsa_against_dense_oracle():
    rng = np.random.default_rng(777)
    for trial in range(50):
        matrix = rng.standard_normal((20, 30))
        model = lsa_fit(matrix, 5, seed=trial)
        reference = jacobi_singular_values(matrix)[:5]
        np.testing.assert_allclose(model.singular_values, reference, atol=1e-8)
        d = model.weights
        optimal = np.linalg.norm(matrix - d @ (d.T @ matrix))
        for _ in range(100):
            q, _ = np.linalg.qr(rng.standard_normal((20, 5)))
            competitor = np.linalg.norm(matrix - q @ (q.T @ matrix))
            assert optimal <= competitor + 1e-6
    print(
        "[criterion 5] PASS - top-5 singular values match the Jacobi oracle "
        "within 1e-8 on 50 matrices; Eckart-Young dominance over 100 random "
        "rank-5 projectors each"
    )


def test_criterion_06_lda_soundness(planted):
    docs, topics, vocab, dtm = planted
    word_freq = np.asarray(dtm.matrix.sum(axis=1)).ravel().astype(np.int64)
    sweeps = []

    def conservation_hook(state):
        sweeps.append(state.sweep)
        np.testing.assert_array_equal(state.word_topic.sum(axis=1), word_freq)
        np.testing.assert_array_equal(
            state.word_topic.sum(axis=0), state.topic_counts
        )
        np.testing.assert_array_equal(
            state.doc_topic.sum(axis=0), state.topic_counts
        )

    config = LdaConfig(n_topics=8, alpha=0.1, beta=0.01, iterations=200, seed=42)
    model = lda_fit(dtm, config, sweep_hook=conservation_hook)
    assert sweeps == list(range(200))

    matched = set()
    for word_set in extract_top_k(model, 4):
        top_words = {vocab.words[i] for i in word_set.word_indices}
        for t, planted_words in enumerate(topics):
            if len(top_words & set(planted_words)) >= 3:
                matched.add(t)
    assert len(matched) >= 6, f"only {len(matched)}/8 planted topics recovered"

    small = LdaConfig(n_topics=8, alpha=0.1, beta=0.01, iterations=30, seed=7)
    np.testing.assert_array_equal(
        lda_fit(dtm, small).weights, lda_fit(dtm, small).weights
    )
    print(
        f"[criterion 6] PASS - count conservation held at all 200 sweeps; "
        f"{len(matched)}/8 planted topics recovered; fixed-seed runs "
        f"bit-identical"
    )


def test_criterion_07_sparse_coding_and_dictionary_learning():
    rng = np.random.default_rng(2024)
    for _ in range(25):
        dictionary = rng.standard_normal((5, 3))
        dictionary /= np.linalg.norm(dictionary, axis=0)
        x = rng.standard_normal(5)
        x *= 1.2 / np.linalg.norm(x)
        kappa = float(rng.uniform(0.05, 0.3))
        achieved = sparse_code(x, dictionary, kappa).objective
        oracle = grid_search_lasso_objective(x, dictionary, kappa)
        assert achieved == pytest.approx(oracle, abs=1e-4)

    for seed in range(5):
        q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((8, 5)))
        x = np.random.default_rng(100 + seed).standard_normal(8)
        for kappa in (0.02, 0.1, 0.4):
            code = sparse_code(x, q, kappa)
            closed_form = np.sign(q.T @ x) * np.maximum(
                np.abs(q.T @ x) - kappa, 0.0
            )
            np.testing.assert_allclose(code.coeffs, closed_form, atol=1e-10)

    corpus_matrix, _, _ = make_sparse_planted_instance(seed=5)
    kappa = 0.1
    objectives = []
    for epochs in range(1, 7):
        model = dict_learn_fit(
            corpus_matrix,
            DictLearnConfig(n_topics=6, kappa=kappa, rho=0.0, epochs=epochs, seed=0),
        )
        objectives.append(dictionary_objective(corpus_matrix, model, kappa))
    assert all(
        later - earlier <= 1e-9
        for earlier, later in zip(objectives, objectives[1:])
    ), f"batch objective increased across epochs: {objectives}"
    print(
        "[criterion 7] PASS - coordinate descent matches the grid oracle "
        "within 1e-4 on 25 instances and the orthonormal closed form within "
        "1e-10; batch objective non-increasing per epoch within 1e-9"
    )


def test_criterion_08_puzzle_bank_soundness(tmp_path):
    docs, _ = planted_topic_corpus(seed=3, background_fraction=0.15)
    corpus_file = tmp_path / "planted.jsonl"
    save_corpus_jsonl(docs, corpus_file)
    matrix = str(tmp_path / "matrix.json")
    index_path = str(tmp_path / "index.json")
    model = str(tmp_path / "model.json")
    sets_path = str(tmp_path / "sets.jsonl")
    assert cli_main(["ingest", "--corpus", str(corpus_file), "--out", matrix]) == 0
    assert cli_main(["index", "--concepts", str(corpus_file), "--out", index_path]) == 0
    assert cli_main([
        "train", "--model", "lda", "--matrix", matrix, "--out", model,
        "--num-topics", "8", "--iterations", "60", "--seed", "0",
    ]) == 0
    assert cli_main([
        "extract-sets", "--model", model, "--index", index_path,
        "--out", sets_path, "--top-k", "4", "--delta", "0.1",
    ]) == 0

    bank1 = str(tmp_path / "bank1.jsonl")
    bank2 = str(tmp_path / "bank2.jsonl")
    generate = [
        "generate", "--sets", sets_path, "--index", index_path,
        "--eta1", "0.02", "--eta2", "0.3", "--eta2-cross", "0.3",
        "--seed", "11",
    ]
    assert cli_main(generate + ["--out", bank1]) == 0
    assert cli_main(generate + ["--out", bank2]) == 0
    assert open(bank1, "rb").read() == open(bank2, "rb").read()

    puzzles = load_puzzle_bank(bank1)
    consistent = load_consistent_sets(sets_path)
    sets_by_topic = {cs.topic_index: cs for cs in consistent}
    from topicpuzzles.esa import load_esa_index

    provider = SimilarityProvider(load_esa_index(index_path))
    assert len(puzzles) >= 8, f"only {len(puzzles)} puzzles emitted"
    failures = [
        (p.kind, problems)
        for p in puzzles
        if (problems := verify_puzzle(p, provider, sets_by_topic))
    ]
    assert not failures, f"puzzles failed re-verification: {failures}"
    kinds = {p.kind for p in puzzles}
    assert kinds == {"odd-one-out", "choose-related", "separate-topics"}
    for p in puzzles:
        if p.kind == "odd-one-out":
            # presented shape: a 4-word consistent set plus one odd word
            assert len(p.words) == 5
    print(
        f"[criterion 8] PASS - {len(puzzles)} puzzles across {len(kinds)} "
        f"kinds all re-verified (band, source sets, solution round-trip); "
        f"repeated seeded runs byte-identical"
    )


def test_criterion_09_esa_properties(planted_mixed):
    docs, _, _, _ = planted_mixed
    provider = SimilarityProvider(build_esa_index(docs))
    words = provider.index.words()
    # one block holds every pair; each value below is read from it
    block = provider.cross_relatedness(words, words)
    rng = np.random.default_rng(99)
    for _ in range(10_000):
        a, b = rng.integers(0, len(words), 2)
        forward = block[a, b]
        backward = block[b, a]
        assert forward == backward
        assert 0.0 <= forward <= 1.0
    for i in range(len(words)):
        assert block[i, i] == 1.0
    assert provider.relatedness(words[0], words[1]) == block[0, 1]

    hand = SimilarityProvider(
        hand_index(
            {"narrow": ([0], [1.0]), "broad": ([0, 1], [1.0, 1.0])}, n_concepts=2
        )
    )
    # hand oracle: dot = 1, norms 1 and sqrt(2)
    expected = 1.0 / np.sqrt(2.0)
    assert hand.relatedness("narrow", "broad") == pytest.approx(expected, abs=1e-9)
    print(
        "[criterion 9] PASS - 10000 random pairs symmetric, bounded in "
        "[0,1], unit self-similarity; two-concept hand case returns "
        f"{expected:.8f}"
    )
