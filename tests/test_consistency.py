import json

import numpy as np
import pytest
from conftest import hand_index
from oracles import (
    brute_force_max_spanning_tree,
    kruskal_bottleneck,
    prim_max_spanning_tree_min_edge,
    widest_path_sim,
)

from topicpuzzles.consistency import (
    ConsistentSet,
    WeightedGraph,
    bottleneck_score,
    identify_consistent_sets,
    load_consistent_sets,
    save_consistent_sets,
)
from topicpuzzles.esa import SimilarityProvider
from topicpuzzles.topic_models import TopicWordSet


def k4_graph():
    """Hand-worked K4: ab=0.9 ac=0.2 ad=0.3 bc=0.8 bd=0.1 cd=0.7."""
    weights = np.array(
        [
            [0.0, 0.9, 0.2, 0.3],
            [0.9, 0.0, 0.8, 0.1],
            [0.2, 0.8, 0.0, 0.7],
            [0.3, 0.1, 0.7, 0.0],
        ]
    )
    return WeightedGraph(nodes=(0, 1, 2, 3), weights=weights)


def random_graph(rng, size):
    w = rng.uniform(0.0, 1.0, (size, size))
    w = (w + w.T) / 2.0
    np.fill_diagonal(w, 1.0)
    return WeightedGraph(nodes=tuple(range(size)), weights=w)


class TestWeightedGraph:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            WeightedGraph(nodes=(0, 1), weights=np.array([[0.0, 0.5], [0.4, 0.0]]))

    def test_rejects_duplicate_nodes(self):
        with pytest.raises(ValueError, match="distinct"):
            WeightedGraph(nodes=(1, 1), weights=np.zeros((2, 2)))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            WeightedGraph(nodes=(0, 1, 2), weights=np.zeros((2, 2)))


def tied_matrix(rng, size, kind):
    """A symmetric matrix with a zero diagonal: uniform weights, or weights
    on three levels, so that most graphs hold tied edges."""
    if kind == "uniform":
        w = rng.uniform(0.0, 1.0, (size, size))
    else:
        w = np.array([0.2, 0.5, 0.8])[rng.integers(0, 3, (size, size))]
    w = np.triu(w, 1)
    return w + w.T


# (size, kind) -> 100 seeded matrices each
TIED_MATRICES = {
    f"{size}-{kind}": [tied_matrix(rng, size, kind) for _ in range(100)]
    for size in range(2, 9)
    for kind in ("uniform", "levels")
    for rng in [np.random.default_rng(size)]
}


class TestMaxSpanningTree:
    """The score is the min edge of a maximum spanning tree, whichever
    construction builds it: Kruskal, exhaustive enumeration or Prim."""

    def test_two_nodes(self):
        g = WeightedGraph(nodes=(4, 9), weights=np.array([[0.0, 0.6], [0.6, 0.0]]))
        assert bottleneck_score(g) == 0.6

    def test_k4_hand_case(self):
        g = k4_graph()
        assert bottleneck_score(g) == kruskal_bottleneck(g.weights) == 0.7

    def test_k4_matches_brute_force(self):
        g = k4_graph()
        _, best_min_edge, tree_count = brute_force_max_spanning_tree(g.weights)
        assert tree_count == 16
        assert bottleneck_score(g) == best_min_edge

    def test_score_is_an_edge_weight(self):
        rng = np.random.default_rng(0)
        for size in (2, 3, 5, 8):
            g = random_graph(rng, size)
            off_diagonal = g.weights[~np.eye(size, dtype=bool)]
            assert bottleneck_score(g) in off_diagonal.tolist()

    def test_min_edge_matches_brute_force_on_random_graphs(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            g = random_graph(rng, int(rng.integers(3, 6)))
            _, best_min_edge, _ = brute_force_max_spanning_tree(g.weights)
            assert bottleneck_score(g) == best_min_edge

    def test_single_node_rejected(self):
        g = WeightedGraph(nodes=(0,), weights=np.zeros((1, 1)))
        with pytest.raises(ValueError, match="at least 2"):
            bottleneck_score(g)

    def test_score_independent_of_tie_breaking(self):
        w = np.full((4, 4), 0.5)
        np.fill_diagonal(w, 0.0)
        g = WeightedGraph(nodes=(0, 1, 2, 3), weights=w)
        assert bottleneck_score(g) == 0.5
        assert {prim_max_spanning_tree_min_edge(w, start) for start in range(4)} == {0.5}

    @pytest.mark.parametrize("matrices", TIED_MATRICES.values(), ids=TIED_MATRICES.keys())
    def test_equals_kruskal_and_prim_on_tied_matrices(self, matrices):
        """Bit for bit: every score is one entry of the matrix."""
        for w in matrices:
            score = bottleneck_score(WeightedGraph(nodes=tuple(range(len(w))), weights=w))
            assert score == kruskal_bottleneck(w)
            for start in range(len(w)):
                assert score == prim_max_spanning_tree_min_edge(w, start)


class TestBottleneckScore:
    def test_k4_value(self):
        assert bottleneck_score(k4_graph()) == pytest.approx(0.7, abs=1e-12)

    def test_uniform_graph(self):
        w = np.full((5, 5), 0.42)
        np.fill_diagonal(w, 1.0)
        g = WeightedGraph(nodes=tuple(range(5)), weights=w)
        assert bottleneck_score(g) == pytest.approx(0.42, abs=1e-15)

    def test_identical_vectors_score_one(self):
        index = hand_index(
            {w: ([0, 1], [2.0, 3.0]) for w in ("one", "two", "three")},
            n_concepts=2,
        )
        provider = SimilarityProvider(index, vocabulary=["one", "two", "three"])
        matrix = provider.similarity_submatrix([0, 1, 2])
        g = WeightedGraph(nodes=(0, 1, 2), weights=matrix)
        assert bottleneck_score(g) == 1.0

    def test_equals_min_widest_path_on_random_graphs(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            g = random_graph(rng, int(rng.integers(3, 8)))
            score = bottleneck_score(g)
            pair_min = min(
                widest_path_sim(g, i, j)
                for i in g.nodes
                for j in g.nodes
                if i < j
            )
            assert abs(score - pair_min) <= 1e-12

    def test_scale_equivariance(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            g = random_graph(rng, 5)
            c = float(rng.uniform(0.1, 1.0))
            scaled = WeightedGraph(nodes=g.nodes, weights=g.weights * c)
            assert bottleneck_score(scaled) == pytest.approx(
                c * bottleneck_score(g), rel=1e-12
            )


class TestWidestPath:
    def test_k4_pair_through_long_path(self):
        assert widest_path_sim(k4_graph(), 0, 3) == pytest.approx(0.7, abs=1e-12)

    def test_two_node_graph_direct_edge(self):
        g = WeightedGraph(nodes=(7, 8), weights=np.array([[0.0, 0.35], [0.35, 0.0]]))
        assert widest_path_sim(g, 7, 8) == pytest.approx(0.35, abs=1e-15)

    def test_at_least_direct_edge(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            g = random_graph(rng, 6)
            i, j = rng.choice(6, size=2, replace=False)
            i, j = int(g.nodes[i]), int(g.nodes[j])
            direct = g.weights[g.nodes.index(i), g.nodes.index(j)]
            assert widest_path_sim(g, i, j) >= direct - 1e-15

    def test_same_node_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            widest_path_sim(k4_graph(), 2, 2)


class _StubProvider:
    """SimilarityProvider replacement serving a fixed matrix over ``words``
    (tests only)."""

    def __init__(self, matrix, words):
        self.matrix = np.asarray(matrix, dtype=float)
        self.words = list(words)

    def related_rows(self, words, among):
        """One row per block, so that the scoring reads across blocks."""
        columns = [self.words.index(w) for w in among]
        for word in words:
            yield self.matrix[[self.words.index(word)]][:, columns]

    def word_set(self, topic, indices, weights):
        """The TopicWordSet naming ``indices`` by this provider's words."""
        words = tuple(self.words[i] for i in indices)
        return TopicWordSet(topic, tuple(indices), tuple(weights), words)


class TestIdentifyConsistentSets:
    def setup_method(self):
        # words 0-2 strongly related; word 3 unrelated to everything
        self.matrix = np.array(
            [
                [1.0, 0.8, 0.7, 0.0],
                [0.8, 1.0, 0.9, 0.0],
                [0.7, 0.9, 1.0, 0.0],
                [0.0, 0.0, 0.0, 1.0],
            ]
        )
        self.provider = _StubProvider(self.matrix, ["alpha", "beta", "gamma", "junk"])

    def test_zero_threshold_keeps_all_positive_sets(self):
        sets = [self.provider.word_set(0, (0, 1, 2), (1.0, 0.9, 0.8))]
        kept = identify_consistent_sets(sets, self.provider, 0.0)
        assert len(kept) == 1
        assert kept[0].words == ("alpha", "beta", "gamma")
        assert kept[0].score == pytest.approx(0.8)

    def test_disconnected_word_dooms_set_for_any_delta(self):
        sets = [self.provider.word_set(0, (0, 1, 3), (1.0, 0.9, 0.8))]
        for delta in (0.0, 0.1, 0.5):
            assert identify_consistent_sets(sets, self.provider, delta) == []

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(6)
        size = 12
        m = rng.uniform(0, 1, (size, size))
        m = (m + m.T) / 2
        np.fill_diagonal(m, 1.0)
        provider = _StubProvider(m, [f"w{i}" for i in range(size)])
        sets = [
            provider.word_set(t, rng.choice(size, 4, replace=False), (1, 1, 1, 1))
            for t in range(20)
        ]
        low = identify_consistent_sets(sets, provider, 0.1)
        high = identify_consistent_sets(sets, provider, 0.2)
        low_topics = {cs.topic_index for cs in low}
        high_topics = {cs.topic_index for cs in high}
        assert high_topics <= low_topics

    def test_boundary_score_rejected(self):
        sets = [self.provider.word_set(0, (0, 1, 2), (1.0, 0.9, 0.8))]
        assert identify_consistent_sets(sets, self.provider, 0.8) == []
        kept = identify_consistent_sets(sets, self.provider, 0.79)
        assert len(kept) == 1

    def test_order_preserved_and_delta_recorded(self):
        sets = [
            self.provider.word_set(2, (0, 1), (1.0, 0.9)),
            self.provider.word_set(5, (1, 2), (1.0, 0.9)),
        ]
        kept = identify_consistent_sets(sets, self.provider, 0.1)
        assert [cs.topic_index for cs in kept] == [2, 5]
        assert all(cs.delta == 0.1 for cs in kept)

    def test_empty_input(self):
        assert identify_consistent_sets([], self.provider, 0.1) == []

    def test_set_without_words_raises(self):
        """A model without a vocabulary gives sets without words, which
        relatedness cannot score."""
        sets = [self.provider.word_set(0, (0, 1), (1.0, 0.9)),
                TopicWordSet(1, (1, 2), (1.0, 0.9), None)]
        with pytest.raises(ValueError, match="no vocabulary"):
            identify_consistent_sets(sets, self.provider, 0.1)

    def test_delta_range_validated(self):
        with pytest.raises(ValueError, match="delta"):
            identify_consistent_sets([], self.provider, 1.0)
        with pytest.raises(ValueError, match="delta"):
            identify_consistent_sets([], self.provider, -0.1)


class TestJunkTopicRejection:
    def test_function_word_topics_filtered_downstream(self):
        """With stopword filtering disabled, function words dominate a
        topic; their concept vectors are empty (they occur in every
        concept, so idf is zero), which dooms that set's bottleneck."""
        from topicpuzzles.corpus import (
            Document,
            TokenizerConfig,
            build_doc_term_matrix,
        )
        from topicpuzzles.esa import EsaConfig, SimilarityProvider, build_esa_index
        from topicpuzzles.topic_models import extract_top_k, lsa_fit

        keep_all = TokenizerConfig(stopwords=frozenset())
        themes = [
            ["vote", "election", "ballot", "candidate"],
            ["wizard", "spell", "wand", "dragon"],
        ]
        rng = np.random.default_rng(0)
        docs = []
        for j in range(16):
            theme = themes[j % 2]
            words = ["the", "did", "said"] * 4 + [
                theme[int(rng.integers(0, 4))] for _ in range(8)
            ]
            rng.shuffle(words)
            docs.append(Document(f"d{j}", " ".join(words)))
        dtm = build_doc_term_matrix(docs, config=keep_all)
        vocab = dtm.vocab
        provider = SimilarityProvider(
            build_esa_index(docs, EsaConfig(tokenizer=keep_all)),
            vocabulary=list(vocab.words),
        )
        candidates = extract_top_k(lsa_fit(dtm, 3, seed=0), 4)
        junk = {"the", "did", "said"}
        junk_candidates = [
            ws
            for ws in candidates
            if {vocab.words[i] for i in ws.word_indices} & junk
        ]
        assert junk_candidates, "expected a function-word topic to appear"
        kept = identify_consistent_sets(candidates, provider, 0.1)
        assert kept, "expected the clean theme topic to survive"
        for cs in kept:
            assert not set(cs.words) & junk


class TestConsistentSetPersistence:
    def test_jsonl_round_trip(self, tmp_path):
        sets = [
            ConsistentSet(0, (3, 1, 4), ("delta", "beta", "epsilon"), 0.625, 0.1),
            ConsistentSet(7, (0, 2), ("alpha", "gamma"), 0.5, 0.1),
        ]
        path = tmp_path / "sets.jsonl"
        save_consistent_sets(sets, path)
        assert load_consistent_sets(path) == sets

    @pytest.mark.parametrize("change,message", [
        ({"words": ["b"]}, "equal-length lists"),
        ({"words": ["b", 3]}, "equal-length lists"),
        ({"word_indices": [1, True]}, "equal-length lists"),
        ({"word_indices": "12"}, "equal-length lists"),
        ({"topic": "0"}, "topic must be an int"),
        ({"score": None}, "score must be a finite number"),
        ({"score": float("inf")}, "score must be a finite number"),
        ({"delta": False}, "delta must be a finite number"),
    ])
    def test_mistyped_record_rejected_naming_line(self, tmp_path, change, message):
        good = {"topic": 0, "words": ["b", "c"], "word_indices": [1, 2],
                "score": 0.75, "delta": 0.2}
        path = tmp_path / "sets.jsonl"
        path.write_text(json.dumps(good) + "\n" + json.dumps({**good, **change}) + "\n")
        with pytest.raises(ValueError, match=f"line 2: .*{message}"):
            load_consistent_sets(path)

    def test_invalid_json_line_rejected(self, tmp_path):
        path = tmp_path / "sets.jsonl"
        path.write_text('{"topic": 0,\n')
        with pytest.raises(ValueError, match="line 1: invalid JSON"):
            load_consistent_sets(path)

    def test_deterministic_bytes(self, tmp_path):
        sets = [ConsistentSet(0, (1, 2), ("b", "c"), 0.75, 0.2)]
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_consistent_sets(sets, p1)
        save_consistent_sets(sets, p2)
        assert p1.read_bytes() == p2.read_bytes()
