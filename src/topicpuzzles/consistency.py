"""Consistency scoring of candidate word sets.

A set's score is the relatedness of its two most dissimilar words, where
pair relatedness is the widest-path (max over paths of the min edge) value
in the complete similarity graph. Because edge weights are nonnegative,
that score equals the minimum edge weight of a maximum spanning tree, which
is how ``bottleneck_score`` computes it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import (
    is_finite_number,
    is_list_of,
    load_jsonl_records,
    require_keys,
    write_json_lines,
)


@dataclass(eq=False)
class WeightedGraph:
    """Complete graph over a candidate word set: node labels (word indices)
    plus the symmetric similarity submatrix, weights in [0, 1]."""

    nodes: tuple[int, ...]
    weights: np.ndarray

    def __post_init__(self):
        self.nodes = tuple(int(n) for n in self.nodes)
        self.weights = np.asarray(self.weights, dtype=np.float64)
        size = len(self.nodes)
        if len(set(self.nodes)) != size:
            raise ValueError("graph nodes must be distinct")
        if self.weights.shape != (size, size):
            raise ValueError(
                f"weight matrix shape {self.weights.shape} does not match "
                f"{size} nodes"
            )
        if not np.array_equal(self.weights, self.weights.T):
            raise ValueError("weight matrix must be symmetric")
        if np.any(self.weights < 0.0) or np.any(self.weights > 1.0):
            raise ValueError("similarity weights must lie in [0, 1]")

    def __len__(self):
        return len(self.nodes)


@dataclass(eq=False)
class SpanningTree:
    """Edges (node, node, weight) of a spanning tree."""

    edges: tuple[tuple[int, int, float], ...]

    @property
    def min_edge_weight(self):
        return float(min(w for _, _, w in self.edges))


def max_spanning_tree(graph):
    """Kruskal on descending edge weight; ties prefer the lexicographically
    smaller (node, node) pair, so the tree is deterministic."""
    size = len(graph)
    if size < 2:
        raise ValueError(f"spanning tree needs at least 2 nodes, got {size}")
    edges = []
    for i in range(size):
        for j in range(i + 1, size):
            a, b = graph.nodes[i], graph.nodes[j]
            if a > b:
                a, b = b, a
            edges.append((a, b, float(graph.weights[i, j])))
    edges.sort(key=lambda e: (-e[2], e[0], e[1]))
    # component label per node; b's component takes the label of a's
    label = {node: node for node in graph.nodes}
    chosen = []
    for a, b, w in edges:
        kept, merged = label[a], label[b]
        if kept != merged:
            label = {n: kept if c == merged else c for n, c in label.items()}
            chosen.append((a, b, w))
            if len(chosen) == size - 1:
                break
    return SpanningTree(edges=tuple(chosen))


def bottleneck_score(graph):
    """Similarity of the two most dissimilar words in the set: the minimum
    edge weight of the maximum spanning tree."""
    return max_spanning_tree(graph).min_edge_weight


@dataclass
class ConsistentSet:
    """A word set that passed the consistency threshold, with its score and
    the threshold it was scored against."""

    topic_index: int
    word_indices: tuple[int, ...]
    words: tuple[str, ...]
    score: float
    delta: float


def identify_consistent_sets(sets, sim, delta):
    """Score each candidate word set on its similarity submatrix and keep
    those scoring strictly above delta, preserving input (topic) order."""
    if not 0.0 <= delta < 1.0:
        raise ValueError(f"delta must be in [0, 1), got {delta}")
    kept = []
    for word_set in sets:
        indices = tuple(int(i) for i in word_set.word_indices)
        submatrix = sim.similarity_submatrix(indices)
        graph = WeightedGraph(nodes=indices, weights=submatrix)
        score = bottleneck_score(graph)
        if score > delta:
            kept.append(
                ConsistentSet(
                    topic_index=word_set.topic_index,
                    word_indices=indices,
                    words=tuple(sim.word_for_index(i) for i in indices),
                    score=score,
                    delta=delta,
                )
            )
    return kept


def save_consistent_sets(sets, path):
    """JSON-lines output: one object per consistent set."""
    write_json_lines(({
        "topic": cs.topic_index,
        "words": list(cs.words),
        "word_indices": list(cs.word_indices),
        "score": cs.score,
        "delta": cs.delta,
    } for cs in sets), path)


def _parse_set(record):
    """The ConsistentSet of one parsed sets-file line; ValueError says what
    is wrong with it."""
    require_keys(record, ("topic", "words", "word_indices", "score", "delta"))
    words, indices = record["words"], record["word_indices"]
    if not (
        is_list_of(words, (str,))
        and is_list_of(indices, (int,), len(words))
    ):
        raise ValueError(
            "words and word_indices must be equal-length lists of str and int"
        )
    if type(record["topic"]) is not int:
        raise ValueError("topic must be an int")
    for key in ("score", "delta"):
        if not is_finite_number(record[key]):
            raise ValueError(f"{key} must be a finite number")
    return ConsistentSet(
        topic_index=record["topic"],
        word_indices=tuple(indices),
        words=tuple(words),
        score=record["score"],
        delta=record["delta"],
    )


def load_consistent_sets(path):
    """Read a sets file written by ``save_consistent_sets``; ValueError
    names the first line that is not valid JSON or not a well-typed set."""
    return load_jsonl_records(path, _parse_set)
