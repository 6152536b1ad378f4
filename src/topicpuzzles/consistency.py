"""Consistency scoring of candidate word sets.

A set's score is the relatedness of its two most dissimilar words, where
pair relatedness is the widest-path (max over paths of the min edge) value
in the complete similarity graph. Because edge weights are nonnegative,
that score equals the minimum edge weight of every maximum spanning tree,
whichever tree ties pick: the height at which single linkage joins the set
(Gower & Ross 1969). ``bottleneck_score`` finds it with Prim's algorithm,
keeping no tree. ``identify_consistent_sets`` reads the submatrix of each
set's words from its rows of ``esa.rows_by_group``.
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
from .esa import rows_by_group


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


def bottleneck_score(graph):
    """Similarity of the two most dissimilar words in the set: the minimum
    edge weight of a maximum spanning tree, grown by Prim's algorithm from
    the first node. ``link`` maps each node outside the tree to its widest
    edge into it; each step adds the node of the widest link."""
    rows = graph.weights.tolist()
    if len(rows) < 2:
        raise ValueError(f"bottleneck score needs at least 2 nodes, got {len(rows)}")
    link = dict(enumerate(rows[0][1:], 1))
    score = float("inf")
    while link:
        node = max(link, key=link.get)  # the first of equal links
        score = min(score, link.pop(node))
        for other in link:
            link[other] = max(link[other], rows[node][other])
    return score


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
    """Score each candidate word set on the similarity submatrix of its
    ``words`` (ValueError for a set without them) and keep those scoring
    strictly above delta, preserving input (topic) order.

    The submatrices are read from the rows of one product over the
    distinct candidate words, ``esa.rows_by_group(sim, groups, among=words)``;
    each entry has the bits of ``sim.similarity_submatrix`` of its set."""
    if not 0.0 <= delta < 1.0:
        raise ValueError(f"delta must be in [0, 1), got {delta}")
    sets = list(sets)
    groups = [word_set.words for word_set in sets]
    if None in groups:
        raise ValueError("a topic word set has no words: its model has no vocabulary")
    words = list(dict.fromkeys(w for group in groups for w in group))
    position = {word: p for p, word in enumerate(words)}
    kept = []
    for word_set, rows in zip(sets, rows_by_group(sim, groups, among=words)):
        columns = [position[w] for w in word_set.words]
        submatrix = np.array([rows[w] for w in word_set.words])[:, columns]
        indices = tuple(int(i) for i in word_set.word_indices)
        score = bottleneck_score(WeightedGraph(nodes=indices, weights=submatrix))
        if score > delta:
            kept.append(
                ConsistentSet(
                    topic_index=word_set.topic_index,
                    word_indices=indices,
                    words=tuple(word_set.words),
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


def _parse_set(record, topics):
    """The ConsistentSet of one parsed sets-file line whose topic is not in
    ``topics``, then added to it; ValueError says what is wrong with it."""
    require_keys(record, ("topic", "words", "word_indices", "score", "delta"))
    words, indices = record["words"], record["word_indices"]
    if not (is_list_of(words, (str,)) and is_list_of(indices, (int,), len(words))):
        raise ValueError(
            "words and word_indices must be equal-length lists of str and int"
        )
    if len(words) < 2 or min(indices) < 0:
        raise ValueError("a set needs at least 2 words and word_indices >= 0")
    if len(set(words)) < len(words) or len(set(indices)) < len(indices):
        raise ValueError("words and word_indices must not repeat")
    if type(record["topic"]) is not int:
        raise ValueError("topic must be an int")
    for key in ("score", "delta"):
        if not is_finite_number(record[key]):
            raise ValueError(f"{key} must be a finite number")
    if record["topic"] in topics:
        raise ValueError(f"topic {record['topic']} repeats an earlier line")
    topics.add(record["topic"])
    return ConsistentSet(
        topic_index=record["topic"],
        word_indices=tuple(indices),
        words=tuple(words),
        score=record["score"],
        delta=record["delta"],
    )


def load_consistent_sets(path):
    """Read a sets file written by ``save_consistent_sets``; ValueError
    names the first line that is not valid JSON, not a well-typed set, or
    whose topic an earlier line has."""
    topics = set()
    return load_jsonl_records(path, lambda record: _parse_set(record, topics))
