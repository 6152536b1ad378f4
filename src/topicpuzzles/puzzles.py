"""Puzzle generation from consistent word sets.

Three puzzle kinds are built by mixing consistent sets with elements whose
relatedness to them falls in a difficulty band (eta1, eta2):

* odd-one-out:      a consistent set plus one word with eta1 < sigma < eta2,
                    where sigma is the word's max relatedness to the set
* choose-related:   a stem (set minus a held-out answer) plus distractors
                    whose relatedness to the stem lies strictly in the band
* separate-topics:  the union of two disjoint consistent sets whose maximum
                    cross-pair relatedness stays below a cap

Rejection sampling is bounded: generators return an ``Exhausted`` marker
after ``max_attempts`` draws instead of looping forever.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .consistency import WeightedGraph, bottleneck_score
from .corpus import (
    is_finite_number,
    is_list_of,
    load_jsonl_records,
    require_keys,
    write_json_lines,
)

ODD_ONE_OUT = "odd-one-out"
CHOOSE_RELATED = "choose-related"
SEPARATE_TOPICS = "separate-topics"
KINDS = (ODD_ONE_OUT, CHOOSE_RELATED, SEPARATE_TOPICS)

MAX_ATTEMPTS_CAP = 5000


@dataclass(frozen=True)
class DifficultyBand:
    """Relatedness interval for mixed-in words. Raising eta1 raises the
    minimum relatedness of the odd elements, making the puzzle harder."""

    eta1: float
    eta2: float
    name: str = ""

    def __post_init__(self):
        if not 0.0 <= self.eta1 < self.eta2 <= 1.0:
            raise ValueError(
                f"band requires 0 <= eta1 < eta2 <= 1, got "
                f"({self.eta1}, {self.eta2})"
            )

    def contains(self, sigma):
        return self.eta1 < sigma < self.eta2


BAND_PRESETS = {
    "beginner": DifficultyBand(0.005, 0.02, "beginner"),
    "intermediate": DifficultyBand(0.1, 0.2, "intermediate"),
}


@dataclass(frozen=True)
class Puzzle:
    """One generated puzzle: the presented (shuffled) words, the hidden
    solution in presented coordinates, and enough provenance (band, sigma,
    source sets, seed, permutation) to re-verify it. A puzzle read from a
    bank saved without solutions has solution None and no permutation."""

    kind: str
    words: tuple[str, ...]
    solution: int | None
    band: DifficultyBand
    sigma: float
    source_topics: tuple[int, ...]
    seed: int | None = None
    permutation: tuple[int, ...] = ()
    stem: tuple[str, ...] | None = None


@dataclass(frozen=True)
class Exhausted:
    """Returned when rejection sampling ran out of attempts."""

    kind: str
    source_topics: tuple[int, ...]
    attempts: int


@dataclass(frozen=True)
class Rejected:
    """Returned when a candidate construction violates its acceptance rule."""

    kind: str
    source_topics: tuple[int, ...]
    reason: str


def default_max_attempts(vocab_size):
    """10 * sqrt(|vocab|), capped at 5000."""
    return max(1, min(MAX_ATTEMPTS_CAP, int(10 * math.sqrt(max(1, vocab_size)))))


def fisher_yates(n, rng):
    """Deterministic Fisher-Yates permutation for the given generator.
    perm[p] is the canonical index presented at position p."""
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        j = int(rng.integers(0, i + 1))
        perm[i], perm[j] = perm[j], perm[i]
    return tuple(perm)


def shuffle_and_render(words, solution, kind, rng):
    """Shuffle canonical words into presentation order and remap the
    solution (an index, or a bitmask for separate-topics) accordingly.
    Returns (presented words, presented solution, permutation)."""
    perm = fisher_yates(len(words), rng)
    presented = tuple(words[perm[p]] for p in range(len(words)))
    if kind == SEPARATE_TOPICS:
        remapped = 0
        for p in range(len(words)):
            if solution >> perm[p] & 1:
                remapped |= 1 << p
    else:
        remapped = perm.index(solution)
    return presented, remapped, perm


def resolve_solution(puzzle):
    """Invert the presentation shuffle, recovering the canonical solution."""
    perm = puzzle.permutation
    if puzzle.kind == SEPARATE_TOPICS:
        canonical = 0
        for p, source in enumerate(perm):
            if puzzle.solution >> p & 1:
                canonical |= 1 << source
        return canonical
    return perm[puzzle.solution]


def _attempt_budget(max_attempts, vocab):
    """``max_attempts``, or its default for ``vocab`` when None; ValueError
    when it is below 1."""
    if max_attempts is None:
        return default_max_attempts(len(vocab))
    if max_attempts < 1:
        raise ValueError("max_attempts must be >= 1")
    return max_attempts


def _draw_in_band(anchors, exclude, n, sim, band, vocab, rng, max_attempts):
    """Draw uniform random vocabulary words until ``n`` distinct words
    outside ``exclude`` have max relatedness sigma to the anchors strictly
    inside the band; returns (words, sigmas) in draw order, or None after
    ``max_attempts`` draws. Sigma is computed for every vocabulary word
    before the first draw, and each draw looks it up. An unindexed word has
    sigma 0, which no band holds, so it only uses up an attempt."""
    sigmas = sim.max_relatedness(anchors, vocab).tolist()
    words, drawn_sigmas = [], []
    for _ in range(max_attempts):
        drawn = int(rng.integers(0, len(vocab)))
        word, sigma = vocab[drawn], sigmas[drawn]
        if word in exclude or word in words or not band.contains(sigma):
            continue
        words.append(word)
        drawn_sigmas.append(sigma)
        if len(words) == n:
            return words, drawn_sigmas
    return None


def _shuffled_puzzle(
    kind, canonical, solution, band, sigma, sources, seed, rng, stem=None
):
    """The Puzzle presenting ``canonical`` (``solution`` in its coordinates)
    in an order shuffled by ``rng``."""
    presented, solution, perm = shuffle_and_render(canonical, solution, kind, rng)
    return Puzzle(kind, presented, solution, band, sigma, sources, seed, perm, stem)


def gen_odd_one_out(
    cset, sim, band, vocab, rng, max_attempts=None, seed=None
):
    """Draw uniform random vocabulary words until one outside the set has
    max relatedness sigma strictly inside the band, then emit the shuffled
    set plus that word with the odd position hidden.

    Draws that land inside the set or on words without a concept vector
    (sigma 0) consume attempts, so the loop always terminates; returns
    Exhausted after max_attempts failures.
    """
    sources = (cset.topic_index,)
    max_attempts = _attempt_budget(max_attempts, vocab)
    drawn = _draw_in_band(
        cset.words, set(cset.words), 1, sim, band, vocab, rng, max_attempts
    )
    if drawn is None:
        return Exhausted(ODD_ONE_OUT, sources, max_attempts)
    (word,), (sigma,) = drawn
    canonical = tuple(cset.words) + (word,)
    return _shuffled_puzzle(
        ODD_ONE_OUT, canonical, len(canonical) - 1, band, sigma, sources, seed, rng
    )


def gen_choose_related(
    cset, sim, band, n_distractors, vocab, rng, max_attempts=None, seed=None
):
    """Hold out one uniformly chosen word of the set as the answer; present
    the rest as the stem plus distractors whose max relatedness to the stem
    lies strictly in the band. The recorded sigma is the hardest
    distractor's. Distractors are drawn as odd-one-out draws its odd word,
    against the stem, once the answer is drawn; a word without a concept
    vector has sigma 0 and is never one."""
    if len(cset.words) < 3:
        raise ValueError("choose-related needs a consistent set of >= 3 words")
    if n_distractors < 1:
        raise ValueError("n_distractors must be >= 1")
    sources = (cset.topic_index,)
    max_attempts = _attempt_budget(max_attempts, vocab)
    held = int(rng.integers(0, len(cset.words)))
    stem = tuple(w for i, w in enumerate(cset.words) if i != held)
    drawn = _draw_in_band(
        stem, set(cset.words), n_distractors, sim, band, vocab, rng, max_attempts
    )
    if drawn is None:
        return Exhausted(CHOOSE_RELATED, sources, max_attempts)
    distractors, sigmas = drawn
    canonical = (cset.words[held],) + tuple(distractors)
    return _shuffled_puzzle(
        CHOOSE_RELATED, canonical, 0, band, max(sigmas), sources, seed, rng, stem
    )


def gen_separate_topics(cset_a, cset_b, sim, eta2_cross, rng, seed=None):
    """Mix two word-disjoint consistent sets if every cross pair's
    relatedness stays below eta2_cross; the hidden solution is the
    bipartition bitmask (bit set = second set) in presented coordinates."""
    if eta2_cross <= 0.0:
        raise ValueError("eta2_cross must be > 0")
    sources = (cset_a.topic_index, cset_b.topic_index)
    if set(cset_a.words) & set(cset_b.words):
        return Rejected(SEPARATE_TOPICS, sources, "sets share words")
    cross = float(sim.cross_relatedness(cset_a.words, cset_b.words).max())
    if cross >= eta2_cross:
        return Rejected(
            SEPARATE_TOPICS,
            sources,
            f"cross relatedness {cross:.6f} >= cap {eta2_cross}",
        )
    canonical = tuple(cset_a.words) + tuple(cset_b.words)
    mask = ((1 << len(cset_b.words)) - 1) << len(cset_a.words)
    band = DifficultyBand(0.0, eta2_cross, "cross-cap")
    return _shuffled_puzzle(
        SEPARATE_TOPICS, canonical, mask, band, cross, sources, seed, rng
    )


def derive_seed(master_seed, label):
    """Stable per-task seed from the master seed and a task label, so
    generation over distinct sets is order-independent."""
    digest = hashlib.sha256(f"{master_seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def generate_puzzle_bank(
    consistent_sets,
    sim,
    vocab,
    band,
    kinds=KINDS,
    master_seed=0,
    n_distractors=3,
    eta2_cross=None,
    max_attempts=None,
):
    """Generate puzzles of the requested kinds over the consistent sets.

    Each (kind, set) task runs with its own seed derived from the master
    seed and the set's topic index, so the bank is byte-identical across
    runs regardless of scheduling. separate-topics pairs consecutive sets
    (first with second, third with fourth, ...). Returns (puzzles, skipped)
    where skipped collects Exhausted/Rejected markers.
    """
    if eta2_cross is None:
        eta2_cross = band.eta2
    puzzles, skipped = [], []

    def run(label, generate):
        seed = derive_seed(master_seed, label)
        result = generate(np.random.default_rng(seed), seed)
        (puzzles if isinstance(result, Puzzle) else skipped).append(result)

    for kind in kinds:
        if kind == ODD_ONE_OUT:
            for cset in consistent_sets:
                run(f"{kind}:{cset.topic_index}", lambda rng, seed: gen_odd_one_out(
                    cset, sim, band, vocab, rng, max_attempts, seed=seed
                ))
        elif kind == CHOOSE_RELATED:
            for cset in consistent_sets:
                run(f"{kind}:{cset.topic_index}", lambda rng, seed: gen_choose_related(
                    cset, sim, band, n_distractors, vocab, rng, max_attempts, seed=seed
                ))
        elif kind == SEPARATE_TOPICS:
            for a, b in zip(consistent_sets[::2], consistent_sets[1::2]):
                run(f"{kind}:{a.topic_index}:{b.topic_index}", lambda rng, seed: (
                    gen_separate_topics(a, b, sim, eta2_cross, rng, seed=seed)
                ))
        else:
            raise ValueError(f"unknown puzzle kind {kind!r}")
    return puzzles, skipped


def verify_puzzle(puzzle, sim, sets_by_topic):
    """Re-verify an emitted puzzle from first principles; returns a list of
    violation messages (empty when sound).

    Checks: presented words distinct; sigma recomputed from the similarity
    provider obeys the band rule exactly; every source set re-scores above
    its recorded threshold; the solution round-trips through the recorded
    permutation back onto the source sets.
    """
    problems = []
    if len(set(puzzle.words)) != len(puzzle.words):
        problems.append("presented words are not pairwise distinct")
    for topic in puzzle.source_topics:
        cset = sets_by_topic[topic]
        graph = WeightedGraph(
            nodes=cset.word_indices,
            weights=sim.similarity_submatrix(cset.words),
        )
        score = bottleneck_score(graph)
        if not score > cset.delta:
            problems.append(
                f"source set {topic} re-scores {score:.6f} <= delta {cset.delta}"
            )
    canonical = resolve_solution(puzzle)
    if puzzle.kind == ODD_ONE_OUT:
        cset = sets_by_topic[puzzle.source_topics[0]]
        odd = puzzle.words[puzzle.solution]
        rest = [w for p, w in enumerate(puzzle.words) if p != puzzle.solution]
        if odd in cset.words:
            problems.append("odd word belongs to the source set")
        if sorted(rest) != sorted(cset.words):
            problems.append("presented set words do not match the source set")
        if canonical != len(puzzle.words) - 1:
            problems.append("solution does not round-trip through the shuffle")
        sigma = float(sim.cross_relatedness(cset.words, [odd]).max())
        if sigma != puzzle.sigma or not puzzle.band.contains(sigma):
            problems.append(
                f"sigma {sigma:.6f} violates band "
                f"({puzzle.band.eta1}, {puzzle.band.eta2})"
            )
    elif puzzle.kind == CHOOSE_RELATED:
        cset = sets_by_topic[puzzle.source_topics[0]]
        answer = puzzle.words[puzzle.solution]
        if answer not in cset.words:
            problems.append("answer is not a member of the source set")
        if set(puzzle.stem or ()) | {answer} != set(cset.words):
            problems.append("stem plus answer does not recover the source set")
        if canonical != 0:
            problems.append("solution does not round-trip through the shuffle")
        distractors = []
        for p, word in enumerate(puzzle.words):
            if p == puzzle.solution:
                continue
            if word in cset.words:
                problems.append(f"distractor {word!r} belongs to the source set")
            else:
                distractors.append(word)
        sigmas = sim.cross_relatedness(puzzle.stem or (), distractors).max(
            axis=0, initial=0.0
        ).tolist()
        for word, sigma in zip(distractors, sigmas):
            if not puzzle.band.contains(sigma):
                problems.append(
                    f"distractor {word!r} sigma {sigma:.6f} outside band"
                )
        if sigmas and max(sigmas) != puzzle.sigma:
            problems.append("recorded sigma is not the max distractor sigma")
    elif puzzle.kind == SEPARATE_TOPICS:
        set_a = sets_by_topic[puzzle.source_topics[0]]
        set_b = sets_by_topic[puzzle.source_topics[1]]
        group_b = {
            w for p, w in enumerate(puzzle.words) if puzzle.solution >> p & 1
        }
        group_a = set(puzzle.words) - group_b
        if group_a != set(set_a.words) or group_b != set(set_b.words):
            problems.append("bitmask does not recover the source bipartition")
        cross = float(sim.cross_relatedness(set_a.words, set_b.words).max())
        if cross != puzzle.sigma or cross >= puzzle.band.eta2:
            problems.append(
                f"cross relatedness {cross:.6f} violates cap {puzzle.band.eta2}"
            )
    else:
        problems.append(f"unknown puzzle kind {puzzle.kind!r}")
    return problems


def puzzle_record(puzzle, include_solution=True):
    record = {
        "kind": puzzle.kind,
        "words": list(puzzle.words),
        "band": {
            "name": puzzle.band.name,
            "eta1": puzzle.band.eta1,
            "eta2": puzzle.band.eta2,
        },
        "sigma": puzzle.sigma,
        "source_topics": list(puzzle.source_topics),
        "seed": puzzle.seed,
    }
    if puzzle.stem is not None:
        record["stem"] = list(puzzle.stem)
    if include_solution:
        record["solution"] = puzzle.solution
        record["permutation"] = list(puzzle.permutation)
    return record


def save_puzzle_bank(puzzles, path, include_solutions=True):
    """JSON-lines puzzle bank; with include_solutions=False the solution and
    permutation fields are withheld."""
    records = (puzzle_record(puzzle, include_solutions) for puzzle in puzzles)
    write_json_lines(records, path)


def _parse_puzzle(record):
    """The Puzzle of one parsed bank line; ValueError says what is wrong
    with it."""
    require_keys(record, ("kind", "words", "band", "sigma", "source_topics", "seed"))
    if record["kind"] not in KINDS:
        raise ValueError(f"unknown puzzle kind {record['kind']!r}")
    words = record["words"]
    if not is_list_of(words, (str,)) or not is_list_of(record.get("stem", []), (str,)):
        raise ValueError("words and stem must be lists of str")
    band = record["band"]
    if not (
        isinstance(band, dict)
        and type(band.get("name")) is str
        and is_finite_number(band.get("eta1"))
        and is_finite_number(band.get("eta2"))
    ):
        raise ValueError("band must hold a str name and numbers eta1, eta2")
    if not is_finite_number(record["sigma"]):
        raise ValueError("sigma must be a finite number")
    if not is_list_of(record["source_topics"], (int,)):
        raise ValueError("source_topics must be a list of int")
    if type(record["seed"]) not in (int, type(None)):
        raise ValueError("seed must be an int or null")
    # A bank saved without solutions has neither field.
    solution, permutation = record.get("solution"), record.get("permutation", [])
    if ("solution" in record or "permutation" in record) and not (
        type(solution) is int and is_list_of(permutation, (int,), len(words))
    ):
        raise ValueError(
            "solution and permutation must be an int and one int per word"
        )
    return Puzzle(
        kind=record["kind"],
        words=tuple(words),
        solution=solution,
        band=DifficultyBand(band["eta1"], band["eta2"], band["name"]),
        sigma=record["sigma"],
        source_topics=tuple(record["source_topics"]),
        seed=record["seed"],
        permutation=tuple(permutation),
        stem=tuple(record["stem"]) if "stem" in record else None,
    )


def load_puzzle_bank(path):
    """Read a bank written by ``save_puzzle_bank``, with or without
    solutions; ValueError names the first line that is not valid JSON or
    not a well-typed puzzle."""
    return load_jsonl_records(path, _parse_puzzle)
