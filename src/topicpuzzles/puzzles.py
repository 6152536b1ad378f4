"""Puzzle generation from consistent word sets.

Three puzzle kinds are built by mixing consistent sets with elements whose
relatedness to them falls in a difficulty band (eta1, eta2):

* odd-one-out:      a consistent set plus one word with eta1 < sigma < eta2,
                    where sigma is the word's max relatedness to the set
* choose-related:   a stem (set minus a held-out answer) plus distractors
                    whose relatedness to the stem lies strictly in the band
* separate-topics:  the union of two disjoint consistent sets whose maximum
                    cross-pair relatedness stays below a cap

``generate_puzzle_bank`` is the one way to run these tasks. It checks its
settings once and reads every relatedness row of its set words from one
``esa.rows_by_group`` pass. Rejection sampling is bounded: a task returns
an ``Exhausted`` marker after ``max_attempts`` draws instead of looping
forever, and before the first draw when the band holds too few eligible
words.

A ``Puzzle`` checks its own shape when built (ValueError): a known kind,
2 source topics for separate-topics and 1 for the others, and, when it
holds a solution, a permutation of its word positions and a solution that
is a word position (for separate-topics, a mask of some but not all
words). So a bank line, or a puzzle built in memory, that breaks one
never reaches ``resolve_solution`` or ``verify_puzzle``.
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
from .esa import rows_by_group

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
    bank saved without solutions has solution None and no permutation.
    ValueError for a shape that no kind can have."""

    kind: str
    words: tuple[str, ...]
    solution: int | None
    band: DifficultyBand
    sigma: float
    source_topics: tuple[int, ...]
    seed: int | None = None
    permutation: tuple[int, ...] = ()
    stem: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown puzzle kind {self.kind!r}")
        n_sources = 2 if self.kind == SEPARATE_TOPICS else 1
        if len(self.source_topics) != n_sources:
            raise ValueError(f"{self.kind} needs {n_sources} source topics")
        if self.solution is None:
            return
        n = len(self.words)
        if sorted(self.permutation) != list(range(n)):
            raise ValueError("permutation must hold each word position once")
        if self.kind == SEPARATE_TOPICS:
            if not 0 < self.solution < (1 << n) - 1:
                raise ValueError("solution must mark some but not all words")
        elif not 0 <= self.solution < n:
            raise ValueError("solution must be the position of a word")


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


def resolve_solution(puzzle):
    """Invert the presentation shuffle, recovering the canonical solution."""
    perm = puzzle.permutation
    if puzzle.kind == SEPARATE_TOPICS:
        return sum(1 << i for p, i in enumerate(perm) if puzzle.solution >> p & 1)
    return perm[puzzle.solution]


class _Settings:
    """What every task of one bank shares, checked once (ValueError): the
    band, the attempt budget (``default_max_attempts`` when None), the
    distractor count, the cross cap (the band's eta2 when None), and the
    provider ``sim`` with the vocabulary's rows (-1 for a word it lacks)."""

    def __init__(self, sim, vocab, band, n_distractors=3, eta2_cross=None,
                 max_attempts=None):
        if max_attempts is None:
            max_attempts = default_max_attempts(len(vocab))
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if n_distractors < 1:
            raise ValueError("n_distractors must be >= 1")
        if eta2_cross is None:
            eta2_cross = band.eta2
        if not 0.0 < eta2_cross <= 1.0:
            raise ValueError(f"eta2_cross must be > 0 and <= 1, got {eta2_cross}")
        self.band, self.vocab, self.sim = band, vocab, sim
        self.n_distractors, self.eta2_cross = n_distractors, eta2_cross
        self.max_attempts = max_attempts
        self.vocab_rows = sim.rows(vocab)


def _draw_in_band(settings, rows, anchors, exclude, n, rng):
    """Draw uniform random vocabulary words until ``n`` distinct words have
    sigma, their max relatedness to the anchors' ``rows``, strictly inside
    the band; returns (words, sigmas) in draw order, or None after
    ``max_attempts`` draws. Words of ``exclude`` and words the index lacks
    have sigma 0, which no band holds. Returns None before the first draw
    when fewer than ``n`` words are in the band: no draw could succeed, and
    the task's generator serves no other task."""
    sigma = np.zeros(len(settings.sim.index) + 1)  # the last entry serves row -1
    for word in anchors:
        np.maximum(sigma[:-1], rows[word], out=sigma[:-1])
    sigma[settings.sim.rows(exclude)] = 0.0
    sigma, band, vocab = sigma[settings.vocab_rows], settings.band, settings.vocab
    eligible = (band.eta1 < sigma) & (sigma < band.eta2)
    if np.count_nonzero(eligible) < n:
        return None
    words, drawn_sigmas = [], []
    for _ in range(settings.max_attempts):
        drawn = int(rng.integers(0, len(vocab)))
        word = vocab[drawn]
        if not eligible[drawn] or word in words:
            continue
        words.append(word)
        drawn_sigmas.append(float(sigma[drawn]))
        if len(words) == n:
            return words, drawn_sigmas
    return None


def _shuffled_puzzle(
    kind, canonical, solution, band, sigma, sources, seed, rng, stem=None
):
    """The Puzzle presenting ``canonical`` in a Fisher-Yates order drawn
    from ``rng``, its permutation giving the canonical index at each
    presented position, and ``solution`` (an index, or a bitmask for
    separate-topics) moved from canonical to presented positions."""
    perm = list(range(len(canonical)))
    for i in range(len(perm) - 1, 0, -1):
        j = int(rng.integers(0, i + 1))
        perm[i], perm[j] = perm[j], perm[i]
    if kind == SEPARATE_TOPICS:
        solution = sum(1 << p for p, i in enumerate(perm) if solution >> i & 1)
    else:
        solution = perm.index(solution)
    presented = tuple(canonical[i] for i in perm)
    return Puzzle(kind, presented, solution, band, sigma, sources, seed, tuple(perm), stem)


def _odd_one_out(settings, rows, cset, rng, seed):
    """Draw uniform random vocabulary words until one outside the set has
    max relatedness sigma strictly inside the band, then emit the shuffled
    set plus that word with the odd position hidden. Draws that land inside
    the set or on words without a concept vector (sigma 0) consume
    attempts; Exhausted after max_attempts failures, or with no draw when
    no word outside the set lies in the band."""
    sources = (cset.topic_index,)
    drawn = _draw_in_band(settings, rows, cset.words, cset.words, 1, rng)
    if drawn is None:
        return Exhausted(ODD_ONE_OUT, sources, settings.max_attempts)
    (word,), (sigma,) = drawn
    canonical = tuple(cset.words) + (word,)
    return _shuffled_puzzle(
        ODD_ONE_OUT, canonical, len(canonical) - 1, settings.band, sigma, sources,
        seed, rng,
    )


def _choose_related(settings, rows, cset, rng, seed):
    """Hold out one uniformly chosen word of the set as the answer; present
    the rest as the stem plus distractors whose max relatedness to the stem
    lies strictly in the band. The recorded sigma is the hardest
    distractor's. Distractors are drawn as odd-one-out draws its odd word,
    against the stem, once the answer is drawn; a word without a concept
    vector has sigma 0 and is never one. A set of fewer than 3 words
    leaves no stem and is Rejected."""
    sources = (cset.topic_index,)
    if len(cset.words) < 3:
        return Rejected(CHOOSE_RELATED, sources, "fewer than 3 words")
    held = int(rng.integers(0, len(cset.words)))
    stem = tuple(w for i, w in enumerate(cset.words) if i != held)
    drawn = _draw_in_band(settings, rows, stem, cset.words, settings.n_distractors, rng)
    if drawn is None:
        return Exhausted(CHOOSE_RELATED, sources, settings.max_attempts)
    distractors, sigmas = drawn
    canonical = (cset.words[held],) + tuple(distractors)
    return _shuffled_puzzle(
        CHOOSE_RELATED, canonical, 0, settings.band, max(sigmas), sources, seed,
        rng, stem,
    )


def _separate_topics(settings, rows, cset_a, cset_b, rng, seed):
    """Mix two word-disjoint consistent sets if every cross pair's
    relatedness, read from the second set's ``rows`` (for sorted CSR rows,
    ``R[b] R[a]^T`` is ``(R[a] R[b]^T)^T`` bit for bit), stays below the
    cross cap; the hidden solution is the bipartition bitmask (bit set =
    second set) in presented coordinates."""
    sources = (cset_a.topic_index, cset_b.topic_index)
    if set(cset_a.words) & set(cset_b.words):
        return Rejected(SEPARATE_TOPICS, sources, "sets share words")
    columns = settings.sim.rows(cset_a.words)
    columns = columns[columns >= 0]
    cross = float(max(rows[w][columns].max(initial=0.0) for w in cset_b.words))
    if cross >= (cap := settings.eta2_cross):
        return Rejected(
            SEPARATE_TOPICS, sources, f"cross relatedness {cross:.6f} >= cap {cap}"
        )
    canonical = tuple(cset_a.words) + tuple(cset_b.words)
    mask = ((1 << len(cset_b.words)) - 1) << len(cset_a.words)
    band = DifficultyBand(0.0, cap, "cross-cap")
    return _shuffled_puzzle(
        SEPARATE_TOPICS, canonical, mask, band, cross, sources, seed, rng
    )


_STEPS = {
    ODD_ONE_OUT: _odd_one_out,
    CHOOSE_RELATED: _choose_related,
    SEPARATE_TOPICS: _separate_topics,
}


def derive_seed(master_seed, label):
    """Stable per-task seed from the master seed and a task label, so
    generation over distinct sets is order-independent."""
    digest = hashlib.sha256(f"{master_seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def generate_puzzle_bank(
    consistent_sets, sim, vocab, band, kinds=KINDS, master_seed=0,
    n_distractors=3, eta2_cross=None, max_attempts=None,
):
    """Generate puzzles of the requested kinds over the consistent sets.

    ``max_attempts``, ``n_distractors`` and ``eta2_cross`` are checked once,
    before any kind runs (ValueError), whether or not a kind uses them.
    Tasks run set by set on the relatedness rows of ``esa.rows_by_group``,
    each set's group being its own words; separate-topics pairs a set with
    the previous one (first with second, third with fourth, ...). Each
    (kind, set) task runs with its own seed derived from the master seed
    and the topic indices, so the bank is byte-identical across runs
    regardless of scheduling. Returns (puzzles, skipped) where skipped
    collects Exhausted/Rejected markers.
    """
    settings = _Settings(sim, vocab, band, n_distractors, eta2_cross, max_attempts)
    for kind in kinds:
        if kind not in _STEPS:
            raise ValueError(f"unknown puzzle kind {kind!r}")
    results = {kind: [] for kind in kinds}
    for i, rows in enumerate(rows_by_group(sim, [c.words for c in consistent_sets])):
        cset = consistent_sets[i]
        for kind, out in results.items():
            if kind != SEPARATE_TOPICS:
                group = (cset,)
            elif i % 2:
                group = (consistent_sets[i - 1], cset)
            else:
                continue
            seed = derive_seed(master_seed, ":".join(
                [kind, *(str(member.topic_index) for member in group)]))
            rng = np.random.default_rng(seed)
            out.append(_STEPS[kind](settings, rows, *group, rng, seed))
    puzzles, skipped = [], []
    for kind in kinds:
        for result in results[kind]:
            (puzzles if isinstance(result, Puzzle) else skipped).append(result)
    return puzzles, skipped


def verify_puzzle(puzzle, sim, sets_by_topic):
    """Re-verify an emitted puzzle from first principles; returns a list of
    violation messages (empty when sound).

    Checks: presented words distinct; sigma recomputed from the similarity
    provider obeys the band rule exactly; every source set re-scores above
    its recorded threshold; the solution round-trips through the recorded
    permutation back onto the source sets. A puzzle read from a bank saved
    without solutions has nothing to check them against, and one whose
    source topics ``sets_by_topic`` lacks has no sets to check.
    """
    if puzzle.solution is None:
        return ["puzzle has no solution: it was saved without solutions"]
    problems = []
    if len(set(puzzle.words)) != len(puzzle.words):
        problems.append("presented words are not pairwise distinct")
    missing = [topic for topic in puzzle.source_topics if topic not in sets_by_topic]
    if missing:
        return problems + [f"source topic {topic} has no set" for topic in missing]
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
    else:
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
    """The Puzzle of one parsed bank line; ValueError says which field has
    the wrong JSON type, or which shape rule of ``Puzzle`` it breaks."""
    require_keys(record, ("kind", "words", "band", "sigma", "source_topics", "seed"))
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
        type(solution) is int and is_list_of(permutation, (int,))
    ):
        raise ValueError("solution and permutation must be an int and a list of int")
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
