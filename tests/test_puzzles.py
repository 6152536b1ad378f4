import json
import random
from dataclasses import replace

import numpy as np
import pytest
from conftest import hand_index

from topicpuzzles.consistency import ConsistentSet
from topicpuzzles.corpus import CorpusFormatError
from topicpuzzles.esa import SimilarityProvider, rows_by_group
from topicpuzzles.puzzles import (
    BAND_PRESETS,
    CHOOSE_RELATED,
    KINDS,
    ODD_ONE_OUT,
    SEPARATE_TOPICS,
    DifficultyBand,
    Exhausted,
    Puzzle,
    Rejected,
    default_max_attempts,
    derive_seed,
    generate_puzzle_bank,
    load_puzzle_bank,
    puzzle_record,
    resolve_solution,
    save_puzzle_bank,
    verify_puzzle,
)
from topicpuzzles.puzzles import (
    _choose_related,
    _odd_one_out,
    _separate_topics,
    _Settings,
    _shuffled_puzzle,
)


def block_vectors():
    """Hand-built concept vectors: two 4-word themes plus midband words.

    Theme words share concept support inside their theme (high cosine) and
    are nearly orthogonal across themes; 'bridge*' words overlap both
    themes weakly, landing their max relatedness in a midband; 'orphan'
    words live on separate concepts (relatedness 0 to everything).
    """
    vectors = {}
    # theme A on concepts 0-3, theme B on concepts 4-7
    for i, word in enumerate(["avote", "aelect", "aballot", "apoll"]):
        ids = np.array([0, 1, 2, 3])
        weights = np.array([4.0, 3.0, 2.0, 1.0])
        vectors[word] = (ids, np.roll(weights, i))
    for i, word in enumerate(["bwand", "bspell", "bwizard", "bmagic"]):
        ids = np.array([4, 5, 6, 7])
        weights = np.array([4.0, 3.0, 2.0, 1.0])
        vectors[word] = (ids, np.roll(weights, i))
    # midband words: mostly on their own concept, small overlap with theme A
    vectors["bridgeone"] = (np.array([0, 8]), np.array([0.8, 9.0]))
    vectors["bridgetwo"] = (np.array([1, 9]), np.array([0.9, 9.0]))
    # orphan words on unshared concepts
    vectors["orphanone"] = (np.array([10]), np.array([5.0]))
    vectors["orphantwo"] = (np.array([11]), np.array([5.0]))
    return vectors


def block_index():
    return hand_index(block_vectors(), n_concepts=12)


@pytest.fixture
def provider():
    return SimilarityProvider(block_index())


@pytest.fixture
def theme_a():
    return ConsistentSet(
        topic_index=0,
        word_indices=(0, 1, 2, 3),
        words=("avote", "aelect", "aballot", "apoll"),
        score=0.6,
        delta=0.1,
    )


@pytest.fixture
def theme_b():
    return ConsistentSet(
        topic_index=1,
        word_indices=(4, 5, 6, 7),
        words=("bwand", "bspell", "bwizard", "bmagic"),
        score=0.6,
        delta=0.1,
    )


VOCAB = [
    "avote", "aelect", "aballot", "apoll",
    "bwand", "bspell", "bwizard", "bmagic",
    "bridgeone", "bridgetwo", "orphanone", "orphantwo",
]


def run_task(step, sets, provider, rng, seed, vocab=VOCAB, band=DifficultyBand(0.1, 0.2),
             **settings):
    """One task of ``generate_puzzle_bank`` on its own: ``step`` on the
    bank's checked settings and the relatedness rows of its sets' words."""
    (rows,) = rows_by_group(provider, [[w for cset in sets for w in cset.words]])
    return step(_Settings(provider, vocab, band, **settings), rows, *sets, rng, seed)


def odd_one_out(cset, provider, band, vocab, rng, max_attempts=None, seed=None):
    return run_task(
        _odd_one_out, (cset,), provider, rng, seed, vocab, band, max_attempts=max_attempts
    )


def choose_related(
    cset, provider, band, n_distractors, vocab, rng, max_attempts=None, seed=None
):
    return run_task(
        _choose_related, (cset,), provider, rng, seed, vocab, band,
        n_distractors=n_distractors, max_attempts=max_attempts,
    )


def separate_topics(cset_a, cset_b, provider, eta2_cross, rng, seed=None):
    return run_task(
        _separate_topics, (cset_a, cset_b), provider, rng, seed, eta2_cross=eta2_cross
    )


def _replace_one(values, value, rng):
    """``values`` with one entry, drawn by ``rng``, set to ``value``."""
    values = list(values)
    values[rng.randrange(len(values))] = value
    return values


def _repeat_one(values, rng):
    """``values`` with one entry, drawn by ``rng``, copied over another."""
    values = list(values)
    i, j = rng.sample(range(len(values)), 2)
    values[i] = values[j]
    return values


def _solution_end(record):
    """One past the largest usable solution: the word count, or for
    separate-topics the mask of every word."""
    n = len(record["words"])
    return (1 << n) - 1 if record["kind"] == SEPARATE_TOPICS else n


# id -> edit of a well-typed bank line's record (given a generator seeded
# by the id) to fields that no puzzle of its kind can have
UNUSABLE_EDITS = {
    "permutation-repeat": lambda r, rng: {
        "permutation": _repeat_one(r["permutation"], rng)},
    "permutation-past-end": lambda r, rng: {"permutation": _replace_one(
        r["permutation"], len(r["words"]) + rng.randrange(10), rng)},
    "permutation-negative": lambda r, rng: {"permutation": _replace_one(
        r["permutation"], -1 - rng.randrange(10), rng)},
    "no-words": lambda r, rng: {"words": [], "permutation": []},
    "solution-past-end": lambda r, rng: {"solution": _solution_end(r) + rng.randrange(10)},
    "solution-negative": lambda r, rng: {"solution": -1 - rng.randrange(10)},
    "topics-too-few": lambda r, rng: {"source_topics": r["source_topics"][:-1]},
    "topics-too-many": lambda r, rng: {
        "source_topics": r["source_topics"] + [rng.randrange(2, 100)]},
}
# id -> (kind, edit): each edit on each kind, and the empty mask
BANK_CORRUPTIONS = {
    **{f"{kind}-{name}": (kind, edit)
       for kind in KINDS for name, edit in UNUSABLE_EDITS.items()},
    f"{SEPARATE_TOPICS}-solution-empty-mask": (
        SEPARATE_TOPICS, lambda r, rng: {"solution": 0}),
}

# id -> change of a generated puzzle's fields that no puzzle of its kind
# can have, each of which Puzzle rejects when built
_ANY_KIND_SHAPE_EDITS = {
    "solution-negative": lambda p: {"solution": -1},
    "permutation-repeat": lambda p: {"permutation": p.permutation[1:2] + p.permutation[1:]},
    "permutation-past-end": lambda p: {
        "permutation": p.permutation[:-1] + (len(p.words),)},
    "permutation-negative": lambda p: {"permutation": (-1,) + p.permutation[1:]},
    "permutation-too-short": lambda p: {"permutation": p.permutation[:-1]},
    "permutation-too-long": lambda p: {"permutation": p.permutation + (len(p.words),)},
    "kind-unknown": lambda p: {"kind": "riddle"},
    "no-source-topics": lambda p: {"source_topics": ()},
}
# (kind, edit) by id; the generated odd-one-out puzzle has 5 words
SHAPE_EDITS = {
    **{f"{kind}-{name}": (kind, edit)
       for kind in KINDS for name, edit in _ANY_KIND_SHAPE_EDITS.items()},
    f"{ODD_ONE_OUT}-solution-9": (ODD_ONE_OUT, lambda p: {"solution": 9}),
    f"{CHOOSE_RELATED}-solution-past-end": (
        CHOOSE_RELATED, lambda p: {"solution": len(p.words)}),
    **{f"{kind}-two-source-topics": (kind, lambda p: {"source_topics": (0, 1)})
       for kind in (ODD_ONE_OUT, CHOOSE_RELATED)},
    f"{SEPARATE_TOPICS}-one-source-topic": (
        SEPARATE_TOPICS, lambda p: {"source_topics": (0,)}),
    f"{SEPARATE_TOPICS}-three-source-topics": (
        SEPARATE_TOPICS, lambda p: {"source_topics": (0, 1, 2)}),
    f"{SEPARATE_TOPICS}-empty-mask": (SEPARATE_TOPICS, lambda p: {"solution": 0}),
    f"{SEPARATE_TOPICS}-full-mask": (
        SEPARATE_TOPICS, lambda p: {"solution": (1 << len(p.words)) - 1}),
    f"{SEPARATE_TOPICS}-mask-past-end": (
        SEPARATE_TOPICS, lambda p: {"solution": 1 << len(p.words)}),
}


def midband(provider, cset):
    """Band bracketing the bridge words' max relatedness to the set."""
    sigmas = [
        max(provider.relatedness(t, w) for t in cset.words)
        for w in ("bridgeone", "bridgetwo")
    ]
    return DifficultyBand(min(sigmas) * 0.5, max(sigmas) * 1.5, "mid")


class TestDifficultyBand:
    def test_preset_band_values(self):
        assert BAND_PRESETS["beginner"].eta1 == 0.005
        assert BAND_PRESETS["beginner"].eta2 == 0.02
        assert BAND_PRESETS["intermediate"].eta1 == 0.1
        assert BAND_PRESETS["intermediate"].eta2 == 0.2

    def test_validation(self):
        with pytest.raises(ValueError):
            DifficultyBand(0.5, 0.5)
        with pytest.raises(ValueError):
            DifficultyBand(-0.1, 0.5)
        with pytest.raises(ValueError):
            DifficultyBand(0.1, 1.5)

    def test_contains_is_strict(self):
        band = DifficultyBand(0.1, 0.2)
        assert not band.contains(0.1)
        assert not band.contains(0.2)
        assert band.contains(0.15)


def shuffled(kind, words, solution, rng):
    """``_shuffled_puzzle`` of ``words`` with ``solution`` in their order."""
    sources = (0, 1) if kind == SEPARATE_TOPICS else (0,)
    band = DifficultyBand(0.0, 0.5)
    return _shuffled_puzzle(kind, tuple(words), solution, band, 0.1, sources, None, rng)


class TestShuffledPuzzle:
    def test_deterministic_under_seed(self):
        words = ["a", "b", "c", "d", "e"]
        p1 = shuffled(ODD_ONE_OUT, words, 2, np.random.default_rng(5))
        p2 = shuffled(ODD_ONE_OUT, words, 2, np.random.default_rng(5))
        assert p1 == p2

    def test_round_trip_index_solution(self):
        rng = np.random.default_rng(0)
        for trial in range(50):
            n = int(rng.integers(2, 9))
            words = [f"w{i}" for i in range(n)]
            solution = int(rng.integers(0, n))
            puzzle = shuffled(ODD_ONE_OUT, words, solution, rng)
            assert resolve_solution(puzzle) == solution
            assert puzzle.words[puzzle.solution] == words[solution]

    def test_round_trip_bitmask_solution(self):
        rng = np.random.default_rng(1)
        for trial in range(50):
            n = int(rng.integers(2, 10))
            words = [f"w{i}" for i in range(n)]
            # some but not all words: an empty or full mask is no puzzle
            mask = int(rng.integers(1, (1 << n) - 1))
            puzzle = shuffled(SEPARATE_TOPICS, words, mask, rng)
            assert resolve_solution(puzzle) == mask
            marked = {puzzle.words[p] for p in range(n) if puzzle.solution >> p & 1}
            expected = {words[i] for i in range(n) if mask >> i & 1}
            assert marked == expected

    def test_permutation_is_bijection(self):
        rng = np.random.default_rng(2)
        for n in (1, 2, 5, 12):
            puzzle = shuffled(ODD_ONE_OUT, [f"w{i}" for i in range(n)], 0, rng)
            assert sorted(puzzle.permutation) == list(range(n))
            assert puzzle.words == tuple(f"w{i}" for i in puzzle.permutation)

    def test_draws_of_a_fisher_yates_shuffle(self):
        """One ``integers(0, i + 1)`` draw per position, from the last down
        to 1, swapping it with the drawn one: banks depend on these draws."""
        for n in (1, 2, 5, 12):
            rng, twin = np.random.default_rng(n), np.random.default_rng(n)
            expected = list(range(n))
            for i in range(n - 1, 0, -1):
                j = int(twin.integers(0, i + 1))
                expected[i], expected[j] = expected[j], expected[i]
            puzzle = shuffled(ODD_ONE_OUT, [f"w{i}" for i in range(n)], 0, rng)
            assert puzzle.permutation == tuple(expected)
            assert rng.bit_generator.state == twin.bit_generator.state


class TestGenOddOneOut:
    def test_emits_sound_puzzle(self, provider, theme_a):
        band = midband(provider, theme_a)
        rng = np.random.default_rng(3)
        puzzle = odd_one_out(theme_a, provider, band, VOCAB, rng, seed=3)
        assert isinstance(puzzle, Puzzle)
        odd = puzzle.words[puzzle.solution]
        assert odd in ("bridgeone", "bridgetwo")
        assert sorted(puzzle.words) == sorted(theme_a.words + (odd,))
        assert band.eta1 < puzzle.sigma < band.eta2
        recomputed = max(provider.relatedness(t, odd) for t in theme_a.words)
        assert recomputed == puzzle.sigma

    def test_deterministic_for_same_rng_seed(self, provider, theme_a):
        band = midband(provider, theme_a)
        p1 = odd_one_out(theme_a, provider, band, VOCAB, np.random.default_rng(7))
        p2 = odd_one_out(theme_a, provider, band, VOCAB, np.random.default_rng(7))
        assert p1 == p2

    def test_exhausted_when_band_unreachable(self, provider, theme_a):
        band = DifficultyBand(0.97, 0.99)
        result = odd_one_out(
            theme_a, provider, band, VOCAB, np.random.default_rng(0), max_attempts=64
        )
        assert result == Exhausted(ODD_ONE_OUT, (0,), 64)

    def test_set_members_never_odd(self, provider, theme_a):
        # members have sigma 1 > eta2, and are skipped before scoring anyway
        band = DifficultyBand(0.0001, 0.9999)
        for seed in range(20):
            result = odd_one_out(
                theme_a, provider, band, VOCAB, np.random.default_rng(seed)
            )
            if isinstance(result, Puzzle):
                assert result.words[result.solution] not in theme_a.words

    def test_unindexed_words_skipped(self, provider, theme_a):
        band = midband(provider, theme_a)
        vocab = VOCAB + ["ghost"]
        for seed in range(10):
            result = odd_one_out(
                theme_a, provider, band, vocab, np.random.default_rng(seed)
            )
            if isinstance(result, Puzzle):
                assert result.words[result.solution] != "ghost"

    def test_acceptance_region_shrinks_as_eta1_rises(self, provider, theme_a):
        candidates = [w for w in VOCAB if w not in theme_a.words]
        sigmas = {
            w: max(provider.relatedness(t, w) for t in theme_a.words)
            for w in candidates
        }
        eta2 = 0.9
        accepted_loose = {
            w for w, s in sigmas.items() if DifficultyBand(0.01, eta2).contains(s)
        }
        accepted_tight = {
            w for w, s in sigmas.items() if DifficultyBand(0.08, eta2).contains(s)
        }
        assert accepted_tight <= accepted_loose

    @pytest.mark.parametrize("attempts", [0, -3])
    def test_max_attempts_below_1_forbidden(self, provider, theme_a, attempts):
        with pytest.raises(ValueError, match="max_attempts"):
            odd_one_out(
                theme_a, provider, midband(provider, theme_a), VOCAB,
                np.random.default_rng(0), max_attempts=attempts,
            )

    def test_default_max_attempts_formula(self):
        assert default_max_attempts(100) == 100
        assert default_max_attempts(10_000) == 1000
        assert default_max_attempts(10**9) == 5000


class TestGenChooseRelated:
    def test_membership_contract(self, provider, theme_a):
        band = midband(provider, theme_a)
        rng = np.random.default_rng(4)
        puzzle = choose_related(theme_a, provider, band, 2, VOCAB, rng, seed=4)
        assert isinstance(puzzle, Puzzle)
        answer = puzzle.words[puzzle.solution]
        assert answer in theme_a.words
        assert set(puzzle.stem) | {answer} == set(theme_a.words)
        for pos, word in enumerate(puzzle.words):
            if pos == puzzle.solution:
                continue
            assert word not in theme_a.words
            sigma = max(provider.relatedness(t, word) for t in puzzle.stem)
            assert band.contains(sigma)

    def test_zero_distractors_forbidden(self, provider, theme_a):
        with pytest.raises(ValueError, match="n_distractors"):
            choose_related(
                theme_a, provider, DifficultyBand(0.1, 0.2), 0, VOCAB,
                np.random.default_rng(0),
            )

    def test_small_set_rejected(self, provider):
        tiny = ConsistentSet(0, (0, 1), ("avote", "aelect"), 0.5, 0.1)
        result = choose_related(
            tiny, provider, DifficultyBand(0.1, 0.2), 1, VOCAB, np.random.default_rng(0)
        )
        assert result == Rejected(CHOOSE_RELATED, (0,), "fewer than 3 words")

    @pytest.mark.parametrize("attempts", [0, -3])
    def test_max_attempts_below_1_forbidden(self, provider, theme_a, attempts):
        with pytest.raises(ValueError, match="max_attempts"):
            choose_related(
                theme_a, provider, midband(provider, theme_a), 2, VOCAB,
                np.random.default_rng(0), max_attempts=attempts,
            )

    def test_exhausted_when_not_enough_distractors(self, provider, theme_a):
        band = midband(provider, theme_a)
        # only two midband words exist, so three distractors must fail
        result = choose_related(
            theme_a, provider, band, 3, VOCAB, np.random.default_rng(0),
            max_attempts=300,
        )
        assert result == Exhausted(CHOOSE_RELATED, (0,), 300)


class TestEarlyExhaustion:
    """A task whose band holds too few eligible words exhausts before its
    first rejection draw, reporting the full budget; one whose band holds
    exactly enough still finds them."""

    UNREACHABLE = DifficultyBand(0.97, 0.99)

    def test_odd_one_out_draws_nothing(self, provider, theme_a):
        rng, fresh = np.random.default_rng(0), np.random.default_rng(0)
        result = odd_one_out(
            theme_a, provider, self.UNREACHABLE, VOCAB, rng, max_attempts=64
        )
        assert result == Exhausted(ODD_ONE_OUT, (0,), 64)
        assert rng.bit_generator.state == fresh.bit_generator.state

    def test_choose_related_draws_only_the_answer(self, provider, theme_a):
        rng, twin = np.random.default_rng(0), np.random.default_rng(0)
        twin.integers(0, len(theme_a.words))  # the held-out answer
        result = choose_related(
            theme_a, provider, self.UNREACHABLE, 2, VOCAB, rng, max_attempts=300
        )
        assert result == Exhausted(CHOOSE_RELATED, (0,), 300)
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_bank_reports_the_budget(self, provider, theme_a, theme_b):
        _, skipped = generate_puzzle_bank(
            [theme_a, theme_b], provider, VOCAB, self.UNREACHABLE,
            kinds=(ODD_ONE_OUT, CHOOSE_RELATED), max_attempts=77,
        )
        assert skipped == [
            Exhausted(kind, (topic,), 77)
            for kind in (ODD_ONE_OUT, CHOOSE_RELATED) for topic in (0, 1)
        ]

    def test_band_of_exactly_one_word_found(self, provider, theme_a):
        sigma = max(provider.relatedness(t, "bridgeone") for t in theme_a.words)
        other = max(provider.relatedness(t, "bridgetwo") for t in theme_a.words)
        assert abs(other - sigma) > 0.01 * sigma
        band = DifficultyBand(sigma * 0.99, sigma * 1.01)
        puzzle = odd_one_out(
            theme_a, provider, band, VOCAB, np.random.default_rng(2), max_attempts=500
        )
        assert puzzle.words[puzzle.solution] == "bridgeone"
        assert puzzle.sigma == sigma

    def test_band_of_exactly_n_words_found(self, provider, theme_a):
        # the two bridge words are the only midband words
        band = midband(provider, theme_a)
        for seed in range(5):
            puzzle = choose_related(
                theme_a, provider, band, 2, VOCAB, np.random.default_rng(seed),
                max_attempts=500,
            )
            distractors = set(puzzle.words) - {puzzle.words[puzzle.solution]}
            assert distractors == {"bridgeone", "bridgetwo"}


class TestGenSeparateTopics:
    def test_accepts_weakly_related_pair(self, provider, theme_a, theme_b):
        rng = np.random.default_rng(5)
        puzzle = separate_topics(theme_a, theme_b, provider, 0.5, rng, seed=5)
        assert isinstance(puzzle, Puzzle)
        group_b = {
            w for p, w in enumerate(puzzle.words) if puzzle.solution >> p & 1
        }
        assert group_b == set(theme_b.words)
        assert set(puzzle.words) - group_b == set(theme_a.words)
        assert puzzle.sigma < 0.5

    def test_overlapping_sets_rejected(self, provider, theme_a):
        result = separate_topics(
            theme_a, theme_a, provider, 0.5, np.random.default_rng(0)
        )
        assert isinstance(result, Rejected)
        assert "share" in result.reason

    def test_zero_cross_accepted_for_any_positive_cap(self, provider):
        left = ConsistentSet(0, (10,), ("orphanone",), 0.9, 0.0)
        right = ConsistentSet(1, (11,), ("orphantwo",), 0.9, 0.0)
        puzzle = separate_topics(
            left, right, provider, 1e-6, np.random.default_rng(0)
        )
        assert isinstance(puzzle, Puzzle)
        assert puzzle.sigma == 0.0

    def test_injected_high_cross_pair_rejected(self, provider, theme_a, theme_b):
        # vectors constructed so one cross pair exceeds the cap
        vectors = block_vectors()
        shared = (np.array([0, 1, 2, 3]), np.array([4.0, 3.0, 2.0, 1.0]))
        vectors["bwand"] = shared  # now nearly collinear with 'avote'
        tampered = SimilarityProvider(hand_index(vectors, n_concepts=12))
        cross = max(
            tampered.relatedness(u, v)
            for u in theme_a.words
            for v in theme_b.words
        )
        assert cross > 0.9
        result = separate_topics(
            theme_a, theme_b, tampered, 0.5, np.random.default_rng(0)
        )
        assert isinstance(result, Rejected)
        assert "cross relatedness" in result.reason


class TestPuzzleBank:
    def bank(self, provider, theme_a, theme_b, seed=0):
        band = DifficultyBand(0.02, 0.5, "test")
        return generate_puzzle_bank(
            [theme_a, theme_b],
            provider,
            VOCAB,
            band,
            master_seed=seed,
            n_distractors=1,
            eta2_cross=0.5,
        )

    def test_deterministic_bank(self, provider, theme_a, theme_b, tmp_path):
        bank1, _ = self.bank(provider, theme_a, theme_b)
        bank2, _ = self.bank(provider, theme_a, theme_b)
        assert bank1 == bank2
        p1, p2 = tmp_path / "b1.jsonl", tmp_path / "b2.jsonl"
        save_puzzle_bank(bank1, p1)
        save_puzzle_bank(bank2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_different_master_seed_changes_bank(self, provider, theme_a, theme_b):
        bank1, _ = self.bank(provider, theme_a, theme_b, seed=0)
        bank2, _ = self.bank(provider, theme_a, theme_b, seed=1)
        assert bank1 != bank2

    def test_all_puzzles_verify(self, provider, theme_a, theme_b):
        bank, skipped = self.bank(provider, theme_a, theme_b)
        assert bank, "expected at least one emitted puzzle"
        sets_by_topic = {0: theme_a, 1: theme_b}
        for puzzle in bank:
            assert verify_puzzle(puzzle, provider, sets_by_topic) == []

    def test_verifier_catches_tampered_solution(self, provider, theme_a, theme_b):
        bank, _ = self.bank(provider, theme_a, theme_b)
        puzzle = next(p for p in bank if p.kind == ODD_ONE_OUT)
        tampered = Puzzle(
            kind=puzzle.kind,
            words=puzzle.words,
            solution=(puzzle.solution + 1) % len(puzzle.words),
            band=puzzle.band,
            sigma=puzzle.sigma,
            source_topics=puzzle.source_topics,
            seed=puzzle.seed,
            permutation=puzzle.permutation,
        )
        problems = verify_puzzle(tampered, provider, {0: theme_a, 1: theme_b})
        assert problems

    def test_round_trip_jsonl(self, provider, theme_a, theme_b, tmp_path):
        bank, _ = self.bank(provider, theme_a, theme_b)
        path = tmp_path / "bank.jsonl"
        save_puzzle_bank(bank, path)
        assert load_puzzle_bank(path) == bank

    def test_round_trip_public_bank(self, provider, theme_a, theme_b, tmp_path):
        bank, _ = self.bank(provider, theme_a, theme_b)
        path = tmp_path / "public.jsonl"
        save_puzzle_bank(bank, path, include_solutions=False)
        public = [replace(p, solution=None, permutation=()) for p in bank]
        assert load_puzzle_bank(path) == public

    @pytest.mark.parametrize("change,message", [
        ({"kind": "riddle"}, "unknown puzzle kind"),
        ({"words": ["a", 1]}, "words and stem must be lists of str"),
        ({"stem": "ab"}, "words and stem must be lists of str"),
        ({"band": {"name": "x", "eta1": "low", "eta2": 0.5}}, "band must hold"),
        ({"band": {"name": "x", "eta1": 0.6, "eta2": 0.5}}, "band requires"),
        ({"sigma": None}, "sigma must be a finite number"),
        ({"source_topics": [0, True]}, "source_topics must be a list of int"),
        ({"seed": 1.5}, "seed must be an int or null"),
        ({"solution": "0"}, "solution and permutation"),
        ({"permutation": [0]}, "permutation must hold each word position once"),
        ({"solution": None, "permutation": None}, "solution and permutation"),
    ])
    def test_mistyped_record_rejected_naming_line(
        self, provider, theme_a, theme_b, tmp_path, change, message
    ):
        bank, _ = self.bank(provider, theme_a, theme_b)
        path = tmp_path / "bank.jsonl"
        save_puzzle_bank(bank[:2], path)
        first, second = path.read_text().splitlines()
        path.write_text(first + "\n" + json.dumps({**json.loads(second), **change}) + "\n")
        with pytest.raises(ValueError, match=f"line 2: .*{message}"):
            load_puzzle_bank(path)

    @pytest.mark.parametrize("case", BANK_CORRUPTIONS)
    def test_unusable_puzzle_rejected_naming_line(
        self, provider, theme_a, theme_b, tmp_path, case
    ):
        """Each of these once loaded, and ``resolve_solution`` or
        ``verify_puzzle`` then raised IndexError."""
        kind, edit = BANK_CORRUPTIONS[case]
        bank, _ = self.bank(provider, theme_a, theme_b)
        record = puzzle_record(next(p for p in bank if p.kind == kind))
        path = tmp_path / "bank.jsonl"
        path.write_text(json.dumps(record) + "\n")
        assert len(load_puzzle_bank(path)) == 1
        path.write_text(json.dumps({**record, **edit(record, random.Random(case))}) + "\n")
        with pytest.raises(CorpusFormatError, match=f"{path} line 1: "):
            load_puzzle_bank(path)

    @pytest.mark.parametrize("case", SHAPE_EDITS)
    def test_shape_no_kind_can_have_raises_when_built(
        self, provider, theme_a, theme_b, case
    ):
        """A solution of 9 on 5 words, and a separate-topics puzzle with one
        source topic, once built and made ``verify_puzzle`` raise
        IndexError."""
        kind, edit = SHAPE_EDITS[case]
        bank, _ = self.bank(provider, theme_a, theme_b)
        puzzle = next(p for p in bank if p.kind == kind)
        sizes = {ODD_ONE_OUT: 5, CHOOSE_RELATED: 2, SEPARATE_TOPICS: 8}
        assert len(puzzle.words) == sizes[kind]
        with pytest.raises(ValueError):
            replace(puzzle, **edit(puzzle))

    def test_in_range_tampering_is_reported_not_raised(self, provider, theme_a, theme_b):
        """A moved solution, a reshuffled permutation or a source topic the
        sets lack (topic 2) keeps the puzzle's shape: ``verify_puzzle``
        returns a list, with a problem whenever the solution moved or a
        topic is missing."""
        bank, _ = self.bank(provider, theme_a, theme_b)
        sets_by_topic = {0: theme_a, 1: theme_b}
        rng = random.Random(23)
        for puzzle in bank:
            n = len(puzzle.words)
            for _ in range(30):
                if puzzle.kind == SEPARATE_TOPICS:
                    solution = rng.randrange(1, (1 << n) - 1)
                else:
                    solution = rng.randrange(n)
                topics = tuple(rng.choices((0, 1, 2), k=len(puzzle.source_topics)))
                edits = [
                    {"solution": solution},
                    {"permutation": tuple(rng.sample(range(n), n))},
                    {"source_topics": topics},
                ]
                edits.append({k: v for edit in edits for k, v in edit.items()})
                for edit in edits:
                    tampered = replace(puzzle, **edit)
                    problems = verify_puzzle(tampered, provider, sets_by_topic)
                    assert isinstance(problems, list)
                    if edit.get("solution", puzzle.solution) != puzzle.solution:
                        assert problems
                    if 2 in edit.get("source_topics", ()):
                        assert "source topic 2 has no set" in problems

    def test_missing_field_and_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bank.jsonl"
        path.write_text('{"kind": "odd-one-out"}\n')
        with pytest.raises(ValueError, match="line 1: missing key"):
            load_puzzle_bank(path)
        path.write_text("\n[1, 2\n")
        with pytest.raises(ValueError, match="line 2: invalid JSON"):
            load_puzzle_bank(path)

    def test_verify_without_solution_is_one_problem(
        self, provider, theme_a, theme_b, tmp_path
    ):
        """A puzzle of a bank saved without solutions once raised TypeError."""
        bank, _ = self.bank(provider, theme_a, theme_b)
        path = tmp_path / "public.jsonl"
        save_puzzle_bank(bank, path, include_solutions=False)
        for puzzle in load_puzzle_bank(path):
            assert verify_puzzle(puzzle, provider, {0: theme_a, 1: theme_b}) == [
                "puzzle has no solution: it was saved without solutions"
            ]

    def test_verify_reports_missing_source_set(self, provider, theme_a, theme_b):
        """A source topic missing from ``sets_by_topic`` once raised KeyError."""
        bank, _ = self.bank(provider, theme_a, theme_b)
        for puzzle in bank:
            assert verify_puzzle(puzzle, provider, {}) == [
                f"source topic {topic} has no set" for topic in puzzle.source_topics
            ]
            moved = replace(puzzle, source_topics=(5,) * len(puzzle.source_topics))
            assert verify_puzzle(moved, provider, {0: theme_a, 1: theme_b})[-1] == (
                "source topic 5 has no set"
            )
        separate = next(p for p in bank if p.kind == SEPARATE_TOPICS)
        assert verify_puzzle(separate, provider, {0: theme_a}) == [
            "source topic 1 has no set"
        ]

    def test_no_solutions_file_withholds_fields(self, provider, theme_a, theme_b, tmp_path):
        bank, _ = self.bank(provider, theme_a, theme_b)
        path = tmp_path / "public.jsonl"
        save_puzzle_bank(bank, path, include_solutions=False)
        for line in path.read_text().splitlines():
            record = json.loads(line)
            assert "solution" not in record
            assert "permutation" not in record

    def test_derive_seed_stable_and_distinct(self):
        assert derive_seed(0, "odd:1") == derive_seed(0, "odd:1")
        assert derive_seed(0, "odd:1") != derive_seed(0, "odd:2")
        assert derive_seed(0, "odd:1") != derive_seed(1, "odd:1")
