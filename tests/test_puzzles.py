from dataclasses import replace

import numpy as np
import pytest
from conftest import hand_index

from topicpuzzles.consistency import ConsistentSet
from topicpuzzles.esa import SimilarityProvider
from topicpuzzles.puzzles import (
    BAND_PRESETS,
    CHOOSE_RELATED,
    ODD_ONE_OUT,
    SEPARATE_TOPICS,
    DifficultyBand,
    Exhausted,
    Puzzle,
    Rejected,
    default_max_attempts,
    derive_seed,
    fisher_yates,
    gen_choose_related,
    gen_odd_one_out,
    gen_separate_topics,
    generate_puzzle_bank,
    load_puzzle_bank,
    resolve_solution,
    save_puzzle_bank,
    shuffle_and_render,
    verify_puzzle,
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


class TestShuffleAndRender:
    def test_deterministic_under_seed(self):
        words = ["a", "b", "c", "d", "e"]
        r1 = shuffle_and_render(words, 2, ODD_ONE_OUT, np.random.default_rng(5))
        r2 = shuffle_and_render(words, 2, ODD_ONE_OUT, np.random.default_rng(5))
        assert r1 == r2

    def test_round_trip_index_solution(self):
        rng = np.random.default_rng(0)
        for trial in range(50):
            n = int(rng.integers(2, 9))
            words = [f"w{i}" for i in range(n)]
            solution = int(rng.integers(0, n))
            presented, remapped, perm = shuffle_and_render(
                words, solution, ODD_ONE_OUT, rng
            )
            puzzle = Puzzle(
                kind=ODD_ONE_OUT,
                words=tuple(presented),
                solution=remapped,
                band=DifficultyBand(0.1, 0.2),
                sigma=0.15,
                source_topics=(0,),
                permutation=perm,
            )
            assert resolve_solution(puzzle) == solution
            assert presented[remapped] == words[solution]

    def test_round_trip_bitmask_solution(self):
        rng = np.random.default_rng(1)
        for trial in range(50):
            n = int(rng.integers(2, 10))
            words = [f"w{i}" for i in range(n)]
            mask = int(rng.integers(0, 1 << n))
            presented, remapped, perm = shuffle_and_render(
                words, mask, SEPARATE_TOPICS, rng
            )
            puzzle = Puzzle(
                kind=SEPARATE_TOPICS,
                words=tuple(presented),
                solution=remapped,
                band=DifficultyBand(0.0, 0.5),
                sigma=0.1,
                source_topics=(0, 1),
                permutation=perm,
            )
            assert resolve_solution(puzzle) == mask
            marked = {presented[p] for p in range(n) if remapped >> p & 1}
            expected = {words[i] for i in range(n) if mask >> i & 1}
            assert marked == expected

    def test_permutation_is_bijection(self):
        rng = np.random.default_rng(2)
        for n in (1, 2, 5, 12):
            perm = fisher_yates(n, rng)
            assert sorted(perm) == list(range(n))


class TestGenOddOneOut:
    def test_emits_sound_puzzle(self, provider, theme_a):
        band = midband(provider, theme_a)
        rng = np.random.default_rng(3)
        puzzle = gen_odd_one_out(theme_a, provider, band, VOCAB, rng, seed=3)
        assert isinstance(puzzle, Puzzle)
        odd = puzzle.words[puzzle.solution]
        assert odd in ("bridgeone", "bridgetwo")
        assert sorted(puzzle.words) == sorted(theme_a.words + (odd,))
        assert band.eta1 < puzzle.sigma < band.eta2
        recomputed = max(provider.relatedness(t, odd) for t in theme_a.words)
        assert recomputed == puzzle.sigma

    def test_deterministic_for_same_rng_seed(self, provider, theme_a):
        band = midband(provider, theme_a)
        p1 = gen_odd_one_out(theme_a, provider, band, VOCAB, np.random.default_rng(7))
        p2 = gen_odd_one_out(theme_a, provider, band, VOCAB, np.random.default_rng(7))
        assert p1 == p2

    def test_exhausted_when_band_unreachable(self, provider, theme_a):
        band = DifficultyBand(0.97, 0.99)
        result = gen_odd_one_out(
            theme_a, provider, band, VOCAB, np.random.default_rng(0), max_attempts=64
        )
        assert result == Exhausted(ODD_ONE_OUT, (0,), 64)

    def test_set_members_never_odd(self, provider, theme_a):
        # members have sigma 1 > eta2, and are skipped before scoring anyway
        band = DifficultyBand(0.0001, 0.9999)
        for seed in range(20):
            result = gen_odd_one_out(
                theme_a, provider, band, VOCAB, np.random.default_rng(seed)
            )
            if isinstance(result, Puzzle):
                assert result.words[result.solution] not in theme_a.words

    def test_unindexed_words_skipped(self, provider, theme_a):
        band = midband(provider, theme_a)
        vocab = VOCAB + ["ghost"]
        for seed in range(10):
            result = gen_odd_one_out(
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
            gen_odd_one_out(
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
        puzzle = gen_choose_related(theme_a, provider, band, 2, VOCAB, rng, seed=4)
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
            gen_choose_related(
                theme_a, provider, DifficultyBand(0.1, 0.2), 0, VOCAB,
                np.random.default_rng(0),
            )

    def test_small_set_forbidden(self, provider):
        tiny = ConsistentSet(0, (0, 1), ("avote", "aelect"), 0.5, 0.1)
        with pytest.raises(ValueError, match=">= 3"):
            gen_choose_related(
                tiny, provider, DifficultyBand(0.1, 0.2), 1, VOCAB,
                np.random.default_rng(0),
            )

    @pytest.mark.parametrize("attempts", [0, -3])
    def test_max_attempts_below_1_forbidden(self, provider, theme_a, attempts):
        with pytest.raises(ValueError, match="max_attempts"):
            gen_choose_related(
                theme_a, provider, midband(provider, theme_a), 2, VOCAB,
                np.random.default_rng(0), max_attempts=attempts,
            )

    def test_exhausted_when_not_enough_distractors(self, provider, theme_a):
        band = midband(provider, theme_a)
        # only two midband words exist, so three distractors must fail
        result = gen_choose_related(
            theme_a, provider, band, 3, VOCAB, np.random.default_rng(0),
            max_attempts=300,
        )
        assert result == Exhausted(CHOOSE_RELATED, (0,), 300)


class TestGenSeparateTopics:
    def test_accepts_weakly_related_pair(self, provider, theme_a, theme_b):
        rng = np.random.default_rng(5)
        puzzle = gen_separate_topics(theme_a, theme_b, provider, 0.5, rng, seed=5)
        assert isinstance(puzzle, Puzzle)
        group_b = {
            w for p, w in enumerate(puzzle.words) if puzzle.solution >> p & 1
        }
        assert group_b == set(theme_b.words)
        assert set(puzzle.words) - group_b == set(theme_a.words)
        assert puzzle.sigma < 0.5

    def test_overlapping_sets_rejected(self, provider, theme_a):
        result = gen_separate_topics(
            theme_a, theme_a, provider, 0.5, np.random.default_rng(0)
        )
        assert isinstance(result, Rejected)
        assert "share" in result.reason

    def test_zero_cross_accepted_for_any_positive_cap(self, provider):
        left = ConsistentSet(0, (10,), ("orphanone",), 0.9, 0.0)
        right = ConsistentSet(1, (11,), ("orphantwo",), 0.9, 0.0)
        puzzle = gen_separate_topics(
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
        result = gen_separate_topics(
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
        ({"permutation": [0]}, "solution and permutation"),
        ({"solution": None, "permutation": None}, "solution and permutation"),
    ])
    def test_mistyped_record_rejected_naming_line(
        self, provider, theme_a, theme_b, tmp_path, change, message
    ):
        import json

        bank, _ = self.bank(provider, theme_a, theme_b)
        path = tmp_path / "bank.jsonl"
        save_puzzle_bank(bank[:2], path)
        first, second = path.read_text().splitlines()
        path.write_text(first + "\n" + json.dumps({**json.loads(second), **change}) + "\n")
        with pytest.raises(ValueError, match=f"line 2: .*{message}"):
            load_puzzle_bank(path)

    def test_missing_field_and_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bank.jsonl"
        path.write_text('{"kind": "odd-one-out"}\n')
        with pytest.raises(ValueError, match="line 1: missing key"):
            load_puzzle_bank(path)
        path.write_text("\n[1, 2\n")
        with pytest.raises(ValueError, match="line 2: invalid JSON"):
            load_puzzle_bank(path)

    def test_no_solutions_file_withholds_fields(self, provider, theme_a, theme_b, tmp_path):
        import json

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
