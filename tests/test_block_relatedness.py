"""The block rows that ``extract-sets`` and ``generate`` share give the
records, order, kept sets and scores of the per-set and per-task loops
they replaced (frozen in ``tests/oracles.py``), at every block size."""

import pytest
from oracles import per_set_consistent_sets, per_task_puzzle_bank

from topicpuzzles import esa
from topicpuzzles.consistency import ConsistentSet, identify_consistent_sets
from topicpuzzles.esa import SimilarityProvider, build_esa_index
from topicpuzzles.puzzles import (
    BAND_PRESETS,
    CHOOSE_RELATED,
    KINDS,
    ODD_ONE_OUT,
    SEPARATE_TOPICS,
    DifficultyBand,
    Exhausted,
    generate_puzzle_bank,
    puzzle_record,
)
from topicpuzzles.topic_models import extract_top_k, lsa_fit

BANDS = {
    **BAND_PRESETS,
    "wide": DifficultyBand(0.001, 0.9, "wide"),
    "unreachable": DifficultyBand(0.97, 0.99, "unreachable"),
}


@pytest.fixture(params=[None, 1, 3], ids=["block-64", "block-1", "block-3"])
def block_rows(request, monkeypatch):
    """Rows per block product: the module's own, or 1 and 3, so that
    block boundaries fall inside sets."""
    if request.param is not None:
        monkeypatch.setattr(esa, "_CHUNK_ROWS", request.param)


@pytest.fixture(scope="module")
def planted_run(planted_mixed):
    """(index, model vocabulary, candidate sets) of an LSA run on the
    planted corpus with background words, indexed over its own documents."""
    docs, _, vocab, dtm = planted_mixed
    return build_esa_index(docs), list(vocab.words), extract_top_k(lsa_fit(dtm, 8, seed=0), 5)


@pytest.fixture(scope="module")
def bank_sets(planted_run):
    """The sets kept at delta 0, then sets sharing words with them (one
    with a word the index lacks), an odd count so the last set is
    unpaired."""
    index, vocab, candidates = planted_run
    kept = per_set_consistent_sets(candidates, SimilarityProvider(index, vocabulary=vocab), 0.0)
    first, second = kept[0].words, kept[1].words
    extra = [
        ConsistentSet(100, (), first[:2] + second[:2], 0.5, 0.0),
        ConsistentSet(101, (), second[1:4] + ("ghost",), 0.5, 0.0),
        ConsistentSet(102, (), first[2:] + second[4:], 0.5, 0.0),
    ]
    sets = kept + extra
    return sets if len(sets) % 2 else sets + [ConsistentSet(103, (), first, 0.5, 0.0)]


@pytest.mark.usefixtures("block_rows")
@pytest.mark.parametrize("delta", [0.0, 0.05, 0.2])
def test_consistent_sets_match_per_set_loop(planted_run, delta):
    index, vocab, candidates = planted_run
    expected = per_set_consistent_sets(
        candidates, SimilarityProvider(index, vocabulary=vocab), delta
    )
    assert expected, "the planted topics should give consistent sets"
    assert identify_consistent_sets(candidates, SimilarityProvider(index), delta) == expected


def run_both(planted_run, sets, band, **settings):
    index = planted_run[0]
    vocab = index.words() + ["ghost"]
    new = generate_puzzle_bank(sets, SimilarityProvider(index), vocab, band, **settings)
    old = per_task_puzzle_bank(sets, SimilarityProvider(index), vocab, band, **settings)
    return new, old


@pytest.mark.usefixtures("block_rows")
@pytest.mark.parametrize("master_seed", [0, 1, 7])
@pytest.mark.parametrize("band", BANDS.values(), ids=BANDS.keys())
def test_bank_matches_per_task_loop(planted_run, bank_sets, band, master_seed):
    (bank, skipped), (expected, expected_skipped) = run_both(
        planted_run, bank_sets, band, master_seed=master_seed
    )
    assert [puzzle_record(p) for p in bank] == [puzzle_record(p) for p in expected]
    assert skipped == expected_skipped
    if band.name == "unreachable":
        exhausted = [s for s in skipped if isinstance(s, Exhausted)]
        assert {s.kind for s in exhausted} == {ODD_ONE_OUT, CHOOSE_RELATED}
        assert all(s.attempts == exhausted[0].attempts > 1 for s in exhausted)
    elif band.name != "beginner":  # sets here relate above 0.02 to most words
        assert bank


@pytest.mark.usefixtures("block_rows")
@pytest.mark.parametrize("kinds", [
    KINDS, KINDS[::-1], (SEPARATE_TOPICS,), (CHOOSE_RELATED, ODD_ONE_OUT, CHOOSE_RELATED),
], ids=["all", "reversed", "separate-only", "repeated"])
@pytest.mark.parametrize("n_distractors", [1, 3])
def test_bank_keeps_kind_order(planted_run, bank_sets, kinds, n_distractors):
    (bank, skipped), (expected, expected_skipped) = run_both(
        planted_run, bank_sets, BANDS["wide"], kinds=kinds, n_distractors=n_distractors,
        eta2_cross=0.3, max_attempts=40,
    )
    assert [puzzle_record(p) for p in bank] == [puzzle_record(p) for p in expected]
    assert skipped == expected_skipped
