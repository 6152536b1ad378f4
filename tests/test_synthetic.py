import numpy as np
import pytest
from oracles import scalar_planted_topic_corpus

from topicpuzzles import synthetic
from topicpuzzles.synthetic import planted_topic_corpus, planted_vocabulary

# (n_topics, words_per_topic, n_docs, tokens_per_doc, seed, background_fraction)
# -> whether the bulk draw reproduces the scalar loop (False: the loop runs)
SHAPES = {
    "no-background": ((8, 10, 400, 50, 0, 0.0), True),
    "background": ((8, 10, 400, 50, 3, 0.15), True),
    "odd-tokens": ((3, 4, 31, 7, 5, 0.15), True),
    "odd-tokens-no-background": ((3, 4, 31, 7, 5, 0.0), True),
    "one-word-per-topic": ((3, 1, 31, 7, 5, 0.3), False),
    "one-word-per-topic-no-background": ((3, 1, 31, 7, 5, 0.0), True),
    "one-topic": ((1, 5, 11, 9, 2, 0.5), True),
    "lda-chain-shape": ((20, 20, 2000, 50, 11, 0.15), True),
    "26x26": ((26, 26, 400, 50, 4, 0.15), True),
    # token 1358's integer draw is rejected and drawn again (at seeds 724 and
    # 863, tokens 14243 and 13328)
    "lemire-rejection": ((26, 26, 400, 50, 514, 0.9), False),
}


@pytest.mark.parametrize("shape,bulk", SHAPES.values(), ids=SHAPES.keys())
def test_same_corpus_as_scalar_loop(shape, bulk):
    *counts, seed, background = shape
    assert planted_topic_corpus(*counts, seed=seed, background_fraction=background) \
        == scalar_planted_topic_corpus(*counts, seed=seed, background_fraction=background)
    index = synthetic._bulk_indices(np.random.default_rng(seed), *counts, background)
    assert (index is not None) == bulk


@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937])
@pytest.mark.parametrize("buffered", [False, True])
@pytest.mark.parametrize("shape,seed,background", [
    ((4, 5, 30, 9), 9, 0.0), ((4, 5, 30, 9), 9, 0.2), ((4, 5, 31, 9), 9, 0.2),
    ((26, 26, 400, 50), 514, 0.9),
], ids=["no-background", "even-tokens", "odd-tokens", "lemire-rejection"])
def test_generator_seed_same_corpus_and_stream(bit_generator, buffered, shape, seed,
                                               background):
    """A generator passed as the seed gives the loop's corpus and is left
    where the loop leaves it, a buffered 32-bit half included."""
    ours, loops = (np.random.Generator(bit_generator(seed)) for _ in range(2))
    if buffered:
        ours.integers(0, 5)
        loops.integers(0, 5)
    assert planted_topic_corpus(*shape, seed=ours, background_fraction=background) \
        == scalar_planted_topic_corpus(*shape, seed=loops, background_fraction=background)
    assert ours.integers(0, 7, size=5).tolist() == loops.integers(0, 7, size=5).tolist()
    assert ours.random() == loops.random()


@pytest.mark.parametrize("name,value", [
    ("n_topics", 0), ("words_per_topic", 0), ("n_docs", 0), ("n_docs", -3),
    ("tokens_per_doc", 0), ("tokens_per_doc", 2.0), ("n_docs", True), ("n_topics", "4"),
])
def test_counts_must_be_positive_ints(name, value):
    with pytest.raises(ValueError, match=f"{name} must be a positive int"):
        planted_topic_corpus(**{name: value})


@pytest.mark.parametrize("name,value", [
    ("n_topics", 0), ("n_topics", -2), ("words_per_topic", 0), ("words_per_topic", -1),
    ("n_topics", True), ("words_per_topic", 3.0), ("n_topics", "4"),
])
def test_vocabulary_counts_must_be_positive_ints(name, value):
    with pytest.raises(ValueError, match=f"{name} must be a positive int"):
        planted_vocabulary(**{name: value})
