"""Synthetic corpora with planted topic structure, for desk-scale
experiments and pipeline verification. The generator knows the ground
truth, so planted-topic recovery can be checked exactly."""

from __future__ import annotations

import numbers
import string

import numpy as np

from .corpus import Document


def _check_counts(**counts):
    for name, value in counts.items():
        if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < 1:
            raise ValueError(f"{name} must be a positive int")


def planted_vocabulary(n_topics=8, words_per_topic=10):
    """Disjoint per-topic lists of four-letter words like 'aabb' that pass
    the default tokenizer; ValueError unless both counts are ints in 1..26."""
    _check_counts(n_topics=n_topics, words_per_topic=words_per_topic)
    if n_topics > 26 or words_per_topic > 26:
        raise ValueError("at most 26 topics and 26 words per topic")
    letters = string.ascii_lowercase
    return [[a * 2 + b * 2 for b in letters[:words_per_topic]] for a in letters[:n_topics]]


def planted_topic_corpus(
    n_topics=8,
    words_per_topic=10,
    n_docs=400,
    tokens_per_doc=50,
    seed=0,
    background_fraction=0.0,
):
    """Documents drawn from a single planted topic each (topics cycle over
    documents). With background_fraction > 0, that fraction of tokens is
    drawn uniformly from the full vocabulary instead, which gives word
    pairs from different topics small but nonzero co-occurrence.

    Tokens come from ``default_rng(seed)`` as ``_scalar_indices`` draws them;
    ``_bulk_indices`` makes the same draws at once where it can.

    Returns (documents, per-topic word lists). ValueError unless the four
    counts are positive ints and background_fraction is in [0, 1).
    """
    topics = planted_vocabulary(n_topics, words_per_topic)
    _check_counts(n_docs=n_docs, tokens_per_doc=tokens_per_doc)
    if not 0.0 <= background_fraction < 1.0:
        raise ValueError("background_fraction must be in [0, 1)")
    rng = np.random.default_rng(seed)
    start = rng.bit_generator.state
    shape = (n_topics, words_per_topic, n_docs, tokens_per_doc, background_fraction)
    index = _bulk_indices(rng, *shape)
    if index is None:
        rng.bit_generator.state = start
        index = _scalar_indices(rng, *shape)
    words = np.array([w for topic in topics for w in topic], dtype=object)[index]
    texts = (" ".join(row) for row in words.reshape(n_docs, tokens_per_doc).tolist())
    return [Document(id=f"doc{j:04d}", text=text) for j, text in enumerate(texts)], topics


def _scalar_indices(rng, n_topics, n_words, n_docs, tokens_per_doc, background_fraction):
    """Each token's index into the whole vocabulary, drawn token by token:
    the exact path for every input."""
    index = []
    for j in range(n_docs):
        for _ in range(tokens_per_doc):
            if background_fraction > 0.0 and rng.random() < background_fraction:
                index.append(int(rng.integers(0, n_topics * n_words)))
            else:
                index.append(j % n_topics * n_words + int(rng.integers(0, n_words)))
    return index


def _bulk_indices(rng, n_topics, n_words, n_docs, tokens_per_doc, background_fraction):
    """The indices of ``_scalar_indices`` from one bulk draw, or None where
    the bulk draw cannot reproduce them.

    ``rng.random()`` takes one 64-bit word w and returns (w >> 11) * 2**-53.
    ``rng.integers(0, n)`` takes one 32-bit half u, served low half first
    from a word whose high half stays buffered for the next call (which
    ``random()`` leaves alone), and returns (u * n) >> 32 (Lemire 2019),
    unless (u * n) mod 2**32 < 2**32 mod n rejects u and draws again; with
    n == 1 it takes nothing. So with a background, from a PCG64 with no
    half buffered, token pair p reads its doubles from words 3p and 3p + 2
    and its integers from the halves of word 3p + 1, as long as no draw is
    rejected and every n is >= 2.
    """
    n_tokens = n_docs * tokens_per_doc
    topic_start = np.repeat(np.arange(n_docs) % n_topics * n_words, tokens_per_doc)
    if background_fraction == 0.0:
        # one sized call consumes the stream as the scalar calls do
        return topic_start + rng.integers(0, n_words, size=n_tokens)
    state = rng.bit_generator.state
    if state["bit_generator"] != "PCG64" or state["has_uint32"] or n_words == 1:
        return None
    raw = rng.bit_generator.random_raw(3 * (n_tokens // 2) + 2 * (n_tokens % 2))
    pair, odd = np.divmod(np.arange(n_tokens), 2)
    background = (raw[3 * pair + 2 * odd] >> np.uint64(11)) * 2.0**-53 < background_fraction
    half = (raw[3 * pair + 1] >> (32 * odd).astype(np.uint64)) & np.uint64(0xFFFFFFFF)
    n = np.where(background, n_topics * n_words, n_words).astype(np.uint64)
    product = half * n
    if np.any(product & np.uint64(0xFFFFFFFF) < np.uint64(2**32) % n):
        return None
    if n_tokens % 2:  # the last integer leaves its word's high half buffered
        rng.bit_generator.state = {**rng.bit_generator.state, "has_uint32": 1,
                                   "uinteger": int(raw[-1] >> np.uint64(32))}
    return np.where(background, 0, topic_start) + (product >> np.uint64(32)).astype(np.int64)
