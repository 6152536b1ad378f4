"""Every metric the benchmark prints: name -> (unit, better).

END_TO_END is what a user of the pipeline sees and is measured untraced;
PER_LAYER comes from the separate traced run (``--trace 1``). A per-layer
figure of a layer the workload does not run reads 0.

Output counts (sets kept, puzzles emitted) are per-layer, not end to end:
they are fixed by the seed's corpus, so their spread over seeds (about 15%)
cannot be narrowed by measuring longer. The end-to-end run prints them as
``sets_out`` and ``puzzles_out`` lines, and failures as ``failed_ratio``
(the JSON's ``failed`` over ``attempted``).
"""

S = ("s", "lower")
COUNT_UP = ("count", "higher")
COUNT_DOWN = ("count", "lower")
BYTES = ("B", "lower")
RATIO_UP = ("ratio", "higher")

END_TO_END = {
    "setup_s": S,
    "pipeline_s": S,
    "retune_s": S,
    "peak_rss_mb": ("MB", "lower"),
}

PER_LAYER = {
    "cli.ingest_s": S,
    "cli.train_s": S,
    "cli.index_s": S,
    "cli.extract-sets_s": S,
    "cli.generate.beginner_s": S,
    "cli.generate.intermediate_s": S,
    "cli.eval-yield_s": S,
    "cli.self_s": S,
    "corpus.load_corpus_s": S,
    "corpus.vocab_s": S,
    "corpus.dtm_s": S,
    "corpus.tfidf_s": S,
    "corpus.save_matrix_s": S,
    "corpus.load_matrix_s": S,
    "corpus.tokens": COUNT_UP,
    "corpus.nnz": COUNT_UP,
    "corpus.matrix_bytes": BYTES,
    "topic_models.lda_fit_s": S,
    "topic_models.lda_s_per_sweep": S,
    "topic_models.lda_ns_per_token_sweep": ("ns", "lower"),
    "topic_models.dictlearn_fit_s": S,
    "topic_models.sparse_code_s": S,
    "topic_models.sparse_code_calls": COUNT_DOWN,
    "topic_models.dictlearn_s_per_epoch": S,
    "topic_models.lsa_fit_s": S,
    "topic_models.save_model_s": S,
    "topic_models.load_model_s": S,
    "topic_models.model_bytes": BYTES,
    "esa.build_s": S,
    "esa.save_index_s": S,
    "esa.load_index_s": S,
    "esa.index_bytes": BYTES,
    "esa.relatedness_s": S,
    "esa.relatedness_calls": COUNT_DOWN,
    "esa.pair_reuse_ratio": RATIO_UP,
    "esa.submatrix_s": S,
    "consistency.score_s": S,
    "consistency.sets_scored": COUNT_UP,
    "consistency.sets_kept": COUNT_UP,
    "consistency.keep_ratio": RATIO_UP,
    "puzzles.generate_s": S,
    "puzzles.accept_ratio.beginner": RATIO_UP,
    "puzzles.accept_ratio.intermediate": RATIO_UP,
    "puzzles.exhausted": COUNT_DOWN,
    "puzzles.rejected": COUNT_DOWN,
    "puzzles.save_bank_s": S,
    "puzzles.bank_size": COUNT_UP,
    "trace.overhead_s": S,
}
