"""Per-layer spans recorded from outside the program.

``Tracer.install`` replaces public functions of the ``topicpuzzles`` modules
with timing wrappers, each at the name its caller looks up (``esa`` imports
the corpus builders directly, ``dict_learn_fit`` calls the module-level
``sparse_code``, ``similarity_submatrix`` calls ``self.relatedness``). A span's
self time is its duration minus the time of the spans it encloses, so the
self times of every span sum to the traced pipeline wall time. A name a later
version of the program no longer has is reported as absent, not fatal.
"""

from __future__ import annotations

import importlib
import os
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module, attribute path, span name). A span name is also the metric that
# reports the span's summed self time.
WRAPPED = (
    ("corpus", "load_corpus_jsonl", "corpus.load_corpus_s"),
    ("corpus", "build_vocabulary", "corpus.vocab_s"),
    ("esa", "build_vocabulary", "corpus.vocab_s"),
    ("corpus", "build_doc_term_matrix", "corpus.dtm_s"),
    ("esa", "build_doc_term_matrix", "corpus.dtm_s"),
    ("corpus", "tfidf_transform", "corpus.tfidf_s"),
    ("esa", "tfidf_transform", "corpus.tfidf_s"),
    ("corpus", "save_doc_term_matrix", "corpus.save_matrix_s"),
    ("corpus", "load_doc_term_matrix", "corpus.load_matrix_s"),
    ("topic_models", "lsa_fit", "topic_models.lsa_fit_s"),
    ("topic_models", "lda_fit", "topic_models.lda_fit_s"),
    ("topic_models", "dict_learn_fit", "topic_models.dictlearn_fit_s"),
    ("topic_models", "sparse_code", "topic_models.sparse_code_s"),
    ("topic_models", "save_topic_dictionary", "topic_models.save_model_s"),
    ("topic_models", "load_topic_dictionary", "topic_models.load_model_s"),
    ("esa", "build_esa_index", "esa.build_s"),
    ("esa", "save_esa_index", "esa.save_index_s"),
    ("esa", "load_esa_index", "esa.load_index_s"),
    ("esa", "SimilarityProvider.relatedness", "esa.relatedness_s"),
    ("esa", "SimilarityProvider.similarity_submatrix", "esa.submatrix_s"),
    ("consistency", "identify_consistent_sets", "consistency.score_s"),
    ("puzzles", "generate_puzzle_bank", "puzzles.generate_s"),
    ("puzzles", "save_puzzle_bank", "puzzles.save_bank_s"),
)

PIPELINE = "pipeline"
CLI_PREFIX = "cli."

# Errors a counter hook may meet when a later version changes a signature
# or a return type; the counter is then reported as broken, not fatal.
HOOK_ERRORS = (AttributeError, IndexError, KeyError, TypeError, ValueError)


class Tracer:
    """Span stack plus per-span self time, call counts and counters."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = defaultdict(float)
        self.pairs = set()
        self.bands = defaultdict(Counter)
        self.absent = []
        self.broken = set()
        self._children = []  # time covered by child spans, one per open span

    @contextmanager
    def span(self, name):
        self._children.append(0.0)
        start = perf_counter()
        try:
            yield
        finally:
            self._close(name, perf_counter() - start)

    def _close(self, name, elapsed):
        self.self_s[name] += elapsed - self._children.pop()
        self.calls[name] += 1
        if self._children:
            self._children[-1] += elapsed

    def wrap(self, fn, name, hook=None):
        """``fn`` timed as span ``name``; ``hook(tracer, args, kwargs, result)``
        then updates counters from the call and its result."""
        tracer = self

        def traced(*args, **kwargs):
            tracer._children.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(name, perf_counter() - start)
            if hook is not None:
                try:
                    hook(tracer, args, kwargs, result)
                except HOOK_ERRORS:
                    tracer.broken.add(name)
            return result

        return traced

    def install(self):
        """Wrap every name in WRAPPED that the program still has."""
        for module_name, path, name in WRAPPED:
            try:
                owner = importlib.import_module(f"topicpuzzles.{module_name}")
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{path}")
                continue
            setattr(owner, attr, self.wrap(fn, name, HOOKS.get(name)))


def _arg(args, kwargs, position, name):
    """A call's argument, passed by position or by keyword."""
    return args[position] if position < len(args) else kwargs[name]


def _on_save_matrix(tracer, args, kwargs, result):
    dtm, path = _arg(args, kwargs, 0, "dtm"), _arg(args, kwargs, 1, "path")
    if dtm.weighting == "raw-count":
        tracer.counts["corpus.tokens"] += float(dtm.matrix.sum())
    tracer.counts["corpus.nnz"] += dtm.matrix.nnz
    tracer.counts["corpus.matrix_bytes"] += os.path.getsize(path)


def _on_lda_fit(tracer, args, kwargs, result):
    dtm, config = _arg(args, kwargs, 0, "X"), _arg(args, kwargs, 1, "config")
    tracer.counts["lda.sweeps"] += config.iterations
    tracer.counts["lda.token_sweeps"] += float(dtm.matrix.sum()) * config.iterations


def _on_dict_learn_fit(tracer, args, kwargs, result):
    tracer.counts["dictlearn.epochs"] += _arg(args, kwargs, 1, "config").epochs


def _file_size(metric):
    def hook(tracer, args, kwargs, result):
        tracer.counts[metric] += os.path.getsize(_arg(args, kwargs, 1, "path"))

    return hook


def _on_relatedness(tracer, args, kwargs, result):
    a, b = _arg(args, kwargs, 1, "word_a"), _arg(args, kwargs, 2, "word_b")
    tracer.pairs.add((a, b) if a < b else (b, a))


def _on_score(tracer, args, kwargs, result):
    tracer.counts["consistency.sets_scored"] += len(_arg(args, kwargs, 0, "sets"))
    tracer.counts["consistency.sets_kept"] += len(result)


def _on_generate(tracer, args, kwargs, result):
    bank, skipped = result
    band = tracer.bands[_arg(args, kwargs, 3, "band").name]
    band["tasks"] += len(bank) + len(skipped)
    band["accepted"] += len(bank)
    exhausted = sum(1 for s in skipped if type(s).__name__ == "Exhausted")
    tracer.counts["puzzles.exhausted"] += exhausted
    tracer.counts["puzzles.rejected"] += len(skipped) - exhausted
    tracer.counts["puzzles.bank_size"] += len(bank)


HOOKS = {
    "corpus.save_matrix_s": _on_save_matrix,
    "topic_models.lda_fit_s": _on_lda_fit,
    "topic_models.dictlearn_fit_s": _on_dict_learn_fit,
    "topic_models.save_model_s": _file_size("topic_models.model_bytes"),
    "esa.save_index_s": _file_size("esa.index_bytes"),
    "esa.relatedness_s": _on_relatedness,
    "consistency.score_s": _on_score,
    "puzzles.generate_s": _on_generate,
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer):
    """Per-layer figures of one traced pipeline run, keyed by metric name.

    Times are self times in seconds. Figures of a layer the workload does
    not run (or a name that is absent) read 0.
    """
    s, c = tracer.self_s, tracer.counts
    out = {name: s[name] for _, _, name in WRAPPED}
    cli_names = [n for n in s if n.startswith(CLI_PREFIX)]
    for name in cli_names:
        out[name] = s[name]
    out["cli.self_s"] = s[PIPELINE] + sum(s[n] for n in cli_names)
    for name in ("corpus.tokens", "corpus.nnz", "corpus.matrix_bytes",
                 "topic_models.model_bytes", "esa.index_bytes",
                 "consistency.sets_scored", "consistency.sets_kept", "puzzles.exhausted",
                 "puzzles.rejected", "puzzles.bank_size"):
        out[name] = c[name]
    lda_s = s["topic_models.lda_fit_s"]
    out["topic_models.lda_ns_per_token_sweep"] = _ratio(lda_s * 1e9, c["lda.token_sweeps"])
    out["topic_models.lda_s_per_sweep"] = _ratio(lda_s, c["lda.sweeps"])
    out["topic_models.sparse_code_calls"] = tracer.calls["topic_models.sparse_code_s"]
    out["topic_models.dictlearn_s_per_epoch"] = _ratio(
        s["topic_models.dictlearn_fit_s"] + s["topic_models.sparse_code_s"],
        c["dictlearn.epochs"],
    )
    calls = tracer.calls["esa.relatedness_s"]
    out["esa.relatedness_calls"] = calls
    out["esa.pair_reuse_ratio"] = _ratio(len(tracer.pairs), calls)
    out["consistency.keep_ratio"] = _ratio(
        c["consistency.sets_kept"], c["consistency.sets_scored"]
    )
    for band, tally in tracer.bands.items():
        out[f"puzzles.accept_ratio.{band}"] = _ratio(tally["accepted"], tally["tasks"])
    return out
