"""Command-line front end for the puzzle-generation pipeline.

Subcommands mirror the pipeline stages: ``ingest`` a corpus, ``train`` a
topic model, ``index`` a concept repository, ``extract-sets`` consistent
sets, ``generate`` a puzzle bank, and ``eval-yield`` consistent-set counts
over a threshold grid.

Every command is a pure function of its inputs, flags, and seed: repeated
runs produce byte-identical outputs. Exit codes: 0 success, 2 usage or
input error (or an allocation that cannot succeed), 3 internal invariant
violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields

from . import consistency, corpus, esa, kernels, puzzles, topic_models

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INTERNAL = 3


class UsageError(Exception):
    """Bad flags or malformed input files."""


class InternalError(Exception):
    """A pipeline invariant failed to hold."""


@dataclass
class YieldCurve:
    """Consistent-set counts per model over an increasing threshold grid."""

    deltas: list[float]
    counts: dict[str, list[int]]

    def validate(self):
        for model, counts in self.counts.items():
            if any(b > a for a, b in zip(counts, counts[1:])):
                raise InternalError(
                    f"consistent-set counts for {model} are not "
                    f"non-increasing over the delta grid: {counts}"
                )
        return self

    def as_csv(self):
        models = list(self.counts)
        lines = ["delta," + ",".join(models)]
        for row, delta in enumerate(self.deltas):
            lines.append(
                f"{delta:g},"
                + ",".join(str(self.counts[m][row]) for m in models)
            )
        return "\n".join(lines) + "\n"


def _load_config(path):
    if path is None:
        return {}
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        config = json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise UsageError(f"cannot read config {path}: line {line}: {exc}") from exc
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    except RecursionError as exc:
        raise UsageError(f"cannot read config {path}: invalid JSON (nested too deeply)") from exc
    if not isinstance(config, dict):
        raise UsageError(f"config {path} must contain a JSON object")
    return config


# The JSON types a config value of each kind may have: exact types, so a
# bool is not an int, and an int is also a float.
_JSON_TYPES = {int: (int,), float: (int, float), bool: (bool,), str: (str,)}


def _setting(args, config, key, default, kind):
    """Flag > config file > default. ``kind`` (int, float, bool or str) is
    the flag's type; a config value whose JSON type does not fit it is a
    usage error naming the key."""
    value = getattr(args, key.replace("-", "_"), None)
    if value is not None:
        return value
    if key not in config:
        return default
    value = config[key]
    if type(value) not in _JSON_TYPES[kind]:
        raise UsageError(f"config key {key!r}: expected {kind.__name__}, got {value!r}")
    try:
        return kind(value)
    except OverflowError as exc:
        raise UsageError(f"config key {key!r}: {exc}") from exc


def _names(names, known, what):
    """``names``, a list or a comma-separated str (split and stripped), if
    each is one of ``known`` and none repeats; a usage error if one is
    not, if one repeats, or if a str names none."""
    if isinstance(names, str):
        names = [name.strip() for name in names.split(",") if name.strip()]
        if not names:
            raise UsageError(f"no {what} given; {what}s: {','.join(known)}")
    unknown = set(names) - set(known)
    if unknown:
        raise UsageError(f"unknown {what}s: {sorted(unknown)}")
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise UsageError(f"repeated {what}s: {repeated}")
    return names


def _given(args, config, kinds):
    """Keyword arguments for the keys of ``kinds`` (key -> type) that a
    flag or the config sets; the others keep the library's defaults."""
    values = {key: _setting(args, config, key, None, kinds[key]) for key in kinds}
    return {k.replace("-", "_"): v for k, v in values.items() if v is not None}


_DF_KEYS = {"min-df": int, "max-df-ratio": float}
_GENERATE_KEYS = {"n-distractors": int, "eta2-cross": float, "max-attempts": int}


def _tokenizer_config(args, config):
    kwargs = _given(args, config, {"min-token-len": int})
    if _setting(args, config, "keep-stopwords", False, bool):
        kwargs["stopwords"] = frozenset()
    return corpus.TokenizerConfig(**kwargs) if kwargs else corpus.DEFAULT_TOKENIZER


def cmd_ingest(args, config):
    docs = corpus.load_corpus_jsonl(args.corpus)
    tokenizer = _tokenizer_config(args, config)
    dtm = corpus.build_doc_term_matrix(
        docs, config=tokenizer, **_given(args, config, _DF_KEYS)
    )
    if _setting(args, config, "tfidf", False, bool):
        dtm = corpus.tfidf_transform(dtm)
    corpus.save_doc_term_matrix(dtm, args.out)
    print(
        f"ingested {dtm.n_docs} documents, vocabulary {dtm.n_words} words, "
        f"weighting {dtm.weighting}"
    )
    return EXIT_OK


def fit_model(name, dtm, args, config):
    """Fit topic model ``name`` to a matrix with hyperparameters from the
    flags, then ``config``, then their defaults; ``train`` and
    ``eval-yield`` differ only in the config they pass. The LDA and
    dictlearn keys are their config fields spelled as flags."""
    n_topics = _setting(
        args, config, "num-topics", topic_models.DEFAULT_NUM_TOPICS, int
    )
    seed = _setting(args, config, "seed", 0, int)
    if name == topic_models.MODEL_LSA:
        model = topic_models.lsa_fit(dtm, n_topics, seed=seed)
    else:
        fit, cls = topic_models.lda_fit, topic_models.LdaConfig
        if name == topic_models.MODEL_DICTLEARN:
            fit, cls = topic_models.dict_learn_fit, topic_models.DictLearnConfig
        values = {"n_topics": n_topics, "seed": seed}
        for f in fields(cls):
            if f.name not in values:
                key = f.name.replace("_", "-")
                values[f.name] = _setting(args, config, key, f.default, type(f.default))
        model = fit(dtm, cls(**values))
    _note_fallback(name)
    return model


def _note_fallback(name):
    """One stderr line if ``name`` ran a Python kernel, saying why the C
    kernels did not load."""
    why = kernels.load_kernels()[1]
    if why:
        print(
            f"note: {name} ran its Python kernel, which gives the same results "
            f"more slowly; the C kernels did not load: {why}",
            file=sys.stderr,
        )


def cmd_train(args, config):
    dtm = corpus.load_doc_term_matrix(args.matrix)
    model = fit_model(args.model, dtm, args, config)
    model.validate()
    topic_models.save_topic_dictionary(model, args.out)
    print(f"trained {model.model} model: {model.n_words} words x {model.n_topics} topics")
    return EXIT_OK


def cmd_index(args, config):
    concepts = corpus.load_corpus_jsonl(args.concepts)
    esa_config = esa.EsaConfig(
        tokenizer=_tokenizer_config(args, config),
        **_given(args, config, {"max-concepts-per-word": int, **_DF_KEYS}),
    )
    index = esa.build_esa_index(concepts, esa_config)
    _note_fallback("index")
    if not len(index):
        raise UsageError(f"no word of {args.concepts} has a concept vector")
    esa.save_esa_index(index, args.out)
    print(f"indexed {len(index)} words over {index.n_concepts} concepts")
    return EXIT_OK


def _top_k(args, config):
    """Words per topic set: a consistent set needs a spanning tree, so at
    least 2."""
    k = _setting(args, config, "top-k", topic_models.DEFAULT_TOP_K, int)
    if k < 2:
        raise UsageError(f"--top-k must be at least 2, got {k}")
    return k


def cmd_extract_sets(args, config):
    k = _top_k(args, config)
    model = topic_models.load_topic_dictionary(args.model)
    if model.vocab is None:
        raise UsageError(f"model {args.model} carries no vocabulary")
    provider = esa.SimilarityProvider(esa.load_esa_index(args.index))
    delta = _setting(args, config, "delta", 0.1, float)
    sets = topic_models.extract_top_k(model, k)
    kept = consistency.identify_consistent_sets(sets, provider, delta)
    _note_fallback("extract-sets")
    consistency.save_consistent_sets(kept, args.out)
    print(f"{len(kept)} of {len(sets)} candidate sets consistent at delta={delta}")
    return EXIT_OK


def _resolve_band(args, config):
    eta1 = _setting(args, config, "eta1", None, float)
    eta2 = _setting(args, config, "eta2", None, float)
    name = _setting(args, config, "band", None, str)
    if eta1 is not None or eta2 is not None:
        if eta1 is None or eta2 is None:
            raise UsageError("--eta1 and --eta2 must be given together")
        return puzzles.DifficultyBand(eta1, eta2, name or "custom")
    if name is None:
        name = "beginner"
    if name not in puzzles.BAND_PRESETS:
        raise UsageError(
            f"unknown band {name!r}; presets: {sorted(puzzles.BAND_PRESETS)}"
        )
    return puzzles.BAND_PRESETS[name]


def cmd_generate(args, config):
    sets = consistency.load_consistent_sets(args.sets)
    index = esa.load_esa_index(args.index)
    provider = esa.SimilarityProvider(index)
    vocab = index.words()
    band = _resolve_band(args, config)
    kinds = _names(
        _setting(args, config, "kinds", ",".join(puzzles.KINDS), str),
        puzzles.KINDS, "puzzle kind",
    )
    bank, skipped = puzzles.generate_puzzle_bank(
        sets,
        provider,
        vocab,
        band,
        kinds=kinds,
        master_seed=_setting(args, config, "seed", 0, int),
        **_given(args, config, _GENERATE_KEYS),
    )
    _note_fallback("generate")
    puzzles.save_puzzle_bank(bank, args.out, include_solutions=True)
    if args.no_solutions:
        public = _no_solutions_path(args.out)
        puzzles.save_puzzle_bank(bank, public, include_solutions=False)
        print(f"solutions withheld in {public}")
    exhausted = sum(1 for s in skipped if isinstance(s, puzzles.Exhausted))
    rejected = len(skipped) - exhausted
    print(
        f"generated {len(bank)} puzzles from {len(sets)} consistent sets "
        f"(band {band.eta1}..{band.eta2}); exhausted {exhausted}, "
        f"rejected {rejected}"
    )
    return EXIT_OK


def _no_solutions_path(path):
    if path.endswith(".jsonl"):
        return path[: -len(".jsonl")] + ".nosolutions.jsonl"
    return path + ".nosolutions"


def cmd_eval_yield(args, config):
    k = _top_k(args, config)
    dtm = corpus.load_doc_term_matrix(args.matrix)
    provider = esa.SimilarityProvider(esa.load_esa_index(args.index))
    grid = [float(v) for v in args.delta_grid.split(",") if v.strip()]
    if not grid:
        raise UsageError("empty delta grid")
    if any(not 0.0 <= d < 1.0 for d in grid):
        raise UsageError("delta grid values must be in [0, 1)")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise UsageError("delta grid must be strictly increasing")
    models = _names(args.models, topic_models.MODELS, "model")
    model_configs = config.get("models", {})
    if not (
        isinstance(model_configs, dict)
        and all(isinstance(v, dict) for v in model_configs.values())
    ):
        raise UsageError("config key 'models' must map model names to objects")
    _names(list(model_configs), topic_models.MODELS, "model")

    curve = {}
    for name in models:
        overrides = model_configs.get(name, {})  # beat top-level keys
        model = fit_model(name, dtm, args, {**config, **overrides})
        # Score the sets once: a set is kept at a grid delta iff it scores
        # above it, and every grid delta is at least the first.
        kept = consistency.identify_consistent_sets(
            topic_models.extract_top_k(model, k), provider, grid[0]
        )
        curve[name] = [sum(cs.score > delta for cs in kept) for delta in grid]

    table = YieldCurve(deltas=grid, counts=curve).validate().as_csv()
    if args.out:
        with corpus.atomic_write(args.out) as fh:
            fh.write(table)
    print(table, end="")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="topicpuzzles",
        description="Generate word puzzles from topic dictionaries",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="JSON config file; flags override it")
    shared.add_argument("--seed", type=int, help="master random seed (default 0)")

    tokenizer = argparse.ArgumentParser(add_help=False)
    tokenizer.add_argument("--min-df", type=int)
    tokenizer.add_argument("--max-df-ratio", type=float)
    tokenizer.add_argument("--min-token-len", type=int)
    tokenizer.add_argument("--keep-stopwords", action="store_const", const=True)

    hyper = argparse.ArgumentParser(add_help=False)
    hyper.add_argument("--num-topics", type=int)
    hyper.add_argument("--alpha", type=float)
    hyper.add_argument("--beta", type=float)
    hyper.add_argument("--iterations", type=int)
    hyper.add_argument("--kappa", type=float)
    hyper.add_argument("--rho", type=float)
    hyper.add_argument("--regularizer", choices=topic_models.REGULARIZERS)
    hyper.add_argument("--n-groups", type=int)
    hyper.add_argument("--epochs", type=int)

    p = sub.add_parser("ingest", parents=[shared, tokenizer],
                       help="corpus JSONL -> matrix")
    p.add_argument("--corpus", required=True, help="JSON-lines corpus path")
    p.add_argument("--out", required=True, help="output matrix path")
    p.add_argument("--tfidf", action="store_const", const=True,
                   help="apply TF-IDF weighting after counting")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("train", parents=[shared, hyper], help="matrix -> topic model")
    p.add_argument("--model", required=True, choices=topic_models.MODELS)
    p.add_argument("--matrix", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("index", parents=[shared, tokenizer],
                       help="concept corpus JSONL -> ESA index")
    p.add_argument("--concepts", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--max-concepts-per-word", type=int)
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("extract-sets", parents=[shared],
                       help="model + index -> consistent sets")
    p.add_argument("--model", required=True)
    p.add_argument("--index", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--top-k", type=int, help="words per topic set (default 4)")
    p.add_argument("--delta", type=float, help="consistency threshold (default 0.1)")
    p.set_defaults(func=cmd_extract_sets)

    p = sub.add_parser("generate", parents=[shared],
                       help="consistent sets + index -> puzzle bank")
    p.add_argument("--sets", required=True)
    p.add_argument("--index", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--band", help="difficulty preset: beginner or intermediate")
    p.add_argument("--eta1", type=float)
    p.add_argument("--eta2", type=float)
    p.add_argument("--kinds", help="comma-separated puzzle kinds")
    p.add_argument("--n-distractors", type=int)
    p.add_argument("--eta2-cross", type=float)
    p.add_argument("--max-attempts", type=int)
    p.add_argument("--no-solutions", action="store_true",
                   help="also write a bank with solutions withheld")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("eval-yield", parents=[shared, hyper],
                       help="consistent-set counts over a delta grid")
    p.add_argument("--matrix", required=True)
    p.add_argument("--index", required=True)
    p.add_argument("--models", default=",".join(topic_models.MODELS))
    p.add_argument("--delta-grid", required=True,
                   help="comma-separated strictly increasing thresholds")
    p.add_argument("--out", help="CSV output path")
    p.add_argument("--top-k", type=int)
    p.set_defaults(func=cmd_eval_yield)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, _load_config(args.config))
    except (UsageError, ValueError, OSError, MemoryError) as exc:
        # a MemoryError raised outside numpy carries no message
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_USAGE
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
