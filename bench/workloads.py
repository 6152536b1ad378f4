"""Workload definitions: the generated inputs and the CLI chain each one runs.

A workload is a closed loop with one caller: its commands run back to back
through ``topicpuzzles.cli.main`` in one fresh interpreter per repetition.
Inputs come only from ``synthetic.planted_topic_corpus`` and the benchmark
seed, so the same seed always gives the same corpora. ``tiny=True`` shrinks
every size so the whole harness can be smoke-tested in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass

# Share of tokens drawn uniformly from the whole vocabulary, so words of
# different planted topics get small nonzero relatedness (the puzzle bands
# need that midband to exist).
BACKGROUND_FRACTION = 0.15
TOKENS_PER_DOC = 50
YIELD_GRID = ",".join(f"{i / 20:g}" for i in range(11))  # 0, 0.05, ..., 0.5


@dataclass(frozen=True)
class Shape:
    """Arguments of ``planted_topic_corpus``: topics x words-per-topic, docs."""

    n_topics: int
    words_per_topic: int
    n_docs: int


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: Shape
    concepts: Shape
    # (label, argv) in run order. argv may name {corpus}, {concepts},
    # {config} (the inputs) and {out} (the repetition's output directory).
    commands: tuple[tuple[str, tuple[str, ...]], ...]
    # Labels of the commands an author re-runs while tuning delta or band.
    retune: tuple[str, ...]
    config: dict | None = None
    # Difficulty bands of the generate commands; empty for yield-sweep.
    bands: tuple[str, ...] = ()

    def argv(self, argv, inputs, out):
        """Concrete argv of one command for the given directories."""
        names = {
            "corpus": f"{inputs}/corpus.jsonl",
            "concepts": f"{inputs}/concepts.jsonl",
            "config": f"{inputs}/config.json",
            "out": out,
        }
        return [a.format(**names) for a in argv]


def _chain(name, corpus, concepts, train_flags, top_k, delta):
    bands = ("beginner", "intermediate")
    commands = [
        ("ingest", ("ingest", "--corpus", "{corpus}", "--out", "{out}/matrix.json")),
        ("train", ("train", "--matrix", "{out}/matrix.json",
                   "--out", "{out}/model.json", *train_flags)),
        ("index", ("index", "--concepts", "{concepts}", "--out", "{out}/index.json")),
        ("extract-sets", ("extract-sets", "--model", "{out}/model.json",
                          "--index", "{out}/index.json", "--out", "{out}/sets.jsonl",
                          "--top-k", str(top_k), "--delta", str(delta))),
    ]
    for band in bands:
        commands.append((f"generate.{band}", (
            "generate", "--sets", "{out}/sets.jsonl", "--index", "{out}/index.json",
            "--out", f"{{out}}/bank.{band}.jsonl", "--band", band,
        )))
    return Workload(
        name=name,
        corpus=corpus,
        concepts=concepts,
        commands=tuple(commands),
        retune=("extract-sets",) + tuple(f"generate.{b}" for b in bands),
        bands=bands,
    )


def lda_chain(tiny=False):
    """Large-K LDA dominates; ESA and JSON work are small."""
    shape = Shape(5, 6, 60) if tiny else Shape(20, 20, 2000)
    k = 10 if tiny else 100
    return _chain(
        "lda-chain", shape, shape,
        ("--model", "lda", "--num-topics", str(k), "--iterations", "2"),
        top_k=4, delta=0.1,
    )


def esa_chain(tiny=False):
    """No Gibbs sampling or dictlearn: JSON persistence, ESA build and
    mostly-cold relatedness calls dominate."""
    corpus = Shape(6, 6, 80) if tiny else Shape(26, 26, 5000)
    concepts = Shape(6, 6, 120) if tiny else Shape(26, 26, 8000)
    k = 8 if tiny else 60
    return _chain(
        "esa-chain", corpus, concepts,
        ("--model", "lsa", "--num-topics", str(k)),
        top_k=6, delta=0.05,
    )


def yield_sweep(tiny=False):
    """Dictlearn plus small-K LDA inside eval-yield, on an 80-word
    vocabulary whose relatedness pairs are re-scored many times."""
    shape = Shape(6, 6, 60) if tiny else Shape(8, 10, 400)
    config = {
        "num-topics": 8,
        "models": {
            "lda": {"num-topics": 8, "iterations": 3 if tiny else 30},
            "dictlearn": {"num-topics": 10 if tiny else 40, "kappa": 0.5,
                          "epochs": 1 if tiny else 2},
        },
    }
    return Workload(
        name="yield-sweep",
        corpus=shape,
        concepts=shape,
        commands=(
            ("ingest", ("ingest", "--corpus", "{corpus}", "--out", "{out}/matrix.json")),
            ("index", ("index", "--concepts", "{concepts}", "--out", "{out}/index.json")),
            ("eval-yield", ("eval-yield", "--matrix", "{out}/matrix.json",
                            "--index", "{out}/index.json",
                            "--models", "lsa,lda,dictlearn", "--delta-grid", YIELD_GRID,
                            "--config", "{config}", "--out", "{out}/yield.csv")),
        ),
        retune=("eval-yield",),
        config=config,
    )


def input_seeds(seed):
    """Distinct generator seeds for the corpus and the concept repository."""
    return 2 * seed, 2 * seed + 1


WORKLOADS = {w.__name__.replace("_", "-"): w for w in (lda_chain, esa_chain, yield_sweep)}


def get(name, tiny=False):
    return WORKLOADS[name](tiny)
