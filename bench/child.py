"""One fresh interpreter's share of a benchmark run.

    child.py setup --workload W --seed N --out DIR --result FILE
    child.py chain --workload W --inputs DIR --out DIR --result FILE [--trace]
    child.py check --workload W --out DIR --result FILE

``setup`` generates the workload's inputs from the seed, ``chain`` runs the
workload's CLI commands back to back through ``topicpuzzles.cli.main``, and
``check`` verifies one repetition's outputs. Each writes a JSON result to
FILE. ``run.py`` starts these with ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import platform
import resource
import sys
import traceback
from time import perf_counter

import workloads

# Errors that mean an output file is missing or unreadable; the check then
# counts one failed operation instead of crashing.
LOAD_ERRORS = (OSError, ValueError, KeyError, TypeError)


def environment():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError, ValueError):
        openblas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
    }


def setup(workload, seed, out):
    from topicpuzzles import corpus, synthetic

    for name, shape, input_seed in zip(
        ("corpus", "concepts"),
        (workload.corpus, workload.concepts),
        workloads.input_seeds(seed),
    ):
        docs, _ = synthetic.planted_topic_corpus(
            shape.n_topics,
            shape.words_per_topic,
            shape.n_docs,
            workloads.TOKENS_PER_DOC,
            seed=input_seed,
            background_fraction=workloads.BACKGROUND_FRACTION,
        )
        corpus.save_corpus_jsonl(docs, os.path.join(out, f"{name}.jsonl"))
    if workload.config is not None:
        with open(os.path.join(out, "config.json"), "w", encoding="utf-8") as fh:
            json.dump(workload.config, fh, sort_keys=True)
    return {"env": environment()}


def _run_command(main, argv):
    """Exit code of one CLI call and, on failure, what went wrong."""
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects bad flags this way
        code = exc.code
    except Exception:  # a traceback breaks the CLI contract: record it
        return None, traceback.format_exc(limit=-3)
    return code, "" if code == 0 else f"exit code {code}"


def chain(workload, inputs, out, traced):
    from topicpuzzles import cli

    tracer = None
    if traced:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()

    def span(name):
        return tracer.span(name) if tracer else contextlib.nullcontext()

    times, failures, succeeded = {}, [], 0
    start = perf_counter()
    with span("pipeline"):
        for label, argv in workload.commands:
            began = perf_counter()
            with span(f"cli.{label}_s"):
                code, error = _run_command(cli.main, workload.argv(argv, inputs, out))
            times[label] = perf_counter() - began
            if code != 0:
                failures.append(f"{label}: {error.strip()}")
                break
            succeeded += 1
    pipeline_s = perf_counter() - start
    skipped = len(workload.commands) - len(times)
    if skipped:
        failures.append(f"{skipped} later command(s) not run")
    result = {
        "commands": times,
        "failed": len(workload.commands) - succeeded,
        "failures": failures,
        "pipeline_s": pipeline_s,
        "retune_s": sum(times.get(label, 0.0) for label in workload.retune),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    if tracer:
        result["layers"] = tracing.layer_metrics(tracer)
        result["absent"] = tracer.absent
        result["broken"] = sorted(tracer.broken)
    return result


def check_chain(workload, out):
    """Kept sets re-score above their delta; every puzzle passes
    ``verify_puzzle``. One operation per set and per puzzle."""
    from topicpuzzles import consistency, esa, puzzles, topic_models

    ops, failures = 0, []
    try:
        model = topic_models.load_topic_dictionary(os.path.join(out, "model.json"))
        index = esa.load_esa_index(os.path.join(out, "index.json"))
        sets = consistency.load_consistent_sets(os.path.join(out, "sets.jsonl"))
        banks = {
            band: puzzles.load_puzzle_bank(os.path.join(out, f"bank.{band}.jsonl"))
            for band in workload.bands
        }
    except LOAD_ERRORS as exc:
        return {"ops": 1, "failures": [f"cannot load outputs: {exc!r}"],
                "sets_out": 0, "puzzles_out": 0}
    provider = esa.SimilarityProvider(index, vocabulary=model.vocab)
    for cs in sets:
        ops += 1
        graph = consistency.WeightedGraph(
            nodes=cs.word_indices,
            weights=provider.similarity_submatrix(cs.word_indices),
        )
        score = consistency.bottleneck_score(graph)
        if not score > cs.delta:
            failures.append(f"set of topic {cs.topic_index} re-scores "
                            f"{score!r} <= delta {cs.delta}")
    sets_by_topic = {cs.topic_index: cs for cs in sets}
    sim = esa.SimilarityProvider(index)
    for band, bank in banks.items():
        for i, puzzle in enumerate(bank):
            ops += 1
            problems = puzzles.verify_puzzle(puzzle, sim, sets_by_topic)
            if problems:
                failures.append(f"{band} puzzle {i} ({puzzle.kind}): "
                                + "; ".join(problems))
    return {
        "ops": ops,
        "failures": failures,
        "sets_out": len(sets),
        "puzzles_out": sum(len(bank) for bank in banks.values()),
    }


def check_yield(out):
    """Each model's column of the yield table is non-increasing in delta,
    and the table has one row per delta. One operation per model, plus one
    for the row count."""
    try:
        with open(os.path.join(out, "yield.csv"), encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        models = rows[0][1:]
        columns = {m: [int(row[1 + i]) for row in rows[1:]] for i, m in enumerate(models)}
    except (OSError, ValueError, IndexError) as exc:
        return {"ops": 1, "failures": [f"cannot read yield table: {exc!r}"], "sets_out": 0}
    failures = [
        f"{m} counts increase over the delta grid: {counts}"
        for m, counts in columns.items()
        if any(b > a for a, b in zip(counts, counts[1:]))
    ]
    if len(rows) != 1 + len(workloads.YIELD_GRID.split(",")):
        failures.append(f"yield table has {len(rows) - 1} rows")
    return {
        "ops": len(columns) + 1,
        "failures": failures,
        "sets_out": sum(sum(counts) for counts in columns.values()),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["setup", "chain", "check"])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--inputs")
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    workload = workloads.get(args.workload, args.tiny)
    if args.mode == "setup":
        result = setup(workload, args.seed, args.out)
    elif args.mode == "chain":
        result = chain(workload, args.inputs, args.out, args.trace)
    elif workload.bands:
        result = check_chain(workload, args.out)
    else:
        result = check_yield(args.out)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
