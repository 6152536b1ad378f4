"""Benchmark of the topicpuzzles CLI pipeline.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Run from the root of a checkout. Each workload (see ``workloads.py``) is a
closed loop with one caller: its CLI commands run back to back, one fresh
interpreter per repetition, on corpora generated from ``--seed``. The run
sets up the inputs three times (``setup_s`` is the median), repeats the chain
until ``--seconds`` have passed (at least twice), then checks the outputs:
every repetition byte-identical, kept sets re-scoring above delta, every
puzzle passing ``verify_puzzle``, the yield table non-increasing.

``--trace 0`` prints the end-to-end metrics, measured untraced.
``--trace 1`` alternates untraced and traced repetitions and prints the
per-layer metrics (self times from ``tracer.py``) plus the tracing overhead.
``--tiny`` shrinks every input for a smoke test. The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUPS = 3
MIN_REPEATS = 2
# Stop starting repetitions when one more could end past this many seconds
# after the run began, so a run always exits well within 180 s.
DEADLINE_S = 150.0
# One BLAS thread: multi-threaded OpenBLAS made LSA times swing by 3x on a
# shared 2-core machine, which swamps every other change.
PINNED_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class Run:
    """One benchmark run: the operations it attempted and the ones that failed."""

    def __init__(self, workload, args, work):
        self.workload = workload
        self.args = args
        self.work = work
        self.started = perf_counter()
        self.attempted = 0
        self.failed = 0
        self.messages = []
        self.env = dict(os.environ, **PINNED_THREADS)
        pythonpath = [str(ROOT / "src")]
        if os.environ.get("PYTHONPATH"):
            pythonpath.append(os.environ["PYTHONPATH"])
        self.env["PYTHONPATH"] = os.pathsep.join(pythonpath)
        self._children = 0

    def record(self, attempted, messages, failed=None):
        """Count operations; ``failed`` defaults to one per message."""
        self.attempted += attempted
        self.failed += len(messages) if failed is None else failed
        self.messages.extend(messages)

    def elapsed(self):
        return perf_counter() - self.started

    def child(self, mode, *extra):
        """Run child.py in a fresh interpreter. Returns (wall seconds, result,
        error); result is None when the child crashed or timed out."""
        self._children += 1
        result_path = self.work / f"result{self._children}.json"
        cmd = [sys.executable, str(HERE / "child.py"), mode,
               "--workload", self.workload.name, "--result", str(result_path), *extra]
        if self.args.tiny:
            cmd.append("--tiny")
        timeout = max(1.0, DEADLINE_S + 20.0 - self.elapsed())
        began = perf_counter()
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return perf_counter() - began, None, f"{mode}: timed out"
        wall = perf_counter() - began
        if proc.returncode != 0:
            tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
            return wall, None, f"{mode}: exit {proc.returncode}: {tail}"
        with open(result_path, encoding="utf-8") as fh:
            return wall, json.load(fh), None

    def compare_dirs(self, reference, other, what):
        """One determinism operation per file of ``reference``."""
        files = sorted(reference.iterdir())
        differ = [
            f"{what}: {path.name} differs from {reference.name}"
            for path in files
            if not ((other / path.name).is_file()
                    and (other / path.name).read_bytes() == path.read_bytes())
        ]
        self.record(len(files), differ)

    def setup(self):
        """Generate the inputs SETUPS times; returns (median wall seconds,
        environment), or (None, None) if a setup failed."""
        times, env = [], None
        for i in range(SETUPS):
            out = self.work / f"setup{i}"
            out.mkdir()
            wall, result, error = self.child("setup", "--seed", str(self.args.seed),
                                             "--out", str(out))
            self.record(1, [error] if error else [])
            if result is None:
                return None, None
            times.append(wall)
            env = result["env"]
            if i:
                self.compare_dirs(self.work / "setup0", out, "inputs")
        return statistics.median(times), env

    def repeat(self, index, traced):
        """Repetition ``index`` of the chain; its result, or None if the
        child crashed. Outputs must match repetition 0 byte for byte."""
        out = self.work / f"rep{index}"
        out.mkdir()
        extra = ["--inputs", str(self.work / "setup0"), "--out", str(out)]
        if traced:
            extra.append("--trace")
        _, result, error = self.child("chain", *extra)
        commands = len(self.workload.commands)
        if result is None:
            self.record(commands, [error], failed=commands)
            return None
        self.record(commands, result["failures"], failed=result["failed"])
        if index:
            self.compare_dirs(self.work / "rep0", out, f"repetition {index}")
        return result

    def check(self):
        """Verify repetition 0's outputs; returns the check result or None."""
        _, result, error = self.child("check", "--out", str(self.work / "rep0"))
        if result is None:
            self.record(1, [error])
            return None
        self.record(result["ops"], result["failures"])
        return result


def _median(results, key):
    return statistics.median(r[key] for r in results)


def measure(run, trace):
    """Repeat the chain for the run's seconds; returns (untraced, traced)
    lists of repetition results."""
    untraced, traced = [], []
    seconds = run.args.seconds
    began = perf_counter()
    longest = 0.0
    while True:
        done = perf_counter() - began
        enough = len(untraced) >= (1 if trace else MIN_REPEATS)
        if enough and (done >= seconds or run.elapsed() + longest > DEADLINE_S):
            break
        rep_began = perf_counter()
        for is_traced in ((False, True) if trace else (False,)):
            result = run.repeat(len(untraced) + len(traced), is_traced)
            if result is None:
                return untraced, traced
            (traced if is_traced else untraced).append(result)
        longest = max(longest, perf_counter() - rep_began)
    return untraced, traced


def end_to_end(setup_s, untraced):
    return {
        "setup_s": setup_s,
        "pipeline_s": _median(untraced, "pipeline_s"),
        "retune_s": _median(untraced, "retune_s"),
        "peak_rss_mb": _median(untraced, "peak_rss_mb"),
    }


def median_repetition(results):
    """The repetition with the median pipeline_s (the lower one of two)."""
    ranked = sorted(results, key=lambda r: r["pipeline_s"])
    return ranked[(len(ranked) - 1) // 2]


def per_layer(untraced, traced):
    """Figures of the median traced repetition, so that its self times add
    up to its own pipeline_s; overhead is against the untraced median."""
    rep = median_repetition(traced)
    values = {name: rep["layers"].get(name, 0.0) for name in metrics.PER_LAYER}
    values["trace.overhead_s"] = rep["pipeline_s"] - _median(untraced, "pipeline_s")
    return values


def report_layers(traced, values):
    """Human-readable lines: names the program no longer has, and how the
    self times add up to the traced pipeline time."""
    absent = sorted({name for r in traced for name in r["absent"]})
    broken = sorted({name for r in traced for name in r["broken"]})
    if absent:
        print("absent (not traced): " + ", ".join(absent))
    if broken:
        print("counters unavailable: " + ", ".join(broken))
    pipeline = median_repetition(traced)["pipeline_s"]
    modules = sum(values[name] for name in {span for _, _, span in tracer.WRAPPED})
    print(f"traced pipeline_s {pipeline:.4f} s = module self times {modules:.4f} s "
          f"+ cli.self_s {values['cli.self_s']:.4f} s "
          f"(residual {pipeline - modules - values['cli.self_s']:+.4f} s); "
          f"tracing overhead {values['trace.overhead_s']:+.4f} s")


def benchmark(args, work):
    workload = workloads.get(args.workload, args.tiny)
    run = Run(workload, args, work)
    setup_s, env = run.setup()
    if setup_s is None:
        for message in run.messages:
            print(f"FAILED {message}", file=sys.stderr)
        return None
    print(f"env: {json.dumps(env, sort_keys=True)}")
    untraced, traced = measure(run, args.trace)
    check = run.check() if untraced else None
    print(f"workload {workload.name} seed {args.seed}: {SETUPS} setups, "
          f"{len(untraced)} untraced and {len(traced)} traced repetitions")
    print("untraced pipeline_s per repetition: "
          + " ".join(f"{r['pipeline_s']:.4f}" for r in untraced))
    print("untraced command medians (s): " + " ".join(
        f"{label} {statistics.median(r['commands'].get(label, 0.0) for r in untraced):.4f}"
        for label, _ in workload.commands
    ))
    if check:
        print(f"sets_out {check['sets_out']} puzzles_out {check.get('puzzles_out', 0)}")
    for message in run.messages:
        print(f"FAILED {message}")
    failed = run.failed
    print(f"failed_ratio {failed / max(1, run.attempted):.6f} "
          f"({failed} of {run.attempted} operations)")
    if not untraced or (args.trace and not traced):
        print("no complete repetition: nothing measured", file=sys.stderr)
        return None
    if args.trace:
        values, table = per_layer(untraced, traced), metrics.PER_LAYER
    else:
        values, table = end_to_end(setup_s, untraced), metrics.END_TO_END
    for name, value in values.items():
        print(f"  {name:40s} {value:14.6f} {table[name][0]}")
    if args.trace:
        report_layers(traced, values)
    return {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": table[name][0]}
            for name, value in values.items()
        },
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for a smoke test of the harness")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "topicpuzzles" / "cli.py").is_file():
        print(f"error: no topicpuzzles sources under {ROOT / 'src'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        result = benchmark(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            scratch.rmdir()
    if result is None:
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
