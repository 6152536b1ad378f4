import argparse
import json
import random
import re
import warnings
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest
from conftest import (
    CONTAINER_CORRUPTIONS,
    INDEX_CORRUPTIONS,
    decode_array_file,
    mangle_index,
    needs_cc,
    redeclare,
    rewrite_array_file,
    use_kernel,
)
from oracles import as_scipy, counter_build_doc_term_matrix, counter_build_vocabulary

from topicpuzzles import consistency, esa, kernels, puzzles, topic_models
from topicpuzzles.cli import build_parser, main
from topicpuzzles.corpus import (
    Document,
    build_vocabulary,
    load_corpus_jsonl,
    load_doc_term_matrix,
    save_corpus_jsonl,
)
from topicpuzzles.synthetic import planted_topic_corpus

TINY_DOCS = [
    Document("d1", "vote election candidate vote ballot vote election"),
    Document("d2", "election candidate parliament vote ballot"),
    Document("d3", "wizard wand spell wizard dragon spell"),
    Document("d4", "wand spell dragon wizard wand"),
    Document("d5", "candidate parliament election ballot"),
    Document("d6", "dragon spell wand wizard dragon"),
]


def _last_record(change):
    """The edit of a JSON-lines text that applies ``change`` to its last
    record."""
    def edit(text):
        *head, last = text.splitlines()
        record = json.loads(last)
        change(record)
        return "".join(line + "\n" for line in head + [json.dumps(record)])
    return edit


def _set_key(key, value):
    return _last_record(lambda record: record.__setitem__(key, value))


SET_KEYS = ("topic", "words", "word_indices", "score", "delta")
# One value of each JSON type, and NaN; a float is right for score and delta.
WRONG_VALUES = {"null": None, "str": "x", "float": 0.5, "list": [1], "object": {"k": 1},
                "true": True, "nan": float("nan")}
# id -> edit of a valid two-line sets file that breaks its second line
SETS_CORRUPTIONS = {
    "truncated": lambda text: text[:-len(text.splitlines()[-1]) // 2],
    **{f"drop-{key}": _last_record(lambda record, key=key: record.pop(key))
       for key in SET_KEYS},
    **{f"{key}-{name}": _set_key(key, value)
       for key in SET_KEYS for name, value in WRONG_VALUES.items()
       if not (name == "float" and key in ("score", "delta"))},
}

# One JSON value nested deeper than the decoder's recursion limit.
DEEP = "[" * 100000 + "]" * 100000


def _set_literal(key, literal):
    """The edit that sets ``key`` of the last record to the JSON text
    ``literal``, which ``json.dumps`` may not write (a 5000-digit int)."""
    edit = _set_key(key, "@")
    return lambda text: edit(text).replace('"@"', literal)


def _xor_bytes(mask, structural, seed, count):
    """``count`` edits, each XOR-ing one byte of the file's UTF-8 with
    ``mask``, at offsets drawn from ``seed``: any offset, or with
    ``structural`` only JSON punctuation (no corpus text holds any), where
    a 0x01 flip always breaks the line."""
    def edit(k):
        def flip(text):
            raw = bytearray(text.encode())
            offsets = [i for i, b in enumerate(raw) if not structural or b in b'{}":,']
            i = random.Random(seed).sample(offsets, count)[k]
            raw[i] ^= mask
            return bytes(raw)
        return flip
    return {f"xor-{mask:02x}-{k}": edit(k) for k in range(count)}


CORPUS_KEYS = ("id", "text")
CORPUS_WRONG_LITERALS = {"null": "null", "int": "5", "float": "0.5", "list": "[1]",
                         "object": '{"k": 1}', "true": "true", "nan": "NaN",
                         "infinity": "Infinity", "5000-digit-int": "1" * 5000}
# id -> edit of a valid corpus file (text in, text or bytes out) that
# makes it invalid
CORPUS_CORRUPTIONS = {
    "truncated": lambda text: text[:-len(text.splitlines()[-1]) // 2],
    "empty": lambda text: "",
    "blank-lines": lambda text: "\n \n\t\n",
    **_xor_bytes(0xFF, False, 20, 7),
    **_xor_bytes(0x01, True, 20, 7),
    **{f"drop-{key}": _last_record(lambda record, key=key: record.pop(key))
       for key in CORPUS_KEYS},
    **{f"{key}-{name}": _set_literal(key, literal)
       for key in CORPUS_KEYS for name, literal in CORPUS_WRONG_LITERALS.items()},
    "duplicate-id": _set_key("id", TINY_DOCS[0].id),
    "array-line": lambda text: text + '["d7", "more words"]\n',
    "utf-8-bom": lambda text: "\ufeff" + text,
    "deep-nesting": lambda text: text + DEEP + "\n",
}


@pytest.fixture
def corpus_path(tmp_path):
    path = tmp_path / "corpus.jsonl"
    save_corpus_jsonl(TINY_DOCS, path)
    return str(path)


@pytest.fixture
def pipeline(tmp_path, corpus_path):
    """Run ingest + index once; return the paths dict."""
    matrix = str(tmp_path / "matrix.json")
    index = str(tmp_path / "index.json")
    assert main(["ingest", "--corpus", corpus_path, "--out", matrix]) == 0
    assert main(["index", "--concepts", corpus_path, "--out", index]) == 0
    return {"tmp": tmp_path, "corpus": corpus_path, "matrix": matrix, "index": index}


class TestIngest:
    def test_valid_corpus(self, tmp_path, corpus_path, capsys):
        out = str(tmp_path / "matrix.json")
        assert main(["ingest", "--corpus", corpus_path, "--out", out]) == 0
        assert "ingested 6 documents" in capsys.readouterr().out
        payload = decode_array_file(Path(out).read_bytes())
        assert payload["n_docs"] == 6
        assert payload["weighting"] == "raw-count"

    def test_surrogate_and_nul_escapes_match_the_oracle(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": "a", "text": "Plum\\ud800TREE\\u0000plum apple"}\n'
                        '{"id": "b", "text": "\\ud800\\u0000apple\\u0000 tree\\ud800"}\n')
        docs = load_corpus_jsonl(str(path))
        assert "\ud800" in docs[0].text and "\x00" in docs[1].text
        out = str(tmp_path / "m.json")
        assert main(["ingest", "--corpus", str(path), "--out", out]) == 0
        got = load_doc_term_matrix(out)
        want = counter_build_doc_term_matrix(docs, counter_build_vocabulary(docs))
        assert got.vocab.words == want.vocab.words == ["apple", "plum", "tree"]
        assert got.vocab.doc_freq == want.vocab.doc_freq
        assert got.doc_ids == want.doc_ids
        assert as_scipy(got.matrix).toarray().tolist() == as_scipy(want.matrix).toarray().tolist()

    def test_missing_text_field_exits_2_names_line(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "text": "fine words here"}\n{"id": "b"}\n')
        code = main(["ingest", "--corpus", str(path), "--out", str(tmp_path / "m.json")])
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    def test_empty_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        code = main(["ingest", "--corpus", str(path), "--out", str(tmp_path / "m.json")])
        assert code == 2

    def test_tfidf_flag(self, tmp_path, corpus_path):
        out = str(tmp_path / "matrix.json")
        assert main(["ingest", "--corpus", corpus_path, "--out", out, "--tfidf"]) == 0
        assert decode_array_file(Path(out).read_bytes())["weighting"] == "tfidf"

    def test_corpus_directory_exits_2(self, tmp_path, capsys):
        code = main(["ingest", "--corpus", str(tmp_path), "--out",
                     str(tmp_path / "m.json")])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestTrain:
    def test_lsa_deterministic_files(self, pipeline):
        out1 = str(pipeline["tmp"] / "m1.json")
        out2 = str(pipeline["tmp"] / "m2.json")
        args = ["train", "--model", "lsa", "--matrix", pipeline["matrix"],
                "--num-topics", "2", "--seed", "5"]
        assert main(args + ["--out", out1]) == 0
        assert main(args + ["--out", out2]) == 0
        assert open(out1, "rb").read() == open(out2, "rb").read()

    def test_lda_deterministic_files(self, pipeline):
        out1 = str(pipeline["tmp"] / "l1.json")
        out2 = str(pipeline["tmp"] / "l2.json")
        args = ["train", "--model", "lda", "--matrix", pipeline["matrix"],
                "--num-topics", "2", "--iterations", "15", "--seed", "5"]
        assert main(args + ["--out", out1]) == 0
        assert main(args + ["--out", out2]) == 0
        assert open(out1, "rb").read() == open(out2, "rb").read()

    def test_lda_large_k_deterministic_files(self, pipeline):
        out1 = str(pipeline["tmp"] / "r1.json")
        out2 = str(pipeline["tmp"] / "r2.json")
        args = ["train", "--model", "lda", "--matrix", pipeline["matrix"],
                "--num-topics", "64", "--iterations", "5", "--seed", "5"]
        assert main(args + ["--out", out1]) == 0
        assert main(args + ["--out", out2]) == 0
        assert open(out1, "rb").read() == open(out2, "rb").read()

    def test_matrix_without_indices_exits_2(self, pipeline, capsys):
        broken = rewrite_array_file(
            pipeline["matrix"], lambda p: {k: v for k, v in p.items() if k != "indices"},
            pipeline["tmp"] / "no_indices.json",
        )
        code = main(["train", "--model", "lda", "--matrix", broken,
                     "--out", str(pipeline["tmp"] / "m.json"), "--num-topics", "2"])
        assert code == 2
        assert f"{broken}: arrays must list" in capsys.readouterr().err

    def test_lsa_k_too_large_exits_2(self, pipeline, capsys):
        code = main(["train", "--model", "lsa", "--matrix", pipeline["matrix"],
                     "--out", str(pipeline["tmp"] / "m.json"),
                     "--num-topics", "99"])
        assert code == 2
        assert "n_topics" in capsys.readouterr().err

    def test_lda_on_tfidf_exits_2(self, tmp_path, corpus_path, capsys):
        matrix = str(tmp_path / "tfidf.json")
        assert main(["ingest", "--corpus", corpus_path, "--out", matrix, "--tfidf"]) == 0
        code = main(["train", "--model", "lda", "--matrix", matrix,
                     "--out", str(tmp_path / "m.json"), "--num-topics", "2",
                     "--iterations", "5"])
        assert code == 2
        assert "raw counts" in capsys.readouterr().err

    def test_dictlearn_trains(self, pipeline):
        out = str(pipeline["tmp"] / "dl.json")
        assert main(["train", "--model", "dictlearn", "--matrix", pipeline["matrix"],
                     "--out", out, "--num-topics", "2", "--epochs", "2"]) == 0
        assert decode_array_file(Path(out).read_bytes())["model"] == "dictlearn"

    @pytest.mark.parametrize("model,key,value,message", [
        ("lda", "alpha", "nan", "alpha and beta must be finite and > 0"),
        ("lda", "beta", "inf", "alpha and beta must be finite and > 0"),
        ("dictlearn", "kappa", "nan", "kappa must be finite and > 0, got nan"),
        ("dictlearn", "kappa", "inf", "kappa must be finite and > 0, got inf"),
        ("dictlearn", "rho", "nan", "rho must be finite and >= 0, got nan"),
        ("dictlearn", "rho", "inf", "rho must be finite and >= 0, got inf"),
    ])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_non_finite_hyperparameter_exits_2_before_fitting(
        self, pipeline, capsys, monkeypatch, model, key, value, message, source
    ):
        """A NaN or inf value (a config's NaN and Infinity too) exits 2
        before the fit starts, with no RuntimeWarning and no model."""
        def no_fit(*args):
            pytest.fail("the fit ran")

        monkeypatch.setattr(topic_models, "lda_fit", no_fit)
        monkeypatch.setattr(topic_models, "dict_learn_fit", no_fit)
        out = pipeline["tmp"] / "m.json"
        argv = ["train", "--model", model, "--matrix", pipeline["matrix"],
                "--out", str(out), "--num-topics", "2"]
        if source == "flag":
            argv += [f"--{key}", value]
        else:
            config = pipeline["tmp"] / "config.json"
            config.write_text(json.dumps({key: float(value)}))
            argv += ["--config", str(config)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not out.exists()


class TestExtractSets:
    def train_lda(self, pipeline):
        model = str(pipeline["tmp"] / "lda.json")
        assert main(["train", "--model", "lda", "--matrix", pipeline["matrix"],
                     "--out", model, "--num-topics", "2", "--iterations", "40",
                     "--seed", "1"]) == 0
        return model

    def test_delta_recorded_in_records(self, pipeline):
        model = self.train_lda(pipeline)
        sets = str(pipeline["tmp"] / "sets.jsonl")
        assert main(["extract-sets", "--model", model, "--index", pipeline["index"],
                     "--out", sets, "--top-k", "3", "--delta", "0.25"]) == 0
        records = [json.loads(l) for l in open(sets)]
        assert records, "expected at least one consistent set"
        assert all(r["delta"] == 0.25 for r in records)

    def test_near_maximal_delta_yields_nothing(self, pipeline):
        model = self.train_lda(pipeline)
        sets = str(pipeline["tmp"] / "sets99.jsonl")
        assert main(["extract-sets", "--model", model, "--index", pipeline["index"],
                     "--out", sets, "--top-k", "3", "--delta", "0.99"]) == 0
        assert open(sets).read() == ""

    @pytest.mark.parametrize("k", [1, 0, -2])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_top_k_below_2_exits_2(self, pipeline, capsys, k, source):
        model = self.train_lda(pipeline)
        sets = pipeline["tmp"] / "sets.jsonl"
        argv = ["extract-sets", "--model", model, "--index", pipeline["index"],
                "--out", str(sets)]
        if source == "flag":
            argv += ["--top-k", str(k)]
        else:
            config = pipeline["tmp"] / "config.json"
            config.write_text(json.dumps({"top-k": k}))
            argv += ["--config", str(config)]
        capsys.readouterr()
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"--top-k must be at least 2, got {k}" in err
        assert "Traceback" not in err
        assert not sets.exists()

    def test_defaults_are_k4_delta01(self, pipeline, capsys):
        model = self.train_lda(pipeline)
        sets = str(pipeline["tmp"] / "setsdef.jsonl")
        assert main(["extract-sets", "--model", model, "--index", pipeline["index"],
                     "--out", sets]) == 0
        assert "delta=0.1" in capsys.readouterr().out
        for record in (json.loads(l) for l in open(sets)):
            assert len(record["words"]) == 4
            assert record["delta"] == 0.1


class TestGenerate:
    def make_sets(self, pipeline):
        model = str(pipeline["tmp"] / "lda.json")
        sets = str(pipeline["tmp"] / "sets.jsonl")
        assert main(["train", "--model", "lda", "--matrix", pipeline["matrix"],
                     "--out", model, "--num-topics", "2", "--iterations", "40",
                     "--seed", "1"]) == 0
        assert main(["extract-sets", "--model", model, "--index", pipeline["index"],
                     "--out", sets, "--top-k", "3", "--delta", "0.1"]) == 0
        return sets

    def test_deterministic_bank(self, pipeline):
        sets = self.make_sets(pipeline)
        b1 = str(pipeline["tmp"] / "bank1.jsonl")
        b2 = str(pipeline["tmp"] / "bank2.jsonl")
        args = ["generate", "--sets", sets, "--index", pipeline["index"],
                "--eta1", "0.01", "--eta2", "0.9", "--seed", "3"]
        assert main(args + ["--out", b1]) == 0
        assert main(args + ["--out", b2]) == 0
        assert open(b1, "rb").read() == open(b2, "rb").read()

    def test_no_solutions_writes_second_file(self, pipeline):
        sets = self.make_sets(pipeline)
        bank = str(pipeline["tmp"] / "bank.jsonl")
        assert main(["generate", "--sets", sets, "--index", pipeline["index"],
                     "--out", bank, "--eta1", "0.01", "--eta2", "0.9",
                     "--no-solutions"]) == 0
        public = bank.replace(".jsonl", ".nosolutions.jsonl")
        records = [json.loads(l) for l in open(public)]
        assert records
        assert all("solution" not in r for r in records)
        # the loader's checks pass both banks
        solved = puzzles.load_puzzle_bank(bank)
        assert {p.kind for p in solved} >= {puzzles.ODD_ONE_OUT, puzzles.SEPARATE_TOPICS}
        assert puzzles.load_puzzle_bank(public) == [
            replace(p, solution=None, permutation=()) for p in solved
        ]

    @pytest.mark.parametrize("kinds", [",", " , ,", ""])
    def test_empty_kind_list_exits_2(self, pipeline, capsys, kinds):
        sets = self.make_sets(pipeline)
        bank = pipeline["tmp"] / "bank.jsonl"
        capsys.readouterr()
        code = main(["generate", "--sets", sets, "--index", pipeline["index"],
                     "--out", str(bank), "--kinds", kinds, "--no-solutions"])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "no puzzle kind given" in err
        assert not bank.exists()
        assert not (pipeline["tmp"] / "bank.nosolutions.jsonl").exists()

    @pytest.mark.parametrize("kinds", ["odd-one-out,odd-one-out",
                                       "odd-one-out,separate-topics, odd-one-out"])
    def test_repeated_kind_exits_2(self, pipeline, capsys, kinds):
        """A repeated kind once wrote each of its puzzles twice."""
        sets = self.make_sets(pipeline)
        bank = pipeline["tmp"] / "bank.jsonl"
        capsys.readouterr()
        code = main(["generate", "--sets", sets, "--index", pipeline["index"],
                     "--out", str(bank), "--kinds", kinds])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "repeated puzzle kinds: ['odd-one-out']" in err
        assert not bank.exists()

    def test_two_word_sets_keep_their_other_puzzles(self, tmp_path, capsys):
        docs, _ = planted_topic_corpus(n_docs=120, seed=1, background_fraction=0.15)
        corpus_file = tmp_path / "planted.jsonl"
        save_corpus_jsonl(docs, corpus_file)
        matrix, index, model, sets, bank = (
            str(tmp_path / name)
            for name in ("m.json", "i.json", "t.json", "s.jsonl", "b.jsonl")
        )
        assert main(["ingest", "--corpus", str(corpus_file), "--out", matrix]) == 0
        assert main(["index", "--concepts", str(corpus_file), "--out", index]) == 0
        assert main(["train", "--model", "lsa", "--matrix", matrix, "--out", model,
                     "--num-topics", "8"]) == 0
        assert main(["extract-sets", "--model", model, "--index", index,
                     "--out", sets, "--top-k", "2"]) == 0
        capsys.readouterr()
        assert main(["generate", "--sets", sets, "--index", index, "--out", bank,
                     "--band", "beginner"]) == 0
        summary = capsys.readouterr().out
        short = consistency.load_consistent_sets(sets)
        assert len(short) >= 2 and all(len(cs.words) == 2 for cs in short)
        assert int(re.search(r"rejected (\d+)", summary).group(1)) >= len(short)
        bank_puzzles = puzzles.load_puzzle_bank(bank)
        assert bank_puzzles
        assert {p.kind for p in bank_puzzles} <= {"odd-one-out", "separate-topics"}
        sim = esa.SimilarityProvider(esa.load_esa_index(index))
        by_topic = {cs.topic_index: cs for cs in short}
        for puzzle in bank_puzzles:
            assert puzzles.verify_puzzle(puzzle, sim, by_topic) == []

    def test_unknown_band_exits_2(self, pipeline, capsys):
        sets = self.make_sets(pipeline)
        code = main(["generate", "--sets", sets, "--index", pipeline["index"],
                     "--out", str(pipeline["tmp"] / "b.jsonl"), "--band", "expert"])
        assert code == 2
        assert "unknown band" in capsys.readouterr().err

    def test_summary_reports_exhausted(self, pipeline, capsys):
        sets = self.make_sets(pipeline)
        bank = str(pipeline["tmp"] / "bank.jsonl")
        # unreachable narrow band high up: everything exhausts
        assert main(["generate", "--sets", sets, "--index", pipeline["index"],
                     "--out", bank, "--eta1", "0.985", "--eta2", "0.99",
                     "--max-attempts", "16"]) == 0
        out = capsys.readouterr().out
        assert "exhausted" in out

    @pytest.mark.parametrize("attempts", ["0", "-3"])
    def test_choose_related_max_attempts_below_1_exits_2(
        self, pipeline, capsys, attempts
    ):
        sets = self.make_sets(pipeline)
        assert open(sets).read().strip()
        bank = pipeline["tmp"] / "bank.jsonl"
        code = main(["generate", "--sets", sets, "--index", pipeline["index"],
                     "--out", str(bank), "--eta1", "0.01", "--eta2", "0.9",
                     "--kinds", "choose-related", "--max-attempts", attempts])
        assert code == 2
        err = capsys.readouterr().err
        assert "max_attempts must be >= 1" in err
        assert "Traceback" not in err
        assert not bank.exists()

    @pytest.mark.parametrize("kinds", ["separate-topics", "odd-one-out"])
    @pytest.mark.parametrize("key,value,message", [
        ("max-attempts", 0, "max_attempts must be >= 1"),
        ("n-distractors", 0, "n_distractors must be >= 1"),
        ("n-distractors", -2, "n_distractors must be >= 1"),
        ("eta2-cross", 0.0, "eta2_cross must be > 0"),
        ("eta2-cross", float("nan"), "eta2_cross must be > 0 and <= 1, got nan"),
        ("eta2-cross", float("inf"), "eta2_cross must be > 0 and <= 1, got inf"),
        ("eta2-cross", 5.0, "eta2_cross must be > 0 and <= 1, got 5.0"),
    ])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_bad_generator_setting_exits_2_for_any_kinds(
        self, pipeline, capsys, kinds, key, value, message, source
    ):
        """A setting is checked before any kind runs, also when no kind of
        the list uses it."""
        sets = self.make_sets(pipeline)
        bank = pipeline["tmp"] / "bank.jsonl"
        argv = ["generate", "--sets", sets, "--index", pipeline["index"],
                "--out", str(bank), "--kinds", kinds, "--no-solutions"]
        if source == "flag":
            argv += [f"--{key}", str(value)]
        else:
            config = pipeline["tmp"] / "config.json"
            config.write_text(json.dumps({key: value}))
            argv += ["--config", str(config)]
        capsys.readouterr()
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert message in err
        assert "Traceback" not in err
        assert not bank.exists()
        assert not (pipeline["tmp"] / "bank.nosolutions.jsonl").exists()

    @pytest.mark.parametrize("key,value,message", [
        ("words", "vote", "equal-length lists"),
        ("word_indices", [0.0, 1.0], "equal-length lists"),
        ("score", "high", "score must be a finite number"),
        ("delta", float("nan"), "delta must be a finite number"),
    ])
    def test_mistyped_set_record_exits_2_names_line(
        self, pipeline, capsys, key, value, message
    ):
        sets = self.make_sets(pipeline)
        records = [json.loads(l) for l in open(sets)]
        assert records
        records[-1][key] = value
        broken = pipeline["tmp"] / "mistyped.jsonl"
        broken.write_text("".join(json.dumps(r) + "\n" for r in records))
        code = main(["generate", "--sets", str(broken), "--index", pipeline["index"],
                     "--out", str(pipeline["tmp"] / "b.jsonl")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"line {len(records)}" in err
        assert message in err

    def test_sets_without_topic_exits_2(self, pipeline, capsys):
        sets = self.make_sets(pipeline)
        records = [json.loads(l) for l in open(sets)]
        assert records
        for record in records:
            del record["topic"]
        broken = pipeline["tmp"] / "no_topic.jsonl"
        broken.write_text("".join(json.dumps(r) + "\n" for r in records))
        code = main(["generate", "--sets", str(broken), "--index", pipeline["index"],
                     "--out", str(pipeline["tmp"] / "b.jsonl")])
        assert code == 2
        assert "topic" in capsys.readouterr().err


class TestEvalYield:
    def test_counts_non_increasing_and_csv(self, pipeline, capsys):
        csv_path = str(pipeline["tmp"] / "yield.csv")
        assert main(["eval-yield", "--matrix", pipeline["matrix"],
                     "--index", pipeline["index"],
                     "--models", "lsa,lda",
                     "--delta-grid", "0.0,0.2,0.4",
                     "--num-topics", "2", "--iterations", "30",
                     "--top-k", "3", "--out", csv_path]) == 0
        lines = open(csv_path).read().strip().splitlines()
        assert lines[0] == "delta,lsa,lda"
        rows = [line.split(",") for line in lines[1:]]
        assert [r[0] for r in rows] == ["0", "0.2", "0.4"]
        for col in (1, 2):
            counts = [int(r[col]) for r in rows]
            assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_non_increasing_grid_exits_2(self, pipeline, capsys):
        code = main(["eval-yield", "--matrix", pipeline["matrix"],
                     "--index", pipeline["index"], "--models", "lsa",
                     "--delta-grid", "0.2,0.1", "--num-topics", "2"])
        assert code == 2
        assert "strictly increasing" in capsys.readouterr().err

    def test_single_cell_agrees_with_extract_sets(self, pipeline, capsys):
        model = str(pipeline["tmp"] / "lda.json")
        sets = str(pipeline["tmp"] / "sets.jsonl")
        assert main(["train", "--model", "lda", "--matrix", pipeline["matrix"],
                     "--out", model, "--num-topics", "2", "--iterations", "30",
                     "--seed", "0"]) == 0
        assert main(["extract-sets", "--model", model, "--index", pipeline["index"],
                     "--out", sets, "--top-k", "3", "--delta", "0.1"]) == 0
        n_sets = len(open(sets).read().splitlines())
        capsys.readouterr()
        assert main(["eval-yield", "--matrix", pipeline["matrix"],
                     "--index", pipeline["index"], "--models", "lda",
                     "--delta-grid", "0.1", "--num-topics", "2",
                     "--iterations", "30", "--top-k", "3", "--seed", "0"]) == 0
        table = capsys.readouterr().out.strip().splitlines()
        assert table[-1] == f"0.1,{n_sets}"

    def test_zero_grid_counts_positive_bottleneck_sets(self, pipeline, capsys):
        model = str(pipeline["tmp"] / "lda.json")
        sets = str(pipeline["tmp"] / "sets0.jsonl")
        assert main(["train", "--model", "lda", "--matrix", pipeline["matrix"],
                     "--out", model, "--num-topics", "2", "--iterations", "30",
                     "--seed", "2"]) == 0
        assert main(["extract-sets", "--model", model, "--index", pipeline["index"],
                     "--out", sets, "--top-k", "3", "--delta", "0.0"]) == 0
        records = [json.loads(l) for l in open(sets)]
        assert all(r["score"] > 0 for r in records)
        capsys.readouterr()
        assert main(["eval-yield", "--matrix", pipeline["matrix"],
                     "--index", pipeline["index"], "--models", "lda",
                     "--delta-grid", "0.0", "--num-topics", "2",
                     "--iterations", "30", "--top-k", "3", "--seed", "2"]) == 0
        table = capsys.readouterr().out.strip().splitlines()
        assert table[-1] == f"0,{len(records)}"

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_top_k_below_2_exits_2(self, pipeline, capsys, source):
        csv_path = pipeline["tmp"] / "yield.csv"
        argv = ["eval-yield", "--matrix", pipeline["matrix"], "--index",
                pipeline["index"], "--models", "lsa", "--delta-grid", "0.1",
                "--num-topics", "2", "--out", str(csv_path)]
        if source == "flag":
            argv += ["--top-k", "1"]
        else:
            config = pipeline["tmp"] / "config.json"
            config.write_text(json.dumps({"top-k": 1}))
            argv += ["--config", str(config)]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "--top-k must be at least 2, got 1" in err
        assert not csv_path.exists()

    @pytest.mark.parametrize("models", [",", " , ,", ""])
    def test_empty_model_list_exits_2(self, pipeline, capsys, models):
        csv_path = pipeline["tmp"] / "yield.csv"
        code = main(["eval-yield", "--matrix", pipeline["matrix"],
                     "--index", pipeline["index"], "--models", models,
                     "--delta-grid", "0.1", "--out", str(csv_path)])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "no model given; models: lsa,lda,dictlearn" in err
        assert not csv_path.exists()

    def test_repeated_model_exits_2(self, pipeline, capsys):
        """A repeated model was once fitted twice."""
        csv_path = pipeline["tmp"] / "yield.csv"
        code = main(["eval-yield", "--matrix", pipeline["matrix"],
                     "--index", pipeline["index"], "--models", "lsa,lda,lsa",
                     "--delta-grid", "0.1", "--out", str(csv_path)])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "repeated models: ['lsa']" in err
        assert not csv_path.exists()

    @pytest.mark.parametrize("names", [["bert"], ["lsa", ""], ["LDA"]])
    def test_unknown_model_in_config_exits_2(self, pipeline, capsys, names):
        config = pipeline["tmp"] / "config.json"
        config.write_text(json.dumps({"models": {name: {} for name in names}}))
        csv_path = pipeline["tmp"] / "yield.csv"
        code = main(["eval-yield", "--matrix", pipeline["matrix"],
                     "--index", pipeline["index"], "--models", "lsa",
                     "--delta-grid", "0.1", "--num-topics", "2",
                     "--config", str(config), "--out", str(csv_path)])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"unknown models: {sorted(set(names) - {'lsa'})}" in err
        assert not csv_path.exists()

    def test_unknown_model_exits_2(self, pipeline, capsys):
        code = main(["eval-yield", "--matrix", pipeline["matrix"],
                     "--index", pipeline["index"], "--models", "bert",
                     "--delta-grid", "0.1"])
        assert code == 2

    def test_bad_regularizer_in_config_exits_2(self, pipeline, capsys):
        config = pipeline["tmp"] / "config.json"
        config.write_text(json.dumps({"regularizer": "no-such-reg"}))
        code = main(["eval-yield", "--matrix", pipeline["matrix"],
                     "--index", pipeline["index"], "--models", "dictlearn",
                     "--delta-grid", "0.1", "--num-topics", "2", "--epochs", "1",
                     "--config", str(config)])
        assert code == 2
        assert "no-such-reg" in capsys.readouterr().err

    def test_group_l2_reaches_dictlearn_fit(self, pipeline, monkeypatch):
        import topicpuzzles.cli as cli_module

        seen = []
        real_fit = cli_module.topic_models.dict_learn_fit

        def recording_fit(dtm, config):
            seen.append(config)
            return real_fit(dtm, config)

        monkeypatch.setattr(cli_module.topic_models, "dict_learn_fit", recording_fit)
        config = pipeline["tmp"] / "config.json"
        config.write_text(json.dumps({"regularizer": "group-l2", "n-groups": 2}))
        assert main(["eval-yield", "--matrix", pipeline["matrix"],
                     "--index", pipeline["index"], "--models", "dictlearn",
                     "--delta-grid", "0.1", "--num-topics", "4", "--epochs", "1",
                     "--config", str(config)]) == 0
        assert [(c.regularizer, c.n_groups) for c in seen] == [("group-l2", 2)]

    def test_invariant_violation_exits_3(self, pipeline, capsys, monkeypatch):
        import topicpuzzles.cli as cli_module

        class Inverted(float):
            """A score that compares above large thresholds only."""

            def __gt__(self, delta):
                return delta > 0.1

        def rigged(sets, provider, delta):
            # one kept set whose count grows with delta: invalid
            return [SimpleNamespace(score=Inverted(0.5))]

        monkeypatch.setattr(
            cli_module.consistency, "identify_consistent_sets", rigged
        )
        code = main(["eval-yield", "--matrix", pipeline["matrix"],
                     "--index", pipeline["index"], "--models", "lsa",
                     "--delta-grid", "0.0,0.2", "--num-topics", "2"])
        assert code == 3
        assert "non-increasing" in capsys.readouterr().err


@needs_cc
class TestFallbackNote:
    """A command that ran a Python kernel where a C one exists says so in
    one stderr line per fit, or one for its ESA products; stdout and the
    output file are the C kernels' bytes."""

    @staticmethod
    def run_on_both_kernels(argv, out, capsys, monkeypatch):
        runs = {}
        for kernel in ("native", "fallback"):
            with monkeypatch.context() as patch:
                use_kernel(kernel, patch)
                capsys.readouterr()
                assert main(argv + ["--out", f"{out}.{kernel}"]) == 0
                runs[kernel] = capsys.readouterr(), open(f"{out}.{kernel}", "rb").read()
        (native, native_bytes), (fallback, fallback_bytes) = runs.values()
        assert native.err == ""
        assert fallback.out == native.out
        assert fallback_bytes == native_bytes
        return fallback.err.splitlines()

    @pytest.mark.parametrize("model, extra", [
        ("lsa", []),
        ("lda", ["--iterations", "15"]),
        ("dictlearn", ["--epochs", "2"]),
        ("dictlearn", ["--epochs", "2", "--regularizer", "group-l2"]),
    ], ids=["lsa", "lda", "dictlearn-l1", "dictlearn-group-l2"])
    def test_train(self, pipeline, capsys, monkeypatch, model, extra):
        argv = ["train", "--model", model, "--matrix", pipeline["matrix"],
                "--num-topics", "2", "--seed", "5", *extra]
        notes = self.run_on_both_kernels(
            argv, pipeline["tmp"] / "model.json", capsys, monkeypatch
        )
        assert notes == [
            f"note: {model} ran its Python kernel, which gives the same results "
            "more slowly; the C kernels did not load: forced off"
        ]

    def test_eval_yield_notes_each_fit(self, pipeline, capsys, monkeypatch):
        argv = ["eval-yield", "--matrix", pipeline["matrix"], "--index",
                pipeline["index"], "--delta-grid", "0.0,0.2", "--num-topics", "2",
                "--iterations", "15", "--epochs", "2", "--top-k", "3"]
        notes = self.run_on_both_kernels(
            argv, pipeline["tmp"] / "yield.csv", capsys, monkeypatch
        )
        assert [line.split()[1] for line in notes] == ["lsa", "lda", "dictlearn"]

    def test_esa_commands_note_once(self, pipeline, capsys, monkeypatch):
        tmp = pipeline["tmp"]
        model = str(tmp / "model.json")
        assert main(["train", "--model", "lsa", "--matrix", pipeline["matrix"],
                     "--out", model, "--num-topics", "2"]) == 0
        commands = {
            "index": (["index", "--concepts", pipeline["corpus"]], tmp / "index.json"),
            "extract-sets": (["extract-sets", "--model", model, "--index",
                              pipeline["index"], "--top-k", "3", "--delta", "0.0"],
                             tmp / "sets.jsonl"),
            "generate": (["generate", "--sets", f"{tmp / 'sets.jsonl'}.native",
                          "--index", pipeline["index"], "--band", "intermediate"],
                         tmp / "bank.jsonl"),
        }
        for name, (argv, out) in commands.items():
            notes = self.run_on_both_kernels(argv, out, capsys, monkeypatch)
            assert notes == [
                f"note: {name} ran its Python kernel, which gives the same results "
                "more slowly; the C kernels did not load: forced off"
            ]
        assert consistency.load_consistent_sets(f"{tmp / 'sets.jsonl'}.native")

    def test_missing_source_falls_back(self, pipeline, capsys, monkeypatch):
        """Without ``kernels.c`` the library cannot be built: ``train`` runs
        the Python kernel, writes the C run's bytes and names the file."""
        out = pipeline["tmp"] / "model.json"
        argv = ["train", "--model", "lda", "--matrix", pipeline["matrix"],
                "--num-topics", "2", "--iterations", "15", "--out"]
        use_kernel("native", monkeypatch)
        assert main(argv + [f"{out}.native"]) == 0
        missing = pipeline["tmp"] / "nowhere" / "kernels.c"
        try:
            with monkeypatch.context() as patch:
                patch.setattr(kernels, "_SOURCE", missing)
                kernels._native_kernels.cache_clear()
                capsys.readouterr()
                assert main(argv + [f"{out}.missing"]) == 0
        finally:
            kernels._native_kernels.cache_clear()
        notes = capsys.readouterr().err.splitlines()
        assert len(notes) == 1 and str(missing) in notes[0]
        assert notes[0].startswith("note: lda ran its Python kernel")
        assert open(f"{out}.missing", "rb").read() == open(f"{out}.native", "rb").read()


class TestImpossibleAllocation:
    """A topic count whose first K-sized array cannot be allocated exits 2
    with numpy's message before any output. 10**15 topics make every array
    that grows with K at least 10**15 bytes (about 900 TiB), more than a
    47-bit address space holds, so the allocation fails at once. Group-l2
    builds its groups in Python only after the dictionary is allocated."""

    @pytest.mark.parametrize("argv,message", [
        (["train", "--model", "lda"], "Unable to allocate"),
        (["train", "--model", "dictlearn"], "Unable to allocate"),
        (["train", "--model", "dictlearn", "--regularizer", "group-l2",
          "--n-groups", "2"], "Unable to allocate"),
        (["eval-yield", "--models", "lda", "--delta-grid", "0.1"], "Unable to allocate"),
        (["eval-yield", "--models", "dictlearn", "--delta-grid", "0.1"],
         "Unable to allocate"),
    ], ids=["train-lda", "train-dictlearn", "train-dictlearn-group-l2",
            "eval-yield-lda", "eval-yield-dictlearn"])
    def test_exits_2_with_no_output(self, pipeline, capsys, argv, message):
        out = pipeline["tmp"] / "out"
        if argv[0] == "eval-yield":
            argv = argv + ["--index", pipeline["index"]]
        before = sorted(pipeline["tmp"].iterdir())
        code = main(argv + ["--matrix", pipeline["matrix"], "--out", str(out),
                            "--num-topics", str(10**15)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith(f"error: {message}")
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert sorted(pipeline["tmp"].iterdir()) == before


def first(key, value):
    """A payload change that makes ``value`` the first item of list ``key``."""
    return lambda p: {**p, key: [value] + p[key][1:]}


def declare(key, dtype):
    """A payload change that declares (and encodes) array ``key`` as ``dtype``."""
    return lambda p: redeclare(p, key, dtype)


class TestLoadErrors:
    """A corrupt or inconsistent input file exits 2 with a message, never a
    traceback, and ``index`` refuses to write an index without words."""

    def extract(self, pipeline, model=None, index=None):
        if model is None:
            model = str(pipeline["tmp"] / "lsa.json")
            assert main(["train", "--model", "lsa", "--matrix", pipeline["matrix"],
                         "--out", model, "--num-topics", "2"]) == 0
        return main(["extract-sets", "--model", model,
                     "--index", index or pipeline["index"],
                     "--out", str(pipeline["tmp"] / "sets.jsonl")])

    def rewrite(self, pipeline, path, change):
        return rewrite_array_file(path, change, pipeline["tmp"] / "broken.json")

    def write_json(self, pipeline, path, change):
        """A JSON file holding ``change`` of an array file's decoded dict,
        as the files were written before they held binary arrays."""
        payload = decode_array_file(Path(path).read_bytes())
        del payload["arrays"]
        broken = pipeline["tmp"] / "broken.json"
        broken.write_text(json.dumps(change(payload)) + "\n")
        return str(broken)

    def test_model_without_weights_exits_2(self, pipeline, capsys):
        self.extract(pipeline)
        model = self.rewrite(
            pipeline, pipeline["tmp"] / "lsa.json",
            lambda p: {k: v for k, v in p.items() if k != "weights"},
        )
        assert self.extract(pipeline, model=model) == 2
        assert f"{model}: arrays must list" in capsys.readouterr().err

    def test_model_weights_length_mismatch_exits_2(self, pipeline, capsys):
        self.extract(pipeline)
        model = self.rewrite(
            pipeline, pipeline["tmp"] / "lsa.json",
            lambda p: {**p, "weights": p["weights"][:-1]},
        )
        assert self.extract(pipeline, model=model) == 2
        assert "n_words * n_topics" in capsys.readouterr().err

    @pytest.mark.parametrize("key,message", [
        ("weights", "weights must be finite"),
        ("singular_values", "singular values must be finite"),
    ])
    def test_model_non_finite_values_exit_2(self, pipeline, capsys, key, message):
        self.extract(pipeline)
        model = self.rewrite(
            pipeline, pipeline["tmp"] / "lsa.json",
            lambda p: {**p, key: [float("nan")] + p[key][1:]},
        )
        assert self.extract(pipeline, model=model) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("dtype", ["|b1", "<f4", ">i8", "<i8"])
    def test_model_singular_values_not_float64_exit_2(self, pipeline, capsys, dtype):
        self.extract(pipeline)
        model = self.rewrite(
            pipeline, pipeline["tmp"] / "lsa.json", declare("singular_values", dtype)
        )
        assert self.extract(pipeline, model=model) == 2
        err = capsys.readouterr().err
        assert f"{model}: arrays must list" in err
        assert "Traceback" not in err

    def test_unknown_model_name_exits_2(self, pipeline, capsys):
        self.extract(pipeline)
        model = self.rewrite(
            pipeline, pipeline["tmp"] / "lsa.json", lambda p: {**p, "model": "bogus"}
        )
        sets = pipeline["tmp"] / "sets.jsonl"
        sets.unlink()
        assert self.extract(pipeline, model=model) == 2
        err = capsys.readouterr().err
        assert f"{model}: model must be one of lsa, lda, dictlearn" in err
        assert "Traceback" not in err
        assert not sets.exists()

    @pytest.mark.parametrize("key,how,message", INDEX_CORRUPTIONS)
    def test_inconsistent_index_exits_2(self, pipeline, capsys, key, how, message):
        index = self.rewrite(
            pipeline, pipeline["index"], lambda p: mangle_index(p, key, how)
        )
        assert self.extract(pipeline, index=index) == 2
        err = capsys.readouterr().err
        assert f"{index}: " in err and message in err
        assert "Traceback" not in err

    def test_version_1_index_exits_2(self, pipeline, capsys):
        index = self.write_json(pipeline, pipeline["index"], lambda p: {
            "format": "esa-index", "version": 1, "concept_ids": p["concept_ids"],
            "n_concepts": len(p["concept_ids"]), "truncation": p["truncation"],
            "vectors": {},
        })
        assert self.extract(pipeline, index=index) == 2
        assert "re-run `index`" in capsys.readouterr().err

    def test_version_2_json_index_exits_2(self, pipeline, capsys):
        index = self.write_json(pipeline, pipeline["index"], lambda p: {**p, "version": 2})
        assert self.extract(pipeline, index=index) == 2
        err = capsys.readouterr().err
        assert f"{index}: unsupported version 2; re-run `index` to rebuild it" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("name", ["matrix", "index", "model"])
    @pytest.mark.parametrize("row,change,message", CONTAINER_CORRUPTIONS,
                             ids=[row for row, *_ in CONTAINER_CORRUPTIONS])
    def test_corrupt_array_file_exits_2(self, pipeline, capsys, name, row, change,
                                        message):
        """The command reading the file exits 2 and leaves no output file,
        finished or temporary."""
        tmp = pipeline["tmp"]
        model = str(tmp / "lsa.json")
        assert main(["train", "--model", "lsa", "--matrix", pipeline["matrix"],
                     "--out", model, "--num-topics", "2"]) == 0
        path = {"matrix": pipeline["matrix"], "index": pipeline["index"], "model": model}
        broken = tmp / f"broken-{name}.json"
        broken.write_bytes(change(Path(path[name]).read_bytes()))
        out = tmp / "out" / "output"
        out.parent.mkdir()
        if name == "matrix":
            argv = ["train", "--model", "lsa", "--matrix", str(broken), "--num-topics", "2"]
        else:
            argv = ["extract-sets", "--model", model, "--index", pipeline["index"]]
            argv[argv.index(path[name])] = str(broken)
        capsys.readouterr()
        assert main(argv + ["--out", str(out)]) == 2
        out_text, err = capsys.readouterr()
        assert out_text == ""
        assert err.startswith(f"error: {broken}: ") and message in err
        assert "Traceback" not in err
        assert list(out.parent.iterdir()) == []

    @pytest.mark.parametrize("key", ["words", "word_indices"])
    def test_set_with_repeated_word_exits_2(self, pipeline, capsys, key):
        """A set naming one word twice once gave a puzzle that
        ``verify_puzzle`` rejects, with exit 0."""
        records = [json.loads(line) for line in open(TestGenerate().make_sets(pipeline))]
        records[0][key][1] = records[0][key][0]
        broken = pipeline["tmp"] / "repeated.jsonl"
        broken.write_text("".join(json.dumps(r) + "\n" for r in records))
        bank = pipeline["tmp"] / "bank.jsonl"
        capsys.readouterr()
        assert main(["generate", "--sets", str(broken), "--index", pipeline["index"],
                     "--out", str(bank)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"{broken} line 1: words and word_indices must not repeat" in err
        assert "Traceback" not in err
        assert not bank.exists()

    def test_sets_with_repeated_topic_exits_2(self, pipeline, capsys):
        """Two lines of one topic once exited 0, and their odd-one-out tasks
        shared a derived seed, so they gave byte-identical puzzles."""
        lines = open(TestGenerate().make_sets(pipeline)).readlines()
        topic = json.loads(lines[0])["topic"]
        broken = pipeline["tmp"] / "repeated_topic.jsonl"
        broken.write_text(lines[0] + "\n" + lines[0])
        bank = pipeline["tmp"] / "bank.jsonl"
        capsys.readouterr()
        assert main(["generate", "--sets", str(broken), "--index", pipeline["index"],
                     "--out", str(bank)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"{broken} line 3: topic {topic} repeats an earlier line" in err
        assert "Traceback" not in err
        assert not bank.exists()

    def write_sets(self, pipeline, last_words, last_indices):
        """A sets file of two sets whose second has the given words and
        indices; returns its path and an empty directory for outputs."""
        sets, out = pipeline["tmp"] / "sets.jsonl", pipeline["tmp"] / "out"
        consistency.save_consistent_sets([
            consistency.ConsistentSet(0, (0, 1, 2), ("vote", "ballot", "election"), 0.5, 0.1),
            consistency.ConsistentSet(1, last_indices, last_words, 0.5, 0.1),
        ], sets)
        out.mkdir()
        return sets, out

    def generate_fails(self, pipeline, capsys, sets, out, message):
        """``generate`` on ``sets`` exits 2 naming the file and line 2, with
        no traceback and no file in ``out``, not even a temporary one."""
        capsys.readouterr()
        assert main(["generate", "--sets", str(sets), "--index", pipeline["index"],
                     "--out", str(out / "bank.jsonl"), "--no-solutions"]) == 2
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert err.startswith(f"error: {sets} line 2: ") and message in err
        assert "Traceback" not in err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("words,indices", [
        ((), ()), (("wizard",), (5,)), (("wizard", "wand"), (5, -1)),
    ], ids=["empty", "one-word", "negative-index"])
    def test_set_too_small_or_negative_index_exits_2(self, pipeline, capsys, words,
                                                     indices):
        """An empty set once exited 2 with ``max() arg is an empty sequence``,
        and a one-word set exited 0 with puzzles that ``verify_puzzle``
        cannot check: a spanning tree needs 2 words."""
        sets, out = self.write_sets(pipeline, words, indices)
        self.generate_fails(pipeline, capsys, sets, out,
                            "a set needs at least 2 words and word_indices >= 0")

    def test_intact_sets_file_generates(self, pipeline):
        """The file the corruption cases below start from is valid."""
        sets, out = self.write_sets(pipeline, ("wizard", "wand"), (5, 6))
        assert main(["generate", "--sets", str(sets), "--index", pipeline["index"],
                     "--out", str(out / "bank.jsonl")]) == 0

    @pytest.mark.parametrize("change", SETS_CORRUPTIONS.values(), ids=SETS_CORRUPTIONS.keys())
    def test_corrupt_sets_file_exits_2(self, pipeline, capsys, change):
        sets, out = self.write_sets(pipeline, ("wizard", "wand"), (5, 6))
        sets.write_text(change(sets.read_text()))
        self.generate_fails(pipeline, capsys, sets, out, "")

    @pytest.mark.parametrize("command", ["ingest", "index"])
    @pytest.mark.parametrize("change", CORPUS_CORRUPTIONS.values(),
                             ids=CORPUS_CORRUPTIONS.keys())
    def test_corrupt_corpus_file_exits_2(self, corpus_path, tmp_path, capsys, command,
                                         change):
        """The command reading the corpus exits 2 and leaves no output file,
        finished or temporary."""
        broken = tmp_path / "broken.jsonl"
        edited = change(Path(corpus_path).read_text())
        broken.write_bytes(edited if isinstance(edited, bytes) else edited.encode())
        out = tmp_path / "out"
        out.mkdir()
        flag = "--corpus" if command == "ingest" else "--concepts"
        assert main([command, flag, str(broken), "--out", str(out / "out.json")]) == 2
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert err.startswith("error: ") and str(broken) in err
        assert "Traceback" not in err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", ["ingest", "index", "generate", "train",
                                         "eval-yield"])
    def test_deeply_nested_json_exits_2(self, pipeline, capsys, command):
        """A JSON value nested deeper than the decoder's recursion limit once
        exited 1 with a RecursionError traceback: in a corpus, concepts or
        sets line, in an array file's header, or as a config file."""
        tmp = pipeline["tmp"]
        broken, out = tmp / "deep.json", tmp / "deep-out"
        out.mkdir()
        if command in ("ingest", "index"):
            broken.write_text(Path(pipeline["corpus"]).read_text() + DEEP + "\n")
            flag = "--corpus" if command == "ingest" else "--concepts"
            argv = [command, flag, str(broken)]
            message = f"{broken} line {len(TINY_DOCS) + 1}: "
        elif command == "generate":
            sets, _ = self.write_sets(pipeline, ("wizard", "wand"), (5, 6))
            broken.write_text(sets.read_text().splitlines()[0] + "\n" + DEEP + "\n")
            argv = ["generate", "--sets", str(broken), "--index", pipeline["index"]]
            message = f"{broken} line 2: "
        elif command == "train":
            header, body = Path(pipeline["matrix"]).read_bytes().split(b"\n", 1)
            broken.write_bytes(header[:-1] + b',"deep":' + DEEP.encode() + b"}\n" + body)
            argv = ["train", "--model", "lsa", "--matrix", str(broken)]
            message = f"{broken}: line 1: "
        else:
            broken.write_text(DEEP)
            argv = ["eval-yield", "--matrix", pipeline["matrix"], "--index",
                    pipeline["index"], "--delta-grid", "0.1", "--config", str(broken)]
            message = f"cannot read config {broken}: "
        capsys.readouterr()
        assert main(argv + ["--out", str(out / "result")]) == 2
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert f"{message}invalid JSON (nested too deeply)" in err
        assert "Traceback" not in err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("limit", ["0", "-1"])
    def test_index_truncation_below_1_exits_2(self, corpus_path, tmp_path, capsys, limit):
        out = tmp_path / "index.json"
        code = main(["index", "--concepts", corpus_path, "--out", str(out),
                     "--max-concepts-per-word", limit])
        assert code == 2
        assert "truncation must be an int >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_single_concept_document_index_exits_2(self, tmp_path, capsys):
        concepts = tmp_path / "one.jsonl"
        save_corpus_jsonl([Document("only", "lonely words here")], concepts)
        out = tmp_path / "index.json"
        code = main(["index", "--concepts", str(concepts), "--out", str(out)])
        assert code == 2
        assert "concept vector" in capsys.readouterr().err
        assert not out.exists()


    def test_model_vocab_shorter_than_weights_exits_2(self, pipeline, capsys):
        self.extract(pipeline)
        model = self.rewrite(
            pipeline, pipeline["tmp"] / "lsa.json",
            lambda p: {**p, "vocab": p["vocab"][:-1]},
        )
        assert self.extract(pipeline, model=model) == 2
        assert "vocab must list n_words" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("vocab", 5), ("doc_ids", [1]), ("n_docs", "6"),
    ])
    def test_mistyped_matrix_header_exits_2(self, pipeline, capsys, key, value):
        matrix = self.rewrite(pipeline, pipeline["matrix"], lambda p: {**p, key: value})
        code = main(["train", "--model", "lsa", "--matrix", matrix,
                     "--out", str(pipeline["tmp"] / "m.json"), "--num-topics", "2"])
        assert code == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("change,message", [
        (first("data", -1), "finite positive"),
        (first("data", 0), "finite positive"),
        (first("data", float("nan")), "finite positive"),
        (first("data", float("inf")), "finite positive"),
        (first("data", 0.4), "whole numbers"),
        # the first document holds at least two words: repeat its first row
        (lambda p: {**p, "indices": p["indices"][:1] * 2 + p["indices"][2:]},
         "ascend strictly within each document"),
        (first("indices", -1), "word indices must lie in [0, "),
        (lambda p: first("indices", p["n_words"])(p), "word indices must lie in [0, "),
        (lambda p: {**p, "indptr": [0, p["indptr"][2], p["indptr"][1]] + p["indptr"][3:]},
         "non-decreasing"),
        (lambda p: {**p, "indptr": p["indptr"][:-1]}, "non-decreasing"),
        (declare("indices", "|b1"), "arrays must list"),
        (declare("indptr", "<f4"), "arrays must list"),
        (declare("data", ">i8"), "arrays must list"),
        (first("indices", 2**62), "word indices must lie in [0, "),
    ], ids=["negative", "zero", "nan", "infinite", "fractional-count",
            "duplicate", "row-out-of-range", "row-past-end", "indptr-not-monotone",
            "indptr-wrong-length", "bool-indices", "float32-indptr",
            "int64-data", "huge-index"])
    def test_bad_matrix_values_exit_2(self, pipeline, capsys, change, message):
        matrix = self.rewrite(pipeline, pipeline["matrix"], change)
        code = main(["train", "--model", "lsa", "--matrix", matrix,
                     "--out", str(pipeline["tmp"] / "m.json"), "--num-topics", "2"])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{matrix}: " in err and message in err
        assert "Traceback" not in err

    def test_version_1_matrix_exits_2(self, pipeline, capsys):
        matrix = self.write_json(pipeline, pipeline["matrix"], lambda p: {
            **{k: v for k, v in p.items() if k not in ("indptr", "indices", "data")},
            "version": 1, "triplets": [[0, 0, 1.0]],
        })
        code = main(["train", "--model", "lsa", "--matrix", matrix,
                     "--out", str(pipeline["tmp"] / "m.json"), "--num-topics", "2"])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{matrix}: unsupported version 1; re-run `ingest`" in err
        assert not (pipeline["tmp"] / "m.json").exists()

    def test_unknown_weighting_exits_2(self, pipeline, capsys):
        matrix = self.rewrite(
            pipeline, pipeline["matrix"], lambda p: {**p, "weighting": "bogus"}
        )
        code = main(["train", "--model", "lsa", "--matrix", matrix,
                     "--out", str(pipeline["tmp"] / "m.json"), "--num-topics", "2"])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{matrix}: weighting must be" in err
        assert "Traceback" not in err


class TestYieldCurveType:
    def test_validate_accepts_monotone(self):
        from topicpuzzles.cli import YieldCurve

        curve = YieldCurve(deltas=[0.0, 0.1], counts={"lsa": [5, 3]})
        assert curve.validate() is curve
        assert curve.as_csv() == "delta,lsa\n0,5\n0.1,3\n"

    def test_validate_rejects_increase(self):
        from topicpuzzles.cli import InternalError, YieldCurve

        curve = YieldCurve(deltas=[0.0, 0.1], counts={"lsa": [3, 5]})
        with pytest.raises(InternalError):
            curve.validate()


class TestConfigFile:
    def test_flags_override_config(self, pipeline, capsys):
        config = pipeline["tmp"] / "config.json"
        config.write_text(json.dumps({"top-k": 3, "delta": 0.5}))
        model = str(pipeline["tmp"] / "lda.json")
        sets = str(pipeline["tmp"] / "sets.jsonl")
        assert main(["train", "--model", "lda", "--matrix", pipeline["matrix"],
                     "--out", model, "--num-topics", "2", "--iterations", "30"]) == 0
        # config supplies top-k=3 and delta=0.5; flag overrides delta
        assert main(["extract-sets", "--model", model, "--index", pipeline["index"],
                     "--out", sets, "--config", str(config),
                     "--delta", "0.1"]) == 0
        records = [json.loads(l) for l in open(sets)]
        assert records
        assert all(len(r["words"]) == 3 for r in records)
        assert all(r["delta"] == 0.1 for r in records)

    def test_missing_config_exits_2(self, pipeline, capsys):
        code = main(["extract-sets", "--model", "x", "--index", pipeline["index"],
                     "--out", "y", "--config", "/nonexistent.json"])
        assert code == 2


class TestLibraryDefaults:
    """A flag or config value reaches the library; one that is not given is
    left to the library's own default, which the CLI does not repeat."""

    def test_ingest_min_df(self, tmp_path, corpus_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"min-df": 3}))
        words = {}
        for name, extra in [("default", []), ("flag", ["--min-df", "3"]),
                            ("config", ["--config", str(config)])]:
            out = str(tmp_path / f"{name}.json")
            assert main(["ingest", "--corpus", corpus_path, "--out", out, *extra]) == 0
            words[name] = load_doc_term_matrix(out).vocab.words
        assert words["default"] == build_vocabulary(TINY_DOCS).words
        assert words["flag"] == words["config"] == build_vocabulary(TINY_DOCS, 3).words
        assert words["flag"] != words["default"]

    @pytest.mark.parametrize("extra,expected", [
        ([], esa.EsaConfig()),
        (["--max-concepts-per-word", "5", "--max-df-ratio", "0.9"],
         esa.EsaConfig(max_concepts_per_word=5, max_df_ratio=0.9)),
    ])
    def test_index_config(self, pipeline, monkeypatch, extra, expected):
        seen = []
        build = esa.build_esa_index

        def recording_build(concepts, config):
            seen.append(config)
            return build(concepts, config)

        monkeypatch.setattr(esa, "build_esa_index", recording_build)
        assert main(["index", "--concepts", pipeline["corpus"],
                     "--out", str(pipeline["tmp"] / "i.json"), *extra]) == 0
        assert seen == [expected]

    @pytest.mark.parametrize("extra,expected", [([], 3), (["--n-distractors", "2"], 2)])
    def test_generate_n_distractors(self, pipeline, monkeypatch, extra, expected):
        seen = []
        # _draw_in_band(settings, rows, anchors, exclude, n, rng)
        monkeypatch.setattr(
            puzzles, "_draw_in_band", lambda *args: seen.append(args[4])
        )
        sets = TestGenerate().make_sets(pipeline)
        assert main(["generate", "--sets", sets, "--index", pipeline["index"],
                     "--out", str(pipeline["tmp"] / "b.jsonl"),
                     "--kinds", "choose-related", *extra]) == 0
        assert seen and set(seen) == {expected}


class TestConfigValueTypes:
    """A config value of the wrong type exits 2 naming its key."""

    def run(self, pipeline, config, argv):
        path = pipeline["tmp"] / "config.json"
        path.write_text(json.dumps(config))
        return main(argv + ["--config", str(path)])

    def eval_yield(self, pipeline):
        return ["eval-yield", "--matrix", pipeline["matrix"],
                "--index", pipeline["index"], "--models", "lsa",
                "--delta-grid", "0.1", "--num-topics", "2"]

    @pytest.mark.parametrize("config", [{"models": [1]}, {"models": {"lsa": [1]}}])
    def test_eval_yield_models_not_objects_exit_2(self, pipeline, capsys, config):
        assert self.run(pipeline, config, self.eval_yield(pipeline)) == 2
        err = capsys.readouterr().err
        assert "'models'" in err
        assert "Traceback" not in err

    def test_generate_kinds_not_string_exits_2(self, pipeline, capsys):
        sets = pipeline["tmp"] / "sets.jsonl"
        sets.write_text("")
        assert self.run(pipeline, {"kinds": 5}, [
            "generate", "--sets", str(sets), "--index", pipeline["index"],
            "--out", str(pipeline["tmp"] / "b.jsonl")]) == 2
        assert "config key 'kinds'" in capsys.readouterr().err

    def test_train_null_num_topics_exits_2(self, pipeline, capsys):
        assert self.run(pipeline, {"num-topics": None}, [
            "train", "--model", "lda", "--matrix", pipeline["matrix"],
            "--out", str(pipeline["tmp"] / "m.json")]) == 2
        assert "config key 'num-topics'" in capsys.readouterr().err

    def test_per_model_value_is_checked(self, pipeline, capsys):
        config = {"models": {"lsa": {"seed": "one"}}}
        assert self.run(pipeline, config, self.eval_yield(pipeline)) == 2
        assert "config key 'seed'" in capsys.readouterr().err

    @pytest.mark.parametrize("command,config", [
        ("train", {"num-topics": 2.9}),
        ("train", {"seed": 1.5}),
        ("train", {"iterations": True}),
        ("train", {"alpha": True}),
        ("ingest", {"tfidf": "false"}),
        ("ingest", {"tfidf": 1}),
        ("ingest", {"keep-stopwords": 0}),
        ("ingest", {"min-df": True}),
        ("ingest", {"max-df-ratio": True}),
        ("ingest", {"max-df-ratio": 10 ** 400}),
    ])
    def test_value_of_another_json_type_exits_2(self, pipeline, capsys, command, config):
        out = pipeline["tmp"] / "out.json"
        argv = {
            "train": ["train", "--model", "lda", "--matrix", pipeline["matrix"]],
            "ingest": ["ingest", "--corpus", pipeline["corpus"]],
        }[command]
        assert self.run(pipeline, config, argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"config key {next(iter(config))!r}" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_int_for_a_float_key_is_accepted(self, pipeline):
        out = pipeline["tmp"] / "out.json"
        assert self.run(pipeline, {"max-df-ratio": 1}, [
            "ingest", "--corpus", pipeline["corpus"], "--out", str(out)]) == 0
        assert load_doc_term_matrix(out).vocab.words == build_vocabulary(TINY_DOCS).words


class TestUndecodableBytes:
    """A byte that is not UTF-8 in a JSON-lines input or a config file
    exits 2 naming the file and the line, and writes nothing."""

    def flip(self, path, lineno):
        """Overwrite the first character after line ``lineno``'s first quote
        with byte 0xe9, which no ASCII byte may follow in UTF-8."""
        lines = Path(path).read_bytes().split(b"\n")
        line = bytearray(lines[lineno - 1])
        line[line.index(b'"') + 1] = 0xE9
        lines[lineno - 1] = bytes(line)
        Path(path).write_bytes(b"\n".join(lines))

    def check(self, capsys, argv, path, lineno, out):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"{path} line {lineno}: " in err or f"{path}: line {lineno}: " in err
        assert "0xe9" in err
        assert "Traceback" not in err
        assert not out.exists()
        assert not list(out.parent.glob(".*.tmp"))

    @pytest.mark.parametrize("command", ["ingest", "index"])
    def test_corpus_and_concepts(self, tmp_path, corpus_path, capsys, command):
        self.flip(corpus_path, 4)
        out = tmp_path / "out.json"
        flag = "--corpus" if command == "ingest" else "--concepts"
        self.check(capsys, [command, flag, corpus_path, "--out", str(out)],
                   corpus_path, 4, out)

    def test_generate_sets(self, pipeline, capsys):
        sets = pipeline["tmp"] / "sets.jsonl"
        consistency.save_consistent_sets([
            consistency.ConsistentSet(t, (0, 1), ("vote", "ballot"), 0.5, 0.1)
            for t in range(3)
        ], sets)
        self.flip(sets, 2)
        out = pipeline["tmp"] / "bank.jsonl"
        self.check(capsys, ["generate", "--sets", str(sets), "--index", pipeline["index"],
                            "--out", str(out)], sets, 2, out)

    def test_config(self, tmp_path, corpus_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"min-df": 1, "tfidf": True}, indent=1))
        self.flip(config, 3)
        out = tmp_path / "out.json"
        self.check(capsys, ["ingest", "--corpus", corpus_path, "--out", str(out),
                            "--config", str(config)], config, 3, out)


class TestParser:
    def test_train_and_eval_yield_accept_the_same_hyperparameters(self):
        parser = build_parser()
        subparsers = next(
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        )
        flags = {
            name: set(sub._option_string_actions)
            for name, sub in subparsers.choices.items()
        }
        hyperparameters = flags["train"] - {"--model", "--matrix", "--out"}
        assert {"--num-topics", "--regularizer", "--n-groups"} <= hyperparameters
        assert hyperparameters <= flags["eval-yield"]

    def test_eval_yield_takes_regularizer_flags(self, pipeline, capsys):
        assert main(["eval-yield", "--matrix", pipeline["matrix"],
                     "--index", pipeline["index"], "--models", "dictlearn",
                     "--delta-grid", "0.0,0.1", "--num-topics", "4",
                     "--epochs", "1", "--regularizer", "group-l2",
                     "--n-groups", "2"]) == 0
        assert capsys.readouterr().out.startswith("delta,dictlearn\n")


class TestEndToEndPlanted:
    def test_full_pipeline_on_mixed_planted_corpus(self, tmp_path):
        docs, _ = planted_topic_corpus(
            n_topics=4, n_docs=80, tokens_per_doc=40, seed=5,
            background_fraction=0.15,
        )
        corpus_file = tmp_path / "planted.jsonl"
        save_corpus_jsonl(docs, corpus_file)
        matrix = str(tmp_path / "matrix.json")
        index = str(tmp_path / "index.json")
        model = str(tmp_path / "model.json")
        sets = str(tmp_path / "sets.jsonl")
        bank = str(tmp_path / "bank.jsonl")
        assert main(["ingest", "--corpus", str(corpus_file), "--out", matrix]) == 0
        assert main(["index", "--concepts", str(corpus_file), "--out", index]) == 0
        assert main(["train", "--model", "lda", "--matrix", matrix, "--out", model,
                     "--num-topics", "4", "--iterations", "60", "--seed", "0"]) == 0
        assert main(["extract-sets", "--model", model, "--index", index,
                     "--out", sets]) == 0
        assert main(["generate", "--sets", sets, "--index", index, "--out", bank,
                     "--eta1", "0.02", "--eta2", "0.6", "--seed", "0"]) == 0
        records = [json.loads(l) for l in open(bank)]
        assert records, "pipeline produced no puzzles"
