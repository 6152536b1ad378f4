import argparse
import json
from types import SimpleNamespace

import pytest
from conftest import INDEX_CORRUPTIONS, mangle_index

from topicpuzzles import esa, puzzles
from topicpuzzles.cli import build_parser, main
from topicpuzzles.corpus import (
    Document,
    build_vocabulary,
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
        payload = json.loads(open(out).read())
        assert payload["n_docs"] == 6
        assert payload["weighting"] == "raw-count"

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
        assert json.loads(open(out).read())["weighting"] == "tfidf"

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

    def test_matrix_without_triplets_exits_2(self, pipeline, capsys):
        payload = json.loads(open(pipeline["matrix"]).read())
        del payload["triplets"]
        broken = pipeline["tmp"] / "no_triplets.json"
        broken.write_text(json.dumps(payload))
        code = main(["train", "--model", "lda", "--matrix", str(broken),
                     "--out", str(pipeline["tmp"] / "m.json"), "--num-topics", "2"])
        assert code == 2
        assert "triplets" in capsys.readouterr().err

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
        assert json.loads(open(out).read())["model"] == "dictlearn"


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
        payload = json.loads(open(path).read())
        broken = pipeline["tmp"] / "broken.json"
        broken.write_text(json.dumps(change(payload)))
        return str(broken)

    def test_model_without_weights_exits_2(self, pipeline, capsys):
        self.extract(pipeline)
        model = self.rewrite(
            pipeline, pipeline["tmp"] / "lsa.json",
            lambda p: {k: v for k, v in p.items() if k != "weights"},
        )
        assert self.extract(pipeline, model=model) == 2
        assert "missing key(s) weights" in capsys.readouterr().err

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

    @pytest.mark.parametrize("value", [{"0": 1.0}, "1.0", [1.0, "2"], [True, 1.0]])
    def test_model_singular_values_not_numbers_exit_2(self, pipeline, capsys, value):
        self.extract(pipeline)
        model = self.rewrite(
            pipeline, pipeline["tmp"] / "lsa.json",
            lambda p: {**p, "singular_values": value},
        )
        assert self.extract(pipeline, model=model) == 2
        assert "singular_values must be null or a list" in capsys.readouterr().err

    @pytest.mark.parametrize("key,how,message", INDEX_CORRUPTIONS)
    def test_inconsistent_index_exits_2(self, pipeline, capsys, key, how, message):
        index = self.rewrite(
            pipeline, pipeline["index"], lambda p: mangle_index(p, key, how)
        )
        assert self.extract(pipeline, index=index) == 2
        assert message in capsys.readouterr().err

    def test_version_1_index_exits_2(self, pipeline, capsys):
        index = self.rewrite(pipeline, pipeline["index"], lambda p: {
            "format": "esa-index", "version": 1, "concept_ids": p["concept_ids"],
            "n_concepts": len(p["concept_ids"]), "truncation": p["truncation"],
            "vectors": {},
        })
        assert self.extract(pipeline, index=index) == 2
        assert "re-run `index`" in capsys.readouterr().err

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
        ("vocab", 5), ("doc_ids", [1]), ("n_docs", "6"), ("triplets", [5]),
    ])
    def test_mistyped_matrix_header_exits_2(self, pipeline, capsys, key, value):
        matrix = self.rewrite(pipeline, pipeline["matrix"], lambda p: {**p, key: value})
        code = main(["train", "--model", "lsa", "--matrix", matrix,
                     "--out", str(pipeline["tmp"] / "m.json"), "--num-topics", "2"])
        assert code == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("change,message", [
        (lambda t: [t[0][:2] + [-1]] + t[1:], "finite and > 0"),
        (lambda t: [t[0][:2] + [0]] + t[1:], "finite and > 0"),
        (lambda t: [t[0][:2] + [float("nan")]] + t[1:], "finite and > 0"),
        (lambda t: [t[0][:2] + [float("inf")]] + t[1:], "finite and > 0"),
        (lambda t: [t[0][:2] + [0.4]] + t[1:], "whole numbers"),
        (lambda t: t + [t[0]], "repeat a (row, col)"),
        (lambda t: [[-1] + t[0][1:]] + t[1:], "inside n_words x n_docs"),
    ], ids=["negative", "zero", "nan", "infinite", "fractional-count",
            "duplicate", "row-out-of-range"])
    def test_bad_matrix_values_exit_2(self, pipeline, capsys, change, message):
        matrix = self.rewrite(
            pipeline, pipeline["matrix"],
            lambda p: {**p, "triplets": change(p["triplets"])},
        )
        code = main(["train", "--model", "lsa", "--matrix", matrix,
                     "--out", str(pipeline["tmp"] / "m.json"), "--num-topics", "2"])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{matrix}: " in err and message in err
        assert "Traceback" not in err

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
        # gen_choose_related(cset, sim, band, n_distractors, ...)
        monkeypatch.setattr(
            puzzles, "gen_choose_related", lambda *args, **kw: seen.append(args[3])
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
