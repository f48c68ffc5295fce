"""End-to-end runs of the command line through main(argv)."""

import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from d2cc import (
    Binary,
    RuleKind,
    ScoreMatrices,
    Terminal,
    default_grammar,
    parse_category,
    read_auto,
    terminals,
    write_auto,
    write_score_file,
)
import d2cc.cli
from d2cc.cli import main
from d2cc.model import load_model, save_model
from d2cc.pas import default_coindex_table, extract_deps, write_pas_dump

C = parse_category

FIXTURES = Path(__file__).parent / "fixtures"

CONFIG_TEXT = """\
word_dim = 5
pos_dim = 4
label_dim = 4
seq_dim = 8
seq_layers = 1
tree_dim = 8
mlp_dim = 6
unk_buckets = 2
epochs = 150
batch_size = 2
seed = 1
early_stop_acc = 1.0
"""


def conllu_text(sentences):
    blocks = []
    for words, pos, heads, labels in sentences:
        lines = ["%d\t%s\t_\t%s\t_\t_\t%d\t%s\t_\t_" % (i, w, p, h, l)
                 for i, (w, p, h, l)
                 in enumerate(zip(words, pos, heads, labels), 1)]
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def np_tree(words):
    det = Terminal(1, words[0], C("NP/N"), "DET")
    noun = Terminal(2, words[1], C("N"), "NOUN")
    verb = Terminal(3, words[2], C("S[dcl]\\NP"), "VERB")
    return Binary(Binary(det, noun, C("NP"), RuleKind.FORWARD_APPLY),
                  verb, C("S[dcl]"), RuleKind.BACKWARD_APPLY)


def x_tree(words):
    filler = Terminal(1, words[0], C("X"), "INTJ")
    noun = Terminal(2, words[1], C("NP"), "NOUN")
    verb = Terminal(3, words[2], C("S[dcl]\\NP"), "VERB")
    clause = Binary(noun, verb, C("S[dcl]"), RuleKind.BACKWARD_APPLY)
    return Binary(filler, clause, C("S[dcl]"), RuleKind.X_ABSORB_LEFT)


TOY_WORDS = [("the", "cat", "sleeps"), ("a", "dog", "runs"),
             ("the", "dog", "sleeps"), ("a", "cat", "runs")]
X_WORDS = [("oh", "cats", "purr"), ("hey", "dogs", "bark")]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """A tiny aligned treebank plus a checkpoint overfit to it."""
    root = tmp_path_factory.mktemp("cli")
    sentences = []
    trees = []
    for words in TOY_WORDS:
        sentences.append((words, ("DET", "NOUN", "VERB"), (2, 3, 0),
                          ("det", "nsubj", "root")))
        trees.append(np_tree(words))
    for words in X_WORDS:
        sentences.append((words, ("INTJ", "NOUN", "VERB"), (0, 1, 2),
                          ("discourse", "nsubj", "root")))
        trees.append(x_tree(words))
    conllu = root / "corpus.conllu"
    auto = root / "corpus.auto"
    config = root / "train.cfg"
    conllu.write_text(conllu_text(sentences), encoding="utf-8")
    auto.write_text(write_auto(trees), encoding="utf-8")
    config.write_text(CONFIG_TEXT, encoding="utf-8")
    model = root / "model.bin"
    code, out, err = run(["train", str(conllu), str(auto),
                          "--model", str(model), "--config", str(config),
                          "--x-absorption"])
    assert code == 0, err
    assert model.exists()
    last = json.loads(out.strip().splitlines()[-1])
    assert last["tag_acc"] == 1.0 and last["head_acc"] == 1.0, last
    return {"root": root, "conllu": conllu, "auto": auto,
            "config": config, "model": model}


class TestTrain:
    def test_metrics_file(self, work, tmp_path):
        model = tmp_path / "m.bin"
        metrics = tmp_path / "metrics.jsonl"
        cfg = tmp_path / "fast.cfg"
        cfg.write_text(CONFIG_TEXT.replace("epochs = 150", "epochs = 2")
                       .replace("early_stop_acc = 1.0",
                                "early_stop_acc = 0.0"))
        code, out, err = run(["train", str(work["conllu"]), str(work["auto"]),
                              "--model", str(model), "--config", str(cfg)])
        assert code == 0
        lines = metrics.read_text().splitlines() if metrics.exists() else None
        assert lines is None  # not requested
        code, out, err = run(["train", str(work["conllu"]), str(work["auto"]),
                              "--model", str(model), "--config", str(cfg),
                              "--metrics", str(metrics)])
        assert code == 0
        rows = [json.loads(l) for l in metrics.read_text().splitlines()]
        assert len(rows) == 2
        assert {"epoch", "loss", "tag_acc", "head_acc"} <= set(rows[0])
        assert "trained 2 epochs" in err

    def test_summary_counts_the_corpus(self, work, tmp_path):
        cfg = tmp_path / "fast.cfg"
        cfg.write_text(CONFIG_TEXT.replace("epochs = 150", "epochs = 1"))
        code, out, err = run(["train", str(work["conllu"]), str(work["auto"]),
                              "--model", str(tmp_path / "m.bin"),
                              "--config", str(cfg), "--x-absorption"])
        assert code == 0
        assert err.startswith("trained 1 epochs on 6 sentences (1 datasets), "
                              "5 categories: tag_acc=")

    def test_mix_dataset(self, work, tmp_path):
        extra_prefix = tmp_path / "extra"
        sent = [(("a", "cat", "sleeps"), ("DET", "NOUN", "VERB"),
                 (2, 3, 0), ("det", "nsubj", "root"))]
        Path(str(extra_prefix) + ".conllu").write_text(conllu_text(sent))
        Path(str(extra_prefix) + ".auto").write_text(
            write_auto([np_tree(("a", "cat", "sleeps"))]))
        cfg = tmp_path / "fast.cfg"
        cfg.write_text(CONFIG_TEXT.replace("epochs = 150", "epochs = 2"))
        model = tmp_path / "m.bin"
        code, out, err = run(["train", str(work["conllu"]), str(work["auto"]),
                              "--model", str(model), "--config", str(cfg),
                              "--mix", "%s:2.0" % extra_prefix])
        assert code == 0
        first = json.loads(out.strip().splitlines()[0])
        assert first["drawn"] == [6, 2]

    def test_bad_mix_spec(self, work, tmp_path):
        code, out, err = run(["train", str(work["conllu"]), str(work["auto"]),
                              "--model", str(tmp_path / "m.bin"),
                              "--mix", "noweight"])
        assert code == 2
        assert "--mix expects" in err

    def test_misaligned_counts(self, work, tmp_path):
        short_auto = tmp_path / "short.auto"
        short_auto.write_text(write_auto([np_tree(("the", "cat", "sleeps"))]))
        code, out, err = run(["train", str(work["conllu"]), str(short_auto),
                              "--model", str(tmp_path / "m.bin")])
        assert code == 2
        assert "6 sentences" in err and "1 trees" in err

    def test_token_mismatch(self, work, tmp_path):
        bad = tmp_path / "bad.auto"
        trees = [np_tree(("the", "CAT", "sleeps"))] \
            + [np_tree(w) for w in TOY_WORDS[1:]] \
            + [x_tree(w) for w in X_WORDS]
        bad.write_text(write_auto(trees))
        code, out, err = run(["train", str(work["conllu"]), str(bad),
                              "--model", str(tmp_path / "m.bin")])
        assert code == 2
        assert "does not match leaf" in err

    def test_missing_input(self, tmp_path):
        code, out, err = run(["train", str(tmp_path / "nope.conllu"),
                              str(tmp_path / "nope.auto"),
                              "--model", str(tmp_path / "m.bin")])
        assert code == 2
        assert "cannot read" in err

    def test_unknown_config_key(self, work, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("wrod_dim = 5\n")
        code, out, err = run(["train", str(work["conllu"]), str(work["auto"]),
                              "--model", str(tmp_path / "m.bin"),
                              "--config", str(cfg)])
        assert code == 2
        assert "unknown" in err


class TestConvert:
    def test_reproduces_training_trees(self, work, tmp_path):
        out_path = tmp_path / "out.auto"
        code, out, err = run(["convert", str(work["conllu"]),
                              "--model", str(work["model"]),
                              "--x-absorption", "-o", str(out_path)])
        assert code == 0
        assert "converted 6/6" in err
        assert out_path.read_text() == work["auto"].read_text()

    def test_threads_match_single(self, work, tmp_path):
        single = tmp_path / "single.auto"
        multi = tmp_path / "multi.auto"
        for path, threads in ((single, "1"), (multi, "3")):
            code, _, err = run(["convert", str(work["conllu"]),
                                "--model", str(work["model"]),
                                "--x-absorption", "--threads", threads,
                                "-o", str(path)])
            assert code == 0
        assert single.read_text() == multi.read_text()

    def test_strip_x(self, work, tmp_path):
        out_path = tmp_path / "stripped.auto"
        code, out, err = run(["convert", str(work["conllu"]),
                              "--model", str(work["model"]),
                              "--x-absorption", "--strip-x",
                              "-o", str(out_path)])
        assert code == 0
        assert "converted 6/6" in err
        trees = read_auto(out_path.read_text(), default_grammar())
        assert len(trees) == 6
        for k, tree in enumerate(trees[4:]):
            leaves = terminals(tree)
            assert [leaf.word for leaf in leaves] == list(X_WORDS[k][1:])
            assert [leaf.index for leaf in leaves] == [1, 2]
            assert "X" not in {str(leaf.category) for leaf in leaves}

    def test_constraint_failure_reported(self, work, tmp_path):
        cons = tmp_path / "cons.json"
        # two overlapping spans can never both be constituents
        cons.write_text(json.dumps(
            {"1": [{"category": None, "start": 1, "end": 2},
                   {"category": None, "start": 2, "end": 3}]}))
        out_path = tmp_path / "out.auto"
        code, out, err = run(["convert", str(work["conllu"]),
                              "--model", str(work["model"]),
                              "--x-absorption", "--constraints", str(cons),
                              "-o", str(out_path)])
        assert code == 0
        assert "converted 5/6" in err
        assert "sentence 1" in err and "(constraint)" in err
        assert len(read_auto(out_path.read_text(), default_grammar())) == 5

    def test_empty_corpus(self, work, tmp_path):
        empty = tmp_path / "empty.conllu"
        empty.write_text("")
        out_path = tmp_path / "out.auto"
        code, out, err = run(["convert", str(empty),
                              "--model", str(work["model"]),
                              "-o", str(out_path)])
        assert code == 0
        assert "converted 0/0" in err
        assert out_path.read_text() == ""


def demo_scores():
    """Three tokens over NP/N, N/N, N with two bracketings."""
    cats = ["N", "N/N", "NP/N"]
    tag = np.log(np.array([[0.05, 0.05, 0.9],
                           [0.1, 0.8, 0.1],
                           [0.9, 0.05, 0.05]]))
    tag = tag - np.logaddexp.reduce(tag, axis=1, keepdims=True)
    with np.errstate(divide="ignore"):
        dep = np.log(np.array([[1.0, 0.0, 0.25, 0.25],
                               [0.25, 0.5, 0.0, 0.25],
                               [0.2, 0.5, 0.3, 0.0]]))
    dep = dep - np.logaddexp.reduce(dep, axis=1, keepdims=True)
    dep[0, 1] = dep[1, 2] = dep[2, 3] = -np.inf
    return ScoreMatrices(["w1", "w2", "w3"], cats, tag, dep)


class TestDecode:
    def test_stdout_output(self, tmp_path):
        scores = tmp_path / "scores.json"
        scores.write_text(write_score_file([demo_scores()]))
        code, out, err = run(["decode", str(scores)])
        assert code == 0
        assert "decoded 1/1" in err
        trees = read_auto(out, default_grammar())
        assert len(trees) == 1
        leaves = terminals(trees[0])
        assert [str(leaf.category) for leaf in leaves] \
            == ["NP/N", "N/N", "N"]

    def test_constraints_change_output(self, tmp_path):
        scores = tmp_path / "scores.json"
        scores.write_text(write_score_file([demo_scores()]))
        cons = tmp_path / "cons.json"
        cons.write_text(json.dumps(
            {"1": [{"category": None, "start": 2, "end": 3}]}))
        _, free, _ = run(["decode", str(scores)])
        code, constrained, err = run(["decode", str(scores),
                                      "--constraints", str(cons)])
        assert code == 0
        assert "decoded 1/1" in err
        assert free != constrained
        assert "(<T NP/N 0 2>" in free  # left pair composed first
        assert "(<T N 0 2>" in constrained  # the forced right pair

    def test_unnormalized_rejected(self, tmp_path):
        m = demo_scores()
        m.tag_logp[1] = m.tag_logp[1] + 0.5
        scores = tmp_path / "scores.json"
        scores.write_text(write_score_file([m]))
        code, out, err = run(["decode", str(scores)])
        assert code == 2
        assert "score matrix 1" in err and "row 2" in err

    def test_budget_failure_counted(self, tmp_path):
        scores = tmp_path / "scores.json"
        scores.write_text(write_score_file([demo_scores()]))
        code, out, err = run(["decode", str(scores), "--budget", "2"])
        assert code == 0
        assert "decoded 0/1" in err

    def test_budget_failure_line(self, tmp_path):
        scores = tmp_path / "scores.json"
        scores.write_text(write_score_file([demo_scores()]))
        code, out, err = run(["decode", str(scores), "--budget", "2"])
        assert code == 0
        assert "sentence 1: item budget of 2 pops exceeded\n" in err

    def test_no_parse_failure_line(self, tmp_path):
        # one token whose only supertags are no root category
        m = ScoreMatrices(["w1"], ["N/N", "NP/N"],
                          np.log(np.array([[0.5, 0.5]])),
                          np.array([[0.0, -np.inf]]))
        scores = tmp_path / "scores.json"
        scores.write_text(write_score_file([demo_scores(), m]))
        code, out, err = run(["decode", str(scores)])
        assert code == 0
        assert ("sentence 2: no valid parse (grammar failure) (grammar)\n"
                in err)
        assert "decoded 1/2" in err

    def test_every_matrix_checked_before_decoding(self, tmp_path,
                                                  monkeypatch):
        searched = []
        monkeypatch.setattr(d2cc.cli, "astar_parse",
                            lambda *a, **kw: searched.append(a))
        bad = demo_scores()
        bad.tag_logp[0] = bad.tag_logp[0] + 0.5
        scores = tmp_path / "scores.json"
        scores.write_text(write_score_file([demo_scores(), bad]))
        code, out, err = run(["decode", str(scores), "-o",
                              str(tmp_path / "out.auto")])
        assert code == 2
        assert err.startswith("error: score matrix 2: ")
        assert searched == [] and not (tmp_path / "out.auto").exists()

    def test_beam_zero_disables_pruning(self, tmp_path):
        scores = tmp_path / "scores.json"
        scores.write_text(write_score_file([demo_scores()]))
        code, out, err = run(["decode", str(scores), "--beam", "0"])
        assert code == 0
        assert "decoded 1/1" in err


class TestEval:
    def test_self_eval_is_100(self, work, tmp_path):
        json_path = tmp_path / "metrics.json"
        code, out, err = run(["eval", str(work["auto"]), str(work["auto"]),
                              "--x-absorption", "--json", str(json_path)])
        assert code == 0
        assert "100.00" in out
        data = json.loads(json_path.read_text())
        assert data["labeled"]["f1"] == 100.0
        assert data["unlabeled"]["f1"] == 100.0
        assert data["n_predicted"] == data["n_gold"]

    def test_per_category_table(self, work):
        code, out, err = run(["eval", str(work["auto"]), str(work["auto"]),
                              "--x-absorption"])
        assert code == 0
        assert "NP/N" in out
        assert "category" in out


class TestValidate:
    def test_valid_with_absorption(self, work):
        code, out, err = run(["validate", str(work["auto"]),
                              "--x-absorption"])
        assert code == 0
        assert "6 trees, 0 problems" in err

    def test_absorption_needs_flag(self, work):
        code, out, err = run(["validate", str(work["auto"])])
        assert code == 1
        assert "tree 5" in out and "tree 6" in out

    def test_shipped_treebank_valid(self):
        from importlib import resources
        mini = resources.files("d2cc").joinpath("data/mini/mini.auto")
        code, out, err = run(["validate", str(mini)])
        assert code == 0
        assert "0 problems" in err


class TestExtractDeps:
    def test_matches_library(self):
        path = FIXTURES / "relclause.auto"
        code, out, err = run(["extract-deps", str(path)])
        assert code == 0
        trees = read_auto(path.read_text(), default_grammar())
        table = default_coindex_table()
        expect = write_pas_dump([extract_deps(t, table) for t in trees])
        assert out == expect


class TestGradCheckCommand:
    def test_reports_small_error(self, work):
        code, out, err = run(["grad-check", str(work["conllu"]),
                              str(work["auto"]), "--x-absorption",
                              "--seed", "1"])
        assert code == 0
        assert "max relative error" in out


BAD_CONSTRAINT_FILES = [
    '{"1": ["x"]}',
    '{"1": [{"category": "NP", "start": 1}]}',
    '{"1": [{"category": "NP", "start": "a", "end": 2}]}',
    '{"1": [{"category": 5, "start": 1, "end": 2}]}',
    '{"1": [{"category": "NP", "start": 1,',
]

BAD_SCORE_FILES = ["[1", "[5]"]


class TestDecodeInputErrors:
    """Malformed decode inputs end in a DataError: exit code 2 and one
    error line, not a traceback."""

    @pytest.mark.parametrize("text", BAD_CONSTRAINT_FILES)
    def test_bad_constraint_file(self, tmp_path, text):
        scores = tmp_path / "scores.json"
        scores.write_text(write_score_file([demo_scores()]))
        cons = tmp_path / "cons.json"
        cons.write_text(text)
        code, out, err = run(["decode", str(scores), "--constraints",
                              str(cons)])
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("text", BAD_SCORE_FILES)
    def test_bad_score_file(self, tmp_path, text):
        scores = tmp_path / "scores.json"
        scores.write_text(text)
        code, out, err = run(["decode", str(scores)])
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err


class TestMissingConfig:
    def test_train(self, work, tmp_path):
        code, out, err = run(["train", str(work["conllu"]), str(work["auto"]),
                              "--model", str(tmp_path / "m.bin"),
                              "--config", str(tmp_path / "missing.cfg")])
        assert code == 2
        assert "cannot read" in err and "missing.cfg" in err

    def test_grad_check(self, work, tmp_path):
        code, out, err = run(["grad-check", str(work["conllu"]),
                              str(work["auto"]), "--x-absorption",
                              "--config", str(tmp_path / "missing.cfg")])
        assert code == 2
        assert "cannot read" in err and "missing.cfg" in err


MINI_AUTO = resources.files("d2cc").joinpath("data/mini/mini.auto")


class TestMissingFiles:
    """A missing grammar, table, root list or checkpoint ends in a
    DataError: exit code 2 and a "cannot read" line naming the file."""

    @pytest.mark.parametrize("flag", ["--grammar", "--roots",
                                      "--unary-table"])
    def test_grammar_flags(self, tmp_path, flag):
        missing = tmp_path / "nope.txt"
        code, out, err = run(["validate", str(MINI_AUTO), flag, str(missing)])
        assert code == 2
        assert err.startswith("error: cannot read") and str(missing) in err

    def test_file_named_in_grammar_config(self, tmp_path):
        cfg = tmp_path / "grammar.cfg"
        cfg.write_text("roots = absent-roots.txt\n")
        code, out, err = run(["validate", str(MINI_AUTO), "--grammar",
                              str(cfg)])
        assert code == 2
        assert err.startswith("error: cannot read")
        assert "absent-roots.txt" in err

    @pytest.mark.parametrize("command", ["eval", "extract-deps"])
    def test_coindex_table(self, tmp_path, command):
        missing = tmp_path / "nope.txt"
        argv = [command, str(MINI_AUTO)] + (
            [str(MINI_AUTO)] if command == "eval" else [])
        code, out, err = run(argv + ["--coindex", str(missing)])
        assert code == 2
        assert err.startswith("error: cannot read") and str(missing) in err

    def test_external_embeddings(self, work, tmp_path):
        missing = tmp_path / "nope.vec"
        config = tmp_path / "train.cfg"
        config.write_text(CONFIG_TEXT + "ext_embeddings = %s\n" % missing)
        code, out, err = run(["train", str(work["conllu"]), str(work["auto"]),
                              "--model", str(tmp_path / "m.bin"),
                              "--config", str(config), "--x-absorption"])
        assert code == 2
        assert err.startswith("error: cannot read") and str(missing) in err

    def test_malformed_external_embeddings(self, work, tmp_path):
        vectors = tmp_path / "vectors.txt"
        vectors.write_text("cat 1.0 2.0\ndog 1.0 abc\n")
        config = tmp_path / "train.cfg"
        config.write_text(CONFIG_TEXT + "ext_embeddings = %s\n" % vectors)
        code, out, err = run(["train", str(work["conllu"]), str(work["auto"]),
                              "--model", str(tmp_path / "m.bin"),
                              "--config", str(config), "--x-absorption"])
        assert code == 2
        assert err.startswith("error: %s:2: " % vectors)

    def test_non_finite_external_embeddings(self, work, tmp_path):
        vectors = tmp_path / "vectors.txt"
        vectors.write_text("cat nan 1.0\n")
        config = tmp_path / "train.cfg"
        config.write_text(CONFIG_TEXT + "ext_embeddings = %s\n" % vectors)
        code, out, err = run(["train", str(work["conllu"]), str(work["auto"]),
                              "--model", str(tmp_path / "m.bin"),
                              "--config", str(config), "--x-absorption"])
        assert code == 2
        assert err.startswith("error: %s:1: " % vectors)

    def test_checkpoint_shape_mismatch(self, work, tmp_path):
        model = load_model(work["model"])
        model.params["root_h"] = np.zeros((2, 64))
        path = tmp_path / "bad.bin"
        save_model(model, path)
        code, out, err = run(["convert", str(work["conllu"]),
                              "--model", str(path)])
        assert code == 2
        assert err.startswith("error: ") and "root_h(2, 64)" in err

    def test_checkpoint_external_embeddings(self, work, tmp_path):
        missing = tmp_path / "moved.vec"
        model = load_model(work["model"])
        model.config = dataclasses.replace(model.config,
                                           ext_embeddings=str(missing))
        path = tmp_path / "ext.bin"
        save_model(model, path)
        code, out, err = run(["convert", str(work["conllu"]),
                              "--model", str(path)])
        assert code == 2
        assert err.startswith("error: cannot read") and str(missing) in err

    def test_convert_model(self, work, tmp_path):
        missing = tmp_path / "nope.bin"
        code, out, err = run(["convert", str(work["conllu"]),
                              "--model", str(missing)])
        assert code == 2
        assert err.startswith("error: cannot read") and str(missing) in err


class TestScorerOutputChecks:
    def test_nan_checkpoint_rejected(self, work, tmp_path):
        model = load_model(work["model"])
        model.params["down_W"][0, 0] = np.nan
        path = tmp_path / "nan.bin"
        save_model(model, path)
        code, out, err = run(["convert", str(work["conllu"]),
                              "--model", str(path)])
        assert code == 2
        assert err.startswith("error: ") and "down_W" in err

    def test_nan_scores_fail_before_search(self, work, tmp_path):
        # finite weights whose tag scores overflow to NaN rows: each
        # sentence fails with the normalisation message, and no search
        # runs (a search over NaN scores would use its whole budget).
        # The large child bias makes every tag-child feature sum exceed
        # 2, so every token's scores overflow.
        model = load_model(work["model"])
        model.params["bil_v"][:] = 1e308
        model.params["bil_u"][:] = 1e308
        model.params["mlp_tag_child_b"][:] = 10.0
        path = tmp_path / "overflow.bin"
        save_model(model, path)
        with np.errstate(all="ignore"):
            code, out, err = run(["convert", str(work["conllu"]),
                                  "--model", str(path), "--x-absorption"])
        assert code == 0
        assert "converted 0/6" in err
        for k in range(1, 7):
            assert ("sentence %d: scorer output: tag_logp row 1 "
                    "log-sum-exps to nan" % k) in err


class TestArgumentPlumbing:
    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            run(["frobnicate"])

    def test_missing_score_file(self, tmp_path):
        code, out, err = run(["decode", str(tmp_path / "none.json")])
        assert code == 2
        assert "cannot read" in err


BENCH = Path(__file__).resolve().parents[1] / "bench"


class TestBenchLauncher:
    """The benchmark's traced launcher wraps ``d2cc.cli`` globals by name;
    each command must still run under it and record its layer spans."""

    def launch(self, tmp_path, argv):
        result = tmp_path / ("%s.json" % argv[0])
        src = str(Path(d2cc.cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
        done = subprocess.run(
            [sys.executable, str(BENCH / "launcher.py"), str(result),
             "trace"] + argv, env=env, capture_output=True, text=True,
            timeout=300)
        assert done.returncode == 0, done.stderr
        spans = json.loads(result.read_text())["trace"]["spans"]
        return {span[0] for span in spans}

    def test_decode(self, tmp_path):
        scores = tmp_path / "scores.json"
        scores.write_text(write_score_file([demo_scores()]))
        names = self.launch(tmp_path, ["decode", str(scores),
                                       "-o", str(tmp_path / "out.auto")])
        assert {"decoder.astar_parse", "scores.check_normalized"} <= names

    def test_train_and_convert(self, work, tmp_path):
        cfg = tmp_path / "fast.cfg"
        cfg.write_text(CONFIG_TEXT.replace("epochs = 150", "epochs = 1"))
        model = tmp_path / "m.bin"
        names = self.launch(tmp_path, [
            "train", str(work["conllu"]), str(work["auto"]), "--model",
            str(model), "--config", str(cfg), "--x-absorption"])
        assert "model.train" in names
        names = self.launch(tmp_path, [
            "convert", str(work["conllu"]), "--model", str(model),
            "--x-absorption", "-o", str(tmp_path / "out.auto")])
        assert {"decoder.astar_parse", "model.score_sentence"} <= names
