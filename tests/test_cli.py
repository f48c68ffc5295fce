"""End-to-end runs of the command line through main(argv)."""

import contextlib
import dataclasses
import gc
import io
import json
import math
import os
import re
import signal
import struct
import subprocess
import sys
import time
import tracemalloc
from concurrent.futures.process import BrokenProcessPool
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
    read_conllu,
    terminals,
    write_auto,
    write_score_file,
)
import d2cc.cli
import d2cc.decoder
import d2cc.model.network
from d2cc.cli import main
from d2cc.model import load_model, save_model
from d2cc.pas import default_coindex_table, extract_deps, write_pas_dump
from d2cc.trees import fold

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

    def test_metrics_to_stdout(self, work, tmp_path, monkeypatch):
        # ``-`` is stdout, so the epoch lines appear there twice
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "fast.cfg"
        cfg.write_text(CONFIG_TEXT.replace("epochs = 150", "epochs = 2"))
        code, out, err = run(["train", str(work["conllu"]), str(work["auto"]),
                              "--model", str(tmp_path / "m.bin"),
                              "--config", str(cfg), "--metrics", "-"])
        assert code == 0, err
        assert not (tmp_path / "-").exists()
        rows = [json.loads(line) for line in out.splitlines()]
        assert [row["epoch"] for row in rows] == [1, 2, 1, 2]
        assert rows[:2] == rows[2:]

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

    def test_constraint_ordinal_past_the_corpus(self, work, tmp_path,
                                                monkeypatch):
        monkeypatch.setattr(d2cc.cli, "encode_batch", None)
        cons = tmp_path / "cons.json"
        cons.write_text(json.dumps({"2": [], "7": []}))
        out_path = tmp_path / "out.auto"
        code, out, err = run(["convert", str(work["conllu"]),
                              "--model", str(work["model"]),
                              "--x-absorption", "--constraints", str(cons),
                              "-o", str(out_path)])
        assert_data_error(code, err, "sentence ordinal 7 in constraint "
                                     "file is past the input's 6 sentences")
        assert not out_path.exists()

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


@pytest.fixture(scope="module")
def chunked(work, tmp_path_factory):
    """The toy corpus repeated into three full ``convert`` chunks and half
    of a fourth, with the AUTO that the overfit model gives for it."""
    root = tmp_path_factory.mktemp("chunked")
    blocks = work["conllu"].read_text().strip().split("\n\n")
    trees = read_auto(work["auto"].read_text(),
                      dataclasses.replace(default_grammar(),
                                          x_absorption=True))
    per_chunk = d2cc.cli.CHUNK_TOKENS // 3
    count = 3 * per_chunk + per_chunk // 2
    conllu = root / "chunked.conllu"
    conllu.write_text("\n\n".join(blocks[k % len(blocks)]
                                   for k in range(count)) + "\n")
    return {"conllu": conllu, "count": count, "per_chunk": per_chunk,
            "trees": [trees[k % len(trees)] for k in range(count)]}


class TestConvertChunks:
    def test_chunk_ordinals(self):
        size = d2cc.cli.CHUNK_TOKENS
        lengths = [size + 1, size // 2, size - size // 2, size + 1, 1,
                   size - 1, 0]
        chunks = d2cc.cli._chunk_ordinals(lengths)
        assert chunks == [range(1, 2), range(2, 4), range(4, 5), range(5, 8)]
        assert d2cc.cli._chunk_ordinals([]) == []

    def test_corpus_spans_four_chunks(self, chunked):
        sentences = read_conllu(chunked["conllu"].read_text())
        chunks = d2cc.cli._chunk_ordinals([len(z) for z in sentences])
        assert [len(ks) for ks in chunks] == [chunked["per_chunk"]] * 3 + [
            chunked["count"] - 3 * chunked["per_chunk"]]

    def test_reproduces_every_sentence(self, work, chunked, tmp_path):
        out_path = tmp_path / "out.auto"
        code, _, err = run(["convert", str(chunked["conllu"]),
                            "--model", str(work["model"]),
                            "--x-absorption", "-o", str(out_path)])
        assert code == 0
        assert "converted %d/%d" % ((chunked["count"],) * 2) in err
        assert out_path.read_text() == write_auto(chunked["trees"])

    def test_failures_reported_in_order(self, work, chunked, tmp_path):
        # overlapping spans fail one sentence in the second chunk and one
        # in the last
        failing = [chunked["per_chunk"] + 5, chunked["count"]]
        cons = tmp_path / "cons.json"
        cons.write_text(json.dumps(
            {str(k): [{"category": None, "start": 1, "end": 2},
                      {"category": None, "start": 2, "end": 3}]
             for k in failing}))
        out_path = tmp_path / "out.auto"
        code, _, err = run(["convert", str(chunked["conllu"]),
                            "--model", str(work["model"]),
                            "--x-absorption", "--constraints", str(cons),
                            "-o", str(out_path)])
        assert code == 0
        auto = out_path.read_bytes()
        lines = err.strip().splitlines()
        assert [line.split(":")[0] for line in lines[:-1]] == [
            "sentence %d" % k for k in failing]
        assert all("(constraint)" in line for line in lines[:-1])
        count = chunked["count"]
        assert lines[-1] == "converted %d/%d" % (count - 2, count)
        kept = [t for k, t in enumerate(chunked["trees"], 1)
                if k not in failing]
        assert auto.decode("utf-8") == write_auto(kept)


    def test_output_streams_as_sentences_finish(self, work, chunked,
                                                tmp_path, monkeypatch):
        # in one process, each tree is written in its own call as soon as
        # it is decoded, a failure line as soon as its sentence fails, and
        # each chunk is encoded only after the trees before it are out
        force_cpus(monkeypatch, 1)
        events, encoded = [], []
        write_auto_, encode_batch_ = d2cc.cli.write_auto, d2cc.cli.encode_batch

        def write(trees, first=1):
            events.append((first, len(trees),
                           sys.stderr.getvalue().count("\n")))
            return write_auto_(trees, first)

        def encode(model, chunk):
            encoded.append(len(events))
            return encode_batch_(model, chunk)

        monkeypatch.setattr(d2cc.cli, "write_auto", write)
        monkeypatch.setattr(d2cc.cli, "encode_batch", encode)
        cons = tmp_path / "cons.json"
        cons.write_text(json.dumps(
            {"2": [{"category": None, "start": 1, "end": 2},
                   {"category": None, "start": 2, "end": 3}]}))
        out_path = tmp_path / "out.auto"
        code, _, err = run(["convert", str(chunked["conllu"]),
                            "--model", str(work["model"]),
                            "--x-absorption", "--constraints", str(cons),
                            "-o", str(out_path)])
        assert code == 0, err
        count, per = chunked["count"], chunked["per_chunk"]
        assert events == [(k, 1, int(k > 1)) for k in range(1, count)]
        assert encoded == [0, per - 1, 2 * per - 1, 3 * per - 1]
        assert out_path.read_text() == write_auto_(
            chunked["trees"][:1] + chunked["trees"][2:])

    def test_malformed_sentence_after_the_first_chunk(self, work, chunked,
                                                      tmp_path, monkeypatch):
        # the whole corpus is checked before any sentence is encoded
        monkeypatch.setattr(d2cc.cli, "encode_batch", None)
        bad = tmp_path / "bad.conllu"
        bad.write_text(chunked["conllu"].read_text()
                       + "\n1\tx\t_\tX\t_\t_\t1\troot\t_\t_\n")
        out_path = tmp_path / "out.auto"
        code, _, err = run(["convert", str(bad), "--model",
                            str(work["model"]), "--x-absorption",
                            "-o", str(out_path)])
        assert_data_error(code, err, "sentence %d: expected exactly one root"
                          % (chunked["count"] + 1))
        assert not out_path.exists()

    def test_memory_does_not_grow_with_the_corpus(self, work, chunked,
                                                  tmp_path, monkeypatch):
        """``convert`` holds one chunk at a time: over four times the
        corpus, its traced peak grows by at most twice the text it adds
        (the bytes read and their decoded text) plus 64 KiB."""
        force_cpus(monkeypatch, 1)
        assert_memory_bounded(work, chunked, tmp_path)

    def test_memory_does_not_grow_on_two_cpus(self, work, chunked, tmp_path,
                                              monkeypatch):
        """The same bound holds in the parent process, which receives the
        trees of every chunk from the workers."""
        force_cpus(monkeypatch, 2)
        assert_memory_bounded(work, chunked, tmp_path)


def assert_memory_bounded(work, chunked, tmp_path):
    text = chunked["conllu"].read_text()
    peaks = []
    for times in (1, 4):
        path = tmp_path / ("corpus%d.conllu" % times)
        path.write_text("\n".join([text] * times))
        gc.collect()
        tracemalloc.start()
        try:
            code, _, err = run(["convert", str(path), "--model",
                                str(work["model"]), "--x-absorption",
                                "-o", str(tmp_path / "out.auto")])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert code == 0, err
    added = 3 * len(text.encode("utf-8"))
    assert peaks[1] - peaks[0] <= 2 * added + (64 << 10), peaks


def force_cpus(monkeypatch, n):
    """Make ``convert`` and ``decode`` see ``n`` CPUs in the affinity mask,
    so they run in ``n`` processes on any host."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)


class TestProcesses:
    """``convert`` and ``decode`` run their units of work in a pool of
    worker processes and write every result in input order."""

    @pytest.mark.parametrize("command", ["convert", "decode"])
    def test_output_identical_for_any_process_count(self, work, chunked,
                                                    tmp_path, monkeypatch,
                                                    command):
        # overlapping spans fail four sentences: in the first unit, a
        # middle one and the last
        if command == "convert":
            count = chunked["count"]
            failing = [2, chunked["per_chunk"] + 5, count - 1, count]
            argv = ["convert", str(chunked["conllu"]), "--model",
                    str(work["model"]), "--x-absorption", "--strip-x"]
        else:
            # runs of two three-token matrices, the last one alone
            monkeypatch.setattr(d2cc.cli, "CHUNK_TOKENS", 6)
            count, failing = 7, [1, 4, 6, 7]
            scores = tmp_path / "scores.json"
            scores.write_text(write_score_file([demo_scores()] * count))
            argv = ["decode", str(scores)]
        cons = tmp_path / "cons.json"
        cons.write_text(json.dumps(
            {str(k): [{"category": None, "start": 1, "end": 2},
                      {"category": None, "start": 2, "end": 3}]
             for k in failing}))
        argv += ["--constraints", str(cons)]
        results = []
        for n in (1, 2, 3):
            force_cpus(monkeypatch, n)
            results.append(run(argv))
        code, out, err = results[0]
        assert code == 0, err
        assert [line.split(":")[0] for line in err.splitlines()[:-1]] == [
            "sentence %d" % k for k in failing]
        assert err.endswith(" %d/%d\n" % (count - 4, count))
        assert out.count("ID=") == count - 4
        assert results == [results[0]] * 3

    def test_batch_under_one_run_does_not_fork(self, tmp_path, monkeypatch):
        force_cpus(monkeypatch, 2)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
        scores = tmp_path / "scores.json"
        scores.write_text(write_score_file([demo_scores()] * 7))
        code, out, err = run(["decode", str(scores)])
        assert code == 0, err
        assert out.count("ID=") == 7

    def test_worker_failure_ends_the_command(self, work, chunked,
                                             monkeypatch):
        # a worker's unexpected exception ends the command as its own
        # type, as one in this process does, with the worker's traceback
        force_cpus(monkeypatch, 2)
        parent, parse = os.getpid(), d2cc.decoder.astar_parse

        def crash_in_worker(*args, **kwargs):
            if os.getpid() != parent:
                raise ZeroDivisionError("in a worker")
            return parse(*args, **kwargs)

        monkeypatch.setattr(d2cc.decoder, "astar_parse", crash_in_worker)
        with pytest.raises(ZeroDivisionError, match="in a worker") as info:
            run(["convert", str(chunked["conllu"]), "--model",
                 str(work["model"]), "--x-absorption"])
        assert re.search("(?s)Traceback.*in crash_in_worker",
                         str(info.value.__cause__))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_failure_before_the_first_unit(self, work, chunked, monkeypatch):
        # the encoder fails in a worker before its unit yields a tree
        force_cpus(monkeypatch, 2)
        parent, encode = os.getpid(), d2cc.model.network._encode

        def crash_in_worker(*args, **kwargs):
            if os.getpid() != parent:
                raise ZeroDivisionError("encoder")
            return encode(*args, **kwargs)

        monkeypatch.setattr(d2cc.model.network, "_encode", crash_in_worker)
        with pytest.raises(ZeroDivisionError, match="encoder"):
            run(["convert", str(chunked["conllu"]), "--model",
                 str(work["model"]), "--x-absorption"])
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_killed_worker_is_named(self, work, chunked, monkeypatch):
        # a worker killed from outside (the OOM killer, say) breaks the pool
        force_cpus(monkeypatch, 2)
        parent, encode = os.getpid(), d2cc.model.network._encode

        def die_in_worker(*args, **kwargs):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return encode(*args, **kwargs)

        monkeypatch.setattr(d2cc.model.network, "_encode", die_in_worker)
        with pytest.raises(BrokenProcessPool):
            run(["convert", str(chunked["conllu"]), "--model",
                 str(work["model"]), "--x-absorption"])
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_workers_end_with_their_command(self, work, chunked, tmp_path):
        # a convert killed with SIGKILL leaves no worker decoding on
        pids = tmp_path / "pids"
        code = ("import os, sys, time; import d2cc.decoder; "
                "from d2cc.cli import main; "
                "os.sched_getaffinity = lambda pid: {0, 1}; "
                "parse = d2cc.decoder.astar_parse\n"
                "def slow(*args, **kwargs):\n"
                "    with open(sys.argv[1], 'a') as f:\n"
                "        f.write('%d\\n' % os.getpid())\n"
                "    time.sleep(0.02)\n"
                "    return parse(*args, **kwargs)\n"
                "d2cc.decoder.astar_parse = slow\n"
                "main(sys.argv[2:])\n")
        src = str(Path(d2cc.cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
        child = subprocess.Popen(
            [sys.executable, "-c", code, str(pids), "convert",
             str(chunked["conllu"]), "--model", str(work["model"]),
             "--x-absorption", "-o", str(tmp_path / "out.auto")], env=env)

        def workers():
            text = pids.read_text() if pids.exists() else ""
            return set(map(int, text.split())) - {child.pid}

        try:
            deadline = time.monotonic() + 60
            while not workers() and time.monotonic() < deadline:
                time.sleep(0.01)
        finally:
            child.kill()
            child.wait()
        assert workers()
        deadline = time.monotonic() + 5
        while any(map(running, workers())) and time.monotonic() < deadline:
            time.sleep(0.05)
        alive = [pid for pid in workers() if running(pid)]
        for pid in alive:  # a failure leaves no process behind
            os.kill(pid, signal.SIGKILL)
        assert alive == []

    def test_replaced_function_runs_in_one_process(self, work, chunked,
                                                   tmp_path, monkeypatch):
        # a tracer's wrapper or a test's fake on this module sees every
        # call only if every call is made in its own process
        force_cpus(monkeypatch, 3)
        calls, real = tmp_path / "calls", d2cc.cli.decoder_convert

        def convert(*args, **kwargs):
            with open(calls, "a") as f:
                f.write("%d\n" % os.getpid())
            return real(*args, **kwargs)

        monkeypatch.setattr(d2cc.cli, "decoder_convert", convert)
        code, out, err = run(["convert", str(chunked["conllu"]), "--model",
                              str(work["model"]), "--x-absorption"])
        assert code == 0, err
        assert calls.read_text() == "%d\n" % os.getpid() * chunked["count"]

    @pytest.mark.parametrize("error", [OSError, KeyboardInterrupt])
    def test_failed_write_reaps_the_workers(self, work, chunked,
                                            monkeypatch, error):
        force_cpus(monkeypatch, 2)

        class FailingOutput(io.StringIO):
            def write(self, text):
                if text.startswith("ID=%d" % (chunked["per_chunk"] + 3)):
                    raise error("output failed")
                return super().write(text)

        with pytest.raises(error, match="output failed"):
            with contextlib.redirect_stdout(FailingOutput()):
                main(["convert", str(chunked["conllu"]), "--model",
                      str(work["model"]), "--x-absorption"])
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def running(pid):
    """Whether process ``pid`` exists and is not a zombie."""
    try:
        with open("/proc/%d/stat" % pid, "rb") as stat:
            return stat.read().rpartition(b")")[2].split()[0] != b"Z"
    except FileNotFoundError:
        return False


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

    def test_tokens_auto_cannot_hold(self, tmp_path):
        """A token with a space, a '>' or a line break fails its sentence;
        the others are written and the output validates."""
        batch = []
        for tokens in (["w1", "w2", "w3"], ["New York", "w2", "w3"],
                       ["w1", "a>b", "w3"], ["w1", "w2", "x y"],
                       ["w1", "w2\u2028", "w3"],
                       ["sleeps)", "(", "a\tb"]):
            m = demo_scores()
            m.tokens = tokens
            batch.append(m)
        scores = tmp_path / "scores.json"
        scores.write_text(write_score_file(batch))
        output = tmp_path / "out.auto"
        code, out, err = run(["decode", str(scores), "-o", str(output)])
        assert code == 0, err
        assert "decoded 2/6" in err
        for k, token in [(2, "New York"), (3, "a>b"), (4, "x y"),
                         (5, "w2\u2028")]:
            assert "sentence %d: token %r with POS " % (k, token) in err
        assert "Traceback" not in err
        code, out, err = run(["validate", str(output)])
        assert code == 0, err
        assert "2 trees, 0 problems" in err
        trees = read_auto(output.read_text(encoding="utf-8"))
        assert [leaf.word for leaf in terminals(trees[1])] \
            == ["sleeps)", "(", "a\tb"]

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

    def test_json_to_stdout(self, work, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(["eval", str(work["auto"]), str(work["auto"]),
                              "--x-absorption", "--json", "-"])
        assert code == 0, err
        assert not (tmp_path / "-").exists()
        data = json.loads(out[out.index("\n{") + 1:])
        assert data["labeled"]["f1"] == 100.0

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

    def test_coindex_file_is_read_on_every_run(self, tmp_path):
        # an empty table indexes the control verb by default, the shipped
        # one shares its subject with the infinitive's
        path = FIXTURES / "relclause.auto"
        table = tmp_path / "coindex.txt"
        outputs = []
        for text in ("", (Path(d2cc.__file__).parent / "data"
                          / "coindex.txt").read_text(encoding="utf-8")):
            table.write_text(text, encoding="utf-8")
            code, out, err = run(["extract-deps", str(path),
                                  "--coindex", str(table)])
            assert code == 0, err
            outputs.append(out)
        assert outputs[0] != outputs[1]
        assert outputs[1] == run(["extract-deps", str(path)])[1]
        assert "(S[dcl]\\NP)/(S[to]\\NP)" in outputs[1]
        assert "(S[dcl]\\NP)/(S[to]\\NP)" not in outputs[0]


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

    @pytest.mark.parametrize("key, needle", [
        ("0", "sentence ordinal '0' in constraint file is below 1"),
        ("-1", "sentence ordinal '-1' in constraint file is below 1"),
        ("7", "sentence ordinal 7 in constraint file is past the input's "
              "2 sentences"),
    ])
    def test_constraint_ordinal_outside_the_batch(self, tmp_path,
                                                  monkeypatch, key, needle):
        monkeypatch.setattr(d2cc.cli, "astar_parse", None)
        scores = tmp_path / "scores.json"
        scores.write_text(write_score_file([demo_scores()] * 2))
        cons = tmp_path / "cons.json"
        # key 7's span would end at token 9 of a 3-token matrix
        cons.write_text(json.dumps(
            {"1": [], key: [{"category": None, "start": 8, "end": 9}]}))
        out_path = tmp_path / "out.auto"
        code, out, err = run(["decode", str(scores), "--constraints",
                              str(cons), "-o", str(out_path)])
        assert_data_error(code, err, needle)
        assert not out_path.exists()

    @pytest.mark.parametrize("text", BAD_SCORE_FILES)
    def test_bad_score_file(self, tmp_path, text):
        scores = tmp_path / "scores.json"
        scores.write_text(text)
        code, out, err = run(["decode", str(scores)])
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("field", ["tag_logp", "dep_logp"])
    def test_score_too_large_for_a_float(self, tmp_path, field):
        # a tag row holds numbers only, a dependency row "-inf" as well
        [d] = json.loads(write_score_file([demo_scores()]))
        d[field][0][0] = 10 ** 400
        scores = tmp_path / "scores.json"
        scores.write_text(json.dumps([d]))
        code, out, err = run(["decode", str(scores)])
        assert_data_error(code, err, "score value too large for a float")

    @pytest.mark.parametrize("field, value", [
        ("tokens", [1, 2, 3]),
        ("tokens", [None, "w2", "w3"]),
        ("tokens", "abc"),
        ("categories", "N"),
        ("categories", ["N", 1, "NP/N"]),
    ])
    def test_score_object_text_fields_hold_strings(self, tmp_path, field,
                                                   value):
        [d] = json.loads(write_score_file([demo_scores()]))
        d[field] = value
        scores = tmp_path / "scores.json"
        scores.write_text(json.dumps([d]))
        code, out, err = run(["decode", str(scores)])
        assert_data_error(code, err, "score object field %s must be a list "
                                     "of strings" % field)

    def test_empty_category_list(self, tmp_path):
        # an empty tag row log-sum-exps to -inf, as an all -inf row does
        scores = tmp_path / "scores.json"
        scores.write_text('{"tokens": ["a"], "categories": [], '
                          '"tag_logp": [[]], "dep_logp": [[0.0, "-inf"]]}')
        code, out, err = run(["decode", str(scores)])
        assert_data_error(code, err, "score matrix 1: tag_logp row 1 "
                                     "log-sum-exps to -inf, not 0")

    @pytest.mark.parametrize("budget", [0, -5])
    @pytest.mark.parametrize("command", ["convert", "decode"])
    def test_budget_below_one(self, work, tmp_path, command, budget):
        scores = tmp_path / "scores.json"
        scores.write_text(write_score_file([demo_scores()]))
        out_path = tmp_path / "out.auto"
        argv = (["convert", str(work["conllu"]), "--model", str(work["model"])]
                if command == "convert" else ["decode", str(scores)])
        code, out, err = run(argv + ["--budget", str(budget),
                                     "-o", str(out_path)])
        assert_data_error(code, err, "--budget must be at least 1, got %d"
                                     % budget)
        assert not out_path.exists()


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
        missing.write_text("cat 1.0\n")
        model = load_model(work["model"])
        model.config = dataclasses.replace(model.config,
                                           ext_embeddings=str(missing))
        path = tmp_path / "ext.bin"
        save_model(model, path)
        missing.unlink()
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
        return json.loads(result.read_text())["trace"]

    def names(self, tmp_path, argv):
        return {span[0] for span in self.launch(tmp_path, argv)["spans"]}

    def test_decode(self, tmp_path):
        scores = tmp_path / "scores.json"
        scores.write_text(write_score_file([demo_scores()]))
        trace = self.launch(tmp_path, ["decode", str(scores),
                                       "-o", str(tmp_path / "out.auto")])
        assert {"decoder.astar_parse", "scores.check_normalized"} <= {
            span[0] for span in trace["spans"]}
        # a refactor that stops looking a traced name up at call time
        # would leave its count at zero
        for name in ("grammar.apply_binary", "grammar.apply_unary",
                     "categories.unify_features"):
            assert trace["tallies"].get(name, [0])[0] > 0, name
        assert trace["counters"].get("pops", 0) > 0
        assert trace["counters"].get("pushes", 0) > 0

    def test_decode_with_a_constraint(self, tmp_path):
        scores = tmp_path / "scores.json"
        scores.write_text(write_score_file([demo_scores()]))
        spans = tmp_path / "spans.json"
        spans.write_text('{"1": [{"category": null, "start": 2, "end": 3}]}')
        trace = self.launch(tmp_path, ["decode", str(scores), "--constraints",
                                       str(spans), "-o",
                                       str(tmp_path / "out.auto")])
        assert trace["tallies"].get("decoder.check_constraint",
                                    [0])[0] > 0

    def test_train_and_convert(self, work, tmp_path):
        cfg = tmp_path / "fast.cfg"
        cfg.write_text(CONFIG_TEXT.replace("epochs = 150", "epochs = 1"))
        model = tmp_path / "m.bin"
        names = self.names(tmp_path, [
            "train", str(work["conllu"]), str(work["auto"]), "--model",
            str(model), "--config", str(cfg), "--x-absorption"])
        assert {"model.train", "model.save_model"} <= names
        names = self.names(tmp_path, [
            "convert", str(work["conllu"]), "--model", str(model),
            "--x-absorption", "-o", str(tmp_path / "out.auto")])
        assert {"decoder.astar_parse", "model.score_sentence",
                "model.load_model"} <= names


class TestLazyImports:
    """Commands that neither score nor extract dependencies leave the
    scorer and the PAS modules unloaded, and commands that run in one
    process leave the process pool's modules unloaded too (NumPy loads
    ``ctypes`` itself)."""

    def loaded_after(self, argv, modules=("d2cc.model", "d2cc.pas",
                                          "concurrent.futures",
                                          "multiprocessing")):
        src = str(Path(d2cc.cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
        code = ("import json, sys; from d2cc.cli import main; "
                "code = main(sys.argv[1:]); "
                "print(json.dumps([m for m in %r if m in sys.modules])); "
                "sys.exit(code)" % (modules,))
        done = subprocess.run([sys.executable, "-c", code] + argv, env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout.splitlines()[-1])

    def test_decode(self, tmp_path):
        scores = tmp_path / "scores.json"
        scores.write_text(write_score_file([demo_scores()]))
        assert self.loaded_after(["decode", str(scores), "-o",
                                  str(tmp_path / "out.auto")]) == []

    def test_validate(self):
        mini = Path(d2cc.cli.__file__).parent / "data" / "mini" / "mini.auto"
        assert self.loaded_after(["validate", str(mini)]) == []

    def test_extract_deps_loads_pas_only(self, tmp_path):
        assert self.loaded_after(["extract-deps", str(FIXTURES / "coord.auto"),
                                  "-o", str(tmp_path / "deps.txt")]) \
            == ["d2cc.pas"]

    def test_convert_without_embeddings_leaves_hashlib_unloaded(
            self, work, tmp_path):
        # hashlib loads OpenSSL, about 3.7 MB of resident memory; the six
        # sentences make one unit of work, so one process
        assert self.loaded_after(["convert", str(work["conllu"]), "--model",
                                  str(work["model"]), "-o",
                                  str(tmp_path / "out.auto")],
                                 ("hashlib", "concurrent.futures",
                                  "multiprocessing")) == []

    def test_package_and_cli_names(self):
        from d2cc import Metrics, evaluate, extract_deps
        import d2cc.model
        import d2cc.pas

        assert (Metrics, evaluate, extract_deps) == (
            d2cc.pas.Metrics, d2cc.pas.evaluate, d2cc.pas.extract_deps)
        assert d2cc.cli.default_coindex_table is d2cc.pas.default_coindex_table
        assert d2cc.cli.train is d2cc.model.train
        for module in (d2cc, d2cc.cli):
            with pytest.raises(AttributeError):
                module.no_such_name

    def test_commands_call_a_substituted_name(self, work, tmp_path,
                                              monkeypatch):
        # the traced bench launcher wraps d2cc.cli names before main runs
        calls = []
        real = d2cc.cli.load_model
        monkeypatch.setattr(d2cc.cli, "load_model",
                            lambda path: calls.append(path) or real(path))
        code, out, err = run(["convert", str(work["conllu"]), "--model",
                              str(work["model"]), "--x-absorption",
                              "-o", str(tmp_path / "out.auto")])
        assert code == 0, err
        assert calls == [str(work["model"])]


def test_bench_launcher_counts_one_scorer_span_per_sentence(work, chunked,
                                                            tmp_path):
    """The benchmark reads per-sentence layer counts from the traced
    launcher; batching the encoder over a chunk must still leave one
    scorer span and one convert span per sentence."""
    result = tmp_path / "trace.json"
    src = str(Path(d2cc.cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, str(BENCH / "launcher.py"), str(result), "trace",
         "convert", str(chunked["conllu"]), "--model", str(work["model"]),
         "--x-absorption", "-o", str(tmp_path / "out.auto")],
        env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    spans = json.loads(result.read_text())["trace"]["spans"]
    names = [span[0] for span in spans]
    assert names.count("model.score_sentence") == chunked["count"]
    assert names.count("decoder.convert") == chunked["count"]


def train_argv(work, tmp_path, config_text, *extra):
    cfg = tmp_path / "train.cfg"
    cfg.write_text(config_text)
    return ["train", str(work["conllu"]), str(work["auto"]), "--model",
            str(tmp_path / "m.bin"), "--config", str(cfg),
            "--x-absorption"] + list(extra)


def assert_data_error(code, err, *needles):
    assert code == 2, err
    assert err.startswith("error: ") and "Traceback" not in err
    for needle in needles:
        assert needle in err


class TestUndecodableInputs:
    """An input file that is not UTF-8 ends in a DataError naming it."""

    @pytest.mark.parametrize("which", ["scores", "conllu", "constraints",
                                       "grammar", "config"])
    def test_not_utf8(self, work, tmp_path, which):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff\xfe")
        scores = tmp_path / "scores.json"
        scores.write_text(write_score_file([demo_scores()]))
        argv = {
            "scores": ["decode", str(bad)],
            "conllu": ["convert", str(bad), "--model", str(work["model"])],
            "constraints": ["decode", str(scores), "--constraints", str(bad)],
            "grammar": ["validate", str(MINI_AUTO), "--grammar", str(bad)],
            "config": ["train", str(work["conllu"]), str(work["auto"]),
                       "--model", str(tmp_path / "m.bin"),
                       "--config", str(bad)],
        }[which]
        code, out, err = run(argv)
        assert_data_error(code, err, "cannot read %s" % bad)

    @pytest.mark.parametrize("key", ["unary_table", "roots", "seen_rules"])
    def test_not_utf8_inside_grammar_config(self, tmp_path, key):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff\xfe")
        config = tmp_path / "g.cfg"
        config.write_text("%s = bad.txt\n" % key)
        code, out, err = run(["validate", str(MINI_AUTO),
                              "--grammar", str(config)])
        assert_data_error(code, err, "cannot read %s" % bad)


class TestConfigRanges:
    """Config values out of range end in a DataError naming the key,
    before any training."""

    @pytest.mark.parametrize("line", [
        "epochs = 0", "epochs = -1", "batch_size = 0", "seq_dim = 7",
        "seq_layers = 0", "tree_dim = -3", "word_dim = 0", "unk_buckets = 0",
        "lr = 0", "lr = inf", "eps = -1e-8", "beta1 = nan", "beta2 = 1.0",
    ])
    def test_train_refuses(self, work, tmp_path, line):
        code, out, err = run(train_argv(work, tmp_path,
                                        CONFIG_TEXT + line + "\n"))
        assert_data_error(code, err, line.split(" = ")[0])
        assert out == "" and not (tmp_path / "m.bin").exists()

    @pytest.mark.parametrize("part", ["config", "vocab"])
    def test_checkpoint_with_no_unknown_word_buckets(self, work, tmp_path,
                                                     part):
        raw = work["model"].read_bytes()
        (size,) = struct.unpack("<I", raw[8:12])
        header = json.loads(raw[12:12 + size])
        header[part]["unk_buckets"] = 0
        blob = json.dumps(header, sort_keys=True).encode("utf-8")
        path = tmp_path / "zero-buckets.bin"
        path.write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob
                         + raw[12 + size:])
        code, out, err = run(["convert", str(work["conllu"]),
                              "--model", str(path)])
        assert_data_error(code, err, str(path), "unk_buckets")


class TestNumberFlags:
    @pytest.mark.parametrize("beam", ["2", "10", "nan", "-0.5"])
    def test_decode_beam_out_of_range(self, tmp_path, beam):
        scores = tmp_path / "scores.json"
        scores.write_text(write_score_file([demo_scores()]))
        code, out, err = run(["decode", str(scores), "--beam", beam])
        assert_data_error(code, err, "--beam")

    def test_convert_beam_out_of_range(self, work):
        code, out, err = run(["convert", str(work["conllu"]), "--model",
                              str(work["model"]), "--beam", "2"])
        assert_data_error(code, err, "--beam")

    @pytest.mark.parametrize("weight", ["nan", "inf", "-1"])
    def test_mix_weight(self, work, tmp_path, weight):
        prefix = work["root"] / "corpus"
        code, out, err = run(train_argv(
            work, tmp_path, CONFIG_TEXT, "--mix", "%s:%s" % (prefix, weight)))
        assert_data_error(code, err, "--mix weight")


class TestUnwritableOutputs:
    """An output path in a missing directory ends in "cannot write"."""

    def test_decode(self, tmp_path, monkeypatch):
        # refused before any decoding
        monkeypatch.setattr(d2cc.cli, "astar_parse", None)
        scores = tmp_path / "scores.json"
        scores.write_text(write_score_file([demo_scores()]))
        target = tmp_path / "missing" / "out.auto"
        code, out, err = run(["decode", str(scores), "-o", str(target)])
        assert_data_error(code, err, "cannot write %s" % target)

    def test_convert(self, work, tmp_path, monkeypatch):
        # refused before the model is even read
        monkeypatch.setattr(d2cc.cli, "load_model", None)
        target = tmp_path / "missing" / "out.auto"
        code, out, err = run(["convert", str(work["conllu"]), "--model",
                              str(work["model"]), "--x-absorption",
                              "-o", str(target)])
        assert_data_error(code, err, "cannot write %s" % target)

    def test_extract_deps(self, tmp_path, monkeypatch):
        # refused before any input is read
        monkeypatch.setattr(d2cc.cli, "read_auto", None)
        target = tmp_path / "missing" / "deps.txt"
        code, out, err = run(["extract-deps", str(MINI_AUTO),
                              "-o", str(target)])
        assert_data_error(code, err, "cannot write %s" % target)
        assert out == ""

    def test_eval_json(self, tmp_path, monkeypatch):
        # refused before any input is read, so no report reaches stdout
        monkeypatch.setattr(d2cc.cli, "read_auto", None)
        target = tmp_path / "missing" / "metrics.json"
        code, out, err = run(["eval", str(MINI_AUTO), str(MINI_AUTO),
                              "--json", str(target)])
        assert_data_error(code, err, "cannot write %s" % target)
        assert out == ""

    @pytest.mark.parametrize("flag", ["--model", "--metrics"])
    def test_train(self, work, tmp_path, flag, monkeypatch):
        # refused before any training
        monkeypatch.setattr(d2cc.cli, "train", None)
        target = tmp_path / "missing" / "out"
        argv = train_argv(work, tmp_path, CONFIG_TEXT)
        if flag == "--model":
            argv[argv.index("--model") + 1] = str(target)
        else:
            argv += ["--metrics", str(target)]
        code, out, err = run(argv)
        assert_data_error(code, err, "cannot write %s" % target)

    @pytest.mark.parametrize("flag", ["--model", "--metrics"])
    def test_train_onto_a_directory(self, work, tmp_path, flag):
        # its folder is writable, so only the write after training fails
        target = tmp_path / "taken"
        target.mkdir()
        fast = CONFIG_TEXT.replace("epochs = 150", "epochs = 1")
        argv = train_argv(work, tmp_path, fast)
        if flag == "--model":
            argv[argv.index("--model") + 1] = str(target)
        else:
            argv += ["--metrics", str(target)]
        code, out, err = run(argv)
        assert_data_error(code, err, "cannot write %s" % target)


def deep_auto(n, shape):
    """AUTO text of one derivation of ``n`` leaves that branches all the
    way to the ``left`` or the ``right``, ``n - 1`` levels deep.  Every leaf
    but the innermost takes the constituent beside it as its argument, so
    each adds one dependency."""
    def leaf(k, cat):
        return "(<L %s X X w%d %s>)" % (cat, k, cat)

    if shape == "left":
        node = leaf(1, "NP")
        for k in range(2, n + 1):
            cat, arg = (("S[dcl]", "S[dcl]\\NP") if k % 2 == 0
                        else ("NP", "NP\\S[dcl]"))
            node = "(<T %s 0 2> %s %s)" % (cat, node, leaf(k, arg))
    else:
        node = leaf(n, "NP")
        for k in range(n - 1, 0, -1):
            cat, fn = (("S[dcl]", "S[dcl]/NP") if (n - k) % 2 == 1
                       else ("NP", "NP/S[dcl]"))
            node = "(<T %s 0 2> %s %s)" % (cat, leaf(k, fn), node)
    return "ID=1\n%s\n" % node


def rebuilt(tree, leaf=lambda node: node, binary=lambda node: node):
    """A copy of ``tree`` with ``leaf`` and ``binary`` applied to its
    rebuilt leaves and binary nodes."""
    return fold(tree, leaf,
                lambda node, child: dataclasses.replace(node, child=child),
                lambda node, left, right: binary(
                    dataclasses.replace(node, left=left, right=right)))


class TestDeepDerivations:
    """A derivation of any depth is read, checked, scored and written;
    only category text nested past the recursion limit is an input error,
    never a traceback."""

    @pytest.fixture(params=["left", "right"])
    def deep(self, request, tmp_path):
        path = tmp_path / "deep.auto"
        path.write_text(deep_auto(10000, request.param))
        return path

    def test_validate(self, deep):
        code, out, err = run(["validate", str(deep)])
        assert code == 0, err
        assert out == "" and "1 trees, 0 problems" in err

    def test_eval_against_itself(self, deep):
        code, out, err = run(["eval", str(deep), str(deep)])
        assert code == 0, err
        assert "labeled     100.00   100.00   100.00" in out

    def test_extract_deps(self, deep, tmp_path):
        dump = tmp_path / "deps.txt"
        code, out, err = run(["extract-deps", str(deep), "-o", str(dump)])
        assert code == 0, err
        [tree] = read_auto(deep.read_text())
        deps = extract_deps(tree)
        assert len(deps) == 9999
        assert dump.read_text() == write_pas_dump([deps])

    def test_read_then_write_gives_the_bytes_back(self, deep):
        text = deep.read_text()
        assert write_auto(read_auto(text)) == text

    def test_equal_hash_and_repr(self, deep):
        [tree] = read_auto(deep.read_text())
        [again] = read_auto(write_auto([tree]))
        assert again is not tree
        assert tree == again and not tree != again
        assert hash(tree) == hash(again) and len({tree, again}) == 1
        assert repr(tree) == repr(again)
        assert repr(tree).startswith("Binary(left=")
        assert rebuilt(tree) == tree
        deepest = 1 if isinstance(tree.left, Binary) else 10000

        def at_deepest(**change):
            return lambda node: (dataclasses.replace(node, **change)
                                 if node.index == deepest else node)

        def innermost(node):
            if isinstance(node.left, Terminal) and isinstance(node.right,
                                                              Terminal):
                return dataclasses.replace(node, rule=next(
                    kind for kind in RuleKind if kind != node.rule))
            return node

        # one change at the bottom of the derivation makes it unequal
        for other in [rebuilt(tree, leaf=at_deepest(word="other")),
                      rebuilt(tree, leaf=at_deepest(category=C("N"))),
                      rebuilt(tree, binary=innermost)]:
            assert tree != other and other != tree
            assert not tree == other

    def test_category_nested_past_the_limit_exits_2(self, tmp_path):
        cat = "(" * 1000 + "NP" + ")" * 1000
        path = tmp_path / "nested.auto"
        path.write_text("ID=1\n(<L %s X X w %s>)\n" % (cat, cat))
        code, out, err = run(["validate", str(path)])
        assert_data_error(code, err, "recursion")
        assert out == ""

    def test_decode_goes_on_past_a_tree_too_deep_to_write(self, tmp_path,
                                                         monkeypatch):
        real = d2cc.cli.write_auto
        calls = []

        def write_auto(trees, first=1):
            calls.append(first)
            if len(calls) == 1:
                raise RecursionError("maximum recursion depth exceeded")
            return real(trees, first)

        monkeypatch.setattr(d2cc.cli, "write_auto", write_auto)
        scores = tmp_path / "scores.json"
        scores.write_text(write_score_file([demo_scores()] * 2))
        code, out, err = run(["decode", str(scores)])
        assert code == 0, err
        assert "sentence 1: maximum recursion depth exceeded" in err
        assert "decoded 1/2" in err
        assert out.startswith("ID=1\n") and "ID=2" not in out


class TestExternalEmbeddings:
    def test_train_convert_and_grad_check(self, work, tmp_path, monkeypatch):
        """A config names its vectors relative to itself: the checkpoint
        keeps the absolute path, so ``convert`` runs from any directory."""
        home = tmp_path / "train"
        home.mkdir()
        words = ["the", "a", "cat", "dog", "sleeps", "runs", "oh", "cats"]
        (home / "v.txt").write_text("".join(
            "%s %.1f %.1f\n" % (w, k * 0.5, 1.0 - k * 0.25)
            for k, w in enumerate(words)))
        (home / "train.cfg").write_text(CONFIG_TEXT
                                        + "ext_embeddings = v.txt\n")
        monkeypatch.chdir(home)
        code, out, err = run(["train", str(work["conllu"]), str(work["auto"]),
                              "--model", "m.bin", "--config", "train.cfg",
                              "--x-absorption"])
        assert code == 0, err
        model = load_model(home / "m.bin")
        assert model.config.ext_embeddings == str(home / "v.txt")
        # the first BiLSTM layer reads pos, word and vector columns
        assert model.ext_dim == 2
        assert model.params["seq0_f_W"].shape == (16, 4 + 5 + 2 + 4)
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        code, out, err = run(["convert", str(work["conllu"]), "--model",
                              str(home / "m.bin"), "--x-absorption"])
        assert code == 0, err
        assert "converted 6/6" in err
        assert out == work["auto"].read_text()
        code, out, err = run(["grad-check", str(work["conllu"]),
                              str(work["auto"]), "--x-absorption",
                              "--config", str(home / "train.cfg")])
        assert code == 0, out + err
        assert "max relative error" in out
        # the checkpoint holds the vectors' sha256: edited vectors are refused
        with open(home / "v.txt", "a") as handle:
            handle.write("oh 0.5 0.5\n")
        code, out, err = run(["convert", str(work["conllu"]), "--model",
                              str(home / "m.bin"), "--x-absorption"])
        assert_data_error(code, err, str(home / "v.txt"), "sha256")


class TestTrainSeed:
    def test_seed_flag_overrides_config(self, work, tmp_path):
        fast = CONFIG_TEXT.replace("epochs = 150", "epochs = 1")
        digests = []
        for seed in (None, "1", "2"):
            argv = train_argv(work, tmp_path, fast)
            if seed is not None:
                argv += ["--seed", seed]
            code, out, err = run(argv)
            assert code == 0, err
            digests.append((tmp_path / "m.bin").read_bytes())
        # the config's seed is 1
        assert digests[0] == digests[1] != digests[2]
