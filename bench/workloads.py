"""The benchmark's three workloads: inputs, commands and output checks.

Each workload has ``setup(dir, seed)``, which writes every input file and
returns what the checks need; ``prepare(inputs, out)``, the ``d2cc``
command lines that make what the passes use (the model), run once per run;
``steps(inputs, out, prepared, k)``, the command lines of pass ``k`` as
(role, argv) pairs, where the role ``infer`` marks the command whose
throughput is reported and ``prepared`` is the directory ``prepare``
wrote to; and ``check(...)``, which returns the problems found, the counts,
the key of the input the pass read and the output digests of a pass.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from d2cc.categories import print_category
from d2cc.decoder import DEFAULT_BEAM
from d2cc.grammar import default_grammar
from d2cc.scores import ScoreMatrices, read_score_file, write_score_file
from d2cc.trees import (Terminal, Unary, read_auto, read_conllu,
                        validate_tree, write_auto, write_conllu)

import check
import longbank

MINI = Path(__file__).resolve().parents[1] / "src" / "d2cc" / "data" / "mini"


def _write(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8")


def _check_gold(pairs, grammar) -> None:
    for k, (_, tree) in enumerate(pairs, 1):
        problems = validate_tree(tree, grammar)
        if problems:
            raise ValueError("gold tree %d is invalid: %s" % (k, problems))


class _Pipeline:
    """``d2cc train`` then ``d2cc convert``; the converted trees are
    checked and scored against gold."""

    config = ""

    def _write_inputs(self, d: Path, seed: int, train_pairs, test_pairs,
                      constraints: dict) -> dict:
        d.mkdir(parents=True, exist_ok=True)
        _write(d / "train.conllu", write_conllu([z for z, _ in train_pairs]))
        _write(d / "train.auto", write_auto([t for _, t in train_pairs]))
        _write(d / "input.conllu", write_conllu([z for z, _ in test_pairs]))
        _write(d / "gold.auto", write_auto([t for _, t in test_pairs]))
        _write(d / "train.cfg", self.config)
        if constraints:
            _write(d / "constraints.json", json.dumps(constraints, indent=1))
        return {"dir": d, "seed": seed, "test": test_pairs,
                "brackets": {int(k): [(c["start"], c["end"]) for c in v]
                             for k, v in constraints.items()}}

    def prepare(self, inputs, out: Path):
        d = inputs["dir"]
        return [("train", ["train", str(d / "train.conllu"),
                           str(d / "train.auto"), "--model",
                           str(out / "model.bin"), "--config",
                           str(d / "train.cfg"), "--seed",
                           str(inputs["seed"])])]

    def steps(self, inputs, out: Path, prepared: Path, k: int):
        d = inputs["dir"]
        convert = ["convert", str(d / "input.conllu"),
                   "--model", str(prepared / "model.bin"),
                   "-o", str(out / "out.auto")]
        if inputs["brackets"]:
            convert += ["--constraints", str(d / "constraints.json")]
        return [("infer", convert)]

    def check(self, inputs, out: Path, prepared: Path, results: dict, runner,
              k: int):
        grammar = default_grammar()
        test = inputs["test"]
        problems = []
        failed = check.failures(results["infer"].stderr)
        trees = read_auto((out / "out.auto").read_text(encoding="utf-8"),
                          grammar)
        predicted = check.align(trees, len(test), failed, problems)
        for i, ((z, _), tree) in enumerate(zip(test, predicted), 1):
            if tree is not None:
                problems += check.check_tree(i, tree, z.tokens, grammar, z.pos,
                                             inputs["brackets"].get(i, ()))
        scores = check.quality(predicted, [t for _, t in test])
        if k == 1 and not failed and not problems:
            runner.d2cc(["eval", str(out / "out.auto"),
                         str(inputs["dir"] / "gold.auto"),
                         "--json", str(out / "eval.json")], out, "eval")
            f1 = json.loads((out / "eval.json").read_text())["labeled"]["f1"]
            if not math.isclose(f1, scores["labeled_f1"], abs_tol=1e-9):
                problems.append("d2cc eval labeled F1 %.6f differs from the "
                                "checker's %.6f" % (f1, scores["labeled_f1"]))
        return {"problems": problems, "attempted": len(test),
                "failed": len(failed),
                "tokens": sum(len(z) for z, _ in test),
                "quality": dict(scores, failed=sorted(failed)),
                "key": "input",
                "digests": {"model.bin": check.sha256(prepared / "model.bin"),
                            "out.auto": check.sha256(out / "out.auto")}}


# The training seed of both pipelines.  Only the inputs of ``convert``
# come from the workload seed: with a model trained per seed, convert time
# followed the quality of that one model more than the inputs, and some
# models left sentences without any parse.
TRAIN_SEED = 1 << 20


class MiniPipeline(_Pipeline):
    """The shipped 64-sentence mini treebank with the default ModelConfig,
    a fixed epoch count, no early stop and the fixed ``TRAIN_SEED``;
    convert reads the corpus repeated ``REPEATS`` times in a seeded
    order."""

    EPOCHS = 4
    REPEATS = 4
    config = "epochs = %d\n" % EPOCHS

    def setup(self, d: Path, seed: int) -> dict:
        grammar = default_grammar()
        pairs = list(zip(read_conllu((MINI / "mini.conllu").read_text()),
                         read_auto((MINI / "mini.auto").read_text(), grammar)))
        _check_gold(pairs, grammar)
        order = np.random.default_rng(seed).permutation(
            len(pairs) * self.REPEATS)
        test = [pairs[i % len(pairs)] for i in order]
        return self._write_inputs(d, TRAIN_SEED, pairs, test, {})


class LongPipeline(_Pipeline):
    """A generated treebank of long sentences: train on ``TRAIN``
    sentences with small model dimensions, convert ``HELD_OUT`` others;
    every second held-out sentence carries its gold NP brackets as
    span-only constraints.  The training split is fixed as well: it comes
    from ``TRAIN_SEED`` too."""

    TRAIN = 160
    HELD_OUT = 256
    config = ("word_dim = 32\npos_dim = 16\nlabel_dim = 16\nseq_dim = 64\n"
              "seq_layers = 2\ntree_dim = 64\nmlp_dim = 32\n"
              "batch_size = 1\nlr = 0.003\nepochs = 3\n")

    def setup(self, d: Path, seed: int) -> dict:
        grammar = default_grammar()
        train = longbank.generate(TRAIN_SEED, self.TRAIN, grammar)
        test = longbank.generate(seed, self.HELD_OUT, grammar)
        constraints = {
            str(k): [{"category": None, "start": s, "end": e}
                     for s, e in np_brackets(tree)]
            for k, (_, tree) in enumerate(test, 1) if k % 2 == 1}
        return self._write_inputs(d, TRAIN_SEED, train, test, constraints)


def np_brackets(tree):
    """Spans of the binary NP constituents of a derivation."""
    found = []

    def walk(node):
        if isinstance(node, Terminal):
            return node.index, node.index
        if isinstance(node, Unary):
            return walk(node.child)
        start, _ = walk(node.left)
        _, end = walk(node.right)
        if print_category(node.category) == "NP":
            found.append((start, end))
        return start, end

    walk(tree)
    return sorted(found)


# ---------------------------------------------------------------------------
# flat random score matrices


# The category pool of the test suite's random instances.
BACKBONE = ("NP", "N", "NP/N", "S[dcl]\\NP", "(S[dcl]\\NP)/NP")
EXTRAS = ("N/N", "NP\\NP", "(NP\\NP)/NP", "S[dcl]", "S[b]\\NP",
          "(S[b]\\NP)/NP", "(S[dcl]\\NP)/(S[b]\\NP)", "(S\\NP)/(S\\NP)",
          "(S[dcl]\\NP)\\(S[dcl]\\NP)", "S/S", "conj", ",", ".", "PP/NP",
          "(S[dcl]\\NP)/PP")


def _log_normalize(a: np.ndarray) -> np.ndarray:
    high = np.max(a, axis=1, keepdims=True)
    return a - (high + np.log(np.sum(np.exp(a - high), axis=1, keepdims=True)))


def random_matrices(rng, n_tokens: int, n_cats: int) -> ScoreMatrices:
    """Row-normalized random scores over the curated category pool; the
    dependency rows mask the self arc like model output does."""
    picks = rng.choice(len(EXTRAS), size=n_cats - len(BACKBONE), replace=False)
    categories = list(BACKBONE) + [EXTRAS[i] for i in sorted(picks)]
    tokens = ["w%d" % (i + 1) for i in range(n_tokens)]
    tag = _log_normalize(rng.normal(size=(n_tokens, n_cats)) * 2.0)
    dep = rng.normal(size=(n_tokens, n_tokens + 1)) * 2.0
    for t in range(1, n_tokens + 1):
        dep[t - 1, t] = -np.inf
    return ScoreMatrices(tokens, categories, tag, _log_normalize(dep))


class FlatDecode:
    """``d2cc decode`` on flat random matrices with 20 categories.  Set-up
    draws ``BATCHES`` batches, each with ``PER_LENGTH`` sentences of every
    length in ``LENGTHS``, shuffled; pass ``k`` decodes batch ``k`` (cycling),
    so a run's median averages over many matrices of very different search
    cost.  On the first pass, every sentence of up to ``EXACT_MAX`` tokens
    must score exactly the optimum of an exhaustive chart over the same
    search space (the default beam), so a decoder that loses exactness
    fails the run."""

    LENGTHS = (4, 5)
    PER_LENGTH = 16
    BATCHES = 10
    CATEGORIES = 20
    EXACT_MAX = 5

    def setup(self, d: Path, seed: int) -> dict:
        d.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng(seed)
        lengths = [n for n in self.LENGTHS for _ in range(self.PER_LENGTH)]
        batches = []
        for b in range(self.BATCHES):
            batch = [random_matrices(rng, lengths[i], self.CATEGORIES)
                     for i in rng.permutation(len(lengths))]
            text = write_score_file(batch)
            _write(d / ("scores%d.json" % b), text)
            batches.append(read_score_file(text))
        return {"dir": d, "batches": batches}

    def prepare(self, inputs, out: Path):
        return []

    def _batch(self, k: int) -> int:
        return (k - 1) % self.BATCHES

    def steps(self, inputs, out: Path, prepared: Path, k: int):
        scores = inputs["dir"] / ("scores%d.json" % self._batch(k))
        return [("infer", ["decode", str(scores),
                           "-o", str(out / "out.auto")])]

    def check(self, inputs, out: Path, prepared: Path, results: dict, runner,
              k: int):
        grammar = default_grammar()
        b = self._batch(k)
        batch = inputs["batches"][b]
        problems = []
        failed = check.failures(results["infer"].stderr)
        trees = read_auto((out / "out.auto").read_text(encoding="utf-8"),
                          grammar)
        decoded = check.align(trees, len(batch), failed, problems)
        scores = []
        exact = 0
        for i, (m, tree) in enumerate(zip(batch, decoded), 1):
            score = -math.inf
            if tree is not None:
                problems += check.check_tree(i, tree, m.tokens, grammar)
                score = check.tree_score(tree, m)
                if not math.isfinite(score):
                    problems.append("sentence %d: score %r" % (i, score))
                scores.append(score)
            if k == 1 and len(m) <= self.EXACT_MAX:
                best = check.best_score(m, grammar, DEFAULT_BEAM)
                exact += 1
                if not math.isclose(score, best, rel_tol=0.0, abs_tol=1e-9):
                    problems.append("sentence %d: decoded score %r, exhaustive "
                                    "optimum %r" % (i, score, best))
        return {"problems": problems, "attempted": len(batch),
                "failed": len(failed),
                "tokens": sum(len(m) for m in batch),
                "quality": {"mean_score": (sum(scores) / len(scores)
                                           if scores else None),
                            "checked_optimal": exact,
                            "failed": sorted(failed)},
                "key": "batch%d" % b,
                "digests": {"out.auto": check.sha256(out / "out.auto")}}


WORKLOADS = {"mini-pipeline": MiniPipeline, "flat-decode": FlatDecode,
             "long-pipeline": LongPipeline}
