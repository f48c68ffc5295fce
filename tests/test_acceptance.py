"""Acceptance suite: one test per shipped guarantee, each printing a
single PASS/FAIL line with the measured numbers.

Run with ``pytest tests/test_acceptance.py -v`` to see every line.
"""

import json
import math
import os
import subprocess
import sys
import time
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import d2cc
import oracle
from d2cc import (
    Binary,
    Constraint,
    DepTree,
    NoParseError,
    RuleKind,
    ScoreMatrices,
    Terminal,
    check_constraint,
    check_normalized,
    default_grammar,
    parse_category,
    read_auto,
    read_conllu,
    terminals,
    validate_tree,
    write_auto,
    write_score_file,
)
from d2cc.decoder import astar_parse, convert as decoder_convert, heuristic
from d2cc.model import (
    ModelConfig,
    TrainConfig,
    build_vocab,
    grad_check,
    init_model,
    score_sentence,
    train,
    tree_targets,
)
from d2cc.pas import PASDep, evaluate, extract_deps

C = parse_category

FIXTURES = Path(__file__).parent / "fixtures"
# The directory that holds the imported ``d2cc`` package; CLI children put
# it first on their path so they run the code under test from any cwd.
PACKAGE_ROOT = Path(d2cc.__file__).resolve().parent.parent

TINY = ModelConfig(word_dim=4, pos_dim=3, label_dim=3, seq_dim=6,
                   seq_layers=2, tree_dim=6, mlp_dim=5, unk_buckets=2)


def report(capsys, ok, label, detail):
    line = "%s - %s (%s)" % ("PASS" if ok else "FAIL", label, detail)
    with capsys.disabled():
        print(line)
    assert ok, line


def mini_treebank():
    data = resources.files("d2cc").joinpath("data/mini")
    sentences = read_conllu(data.joinpath("mini.conllu").read_text(
        encoding="utf-8"))
    trees = read_auto(data.joinpath("mini.auto").read_text(encoding="utf-8"),
                      default_grammar())
    assert len(sentences) == len(trees)
    return list(zip(sentences, trees))


# ---------------------------------------------------------------------------
# shared generators


WORDS = ["the", "a", "cat", "dog", "bird", "sees", "runs", "old", "big"]


def random_pair(rng):
    """A random aligned (dependency tree, derivation) pair in one of
    three shapes: bare noun phrase, short clause, modified clause."""
    shape = rng.integers(0, 3)
    w = [WORDS[i] for i in rng.integers(0, len(WORDS), size=4)]
    if shape == 0:
        det = Terminal(1, w[0], C("NP/N"), "DET")
        noun = Terminal(2, w[1], C("N"), "NOUN")
        tree = Binary(det, noun, C("NP"), RuleKind.FORWARD_APPLY)
        z = DepTree(w[:2], ["DET", "NOUN"], [2, 0], ["det", "root"])
    elif shape == 1:
        det = Terminal(1, w[0], C("NP/N"), "DET")
        noun = Terminal(2, w[1], C("N"), "NOUN")
        verb = Terminal(3, w[2], C("S[dcl]\\NP"), "VERB")
        tree = Binary(Binary(det, noun, C("NP"), RuleKind.FORWARD_APPLY),
                      verb, C("S[dcl]"), RuleKind.BACKWARD_APPLY)
        z = DepTree(w[:3], ["DET", "NOUN", "VERB"], [2, 3, 0],
                    ["det", "nsubj", "root"])
    else:
        det = Terminal(1, w[0], C("NP/N"), "DET")
        mod = Terminal(2, w[1], C("N/N"), "ADJ")
        noun = Terminal(3, w[2], C("N"), "NOUN")
        verb = Terminal(4, w[3], C("S[dcl]\\NP"), "VERB")
        nbar = Binary(mod, noun, C("N"), RuleKind.FORWARD_APPLY)
        tree = Binary(Binary(det, nbar, C("NP"), RuleKind.FORWARD_APPLY),
                      verb, C("S[dcl]"), RuleKind.BACKWARD_APPLY)
        z = DepTree(w[:4], ["DET", "ADJ", "NOUN", "VERB"], [3, 3, 4, 0],
                    ["det", "amod", "nsubj", "root"])
    return z, tree


# ---------------------------------------------------------------------------
# 1. exact search


def test_astar_matches_exhaustive_optimum(capsys):
    grammar = default_grammar()
    rng = np.random.default_rng(20240811)
    t0 = time.monotonic()
    parsed = 0
    worst = 0.0
    for trial in range(200):
        n = int(rng.integers(1, 8))
        ncats = int(rng.integers(2, 13))
        m = oracle.random_matrices(rng, n, ncats)
        chart = oracle.build_chart(m, grammar)
        if not chart.goals:
            with pytest.raises(NoParseError):
                astar_parse(m, grammar, beam=None)
            continue
        best, _ = chart.best_goal()
        result = astar_parse(m, grammar, beam=None)
        assert validate_tree(result.tree, grammar) == []
        rescored = oracle.score_tree(result.tree, m)
        assert abs(result.score - rescored) < 1e-9
        worst = max(worst, abs(result.score - best))
        parsed += 1
    elapsed = time.monotonic() - t0
    ok = worst < 1e-9 and elapsed < 60.0
    report(capsys, ok, "A* optimality",
           "200 instances, %d parsed, max |score gap| %.2e, %.1fs"
           % (parsed, worst, elapsed))


# ---------------------------------------------------------------------------
# 2. constrained search


def test_constrained_search_matches_brute_force(capsys):
    grammar = default_grammar()

    # the four reference span conditions
    dog_np = C("NP")
    assert check_constraint(C("N"), 2, 2, [Constraint(dog_np, 2, 2)],
                            grammar)  # covered by the unary promotion
    assert not check_constraint(C("S[dcl]"), 2, 2,
                                [Constraint(dog_np, 2, 2)], grammar)
    assert check_constraint(C("N/N"), 2, 2, [Constraint(None, 1, 3)],
                            grammar)  # nested span, no category demanded
    assert not check_constraint(C("NP"), 2, 4, [Constraint(None, 1, 3)],
                                grammar)  # proper overlap

    rng = np.random.default_rng(20240812)
    checked = 0
    changed = 0
    worst = 0.0
    attempts = 0
    while checked < 100:
        attempts += 1
        assert attempts < 1000, "could not sample enough parseable instances"
        n = int(rng.integers(2, 8))
        ncats = int(rng.integers(3, 13))
        m = oracle.random_matrices(rng, n, ncats)
        chart = oracle.build_chart(m, grammar)
        cons = oracle.sample_satisfiable_constraints(
            chart, rng, int(rng.integers(1, 4)))
        if cons is None:
            continue
        constrained_best = oracle.best_score(m, grammar, cons)
        assert math.isfinite(constrained_best)
        result = astar_parse(m, grammar, cons, beam=None)
        assert oracle.tree_satisfies(result.tree, cons, grammar)
        gap = abs(result.score - constrained_best)
        worst = max(worst, gap)
        free_best, _ = chart.best_goal()
        if constrained_best < free_best - 1e-9:
            changed += 1
        checked += 1
    ok = worst < 1e-9
    report(capsys, ok, "constrained decoding",
           "100 instances, optimum shifted in %d, max |gap| %.2e"
           % (changed, worst))


# ---------------------------------------------------------------------------
# 3. heuristic admissibility


def test_heuristic_never_underestimates(capsys):
    grammar = default_grammar()
    rng = np.random.default_rng(20240813)
    items = 0
    underestimates = 0
    for trial in range(50):
        n = int(rng.integers(1, 6))
        ncats = int(rng.integers(2, 10))
        m = oracle.random_matrices(rng, n, ncats)
        chart = oracle.build_chart(m, grammar)
        outside = oracle.outside_table(chart)
        for (start, end, text, depth), true_out in outside.items():
            if not math.isfinite(true_out):
                continue
            bound = heuristic(m, start, end)
            items += 1
            if true_out > bound + 1e-9:
                underestimates += 1
    ok = items > 0 and underestimates == 0
    report(capsys, ok, "heuristic admissibility",
           "%d completions across 50 matrices, %d underestimates"
           % (items, underestimates))


# ---------------------------------------------------------------------------
# 4. gradients


def test_gradients_match_finite_differences(capsys):
    # base seed screened so no ELU pre-activation of any instance sits
    # inside the 1e-4 difference window, where the numerical oracle
    # itself loses accuracy (the analytic gradient is unaffected)
    base = 100
    rng = np.random.default_rng(base)
    pairs = [random_pair(rng) for _ in range(20)]
    vocab = build_vocab(pairs, TINY.unk_buckets)
    worst = 0.0
    for k, (z, tree) in enumerate(pairs):
        model = init_model(vocab, TINY, seed=base + k)
        tags, heads = tree_targets(tree)
        err = grad_check(model, z, tags, heads)
        worst = max(worst, err)
    control_model = init_model(vocab, TINY, seed=base)
    z, tree = pairs[0]
    tags, heads = tree_targets(tree)
    control = grad_check(control_model, z, tags, heads, corrupt="biaff_W")
    ok = worst < 1e-4 and control > 1e-2
    report(capsys, ok, "gradient correctness",
           "20 instances, max relative error %.2e, corrupted control %.2e"
           % (worst, control))


# ---------------------------------------------------------------------------
# 5. capacity and re-conversion


def test_overfits_shipped_treebank_and_reconverts(capsys):
    pairs = mini_treebank()
    grammar = default_grammar()
    vocab = build_vocab(pairs, ModelConfig().unk_buckets)
    model = init_model(vocab, ModelConfig(), seed=0)
    cfg = TrainConfig(early_stop_acc=0.99)
    t0 = time.monotonic()
    history = train(model, [(pairs, 1.0)], cfg)
    train_time = time.monotonic() - t0
    last = history[-1]
    exact = 0
    for z, gold in pairs:
        try:
            tree = decoder_convert(model, grammar, z)
        except NoParseError:
            continue
        if write_auto([tree]) == write_auto([gold]):
            exact += 1
    ok = (last["tag_acc"] >= 0.99 and last["head_acc"] >= 0.99
          and len(history) <= 200 and train_time < 300.0
          and exact >= math.ceil(0.95 * len(pairs)))
    report(capsys, ok, "capacity and re-conversion",
           "%d sentences, %d epochs, tag %.3f, head %.3f, %.0fs, "
           "%d/%d trees reproduced"
           % (len(pairs), len(history), last["tag_acc"], last["head_acc"],
              train_time, exact, len(pairs)))


# ---------------------------------------------------------------------------
# 6. predicate-argument extraction


def test_fixture_extraction_and_round_trip(capsys):
    grammar = default_grammar()
    rel_text = (FIXTURES / "relclause.auto").read_text(encoding="utf-8")
    [rel] = read_auto(rel_text, grammar)
    deps = set(extract_deps(rel))
    expected = {
        PASDep(4, "(S[dcl]\\NP)/(S[to]\\NP)", 1, 3),
        PASDep(4, "(S[dcl]\\NP)/(S[to]\\NP)", 2, 6),
        PASDep(6, "(S[b]\\NP)/NP", 1, 3),
        PASDep(6, "(S[b]\\NP)/NP", 2, 1),
    }
    deps_ok = deps == expected
    long_range_ok = (PASDep(6, "(S[b]\\NP)/NP", 1, 3) in deps
                     and PASDep(6, "(S[b]\\NP)/NP", 2, 1) in deps)

    coord_text = (FIXTURES / "coord.auto").read_text(encoding="utf-8")
    coord_trees = read_auto(coord_text, grammar)
    wide = replace(grammar, roots=grammar.roots | {C("S[dcl]\\NP")})
    problems = [p for t in coord_trees for p in validate_tree(t, wide)]
    round_trip = write_auto(coord_trees) == coord_text
    ok = deps_ok and long_range_ok and not problems and round_trip
    report(capsys, ok, "predicate-argument extraction",
           "relative clause deps %s, coordination valid=%s round-trip=%s"
           % ("exact" if deps_ok else "WRONG", not problems, round_trip))


# ---------------------------------------------------------------------------
# 7. evaluator


def test_evaluator_reference_values(capsys):
    pairs = mini_treebank()
    all_deps = [extract_deps(t) for _, t in pairs]
    self_eval = evaluate(all_deps, all_deps)
    self_ok = (self_eval.labeled.f1 == 100.0
               and self_eval.unlabeled.f1 == 100.0)

    gold = [[PASDep(2, "S[dcl]\\NP", 1, 1),
             PASDep(2, "(S[dcl]\\NP)/NP", 2, 3),
             PASDep(4, "NP/N", 1, 5),
             PASDep(6, "N/N", 1, 7),
             PASDep(8, "PP/NP", 1, 9)]]
    pred = [[PASDep(2, "S[dcl]\\NP", 1, 1),
             PASDep(2, "(S[dcl]\\NP)/NP", 2, 3),
             PASDep(4, "NP/N", 1, 5),
             PASDep(8, "PP/NP", 1, 7)]]
    metrics = evaluate(pred, gold)
    partial_ok = (abs(metrics.labeled.precision - 75.0) <= 0.01
                  and abs(metrics.labeled.recall - 60.0) <= 0.01
                  and abs(metrics.labeled.f1 - 66.67) <= 0.01)

    rng = np.random.default_rng(20240814)
    order_ok = True
    cats = ["S[dcl]\\NP", "(S[dcl]\\NP)/NP", "NP/N", "N/N"]
    for _ in range(50):
        def random_deps():
            out = []
            for _ in range(int(rng.integers(1, 8))):
                out.append(PASDep(int(rng.integers(1, 6)),
                                  cats[rng.integers(0, len(cats))],
                                  int(rng.integers(1, 3)),
                                  int(rng.integers(1, 6))))
            return [list(set(out))]
        p, g = random_deps(), random_deps()
        m = evaluate(p, g)
        if (m.labeled.precision > m.unlabeled.precision + 1e-9
                or m.labeled.recall > m.unlabeled.recall + 1e-9
                or m.labeled.f1 > m.unlabeled.f1 + 1e-9):
            order_ok = False
    ok = self_ok and partial_ok and order_ok
    report(capsys, ok, "evaluator",
           "self-eval %.2f, partial case P=%.2f R=%.2f F1=%.2f, "
           "labeled<=unlabeled on 50 random pairs: %s"
           % (self_eval.labeled.f1, metrics.labeled.precision,
              metrics.labeled.recall, metrics.labeled.f1, order_ok))


# ---------------------------------------------------------------------------
# 8. output normalization


def test_model_scores_always_normalized(capsys):
    rng = np.random.default_rng(20240815)
    pairs = [random_pair(rng) for _ in range(12)]
    vocab = build_vocab(pairs, TINY.unk_buckets)
    model = init_model(vocab, TINY, seed=1)
    pos_pool = ["DET", "NOUN", "VERB", "ADJ", "ZZZ"]
    label_pool = ["det", "nsubj", "amod", "root", "zzz"]
    bad = 0
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        words = [WORDS[i] if rng.random() < 0.7 else "unk%d" % rng.integers(99)
                 for i in rng.integers(0, len(WORDS), size=n)]
        # left-branching random tree: token 1 is the root, every later
        # token attaches to some token on its left
        heads = [0] + [int(rng.integers(1, i + 1)) for i in range(1, n)]
        z = DepTree(words,
                    [pos_pool[rng.integers(0, len(pos_pool))]
                     for _ in range(n)],
                    heads,
                    [label_pool[rng.integers(0, len(label_pool))]
                     for _ in range(n)])
        m = score_sentence(model, z)
        if check_normalized(m, tol=1e-6) is not None:
            bad += 1
    ok = bad == 0
    report(capsys, ok, "row normalization",
           "1000 random sentences, %d rows off by more than 1e-6" % bad)


# ---------------------------------------------------------------------------
# 9. determinism


def _write_toy_corpus(root: Path):
    sentences = []
    trees = []
    for words in [("the", "cat", "sleeps"), ("a", "dog", "runs"),
                  ("the", "dog", "sleeps"), ("a", "cat", "runs")]:
        lines = []
        for i, (w, p, h, l) in enumerate(zip(
                words, ("DET", "NOUN", "VERB"), (2, 3, 0),
                ("det", "nsubj", "root")), 1):
            lines.append("%d\t%s\t_\t%s\t_\t_\t%d\t%s\t_\t_" % (i, w, p, h, l))
        sentences.append("\n".join(lines))
        det = Terminal(1, words[0], C("NP/N"), "DET")
        noun = Terminal(2, words[1], C("N"), "NOUN")
        verb = Terminal(3, words[2], C("S[dcl]\\NP"), "VERB")
        trees.append(Binary(Binary(det, noun, C("NP"),
                                   RuleKind.FORWARD_APPLY),
                            verb, C("S[dcl]"), RuleKind.BACKWARD_APPLY))
    (root / "toy.conllu").write_text("\n\n".join(sentences) + "\n",
                                     encoding="utf-8")
    (root / "toy.auto").write_text(write_auto(trees), encoding="utf-8")
    (root / "toy.cfg").write_text(
        "word_dim = 5\npos_dim = 4\nlabel_dim = 4\nseq_dim = 8\n"
        "seq_layers = 1\ntree_dim = 8\nmlp_dim = 6\nunk_buckets = 2\n"
        "epochs = 25\nbatch_size = 2\nseed = 3\n", encoding="utf-8")


CLI_TIMEOUT_S = 300  # each run takes about a second


def _cli(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE_ROOT)] + [p for p in env.get("PYTHONPATH", "").split(
            os.pathsep) if p])
    env["OPENBLAS_NUM_THREADS"] = "1"
    try:
        proc = subprocess.run([sys.executable, "-m", "d2cc.cli"] + args,
                              cwd=cwd, env=env, capture_output=True,
                              text=True, timeout=CLI_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        pytest.fail("d2cc %s timed out after %s s:\n%s" % (
            args[0], exc.timeout,
            (exc.stderr or b"").decode("utf-8", "replace")))
    assert proc.returncode == 0, "d2cc %s exited with %d:\n%s" % (
        args[0], proc.returncode, proc.stderr)
    return proc


def test_runs_are_deterministic(capsys, tmp_path):
    _write_toy_corpus(tmp_path)
    for run in ("one", "two"):
        _cli(["train", "toy.conllu", "toy.auto", "--model",
              "model_%s.bin" % run, "--config", "toy.cfg"], tmp_path)
    same_train = ((tmp_path / "model_one.bin").read_bytes()
                  == (tmp_path / "model_two.bin").read_bytes())

    scores = tmp_path / "scores.json"
    rng = np.random.default_rng(20240816)
    batch = [oracle.random_matrices(rng, int(rng.integers(2, 6)), 6)
             for _ in range(5)]
    scores.write_text(write_score_file(batch), encoding="utf-8")
    for run in ("one", "two"):
        _cli(["decode", "scores.json", "-o", "decoded_%s.auto" % run],
             tmp_path)
    same_decode = ((tmp_path / "decoded_one.auto").read_bytes()
                   == (tmp_path / "decoded_two.auto").read_bytes())

    for run in ("one", "two"):
        _cli(["convert", "toy.conllu", "--model", "model_one.bin",
              "-o", "conv_%s.auto" % run], tmp_path)
    converted = (tmp_path / "conv_one.auto").read_bytes()
    same_convert = (converted == (tmp_path / "conv_two.auto").read_bytes()
                    and len(read_auto(converted.decode("utf-8"),
                                      default_grammar())) == 4)

    ok = same_train and same_decode and same_convert
    report(capsys, ok, "determinism",
           "train bytes equal=%s, decode bytes equal=%s, "
           "convert bytes equal=%s"
           % (same_train, same_decode, same_convert))
