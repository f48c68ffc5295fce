"""The checker's independent score recomputation and output alignment."""

import math

import numpy as np
import pytest

import check
from workloads import random_matrices
from d2cc.decoder import astar_parse
from d2cc.errors import NoParseError
from d2cc.grammar import default_grammar


@pytest.mark.parametrize("beam", [None, -math.log(1e-4)])
def test_recomputed_score_equals_decoder_score(beam):
    grammar = default_grammar()
    rng = np.random.default_rng(5)
    checked = 0
    for _ in range(40):
        m = random_matrices(rng, int(rng.integers(2, 6)), 10)
        try:
            result = astar_parse(m, grammar, beam=beam)
        except NoParseError:
            continue
        assert check.check_tree(1, result.tree, m.tokens, grammar) == []
        assert check.tree_score(result.tree, m) == pytest.approx(
            result.score, abs=1e-9)
        checked += 1
    assert checked >= 20


@pytest.mark.parametrize("beam", [None, -math.log(1e-4)])
def test_exhaustive_optimum_equals_decoder_score(beam):
    grammar = default_grammar()
    rng = np.random.default_rng(9)
    for _ in range(25):
        m = random_matrices(rng, int(rng.integers(1, 5)), 12)
        try:
            score = astar_parse(m, grammar, beam=beam).score
        except NoParseError:
            score = -math.inf
        assert check.best_score(m, grammar, beam) == pytest.approx(
            score, abs=1e-9)


def test_failures_align_outputs_to_their_inputs():
    stderr = ("sentence 2: no valid parse (grammar failure) (grammar)\n"
              "sentence 4: item budget exceeded\nconverted 3/5\n")
    failed = check.failures(stderr)
    assert sorted(failed) == [2, 4]
    problems = []
    assert check.align(["a", "b", "c"], 5, failed, problems) == \
        ["a", None, "b", None, "c"]
    assert problems == []
    check.align(["a", "b"], 5, failed, problems)
    assert problems
