"""Property tests over drawn inputs (hypothesis, derandomized so every run
draws the same examples)."""

import json
import math
import os
import string
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import d2cc
from d2cc import (Atomic, BudgetError, Functor, NoParseError, ScoreMatrices,
                  astar_parse, default_grammar, parse_category, print_category,
                  read_auto, write_auto)
from d2cc.categories import FEATURES, PUNCT_NAMES
from d2cc.decoder import DEFAULT_BEAM

import oracle

GRAMMAR = default_grammar()
X_GRAMMAR = default_grammar().with_x_absorption(True)


def normalized(a):
    return a - oracle._logsumexp_rows(a)


@st.composite
def flat_matrices(draw):
    """Row-normalized flat score matrices of 1-7 tokens over the oracle's
    category pool, with the self arc masked as in model output."""
    n = draw(st.integers(1, 7))
    extras = draw(st.lists(st.sampled_from(oracle.EXTRAS), max_size=6,
                           unique=True))
    categories = list(oracle.BACKBONE) + extras
    logits = st.floats(-4.0, 4.0)
    tag = draw(arrays(np.float64, (n, len(categories)), elements=logits))
    dep = draw(arrays(np.float64, (n, n + 1), elements=logits))
    dep[np.arange(n), np.arange(1, n + 1)] = -np.inf
    return ScoreMatrices(["w%d" % i for i in range(1, n + 1)], categories,
                         normalized(tag), normalized(dep))


def beam_pruned(m, beam):
    """``m`` with every supertag the decoder's beam drops set to -inf, so
    the exhaustive chart searches what the beam leaves."""
    if beam is None:
        return m
    tag = m.tag_logp.copy()
    tag[tag < tag.max(axis=1, keepdims=True) - beam] = -np.inf
    return ScoreMatrices(m.tokens, m.categories, tag, m.dep_logp)


@pytest.mark.parametrize("beam", [DEFAULT_BEAM, None],
                         ids=["beam", "no-beam"])
@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(m=flat_matrices())
def test_decoder_score_is_optimal_and_is_its_trees_score(m, beam):
    best, _ = oracle.build_chart(beam_pruned(m, beam), GRAMMAR).best_goal()
    if best == -math.inf:
        with pytest.raises(NoParseError):
            astar_parse(m, GRAMMAR, beam=beam)
        return
    result = astar_parse(m, GRAMMAR, beam=beam)
    assert result.score == pytest.approx(best, abs=1e-9)
    assert oracle.score_tree(result.tree, m) == pytest.approx(
        result.score, abs=1e-9)


def atoms():
    names = st.text(string.ascii_letters, min_size=1, max_size=4)
    featured = st.builds(Atomic, names.filter(lambda name: name != "X"),
                         st.sampled_from(FEATURES))
    return st.one_of(st.builds(Atomic, names),
                     st.builds(Atomic, st.sampled_from(sorted(PUNCT_NAMES))),
                     featured)


categories = st.recursive(
    atoms(), lambda inner: st.builds(Functor, inner, st.sampled_from("/\\"),
                                     inner),
    max_leaves=12)


@settings(derandomize=True, database=None, deadline=None, max_examples=500)
@given(c=categories)
def test_printed_category_parses_back(c):
    assert parse_category(print_category(c)) == c


@st.composite
def seeded_matrices(draw, dummy):
    """``oracle.random_matrices`` from a drawn seed; with ``dummy``, an X
    column joins the categories, so X absorption has something to absorb."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m = oracle.random_matrices(rng, draw(st.integers(2, 6)),
                               draw(st.integers(6, 20)))
    if not dummy:
        return m
    tag = np.hstack([m.tag_logp, rng.normal(size=(len(m), 1)) * 2.0])
    return ScoreMatrices(m.tokens, m.categories + ["X"], normalized(tag),
                         m.dep_logp)


@pytest.mark.parametrize("grammar, dummy", [(GRAMMAR, False),
                                            (X_GRAMMAR, True)],
                         ids=["default", "x-absorption"])
@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(data=st.data())
def test_decoded_tree_survives_auto_round_trip(grammar, dummy, data):
    m = data.draw(seeded_matrices(dummy))
    try:
        tree = astar_parse(m, grammar).tree
    except (NoParseError, BudgetError):
        return
    assert read_auto(write_auto([tree]), grammar) == [tree]


XXNP_SCRIPT = """
import json
import numpy as np
from d2cc import ScoreMatrices, astar_parse, default_grammar
from d2cc.trees import tree_to_dict
tag = np.log([[0.9, 0.1], [0.9, 0.1], [0.1, 0.9]])
dep = np.full((3, 4), np.log(1 / 3))
dep[[0, 1, 2], [1, 2, 3]] = -np.inf
m = ScoreMatrices(["oh", "hey", "dogs"], ["X", "NP"], tag, dep)
tree = astar_parse(m, default_grammar().with_x_absorption(True)).tree
print(json.dumps(tree_to_dict(tree), sort_keys=True))
"""


def test_tie_between_rules_does_not_depend_on_hash_seed():
    """X + X gives X by both absorption rules; every hash seed keeps the
    same one, the rule that ``read_auto`` infers."""
    src = str(Path(d2cc.__file__).resolve().parents[1])
    outputs = []
    for seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", XXNP_SCRIPT], env=env,
                              capture_output=True, text=True, check=True)
        outputs.append(json.loads(done.stdout))
    assert outputs[0] == outputs[1] == outputs[2]
    assert outputs[0]["left"]["rule"] == "xal"
