"""Property tests over drawn inputs (hypothesis, derandomized so every run
draws the same examples)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from d2cc import NoParseError, ScoreMatrices, astar_parse, default_grammar
from d2cc.decoder import DEFAULT_BEAM

import oracle

GRAMMAR = default_grammar()


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
