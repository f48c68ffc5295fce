"""A* decoding, span constraints, pruning, and dummy-token stripping."""

import gc
import hashlib
import heapq
import json
import math
import os
import pickle
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from d2cc import (
    Binary,
    BudgetError,
    Constraint,
    ConstraintError,
    DataError,
    NoParseError,
    RuleKind,
    ScoreMatrices,
    Terminal,
    Unary,
    VocabularyError,
    apply_terminal_constraints,
    astar_parse,
    check_constraint,
    default_grammar,
    heuristic,
    load_constraint_file,
    parse_category,
    print_category,
    strip_dummies,
    terminals,
    validate_tree,
    write_auto,
)
from d2cc.decoder import DEFAULT_BEAM, _build_tree, _Item

import d2cc
import oracle

C = parse_category


@pytest.fixture(scope="module")
def g():
    return default_grammar()


def matrices(cats, tag_probs, dep_probs=None):
    """Build normalized matrices from probability rows (rows renormalized);
    zero probabilities become -inf."""
    with np.errstate(divide="ignore"):
        tag = np.log(np.asarray(tag_probs, dtype=float))
        tag = tag - oracle._logsumexp_rows(tag)
        n = tag.shape[0]
        if dep_probs is None:
            dep = np.zeros((n, n + 1))
            for t in range(1, n + 1):
                dep[t - 1, t] = -np.inf
        else:
            dep = np.log(np.asarray(dep_probs, dtype=float))
        dep = dep - oracle._logsumexp_rows(dep)
    return ScoreMatrices(["w%d" % i for i in range(1, n + 1)], list(cats),
                         tag, dep)


class TestConstraintPredicate:
    """The four reference cases for span rejection."""

    def test_nested_spans_accepted(self, g):
        cons = [Constraint(C("NP"), 1, 2)]
        assert check_constraint(C("S"), 1, 3, cons, g)

    def test_proper_overlap_rejected(self, g):
        cons = [Constraint(C("NP"), 1, 2)]
        assert not check_constraint(C("S"), 2, 3, cons, g)

    def test_unary_exception_accepted(self, g):
        # N on a span constrained to NP survives because the grammar can
        # promote N to NP
        cons = [Constraint(C("NP"), 1, 1)]
        assert check_constraint(C("N"), 1, 1, cons, g)

    def test_identity_clause_rejected(self, g):
        # S cannot become NP by any unary rule
        cons = [Constraint(C("NP"), 1, 1)]
        assert not check_constraint(C("S"), 1, 1, cons, g)

    def test_span_only_applies_overlap_clause_only(self, g):
        cons = [Constraint(None, 1, 2)]
        assert not check_constraint(C("S"), 2, 3, cons, g)
        # identical span with any category is fine for span-only
        assert check_constraint(C("S"), 1, 2, cons, g)

    def test_matching_category_accepted(self, g):
        cons = [Constraint(C("NP"), 1, 2)]
        assert check_constraint(C("NP"), 1, 2, cons, g)

    def test_feature_consistency_counts_as_match(self, g):
        # S[dcl]\NP unifies with S\NP
        cons = [Constraint(C("S\\NP"), 1, 2)]
        assert check_constraint(C("S[dcl]\\NP"), 1, 2, cons, g)

    def test_agrees_with_reference_predicate(self, g):
        rng = np.random.default_rng(5)
        cats = [C(x) for x in ("NP", "N", "S", "S[dcl]", "NP/N", "S\\NP")]
        for _ in range(500):
            span = sorted(rng.integers(1, 7, size=2))
            cspan = sorted(rng.integers(1, 7, size=2))
            cat = cats[rng.integers(0, len(cats))]
            ccat = cats[rng.integers(0, len(cats))] \
                if rng.random() < 0.7 else None
            cons = [Constraint(ccat, cspan[0], cspan[1])]
            assert check_constraint(cat, span[0], span[1], cons, g) \
                == oracle.allowed(cat, span[0], span[1], cons, g)


class TestTerminalConstraints:
    def test_one_hot_rewrite(self, g):
        m = matrices(["NP", "N"], [[0.5, 0.5], [0.5, 0.5]])
        out = apply_terminal_constraints(m, [Constraint(C("N"), 2, 2)])
        assert out.tag_logp[1, 0] == -np.inf
        assert out.tag_logp[1, 1] == 0.0
        # other rows untouched
        np.testing.assert_array_equal(out.tag_logp[0], m.tag_logp[0])

    def test_no_terminal_constraints_no_copy(self, g):
        m = matrices(["NP", "N"], [[0.5, 0.5], [0.5, 0.5]])
        out = apply_terminal_constraints(m, [Constraint(C("NP"), 1, 2)])
        assert out is m

    def test_conflicting_constraints(self, g):
        m = matrices(["NP", "N"], [[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(ConstraintError, match="token 1"):
            apply_terminal_constraints(
                m, [Constraint(C("NP"), 1, 1), Constraint(C("N"), 1, 1)])

    def test_unknown_category(self, g):
        m = matrices(["NP", "N"], [[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(VocabularyError, match="PP"):
            apply_terminal_constraints(m, [Constraint(C("PP"), 1, 1)])

    def test_out_of_range_span(self, g):
        m = matrices(["NP", "N"], [[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(ConstraintError, match="out of range"):
            apply_terminal_constraints(m, [Constraint(C("NP"), 1, 9)])


class TestConstraintFile:
    def test_parse(self):
        text = ('{"2": [{"category": "NP", "start": 1, "end": 2},'
                '{"category": null, "start": 3, "end": 4}]}')
        table = load_constraint_file(text)
        assert set(table) == {2}
        assert table[2][0] == Constraint(C("NP"), 1, 2)
        assert table[2][1] == Constraint(None, 3, 4)

    def test_not_an_object(self):
        with pytest.raises(DataError, match="JSON object"):
            load_constraint_file("[1, 2]")

    def test_bad_ordinal(self):
        with pytest.raises(DataError, match="ordinal"):
            load_constraint_file('{"two": []}')

    @pytest.mark.parametrize("key", ["0", "-1"])
    def test_ordinal_below_one(self, key):
        # a 0-based file would otherwise shift every constraint silently
        with pytest.raises(DataError, match="ordinal '%s' .* below 1" % key):
            load_constraint_file('{"1": [], "%s": []}' % key)

    def test_bad_entry_list(self):
        with pytest.raises(DataError, match="list"):
            load_constraint_file('{"1": {"start": 1}}')


class TestAstar:
    def test_two_token_noun_phrase(self, g):
        m = matrices(["NP/N", "N"], [[0.9, 0.1], [0.1, 0.9]])
        res = astar_parse(m, g, beam=None)
        tree = res.tree
        assert print_category(tree.category) == "NP"
        assert tree.rule is RuleKind.FORWARD_APPLY
        assert [print_category(t.category) for t in
                (tree.left, tree.right)] == ["NP/N", "N"]
        expected = (float(m.tag_logp[0, 0]) + float(m.tag_logp[1, 1])
                    + float(m.dep_logp[1, 1]) + float(m.dep_logp[0, 0]))
        assert res.score == pytest.approx(expected, abs=1e-12)
        assert validate_tree(tree, g) == []

    def test_top_tags_cannot_combine_second_best_used(self, g):
        # best tags (NP, NP) never combine; optimum must back off
        m = matrices(["NP", "N", "NP/N"],
                     [[0.6, 0.1, 0.3], [0.6, 0.3, 0.1]])
        res = astar_parse(m, g, beam=None)
        assert res.score == pytest.approx(oracle.best_score(m, g), abs=1e-9)

    def test_non_combinable_atoms(self, g):
        m = matrices(["NP", "conj"], [[1.0, 0.0], [1.0, 0.0]])
        m.tag_logp[:, 1] = -np.inf
        m.tag_logp[:, 0] = 0.0
        with pytest.raises(NoParseError) as err:
            astar_parse(m, g, beam=None)
        assert err.value.reason == "grammar"

    def test_single_token_root(self, g):
        m = matrices(["NP", "N"], [[0.8, 0.2]])
        res = astar_parse(m, g, beam=None)
        # NP outscores the N => NP unary chain
        assert isinstance(res.tree, Terminal)
        assert print_category(res.tree.category) == "NP"

    def test_single_token_unary_promotion(self, g):
        m = matrices(["N"], [[1.0]])
        res = astar_parse(m, g, beam=None)
        assert isinstance(res.tree, Unary)
        assert print_category(res.tree.category) == "NP"
        assert res.tree.rule is RuleKind.UNARY_TYPE_CHANGE

    def test_empty_sentence(self, g):
        m = ScoreMatrices([], ["NP"], np.zeros((0, 1)), np.zeros((0, 1)))
        with pytest.raises(DataError, match="empty"):
            astar_parse(m, g)

    def test_pos_attached_to_terminals(self, g):
        m = matrices(["NP/N", "N"], [[0.9, 0.1], [0.1, 0.9]])
        res = astar_parse(m, g, beam=None, pos=["DT", "NN"])
        assert [t.pos for t in (res.tree.left, res.tree.right)] == ["DT", "NN"]

    def test_beam_hides_weak_tag(self, g):
        # the only parse needs a tag whose probability ratio is below the
        # beam cutoff; pruning on -> failure, pruning off -> parse
        m = matrices(["NP", "NP/N", "N"],
                     [[0.99998, 0.00002, 0.0], [0.0, 0.0, 1.0]])
        m.tag_logp[0, 2] = -np.inf
        m.tag_logp[1, 0] = m.tag_logp[1, 1] = -np.inf
        with pytest.raises(NoParseError):
            astar_parse(m, g, beam=-math.log(1e-4))
        res = astar_parse(m, g, beam=None)
        assert print_category(res.tree.category) == "NP"

    def test_budget_exceeded(self, g):
        m = matrices(["NP", "N", "NP/N"],
                     [[0.4, 0.3, 0.3]] * 4)
        with pytest.raises(BudgetError, match="budget"):
            astar_parse(m, g, beam=None, budget=3)

    def test_scores_on_returned_tree_match(self, g):
        rng = np.random.default_rng(17)
        for _ in range(25):
            m = oracle.random_matrices(rng, int(rng.integers(1, 6)), 8)
            try:
                res = astar_parse(m, g, beam=None)
            except NoParseError:
                continue
            assert oracle.score_tree(res.tree, m) == pytest.approx(
                res.score, abs=1e-9)


class TestConstrainedAstar:
    def test_constraint_changes_tree(self, g):
        # two readings of a 3-token span; constraining the right pair flips
        # the bracketing away from the higher-scoring left pair
        m = matrices(["NP/N", "N/N", "N"],
                     [[0.9, 0.05, 0.05],
                      [0.1, 0.8, 0.1],
                      [0.05, 0.05, 0.9]])
        free = astar_parse(m, g, beam=None)
        constrained = astar_parse(m, g, [Constraint(None, 2, 3)], beam=None)
        assert free.score >= constrained.score
        spans = {(s, e) for s, e, _ in oracle.node_spans(constrained.tree)}
        assert (2, 3) in spans

    def test_unsatisfiable_reports_constraint_reason(self, g):
        m = matrices(["NP/N", "N"], [[0.9, 0.1], [0.1, 0.9]])
        cons = [Constraint(None, 1, 2), Constraint(None, 2, 3)]
        m3 = matrices(["NP/N", "N/N", "N"],
                      [[0.9, 0.05, 0.05],
                       [0.05, 0.9, 0.05],
                       [0.05, 0.05, 0.9]])
        with pytest.raises(NoParseError) as err:
            astar_parse(m3, g, cons, beam=None)
        assert err.value.reason == "constraint"

    def test_grammar_failure_reported_even_with_constraints(self, g):
        m = matrices(["conj", "conj"], [[1.0, 0.0], [0.0, 1.0]])
        m.tag_logp = np.array([[0.0, -np.inf], [-np.inf, 0.0]])
        with pytest.raises(NoParseError) as err:
            astar_parse(m, g, [Constraint(None, 1, 2)], beam=None)
        assert err.value.reason == "grammar"

    def test_terminal_constraint_via_category(self, g):
        # force token 1 to read as N/N (walking back its 0.8 NP/N
        # preference); the parse composes N/N N => N and promotes to NP
        m = matrices(["NP/N", "N/N", "N"],
                     [[0.8, 0.1, 0.1], [0.05, 0.05, 0.9]])
        cons = [Constraint(C("N/N"), 1, 1)]
        m2 = apply_terminal_constraints(m, cons)
        res = astar_parse(m2, g, cons, beam=None)
        assert isinstance(res.tree, Unary)
        assert print_category(res.tree.category) == "NP"
        inner = res.tree.child
        assert print_category(inner.left.category) == "N/N"
        expected = (float(m2.tag_logp[0, 1]) + float(m2.tag_logp[1, 2])
                    + float(m2.dep_logp[1, 1]) + float(m2.dep_logp[0, 0]))
        assert res.score == pytest.approx(expected, abs=1e-12)

    def test_rejected_unary_promotion_over_terminal_constraint(self, g):
        # constraining a non-root category on a whole one-token sentence is
        # unsatisfiable: the promoted NP sits on the constrained span and
        # NP cannot unary-reach N
        m = matrices(["NP", "N"], [[0.9, 0.1]])
        cons = [Constraint(C("N"), 1, 1)]
        m2 = apply_terminal_constraints(m, cons)
        with pytest.raises(NoParseError) as err:
            astar_parse(m2, g, cons, beam=None)
        assert err.value.reason == "constraint"

    def test_category_constraint_binds_the_unary_node_over_its_span(self, g):
        # "dogs bark": free, dogs reads as N raised to NP; an N constraint
        # on dogs also binds that NP, and NP cannot unary-reach N
        m = matrices(["N", "S[dcl]\\NP", "NP"],
                     [[0.9, 0.05, 0.05], [0.05, 0.9, 0.05]])
        m.tokens = ["dogs", "bark"]
        tree = astar_parse(m, g, beam=None).tree
        assert isinstance(tree.left, Unary)
        assert tree.left.category == C("NP")
        assert tree.left.child.category == C("N")
        cons = [Constraint(C("N"), 1, 1)]
        with pytest.raises(NoParseError) as err:
            astar_parse(apply_terminal_constraints(m, cons), g, cons,
                        beam=None)
        assert err.value.reason == "constraint"

    def test_matches_oracle_on_random_constrained_instances(self, g):
        rng = np.random.default_rng(23)
        done = 0
        while done < 20:
            m = oracle.random_matrices(rng, int(rng.integers(2, 6)), 8)
            chart = oracle.build_chart(m, g)
            cons = oracle.sample_satisfiable_constraints(
                chart, rng, int(rng.integers(1, 3)))
            if cons is None:
                continue
            ref = oracle.best_score(m, g, cons)
            res = astar_parse(m, g, cons, beam=None)
            assert res.score == pytest.approx(ref, abs=1e-9)
            assert oracle.tree_satisfies(res.tree, cons, g)
            done += 1


class TestStripDummies:
    def test_removes_absorbed_dummy(self, g):
        gx = replace(g, x_absorption=True)
        uh = Terminal(1, "uh", C("X"), "UH")
        the = Terminal(2, "the", C("NP/N"), "DT")
        dog = Terminal(3, "dog", C("N"), "NN")
        inner = Binary(uh, the, C("NP/N"), RuleKind.X_ABSORB_RIGHT)
        tree = Binary(inner, dog, C("NP"), RuleKind.FORWARD_APPLY)
        assert validate_tree(tree, gx) == []
        stripped = strip_dummies(tree)
        words = [t.word for t in oracle_terminals(stripped)]
        assert words == ["the", "dog"]
        # renumbered from the original leftmost position
        assert [t.index for t in oracle_terminals(stripped)] == [1, 2]
        assert validate_tree(stripped, g) == []

    def test_interior_dummy_renumbers_contiguously(self, g):
        the = Terminal(1, "the", C("NP/N"), "DT")
        um = Terminal(2, "um", C("X"), "UH")
        dog = Terminal(3, "dog", C("N"), "NN")
        inner = Binary(um, dog, C("N"), RuleKind.X_ABSORB_RIGHT)
        tree = Binary(the, inner, C("NP"), RuleKind.FORWARD_APPLY)
        stripped = strip_dummies(tree)
        assert [(t.index, t.word) for t in oracle_terminals(stripped)] \
            == [(1, "the"), (2, "dog")]

    def test_leading_dummy_keeps_deps_extractable(self, g):
        from d2cc import extract_headfirst
        uh = Terminal(1, "uh", C("X"), "UH")
        the = Terminal(2, "the", C("NP/N"), "DT")
        dog = Terminal(3, "dog", C("N"), "NN")
        inner = Binary(uh, the, C("NP/N"), RuleKind.X_ABSORB_RIGHT)
        tree = Binary(inner, dog, C("NP"), RuleKind.FORWARD_APPLY)
        stripped = strip_dummies(tree)
        assert extract_headfirst(stripped) == [0, 1]

    def test_all_dummies_returns_none(self):
        a = Terminal(1, "uh", C("X"), "UH")
        b = Terminal(2, "um", C("X"), "UH")
        tree = Binary(a, b, C("X"), RuleKind.X_ABSORB_RIGHT)
        assert strip_dummies(tree) is None

    def test_no_dummies_identity(self, g):
        m = matrices(["NP/N", "N"], [[0.9, 0.1], [0.1, 0.9]])
        tree = astar_parse(m, g, beam=None).tree
        assert strip_dummies(tree) == tree

    def test_unary_over_dummy(self):
        uh = Terminal(1, "uh", C("X"), "UH")
        raised = Unary(uh, C("X"), RuleKind.UNARY_TYPE_CHANGE)
        cats = Unary(Terminal(2, "cats", C("N"), "NNS"), C("NP"),
                     RuleKind.UNARY_TYPE_CHANGE)
        tree = Binary(raised, cats, C("NP"), RuleKind.X_ABSORB_RIGHT)
        assert strip_dummies(tree) == Unary(
            Terminal(1, "cats", C("N"), "NNS"), C("NP"),
            RuleKind.UNARY_TYPE_CHANGE)
        assert strip_dummies(raised) is None

    def test_matches_reference_on_decoded_trees(self, g):
        # decoded trees under the X-absorption grammar, with X in the
        # inventory and favoured, so most trees absorb one or more dummies
        gx = replace(g, x_absorption=True)
        rng = np.random.default_rng(41)
        with_dummy = 0
        for _ in range(200):
            n = int(rng.integers(2, 7))
            m = oracle.random_matrices(rng, n, 8)
            tag = np.hstack([m.tag_logp, rng.normal(1.0, 2.0, size=(n, 1))])
            m = ScoreMatrices(m.tokens, m.categories + ["X"],
                              tag - oracle._logsumexp_rows(tag), m.dep_logp)
            try:
                tree = astar_parse(m, gx).tree
            except NoParseError:
                continue
            with_dummy += any(print_category(t.category) == "X"
                              for t in oracle_terminals(tree))
            assert strip_dummies(tree) == oracle.strip_dummies_reference(tree)
        assert with_dummy >= 50


class TestDeepDerivations:
    """Derivations of 10,000 leaves, nested far past the recursion limit.
    Trees are compared by their AUTO text, as the dataclasses' generated
    ``==`` recurses."""

    N = 10000

    @pytest.mark.parametrize("shape", ["left", "right"])
    def test_strip_dummies(self, shape):
        # a chain of NP modifiers round the innermost NP, every odd one a
        # dummy that the constituent beside it absorbs
        left = shape == "left"
        inner, outer = ((1, range(2, self.N + 1)) if left
                        else (self.N, range(self.N - 1, 0, -1)))
        modifier, apply, absorb = (
            ("NP\\NP", RuleKind.BACKWARD_APPLY, RuleKind.X_ABSORB_LEFT)
            if left else
            ("NP/NP", RuleKind.FORWARD_APPLY, RuleKind.X_ABSORB_RIGHT))

        def join(node, leaf, rule):
            return Binary(*((node, leaf) if left else (leaf, node)), C("NP"),
                          rule)

        tree = expected = Terminal(inner, "w%d" % inner, C("NP"), "NN")
        for k in outer:
            if k % 2:
                tree = join(tree, Terminal(k, "uh", C("X"), "UH"), absorb)
            else:
                leaf = Terminal(k, "w%d" % k, C(modifier), "NN")
                tree = join(tree, leaf, apply)
                expected = join(expected, leaf, apply)
        stripped = strip_dummies(tree)
        assert write_auto([stripped]) == write_auto([expected])
        assert [t.index for t in terminals(stripped)] == list(
            range(1, len(terminals(expected)) + 1))

    @pytest.mark.parametrize("shape", ["left", "right"])
    def test_build_tree(self, shape):
        # a hand-built chain of back-pointers, with a unary node over every
        # hundredth constituent
        categories = [C("NP"), C("NP\\NP"), C("NP/NP")]
        m = SimpleNamespace(tokens=["w%d" % k for k in range(1, self.N + 1)])
        left = shape == "left"
        inner, outer = ((1, range(2, self.N + 1)) if left
                        else (self.N, range(self.N - 1, 0, -1)))
        item = _Item(inner, inner, 0, 0, 0.0, None, None, None)
        text = "(<L NP XX XX w%d NP>)" % inner
        for k in outer:
            leaf = _Item(k, k, 1 if left else 2, 0, 0.0, None, None, None)
            cat = "NP\\NP" if left else "NP/NP"
            leaf_text = "(<L %s XX XX w%d %s>)" % (cat, k, cat)
            start, end = (1, k) if left else (k, self.N)
            pair = (item, leaf) if left else (leaf, item)
            item = _Item(start, end, 0, 0, 0.0, RuleKind.FORWARD_APPLY, *pair)
            text = "(<T NP 0 2> %s %s)" % (
                (text, leaf_text) if left else (leaf_text, text))
            if k % 100 == 0:
                item = _Item(start, end, 0, 1, 0.0,
                             RuleKind.UNARY_TYPE_CHANGE, item, None)
                text = "(<T NP 0 1> %s)" % text
        tree = _build_tree(item, m, None, categories)
        assert write_auto([tree]) == "ID=1\n%s\n" % text
        assert [t.index for t in terminals(tree)] == list(
            range(1, self.N + 1))


def oracle_terminals(t):
    from d2cc import terminals
    return terminals(t)


# ---------------------------------------------------------------------------
# Tie-break and golden outputs.  A full tie in the agenda (equal priority,
# width, start, category text, depth and goal flag) falls to the push order,
# so these tests pin the search itself.  The expected values were written
# by the decoder as it was before categories were interned; a faster search
# must reproduce them.

PUNCT_TIE_AUTO = (
    "ID=1\n"
    "(<T S[dcl] 0 2> (<T NP 0 2> (<T , 0 2> (<L , XX XX w1 ,>)"
    " (<L . XX XX w2 .>)) (<L NP XX XX w3 NP>))"
    " (<T S[dcl]\\NP 0 2> (<L (S[dcl]\\NP)/NP XX XX w4 (S[dcl]\\NP)/NP>)"
    " (<L NP XX XX w5 NP>)))\n")

GOLDEN_SHA256 = (
    "10c4025ec1f71acf9a8e312d81938fc6bce1f8241261abe8c51afef57b56a536")


def punct_tie_matrices():
    """`, .` in front of a clause, with uniform head arcs: over [1, 2] the
    pair reads as `,` (rule rpr) or as `.` (rule rpl) with equal inside
    scores, either reading absorbs into the same item to its right, and
    several bracketings of the clause score the same, so only the push
    order picks the tree."""
    return matrices([",", ".", "NP", "(S[dcl]\\NP)/NP"],
                    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0],
                     [0, 0, 0, 1], [0, 0, 1, 0]])


def golden_decodes(g):
    """Decode seeded flat matrices with the beam on, with it off and under
    span constraints; one text holding every score and AUTO tree."""
    rng = np.random.default_rng(2024)
    parts = []
    for _ in range(16):
        n = int(rng.integers(2, 6))
        m = oracle.random_matrices(rng, n, int(rng.integers(6, 21)))
        start = int(rng.integers(1, n))
        end = int(rng.integers(start + 1, n + 1))
        span = Constraint(C("NP") if rng.random() < 0.5 else None, start, end)
        for beam, cons in ((DEFAULT_BEAM, ()), (None, ()),
                           (DEFAULT_BEAM, (span,))):
            try:
                res = astar_parse(m, g, cons, beam=beam)
            except NoParseError as exc:
                parts.append("no parse (%s)\n" % exc.reason)
                continue
            parts.append("%r\n%s" % (res.score, write_auto([res.tree])))
    return "".join(parts)


class TestTieBreak:
    def test_punctuation_tie_falls_to_push_order(self, g):
        m = punct_tie_matrices()
        assert write_auto([astar_parse(m, g).tree]) == PUNCT_TIE_AUTO
        assert write_auto([astar_parse(m, g, beam=None).tree]) \
            == PUNCT_TIE_AUTO

    def test_golden_flat_decodes(self, g):
        text = golden_decodes(g)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() \
            == GOLDEN_SHA256


# ---------------------------------------------------------------------------
# The A* bound takes each token's head arc over its Head First head columns
# only: the root column for token 1, columns 1..t-1 for token t > 1, and for
# a token right of the span [s, e] only columns 1..s and e+1..t-1.

# agenda pops and pushes over golden_decodes(); the per-token bound took
# 7,975 pops and the whole-row head bound 20,567, and before dominated pushes
# were dropped the span-aware bound took 6,941 pops and 22,534 pushes
GOLDEN_POPS = 4906
GOLDEN_PUSHES = 9625


class CountingHeap:
    """Stands in for the decoder's ``heapq`` and counts pushes and pops."""

    def __init__(self):
        self.pushes = 0
        self.pops = 0

    def heappush(self, heap, item):
        self.pushes += 1
        heapq.heappush(heap, item)

    def heappop(self, heap):
        self.pops += 1
        return heapq.heappop(heap)


class TestBound:
    def test_bound_is_consistent(self, g):
        # no binary, unary or goal step raises the priority inside + bound
        # above a child's, so the closed chart never needs to reopen an item
        rng = np.random.default_rng(31)
        steps = 0
        for _ in range(30):
            m = oracle.random_matrices(rng, int(rng.integers(1, 7)),
                                       int(rng.integers(4, 13)))
            chart = oracle.build_chart(m, g)
            bounds = {}

            def priority(key, inside):
                span = key[:2]
                if span not in bounds:
                    bounds[span] = heuristic(m, span[0], span[1])
                return inside + bounds[span]

            for parent, edges in chart.edges.items():
                for children, arc in edges:
                    inside = sum(chart.inside[c] for c in children) + arc
                    for child in children:
                        assert priority(parent, inside) <= priority(
                            child, chart.inside[child]) + 1e-9
                        steps += 1
            for key in chart.goals:
                assert chart.inside[key] + chart.root_arc <= priority(
                    key, chart.inside[key]) + 1e-9
        assert steps > 1000

    def test_head_arcs_use_head_first_columns(self):
        # every token's best arc points right or to the root, none of
        # which a Head First derivation can use
        m = matrices(["NP", "N", "NP/N"],
                     [[0.6, 0.3, 0.1], [0.2, 0.7, 0.1],
                      [0.1, 0.1, 0.8], [0.5, 0.25, 0.25]],
                     [[0.1, 0.0, 0.6, 0.2, 0.1],
                      [0.5, 0.1, 0.0, 0.3, 0.1],
                      [0.4, 0.1, 0.2, 0.0, 0.3],
                      [0.5, 0.1, 0.15, 0.05, 0.0]])
        dep = m.dep_logp
        # arcs by (dependent, head); token 4's best is column 2 (0.1875)
        # over column 1 (0.125) and column 3 (0.0625)
        root, a21, a31, a32, a41, a42 = (dep[0, 0], dep[1, 1], dep[2, 1],
                                         dep[2, 2], dep[3, 1], dep[3, 2])
        assert all(np.array([root, a21, a32, a42]) < np.max(dep, axis=1))
        tag1, tag2, tag3, tag4 = np.max(m.tag_logp, axis=1)
        expected = {
            (1, 1): tag2 + tag3 + tag4 + root + a21 + a32 + a42,
            # right of [1, 2], token 3 may use column 1 only, and token 4
            # columns 1 and 3
            (1, 2): tag3 + tag4 + root + a31 + a41,
            (1, 3): tag4 + root + a41,
            (1, 4): root,
            (2, 2): tag1 + tag3 + tag4 + root + a21 + a32 + a42,
            (2, 3): tag1 + tag4 + root + a21 + a42,
            (2, 4): tag1 + root + a21,
            (3, 3): tag1 + tag2 + tag4 + root + a21 + a32 + a42,
            (3, 4): tag1 + tag2 + root + a21 + a32,
            (4, 4): tag1 + tag2 + tag3 + root + a21 + a32 + a42,
        }
        for (s, e), value in expected.items():
            assert heuristic(m, s, e) == pytest.approx(value, abs=1e-12)
        # the per-token bound granted tokens 3 and 4 column 2 here
        assert heuristic(m, 1, 2) < tag3 + tag4 + root + a32 + a42 - 1

    @staticmethod
    def loop_bound(m, s, e):
        """The span-aware bound of [s, e], one token and column at a time."""
        tag, dep = np.max(m.tag_logp, axis=1), m.dep_logp

        def arc(t):
            if t == 1:
                return dep[0, 0]
            if t <= e:  # left of the span, or its head
                return max(dep[t - 1, c] for c in range(1, t))
            return max(dep[t - 1, c] for c in range(1, t)
                       if c <= s or c > e)

        outside = [t for t in range(1, len(m) + 1) if not s <= t <= e]
        return sum(tag[t - 1] + arc(t) for t in outside) + arc(s)

    def test_head_arcs_match_a_per_token_loop(self):
        rng = np.random.default_rng(41)
        for n in range(1, 9):
            m = oracle.random_matrices(rng, n, 6)
            for s in range(1, n + 1):
                for e in range(s, n + 1):
                    assert heuristic(m, s, e) == pytest.approx(
                        self.loop_bound(m, s, e), abs=1e-12)

    def test_long_sentence_bound_in_bounded_memory(self):
        # 300 tokens: the bound's working arrays grow as n^2, not with the
        # 4.5 million (token, start, end) triples
        m = oracle.random_matrices(np.random.default_rng(43), 300, 6)
        spans = [(1, 1), (1, 299), (3, 150), (140, 141), (300, 300)]
        tracemalloc.start()
        try:
            bounds = [heuristic(m, s, e) for s, e in spans]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20
        assert bounds == pytest.approx(
            [self.loop_bound(m, s, e) for s, e in spans], abs=1e-9)

    def test_search_effort(self, g, monkeypatch):
        # a looser bound pops more items before the goal, and pushing items
        # that an equal or better push of their chart key already dominates
        # pushes and pops more; see GOLDEN_POPS
        counter = CountingHeap()
        monkeypatch.setattr(d2cc.decoder, "heapq", counter)
        golden_decodes(g)
        assert 0 < counter.pops <= GOLDEN_POPS
        assert counter.pops < counter.pushes <= GOLDEN_PUSHES


# ---------------------------------------------------------------------------
# Compiled grammar tables are kept per Grammar object: decoding with several
# grammars in one process must give what each gives in a fresh process.

PACKAGE_ROOT = Path(d2cc.__file__).resolve().parent.parent
TESTS_DIR = Path(__file__).resolve().parent


def isolation_grammar(name):
    g = default_grammar()
    if name == "x-absorption":
        return replace(g, x_absorption=True)
    if name == "np-root":
        return replace(g, roots=frozenset({C("NP")}))
    return g


def isolation_decodes(g):
    rng = np.random.default_rng(77)
    batch = [oracle.random_matrices(rng, int(rng.integers(2, 6)), 12)
             for _ in range(8)]
    # a leading dummy parses only with X absorption
    batch.append(matrices(["X", "NP", "S[dcl]\\NP"],
                          [[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    out = []
    for m in batch:
        try:
            out.append(write_auto([astar_parse(m, g).tree]))
        except NoParseError as exc:
            out.append("no parse (%s)" % exc.reason)
    return out


def fresh_process_decodes(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE_ROOT), str(TESTS_DIR)]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    code = ("import json, sys, test_decoder as t; "
            "print(json.dumps(t.isolation_decodes("
            "t.isolation_grammar(sys.argv[1]))))")
    proc = subprocess.run([sys.executable, "-c", code, name], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def unary_order_in_fresh_process():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE_ROOT)]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    code = ("import json; "
            "from d2cc import default_grammar, parse_category; "
            "from d2cc.decoder import _tables; "
            "t = _tables(default_grammar()); "
            "print(json.dumps([t.texts[c] for c, _ in "
            "t.unary_miss(t._intern(parse_category('NP')))]))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestGrammarTables:
    def test_rule_results_in_one_order_in_every_process(self):
        # hash(NP) varies with the address layout, so the two type-raising
        # results of NP came out of their set in either order; they are
        # sorted by rule code and then text
        orders = {unary_order_in_fresh_process() for _ in range(8)}
        assert len(orders) == 1
        assert json.loads(orders.pop()) == [
            "(S\\NP)\\((S\\NP)/NP)", "S/(S\\NP)"]

    def test_grammars_decode_as_in_a_fresh_process(self):
        names = ("default", "x-absorption", "np-root")
        fresh = {name: fresh_process_decodes(name) for name in names}
        assert len({json.dumps(fresh[name]) for name in names}) == 3

        dropped = isolation_grammar("np-root")
        assert isolation_decodes(dropped) == fresh["np-root"]
        del dropped
        gc.collect()
        for name in ("default", "x-absorption", "np-root", "default"):
            assert isolation_decodes(isolation_grammar(name)) == fresh[name]

    def test_used_grammar_still_pickles(self):
        g = default_grammar()
        expected = isolation_decodes(g)
        copy = pickle.loads(pickle.dumps(g))
        assert copy == g
        assert isolation_decodes(copy) == expected

    def test_threads_share_one_grammar(self):
        # more threads than cores and a short switch interval, so misses on
        # the shared tables interleave; a lost update would hand one id to
        # two categories or leave an id without its entries
        serial = isolation_decodes(default_grammar())
        # a copy of the shared grammar, so the threads start on cold tables
        g = replace(default_grammar())
        outputs = [None] * 4

        def work(k):
            outputs[k] = isolation_decodes(g)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,))
                       for k in range(len(outputs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert outputs == [serial] * len(outputs)
        tables = d2cc.decoder._tables(g)
        count = len(tables.categories)
        assert [len(tables.texts), len(tables.is_root), len(tables.lefts),
                len(tables.rights), len(tables.ids)] == [count] * 5
        assert all(tables.ids[c] == k
                   for k, c in enumerate(tables.categories))
