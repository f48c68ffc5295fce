"""Combinatory rule schemas, grammar tables, and grammar configuration."""

from dataclasses import replace

import pytest

from d2cc import (
    DataError,
    Grammar,
    RuleKind,
    apply_binary,
    apply_unary,
    default_grammar,
    parse_category,
    print_category,
    read_auto,
)
from d2cc.grammar import (
    UNARY_KINDS,
    load_grammar_config,
    load_seen_rules,
    load_unary_table,
    parse_roots,
    parse_unary_table,
)

C = parse_category


def results_of(grammar, left, right, kind):
    return {print_category(cat)
            for cat, rule in apply_binary(grammar, C(left), C(right))
            if rule is kind}


@pytest.fixture(scope="module")
def g():
    return default_grammar()


class TestBinaryRules:
    def test_forward_apply(self, g):
        assert results_of(g, "NP/N", "N", RuleKind.FORWARD_APPLY) == {"NP"}

    def test_forward_apply_unifies_features(self, g):
        got = results_of(g, "(S\\NP)/(S\\NP)", "S[dcl]\\NP",
                         RuleKind.FORWARD_APPLY)
        assert got == {"S[dcl]\\NP"}

    def test_forward_apply_feature_conflict(self, g):
        assert results_of(g, "S[dcl]/S[b]", "S[dcl]",
                          RuleKind.FORWARD_APPLY) == set()

    def test_backward_apply(self, g):
        assert results_of(g, "NP", "S[dcl]\\NP",
                          RuleKind.BACKWARD_APPLY) == {"S[dcl]"}

    def test_forward_compose(self, g):
        got = results_of(g, "(S[dcl]\\NP)/(S[to]\\NP)", "(S[to]\\NP)/NP",
                         RuleKind.FORWARD_COMPOSE)
        assert got == {"(S[dcl]\\NP)/NP"}

    def test_forward_compose_needs_forward_slashes(self, g):
        assert results_of(g, "S/S", "S\\NP",
                          RuleKind.FORWARD_COMPOSE) == set()

    def test_backward_compose(self, g):
        got = results_of(g, "(S[dcl]\\NP)\\NP", "(S\\NP)\\(S\\NP)",
                         RuleKind.BACKWARD_COMPOSE)
        assert got == {"(S[dcl]\\NP)\\NP"}

    def test_backward_cross_compose(self, g):
        got = results_of(g, "(S[dcl]\\NP)/NP", "(S\\NP)\\(S\\NP)",
                         RuleKind.BACKWARD_CROSS_COMPOSE)
        assert got == {"(S[dcl]\\NP)/NP"}

    def test_generalized_forward_compose(self, g):
        got = results_of(g, "(S[dcl]\\NP)/(S[b]\\NP)", "((S[b]\\NP)/NP)/PP",
                         RuleKind.GEN_FORWARD_COMPOSE)
        assert got == {"((S[dcl]\\NP)/NP)/PP"}

    def test_conjunction_builds_modifier(self, g):
        assert results_of(g, "conj", "NP",
                          RuleKind.CONJUNCTION) == {"NP\\NP"}
        got = results_of(g, "conj", "S[dcl]\\NP", RuleKind.CONJUNCTION)
        assert got == {"(S[dcl]\\NP)\\(S[dcl]\\NP)"}

    def test_conjunction_guards(self, g):
        assert results_of(g, "conj", ",", RuleKind.CONJUNCTION) == set()
        assert results_of(g, "conj", "conj", RuleKind.CONJUNCTION) == set()
        assert results_of(g, "conj", "X", RuleKind.CONJUNCTION) == set()
        # conj on the right never conjoins
        assert results_of(g, "NP", "conj", RuleKind.CONJUNCTION) == set()

    def test_punctuation_absorption(self, g):
        assert results_of(g, ",", "NP",
                          RuleKind.REMOVE_PUNCT_LEFT) == {"NP"}
        assert results_of(g, "S[dcl]", ".",
                          RuleKind.REMOVE_PUNCT_RIGHT) == {"S[dcl]"}

    def test_dummy_absorption_disabled_by_default(self, g):
        assert apply_binary(g, C("NP"), C("X")) == set()
        assert apply_binary(g, C("X"), C("NP")) == set()

    def test_dummy_absorption_enabled(self, g):
        gx = replace(g, x_absorption=True)
        assert (C("NP"), RuleKind.X_ABSORB_LEFT) in apply_binary(
            gx, C("NP"), C("X"))
        assert (C("NP"), RuleKind.X_ABSORB_RIGHT) in apply_binary(
            gx, C("X"), C("NP"))

    def test_non_combinable(self, g):
        assert apply_binary(g, C("NP"), C("NP")) == set()
        assert apply_binary(g, C("N"), C("NP/N")) == set()

    def test_multiple_results_possible(self, g):
        # X/Y over Y/Z licenses application only when Y' matches exactly,
        # composition when the result matches; S/S over S[dcl]/S[dcl]
        # licenses both
        found = apply_binary(g, C("S/S"), C("S[dcl]/S[dcl]"))
        kinds = {rule for _, rule in found}
        assert RuleKind.FORWARD_COMPOSE in kinds


class TestSeenRules:
    def test_filter_blocks_unlisted_pairs(self, g):
        gs = replace(g, seen_rules=frozenset({(C("NP/N"), C("N"))}))
        assert results_of(gs, "NP/N", "N", RuleKind.FORWARD_APPLY) == {"NP"}
        assert apply_binary(gs, C("NP"), C("S[dcl]\\NP")) == set()

    def test_absorption_exempt_from_filter(self, g):
        gs = replace(g, seen_rules=frozenset(), x_absorption=True)
        assert (C("NP"), RuleKind.REMOVE_PUNCT_RIGHT) in apply_binary(
            gs, C("NP"), C("."))
        assert (C("NP"), RuleKind.X_ABSORB_LEFT) in apply_binary(
            gs, C("NP"), C("X"))

    def test_none_means_no_filter(self, g):
        assert g.seen_rules is None


class TestUnaryRules:
    def test_default_table(self, g):
        assert (C("NP"), RuleKind.UNARY_TYPE_CHANGE) in apply_unary(g, C("N"))

    def test_type_raise_classification(self):
        rules = parse_unary_table(
            "NP -> S/(S\\NP)\n"
            "NP -> (S\\NP)\\((S\\NP)/NP)\n"
            "N -> NP\n")
        kinds = {print_category(t): k for _, t, k in rules}
        assert kinds["S/(S\\NP)"] is RuleKind.TYPE_RAISE
        assert kinds["(S\\NP)\\((S\\NP)/NP)"] is RuleKind.TYPE_RAISE
        assert kinds["NP"] is RuleKind.UNARY_TYPE_CHANGE

    def test_unary_kinds_constant(self):
        assert UNARY_KINDS == {RuleKind.UNARY_TYPE_CHANGE, RuleKind.TYPE_RAISE}

    def test_no_rule_for_unknown_source(self, g):
        assert apply_unary(g, C("PP")) == set()

    def test_comments_and_blanks(self):
        rules = parse_unary_table("# header\n\nN -> NP  # nominal\n")
        assert len(rules) == 1

    def test_malformed_line(self):
        with pytest.raises(DataError, match="2"):
            parse_unary_table("N -> NP\nNP = S\n")


class TestConfiguration:
    def test_default_roots(self, g):
        texts = {print_category(c) for c in g.roots}
        assert texts == {"S[dcl]", "S[q]", "S[wq]", "S[b]", "NP"}

    def test_parse_roots_rejects_empty(self):
        with pytest.raises(DataError, match="empty root set"):
            parse_roots("# nothing here\n")

    def test_load_tables_from_files(self, tmp_path):
        unary = tmp_path / "unary.txt"
        unary.write_text("N -> NP\n")
        seen = tmp_path / "seen.txt"
        seen.write_text("NP/N\tN\nNP  S[dcl]\\NP\n")
        assert len(load_unary_table(unary)) == 1
        assert len(load_seen_rules(seen)) == 2

    def test_seen_rules_bad_line(self, tmp_path):
        seen = tmp_path / "seen.txt"
        seen.write_text("NP/N\n")
        with pytest.raises(DataError, match="two categories"):
            load_seen_rules(seen)

    def test_grammar_config_round_trip(self, tmp_path):
        (tmp_path / "unary.txt").write_text("N -> NP\n")
        (tmp_path / "roots.txt").write_text("S[dcl]\nNP\n")
        cfg = tmp_path / "grammar.cfg"
        cfg.write_text(
            "unary_table = unary.txt\n"
            "roots = roots.txt\n"
            "x_absorption = true\n")
        loaded = load_grammar_config(cfg)
        assert len(loaded.unary_rules) == 1
        assert loaded.roots == frozenset({C("S[dcl]"), C("NP")})
        assert loaded.x_absorption

    def test_grammar_config_defaults(self, tmp_path):
        cfg = tmp_path / "grammar.cfg"
        cfg.write_text("# only comments\n")
        loaded = load_grammar_config(cfg)
        assert loaded.roots == default_grammar().roots
        assert not loaded.x_absorption

    def test_grammar_config_unknown_key(self, tmp_path):
        cfg = tmp_path / "grammar.cfg"
        cfg.write_text("rootz = roots.txt\n")
        with pytest.raises(DataError, match="unknown grammar config keys"):
            load_grammar_config(cfg)

    def test_grammar_config_bad_flag(self, tmp_path):
        cfg = tmp_path / "grammar.cfg"
        cfg.write_text("x_absorption = maybe\n")
        with pytest.raises(DataError, match="x_absorption"):
            load_grammar_config(cfg)

    def test_grammar_config_bad_syntax(self, tmp_path):
        cfg = tmp_path / "grammar.cfg"
        cfg.write_text("unary_table roots.txt\n")
        with pytest.raises(DataError, match="key=value"):
            load_grammar_config(cfg)

    def test_grammar_config_seen_rules(self, tmp_path):
        (tmp_path / "seen.txt").write_text("# pairs that may combine\n"
                                           "NP/N\tN\n")
        cfg = tmp_path / "grammar.cfg"
        cfg.write_text("seen_rules = seen.txt\n")
        loaded = load_grammar_config(cfg)
        assert loaded.seen_rules == frozenset({(C("NP/N"), C("N"))})
        assert apply_binary(loaded, C("NP/N"), C("N")) == {
            (C("NP"), RuleKind.FORWARD_APPLY)}
        # an unlisted pair no longer combines, though the rule fits
        assert apply_binary(loaded, C("NP"), C("S[dcl]\\NP")) == set()
        assert apply_binary(default_grammar(), C("NP"), C("S[dcl]\\NP"))


class TestGrammarValue:
    def test_immutable(self, g):
        with pytest.raises(Exception):
            g.x_absorption = True

    def test_equality(self):
        assert default_grammar() == default_grammar()

    def test_shipped_grammar_parsed_once(self):
        assert default_grammar() is default_grammar()
        # the shared grammar keeps its memos; a copy starts without them
        read_auto("(<T NP 0 1> (<L N X X a N>))\n")
        assert "_licensed" in vars(default_grammar())
        assert "_licensed" not in vars(replace(default_grammar()))

    def test_grammar_is_hashable(self, g):
        assert isinstance(hash(g), int)
