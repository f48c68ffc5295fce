"""Predicate-argument extraction, coindexation tables, and the evaluator."""

from pathlib import Path

import numpy as np
import pytest

import d2cc
from d2cc import (
    Binary,
    DataError,
    ExtractionError,
    PASDep,
    RuleKind,
    Terminal,
    Unary,
    evaluate,
    extract_deps,
    index_lexicon,
    parse_category,
    read_auto,
    write_pas_dump,
)
from d2cc.config import data_text
from d2cc.pas import (
    CoindexTable,
    _PatternAtom,
    _find,
    default_coindex_table,
    default_index,
    parse_coindex_table,
)

C = parse_category
FIXTURES = Path(__file__).parent / "fixtures"
MINI_AUTO = Path(d2cc.__file__).parent / "data" / "mini" / "mini.auto"


class TestDefaultIndexing:
    def test_transitive_verb_slots(self):
        ic = default_index(C("(S[dcl]\\NP)/NP"), 5)
        assert [slot for slot, _ in ic.slots] == [1, 2]
        # head constant identifies the word itself
        head = ic.terms
        while isinstance(head, tuple):
            head = head[0]
        assert _find(head).constant == 5

    def test_atom_has_no_slots(self):
        ic = default_index(C("NP"), 2)
        assert ic.slots == []
        assert _find(ic.terms).constant == 2

    def test_modifier_passes_head_through(self):
        ic = default_index(C("N/N"), 3)
        assert ic.slots == []
        # result and argument heads are the same variable
        res_head, arg_head = ic.terms
        assert _find(res_head) is _find(arg_head)
        # a modifier does not claim the head for itself
        assert _find(res_head).constant is None

    def test_nested_modifier(self):
        ic = default_index(C("(S\\NP)/(S\\NP)"), 4)
        assert ic.slots == []
        (rs, rnp), (as_, anp) = ic.terms
        assert _find(rs) is _find(as_)

    def test_dummy_inert(self):
        ic = default_index(C("X"), 9)
        assert ic.slots == []
        assert _find(ic.terms).constant is None


class TestCoindexTable:
    def test_control_verb_shares_subject(self):
        table = default_coindex_table()
        ic = table.index(C("(S[dcl]\\NP)/(S[to]\\NP)"), 1)
        assert [slot for slot, _ in ic.slots] == [1, 2]
        # subject NP (slot 1) is the same variable as the complement's NP
        (_, subj), (comp_res, comp_np) = ic.terms
        assert _find(subj) is _find(comp_np)

    def test_unlisted_category_falls_back_to_default(self):
        table = parse_coindex_table("")
        ic = table.index(C("(S[dcl]\\NP)/NP"), 2)
        assert [slot for slot, _ in ic.slots] == [1, 2]

    def test_word_constant_marker(self):
        table = parse_coindex_table("S\\NP : S{!}\\NP{y,1}\n")
        ic = table.index(C("S\\NP"), 7)
        res, _ = ic.terms
        assert _find(res).constant == 7

    def test_parse_errors(self):
        with pytest.raises(DataError, match="CATEGORY : PATTERN"):
            parse_coindex_table("NP/N NP{y}/N{y,1}\n")
        with pytest.raises(DataError, match="bad slot"):
            parse_coindex_table("NP/N : NP{y}/N{y,one}\n")
        with pytest.raises(DataError, match="does not match"):
            parse_coindex_table("NP/N : S{y}/N{y,1}\n")

    def test_comments_ignored(self):
        table = parse_coindex_table("# banner\nNP/N : NP{y}/N{y,1}\n")
        assert "NP/N" in table.entries


class TestSharedTable:
    """The shipped table is parsed once per process, so every caller
    shares one read-only object."""

    def test_parsed_once(self):
        assert default_coindex_table() is default_coindex_table()

    def test_read_only(self):
        table = default_coindex_table()
        with pytest.raises(TypeError):
            table.entries["NP/N"] = ()
        with pytest.raises(TypeError):
            del table.entries["NP/N"]
        assert all(isinstance(annots, tuple)
                   for annots in table.entries.values())

    def test_entries_are_copied(self):
        entries = {"NP/N": [_PatternAtom("y", None), _PatternAtom("y", 1)]}
        table = CoindexTable(entries)
        entries["NP/N"].append(_PatternAtom(None, None))
        entries["N/N"] = []
        assert list(table.entries) == ["NP/N"]
        assert len(table.entries["NP/N"]) == 2

    @pytest.mark.parametrize("path", [MINI_AUTO] + sorted(
        FIXTURES.glob("*.auto")), ids=lambda path: path.name)
    def test_equals_a_fresh_parse(self, path):
        fresh = parse_coindex_table(data_text("coindex.txt"))
        trees = read_auto(path.read_text(encoding="utf-8"))
        assert [extract_deps(t) for t in trees] == [
            extract_deps(t, fresh) for t in trees]
        assert any(extract_deps(t) for t in trees)


class TestExtraction:
    def test_simple_sentence(self):
        the = Terminal(1, "the", C("NP/N"), "DT")
        cat = Terminal(2, "cat", C("N"), "NN")
        sleeps = Terminal(3, "sleeps", C("S[dcl]\\NP"), "VBZ")
        np_node = Binary(the, cat, C("NP"), RuleKind.FORWARD_APPLY)
        root = Binary(np_node, sleeps, C("S[dcl]"), RuleKind.BACKWARD_APPLY)
        deps = extract_deps(root)
        assert set(deps) == {
            PASDep(1, "NP/N", 1, 2),
            PASDep(3, "S[dcl]\\NP", 1, 2),
        }

    def test_transitive_with_modifier(self):
        # "dogs chase small cats": modifier passes the head through, so
        # chase's object is cats, not small
        dogs = Terminal(1, "dogs", C("N"), "NNS")
        chase = Terminal(2, "chase", C("(S[dcl]\\NP)/NP"), "VBP")
        small = Terminal(3, "small", C("N/N"), "JJ")
        cats = Terminal(4, "cats", C("N"), "NNS")
        subj = Unary(dogs, C("NP"), RuleKind.UNARY_TYPE_CHANGE)
        obj_n = Binary(small, cats, C("N"), RuleKind.FORWARD_APPLY)
        obj = Unary(obj_n, C("NP"), RuleKind.UNARY_TYPE_CHANGE)
        vp = Binary(chase, obj, C("S[dcl]\\NP"), RuleKind.FORWARD_APPLY)
        root = Binary(subj, vp, C("S[dcl]"), RuleKind.BACKWARD_APPLY)
        deps = set(extract_deps(root))
        assert PASDep(2, "(S[dcl]\\NP)/NP", 1, 1) in deps
        assert PASDep(2, "(S[dcl]\\NP)/NP", 2, 4) in deps

    def test_relative_clause_fixture(self):
        [tree] = read_auto(
            (FIXTURES / "relclause.auto").read_text(encoding="utf-8"))
        deps = set(extract_deps(tree))
        assert deps == {
            PASDep(4, "(S[dcl]\\NP)/(S[to]\\NP)", 1, 3),
            PASDep(4, "(S[dcl]\\NP)/(S[to]\\NP)", 2, 6),
            PASDep(6, "(S[b]\\NP)/NP", 1, 3),
            PASDep(6, "(S[b]\\NP)/NP", 2, 1),
        }

    def test_coordination_fixture_extracts(self):
        [tree] = read_auto(
            (FIXTURES / "coord.auto").read_text(encoding="utf-8"))
        deps = extract_deps(tree)
        # both equations keep their own subjects and objects
        assert PASDep(3, "(S[dcl]\\NP)/NP", 1, 2) in deps
        assert PASDep(3, "(S[dcl]\\NP)/NP", 2, 4) in deps
        assert PASDep(7, "(S[dcl]\\NP)/NP", 1, 6) in deps
        assert PASDep(7, "(S[dcl]\\NP)/NP", 2, 8) in deps
        # the imperative verb takes its object
        assert PASDep(10, "(S[dcl]\\NP)/NP", 2, 11) in deps

    def test_node_without_rule(self):
        bad = Binary(Terminal(1, "a", C("NP/N"), "X"),
                     Terminal(2, "b", C("N"), "X"), C("NP"), None)
        with pytest.raises(ExtractionError, match="without rule"):
            extract_deps(bad)

    # the failing node spans tokens 2-3 (or 2 alone) under a root that
    # extraction never reaches, so the location names that node
    @pytest.mark.parametrize("table, left, right, category, rule, message", [
        ("NP/N : NP{!}/N{!}\n", "NP/N", "N", "NP", RuleKind.FORWARD_APPLY,
         "unification clash at span (2, 3) (NP): word 2 vs word 3"),
        ("", "NP/N", "N/N", "NP", RuleKind.FORWARD_APPLY,
         "structure mismatch at span (2, 3) (NP)"),
        ("", "NP", "N", "NP", RuleKind.FORWARD_APPLY,
         "structure mismatch at span (2, 3) (NP)"),
        ("", "S[dcl]\\NP", "NP", "S[dcl]", RuleKind.BACKWARD_APPLY,
         "structure mismatch at span (2, 3) (S[dcl])"),
        ("", "NP/N", "N", "NP", None,
         "span (2, 3) (NP): binary node without rule"),
        ("", "NP/N", "N", "NP", RuleKind.UNARY_TYPE_CHANGE,
         "span (2, 3) (NP): rule un is not binary"),
        ("", "N", None, "NP", None,
         "span (2, 2) (NP): unary node without rule"),
        ("", "NP", None, "S/NP", RuleKind.TYPE_RAISE,
         "span (2, 2) (S/NP): malformed type raise"),
    ], ids=["clash", "mismatch-link", "mismatch-left", "mismatch-right",
            "binary-no-rule", "not-binary", "unary-no-rule", "type-raise"])
    def test_error_text(self, table, left, right, category, rule, message):
        first = Terminal(2, "b", C(left), "X")
        if right is None:
            node = Unary(first, C(category), rule)
        else:
            node = Binary(first, Terminal(3, "c", C(right), "X"),
                          C(category), rule)
        root = Binary(Terminal(1, "a", C("S/S"), "X"),
                      Unary(node, C("S"), RuleKind.UNARY_TYPE_CHANGE),
                      C("S"), RuleKind.FORWARD_APPLY)
        with pytest.raises(ExtractionError) as raised:
            extract_deps(root, parse_coindex_table(table))
        assert str(raised.value) == message

    def test_type_raise_keeps_argument_relation(self):
        # "Kyle sleeps" with a type-raised subject still yields the
        # verb -> subject dependency
        kyle = Terminal(1, "Kyle", C("NP"), "NNP")
        raised = Unary(kyle, C("S/(S\\NP)"), RuleKind.TYPE_RAISE)
        sleeps = Terminal(2, "sleeps", C("S[dcl]\\NP"), "VBZ")
        root = Binary(raised, sleeps, C("S[dcl]"), RuleKind.FORWARD_APPLY)
        deps = extract_deps(root)
        assert PASDep(2, "S[dcl]\\NP", 1, 1) in deps



def leaf(index, word, category):
    return Terminal(index, word, C(category), "X")


class TestCompositionReplay:
    """Extraction through the composition rules.  Each modifier gets a
    coindexation entry with an argument slot, so its dependency shows
    which variables the composition linked."""

    def test_backward_composition(self):
        # John [sleeps today]: S[dcl]\NP  S\S  =>  S[dcl]\NP
        vp = Binary(leaf(2, "sleeps", "S[dcl]\\NP"),
                    leaf(3, "today", "S\\S"), C("S[dcl]\\NP"),
                    RuleKind.BACKWARD_COMPOSE)
        root = Binary(leaf(1, "John", "NP"), vp, C("S[dcl]"),
                      RuleKind.BACKWARD_APPLY)
        table = parse_coindex_table("S\\S : S{y}\\S{y,1}\n")
        assert extract_deps(root, table) == [
            PASDep(2, "S[dcl]\\NP", 1, 1),
            PASDep(3, "S\\S", 1, 2),
        ]

    def test_backward_crossed_composition(self):
        # John [[ate yesterday] cake]:
        # (S[dcl]\NP)/NP  (S\NP)\(S\NP)  =>  (S[dcl]\NP)/NP
        verb = Binary(leaf(2, "ate", "(S[dcl]\\NP)/NP"),
                      leaf(3, "yesterday", "(S\\NP)\\(S\\NP)"),
                      C("(S[dcl]\\NP)/NP"), RuleKind.BACKWARD_CROSS_COMPOSE)
        vp = Binary(verb, leaf(4, "cake", "NP"), C("S[dcl]\\NP"),
                    RuleKind.FORWARD_APPLY)
        root = Binary(leaf(1, "John", "NP"), vp, C("S[dcl]"),
                      RuleKind.BACKWARD_APPLY)
        table = parse_coindex_table(
            "(S\\NP)\\(S\\NP) : (S{y}\\NP{z})\\(S{y,1}\\NP{z})\n")
        assert extract_deps(root, table) == [
            PASDep(2, "(S[dcl]\\NP)/NP", 1, 1),
            PASDep(2, "(S[dcl]\\NP)/NP", 2, 4),
            PASDep(3, "(S\\NP)\\(S\\NP)", 1, 2),
        ]

    def test_generalized_forward_composition(self):
        # John [[[might give] Mary] books]:
        # (S[dcl]\NP)/(S[b]\NP)  ((S[b]\NP)/NP)/NP  =>  ((S[dcl]\NP)/NP)/NP
        might, give = "(S[dcl]\\NP)/(S[b]\\NP)", "((S[b]\\NP)/NP)/NP"
        verb = Binary(leaf(2, "might", might), leaf(3, "give", give),
                      C("((S[dcl]\\NP)/NP)/NP"), RuleKind.GEN_FORWARD_COMPOSE)
        verb = Binary(verb, leaf(4, "Mary", "NP"), C("(S[dcl]\\NP)/NP"),
                      RuleKind.FORWARD_APPLY)
        vp = Binary(verb, leaf(5, "books", "NP"), C("S[dcl]\\NP"),
                    RuleKind.FORWARD_APPLY)
        root = Binary(leaf(1, "John", "NP"), vp, C("S[dcl]"),
                      RuleKind.BACKWARD_APPLY)
        # the auxiliary shares its subject with the verb it takes
        table = parse_coindex_table(
            might + " : (S{!}\\NP{z,1})/(S{w,2}\\NP{z})\n")
        assert extract_deps(root, table) == [
            PASDep(2, might, 1, 1),
            PASDep(2, might, 2, 3),
            PASDep(3, give, 1, 1),
            PASDep(3, give, 2, 5),
            PASDep(3, give, 3, 4),
        ]


class TestEvaluate:
    def test_self_evaluation_is_perfect(self):
        deps = [[PASDep(2, "S\\NP", 1, 1), PASDep(2, "(S\\NP)/NP", 2, 3)],
                [PASDep(1, "NP/N", 1, 2)]]
        m = evaluate(deps, deps)
        for score in (m.labeled, m.unlabeled):
            assert score.precision == 100.0
            assert score.recall == 100.0
            assert score.f1 == 100.0

    def test_three_of_four_against_five(self):
        gold = [[PASDep(1, "A", 1, 2), PASDep(1, "A", 2, 3),
                 PASDep(2, "B", 1, 3), PASDep(3, "C", 1, 4),
                 PASDep(4, "D", 1, 5)]]
        pred = [[PASDep(1, "A", 1, 2), PASDep(1, "A", 2, 3),
                 PASDep(2, "B", 1, 3), PASDep(9, "Z", 1, 9)]]
        m = evaluate(pred, gold)
        assert m.labeled.precision == pytest.approx(75.0, abs=0.01)
        assert m.labeled.recall == pytest.approx(60.0, abs=0.01)
        assert m.labeled.f1 == pytest.approx(66.67, abs=0.01)

    def test_unlabeled_ignores_category_and_slot(self):
        gold = [[PASDep(1, "A", 1, 2)]]
        pred = [[PASDep(1, "B", 2, 2)]]
        m = evaluate(pred, gold)
        assert m.labeled.f1 == 0.0
        assert m.unlabeled.f1 == 100.0

    def test_labeled_never_exceeds_unlabeled(self):
        rng = np.random.default_rng(3)
        cats = ["A", "B", "C"]
        for _ in range(200):
            def rand_deps():
                out = []
                for _ in range(int(rng.integers(0, 6))):
                    out.append(PASDep(int(rng.integers(1, 5)),
                                      cats[rng.integers(0, 3)],
                                      int(rng.integers(1, 3)),
                                      int(rng.integers(1, 5))))
                return out
            pred = [rand_deps() for _ in range(2)]
            gold = [rand_deps() for _ in range(2)]
            m = evaluate(pred, gold)
            assert m.labeled.precision <= m.unlabeled.precision + 1e-9
            assert m.labeled.recall <= m.unlabeled.recall + 1e-9
            assert m.labeled.f1 <= m.unlabeled.f1 + 1e-9

    def test_per_category_counts(self):
        gold = [[PASDep(1, "A", 1, 2), PASDep(2, "A", 1, 3),
                 PASDep(3, "B", 1, 4)]]
        pred = [[PASDep(1, "A", 1, 2), PASDep(9, "A", 1, 9)]]
        m = evaluate(pred, gold)
        a = m.per_category[("A", 1)]
        assert a.gold == 2
        assert a.precision == 50.0
        assert a.recall == 50.0
        b = m.per_category[("B", 1)]
        assert b.gold == 1
        assert b.recall == 0.0

    def test_empty_sides(self):
        m = evaluate([[]], [[]])
        assert m.labeled.precision == 100.0
        assert m.labeled.recall == 100.0

    def test_alignment_required(self):
        with pytest.raises(DataError, match="1 predicted"):
            evaluate([[]], [[], []])

    def test_counts_exposed(self):
        gold = [[PASDep(1, "A", 1, 2), PASDep(2, "B", 1, 3)]]
        pred = [[PASDep(1, "A", 1, 2)]]
        m = evaluate(pred, gold)
        assert (m.n_predicted, m.n_gold, m.labeled_correct) == (1, 2, 1)


class TestDump:
    def test_format(self):
        deps = [[PASDep(2, "S[dcl]\\NP", 1, 1)],
                [PASDep(1, "NP/N", 1, 2), PASDep(3, "S[dcl]\\NP", 1, 2)]]
        text = write_pas_dump(deps)
        assert text == ("2 1 1 S[dcl]\\NP\n"
                        "\n"
                        "1 1 2 NP/N\n"
                        "3 1 2 S[dcl]\\NP\n")

    def test_empty_sentence_block(self):
        assert write_pas_dump([[]]) == "\n"
