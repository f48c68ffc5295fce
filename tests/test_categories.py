"""Category parsing, printing, interning and feature unification."""

import copy
import itertools
import pickle
import string
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import d2cc
from d2cc import (
    Atomic,
    CategoryParseError,
    Functor,
    default_grammar,
    parse_category,
    print_category,
    read_auto,
    unify_features,
)
from d2cc.categories import (
    FEATURES,
    FeatureSubstitution,
    is_conj,
    is_dummy,
    is_punct,
    strip_features,
)
from d2cc.pas import default_coindex_table
from d2cc.trees import postorder

import oracle

DATA = Path(d2cc.__file__).parent / "data"


class TestParse:
    def test_atoms(self):
        assert parse_category("NP") == Atomic("NP")
        assert parse_category("S[dcl]") == Atomic("S", "dcl")
        assert parse_category(",") == Atomic(",")
        assert parse_category("LRB") == Atomic("LRB")

    def test_functor_shapes(self):
        c = parse_category("(S[dcl]\\NP)/NP")
        assert c == Functor(Functor(Atomic("S", "dcl"), "\\", Atomic("NP")),
                            "/", Atomic("NP"))

    def test_left_associativity(self):
        assert parse_category("A/B\\C") == parse_category("(A/B)\\C")
        assert parse_category("A/B/C") == parse_category("(A/B)/C")

    def test_redundant_parens_collapse(self):
        assert parse_category("((NP))") == Atomic("NP")
        assert print_category(parse_category("((S\\NP))/((NP))")) == "(S\\NP)/NP"

    def test_whitespace_rejected_inside(self):
        with pytest.raises(CategoryParseError):
            parse_category("S !NP")

    def test_empty(self):
        with pytest.raises(CategoryParseError):
            parse_category("")

    def test_unbalanced_paren_names_position(self):
        with pytest.raises(CategoryParseError, match="position 0"):
            parse_category("(S\\NP")

    def test_trailing_token(self):
        with pytest.raises(CategoryParseError, match="trailing"):
            parse_category("NP)")

    def test_unknown_feature(self):
        with pytest.raises(CategoryParseError, match="unknown feature"):
            parse_category("S[xyz]")

    def test_unterminated_feature(self):
        with pytest.raises(CategoryParseError, match="unterminated feature"):
            parse_category("S[dcl")

    def test_dummy_takes_no_feature(self):
        with pytest.raises(CategoryParseError, match="dummy"):
            parse_category("X[dcl]")

    def test_slash_without_argument(self):
        with pytest.raises(CategoryParseError):
            parse_category("S/")

    def test_leading_slash(self):
        with pytest.raises(CategoryParseError):
            parse_category("/NP")


class TestPrint:
    def test_canonical_forms(self):
        for text in ["NP", "S[dcl]", "S[dcl]\\NP", "(S[dcl]\\NP)/NP",
                     "(NP\\NP)/(S[dcl]/NP)", "N/N", ",", "conj",
                     "((S\\NP)/NP)/PP"]:
            assert print_category(parse_category(text)) == text

    def test_minimal_parens(self):
        assert print_category(parse_category("(S/(S\\NP))")) == "S/(S\\NP)"
        # functor sub-parts always print parenthesized
        assert print_category(parse_category("A/B\\C")) == "(A/B)\\C"

    def test_random_round_trip(self):
        rng = np.random.default_rng(20240817)
        names = ["S", "NP", "N", "PP", "conj", "X", ",", ".", ":", "LRB"]

        def random_cat(depth):
            if depth == 0 or rng.random() < 0.35:
                name = names[rng.integers(0, len(names))]
                if name.isalpha() and name != "X" and rng.random() < 0.4:
                    return Atomic(name, FEATURES[rng.integers(0, len(FEATURES))])
                return Atomic(name)
            slash = "/" if rng.random() < 0.5 else "\\"
            return Functor(random_cat(depth - 1), slash, random_cat(depth - 1))

        for _ in range(10000):
            c = random_cat(5)
            assert parse_category(print_category(c)) == c


class TestPredicates:
    def test_kinds(self):
        assert is_conj(parse_category("conj"))
        assert not is_conj(parse_category("NP"))
        assert is_dummy(parse_category("X"))
        assert not is_dummy(parse_category("NP"))
        for p in [",", ".", ":", ";", "LRB", "RRB"]:
            assert is_punct(parse_category(p))
        assert not is_punct(parse_category("conj"))
        assert not is_punct(parse_category(",/,"))

    def test_strip_features(self):
        c = parse_category("(S[dcl]\\NP)/(S[to]\\NP)")
        assert print_category(strip_features(c)) == "(S\\NP)/(S\\NP)"
        plain = parse_category("NP/N")
        assert strip_features(plain) == plain


class TestUnify:
    def test_equal_atoms(self):
        s = unify_features(parse_category("NP"), parse_category("NP"))
        assert s is not None and s == FeatureSubstitution()

    def test_variable_takes_concrete(self):
        a, b = parse_category("S"), parse_category("S[dcl]")
        s = unify_features(a, b)
        assert s is not None
        assert print_category(s.apply_first(a)) == "S[dcl]"
        assert s.apply_second(b) == b

    def test_concrete_mismatch(self):
        assert unify_features(parse_category("S[dcl]"),
                              parse_category("S[b]")) is None

    def test_name_mismatch(self):
        assert unify_features(parse_category("NP"), parse_category("N")) is None

    def test_structure_mismatch(self):
        assert unify_features(parse_category("NP"),
                              parse_category("NP/N")) is None
        assert unify_features(parse_category("S/NP"),
                              parse_category("S\\NP")) is None

    def test_shared_variable_consistent(self):
        s = unify_features(parse_category("S/S"),
                           parse_category("S[dcl]/S[dcl]"))
        assert s is not None
        assert print_category(s.apply_first(parse_category("S/S"))) \
            == "S[dcl]/S[dcl]"

    def test_shared_variable_conflict(self):
        # featureless S atoms share one variable, so they cannot take two
        # different concrete features at once
        assert unify_features(parse_category("S/S"),
                              parse_category("S[dcl]/S[b]")) is None

    def test_variables_link_across_sides(self):
        a = parse_category("S/S")
        b = parse_category("S[dcl]/S")
        s = unify_features(a, b)
        assert s is not None
        assert print_category(s.apply_first(a)) == "S[dcl]/S[dcl]"
        assert print_category(s.apply_second(b)) == "S[dcl]/S[dcl]"

    def test_distinct_names_independent(self):
        a = parse_category("S/NP")
        b = parse_category("S[dcl]/NP")
        s = unify_features(a, b)
        assert s is not None
        assert s.first.get("NP") is None
        assert print_category(s.apply_first(a)) == "S[dcl]/NP"

    def test_dummy_never_bound(self):
        s = unify_features(parse_category("X"), parse_category("X"))
        assert s is not None and s == FeatureSubstitution()

    def test_agreement_property(self):
        # on success both sides land on the same category
        rng = np.random.default_rng(99)
        pool = ["S", "S[dcl]", "S[b]", "NP", "N"]

        def random_cat(depth):
            if depth == 0 or rng.random() < 0.4:
                return parse_category(pool[rng.integers(0, len(pool))])
            slash = "/" if rng.random() < 0.5 else "\\"
            return Functor(random_cat(depth - 1), slash, random_cat(depth - 1))

        def degrade(c):
            if isinstance(c, Atomic):
                if c.feature is not None and rng.random() < 0.5:
                    return Atomic(c.name)
                return c
            return Functor(degrade(c.result), c.slash, degrade(c.argument))

        successes = 0
        for _ in range(500):
            base = random_cat(3)
            a, b = degrade(base), degrade(base)
            s = unify_features(a, b)
            if s is None:
                # legitimate: removing features can leave one shared
                # variable facing two different concrete features
                continue
            assert s.apply_first(a) == s.apply_second(b)
            successes += 1
        assert successes > 300

    def test_idempotent_application(self):
        a = parse_category("S/S")
        b = parse_category("S[dcl]/S[dcl]")
        s = unify_features(a, b)
        once = s.apply_first(a)
        assert s.apply_first(once) == once


def shipped_categories():
    """Every category of the shipped data files and all their parts."""
    grammar = default_grammar()
    found = set(grammar.roots)
    found.update(c for source, target, _ in grammar.unary_rules
                 for c in (source, target))
    found.update(parse_category(text)
                 for text in default_coindex_table().entries)
    found.update(node.category for tree in read_auto(
        (DATA / "mini" / "mini.auto").read_text(encoding="utf-8"))
        for node in postorder(tree))
    stack = list(found)
    while stack:
        c = stack.pop()
        found.add(c)
        if isinstance(c, Functor):
            stack += c.result, c.argument
    return found


class TestInterning:
    def test_one_object_per_value(self):
        for text in ["NP", "S[dcl]", "(S[dcl]\\NP)/NP", "((NP))", "A/B\\C"]:
            assert parse_category(text) is parse_category(text)
        s, np_ = Atomic("S", "dcl"), Atomic(name="NP", feature=None)
        assert np_ is Atomic("NP") is parse_category("NP")
        assert Functor(s, "/", np_) is Functor(result=s, slash="/",
                                               argument=np_)
        assert parse_category("(S[dcl]\\NP)/NP") is Functor(
            Functor(s, "\\", np_), "/", np_)
        assert Atomic("S") is not s and Functor(s, "\\", np_) is not \
            Functor(s, "/", np_)

    @pytest.mark.parametrize("text",
                             ["NP", "S[dcl]", "(S[dcl]\\NP)/(S[b]\\NP)"])
    def test_copies_are_the_object(self, text):
        c = parse_category(text)
        assert pickle.loads(pickle.dumps(c)) is c
        assert copy.copy(c) is c
        assert copy.deepcopy(c) is c
        [(key, value)] = copy.deepcopy({c: [c]}).items()
        assert key is c and value[0] is c

    def test_immutable(self):
        c = parse_category("S[dcl]\\NP")
        for attr in ["result", "slash", "argument", "text", "other"]:
            with pytest.raises(AttributeError):
                setattr(c, attr, Atomic("NP"))
        with pytest.raises(AttributeError):
            del c.result
        with pytest.raises(AttributeError):
            Atomic("NP").feature = "dcl"
        assert print_category(c) == "S[dcl]\\NP"
        assert c.result is Atomic("S", "dcl")

    def test_readable_repr(self):
        c = parse_category("(S[dcl]\\NP)/NP")
        assert repr(c) == "parse_category('(S[dcl]\\\\NP)/NP')"
        assert eval(repr(c)) is c
        assert str(c) == "(S[dcl]\\NP)/NP"

    def test_threads_get_one_object(self):
        # names no other test builds, so the threads race to make each one
        fresh = ["Qz" + "".join(p) for p in
                 itertools.product(string.ascii_lowercase, repeat=2)]
        texts = ["(%s\\%s)/%s[dcl]" % (a, b, a)
                 for a, b in zip(fresh, fresh[1:])]
        start = threading.Barrier(4)

        def build(_):
            start.wait()
            return ([parse_category(text) for text in texts]
                    + [Functor(Atomic(name), "/", Atomic(name, "b"))
                       for name in fresh])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                built = list(pool.map(build, range(4)))
        finally:
            sys.setswitchinterval(interval)
        for other in built[1:]:
            assert all(a is b for a, b in zip(built[0], other))
        assert [c.text for c in built[0][:len(texts)]] == texts


class TestPrintOracle:
    def test_shipped_categories(self):
        found = shipped_categories()
        assert len(found) > 20
        for c in found:
            text = oracle.print_category_reference(c)
            assert print_category(c) == text
            assert parse_category(text) is c

