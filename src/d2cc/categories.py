"""CCG category algebra: parsing, printing and feature unification.

Categories are either atomic (``NP``, ``S[dcl]``, punctuation) or functors
built with ``/`` and ``\\``.  Slashes associate to the left, so
``(S\\NP)/NP`` prints without redundant parentheses and ``A/B\\C`` reads as
``(A/B)\\C``.

An atomic category may carry one feature in brackets.  A missing feature acts
as a variable: all featureless atoms *of the same name* within one category
instance share a single anonymous variable, so unifying one of them against a
concrete feature fixes them all.  This is what lets a modifier like
``(S\\NP)/(S\\NP)`` pass ``S[dcl]`` through to its result.

Categories are interned values: the constructors, ``parse_category``,
unpickling and copies all return the one object of a value, so equal
categories are the same object, ``==`` and ``hash()`` are identity, and
each category keeps its canonical ``text``.  The intern table and the memo
of parsed texts live as long as the process.  ``parse_category`` recurses,
so category text nested about 1,000 deep fails with RecursionError, which
the command line reports with exit code 2.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Mapping, Optional, Union

from .errors import CategoryParseError

# Feature values admitted on atoms.  X (the dummy category) never carries one.
FEATURES = ("dcl", "b", "ng", "pt", "adj", "q", "wq", "nb", "to")

PUNCT_NAMES = frozenset({",", ".", ":", ";", "LRB", "RRB"})
CONJ_NAME = "conj"
DUMMY_NAME = "X"


class _Interned:
    """What atoms and functors share.  A subclass's ``__slots__`` name its
    constructor's arguments, which are also its key in the intern table,
    and pickling or copying calls the constructor again.  A category is
    immutable and prints as its ``text``; ``==`` and ``hash()`` are object
    identity."""

    __slots__ = ("text",)

    def __setattr__(self, *args):
        raise AttributeError("categories are immutable")

    __delattr__ = __setattr__

    def __str__(self) -> str:
        return self.text

    def __repr__(self) -> str:
        return "parse_category(%r)" % self.text

    def __reduce__(self):
        return type(self), tuple(getattr(self, a) for a in self.__slots__)


# Every category built so far, keyed by its constructor's arguments; a
# Functor's parts are interned themselves, so its key hashes and compares by
# identity.  The table lives as long as the process.  When two threads build
# one category at once, ``setdefault`` hands both the object stored first:
# a key of strings, None and categories hashes and compares in C, so the
# call is one step under the interpreter lock.
_INTERNED: dict = {}


def _intern(cls, key: tuple, text: str):
    c = object.__new__(cls)
    for attr, value in zip(cls.__slots__ + ("text",), key + (text,)):
        object.__setattr__(c, attr, value)
    return _INTERNED.setdefault(key, c)


class Atomic(_Interned):
    __slots__ = ("name", "feature")

    def __new__(cls, name: str, feature: Optional[str] = None) -> "Atomic":
        key = name, feature
        return _INTERNED.get(key) or _intern(
            cls, key, name if feature is None else "%s[%s]" % (name, feature))


class Functor(_Interned):
    __slots__ = ("result", "slash", "argument")  # slash is "/" or "\\"

    def __new__(cls, result: "Category", slash: str,
                argument: "Category") -> "Functor":
        key = result, slash, argument
        return _INTERNED.get(key) or _intern(
            cls, key, _operand(result) + slash + _operand(argument))


def _operand(c: "Category") -> str:
    """``c``'s text as a functor's part: a functor goes in parentheses."""
    return "(" + c.text + ")" if isinstance(c, Functor) else c.text


Category = Union[Atomic, Functor]


def is_punct(c: Category) -> bool:
    return isinstance(c, Atomic) and c.name in PUNCT_NAMES

def is_conj(c: Category) -> bool:
    return isinstance(c, Atomic) and c.name == CONJ_NAME

def is_dummy(c: Category) -> bool:
    return isinstance(c, Atomic) and c.name == DUMMY_NAME


def strip_features(c: Category) -> Category:
    """The same category with every feature removed."""
    if isinstance(c, Atomic):
        return Atomic(c.name) if c.feature is not None else c
    return Functor(strip_features(c.result), c.slash, strip_features(c.argument))


_TOKEN_RE = re.compile(r"[A-Za-z]+|[,.;:]|[/\\()\[\]]")


def _tokenize(text: str):
    tokens = []
    pos = 0
    for m in _TOKEN_RE.finditer(text):
        if m.start() != pos:
            bad = text[pos:m.start()].strip()
            if bad:
                raise CategoryParseError(
                    "unexpected %r at position %d in %r" % (bad, pos, text))
        tokens.append((m.group(), m.start()))
        pos = m.end()
    if pos != len(text) and text[pos:].strip():
        raise CategoryParseError(
            "unexpected %r at position %d in %r" % (text[pos:], pos, text))
    return tokens


# every text parsed so far and its category; an error is raised afresh
_PARSED: dict = {}


def parse_category(text: str) -> Category:
    """Parse category text such as ``(S[dcl]\\NP)/NP``.

    Raises CategoryParseError on malformed input, naming the offending
    position.
    """
    cat = _PARSED.get(text)
    if cat is None:
        tokens = _tokenize(text)
        if not tokens:
            raise CategoryParseError("empty category text %r" % text)
        cat, rest = _parse_cat(tokens, 0, text)
        if rest != len(tokens):
            tok, at = tokens[rest]
            raise CategoryParseError(
                "trailing %r at position %d in %r" % (tok, at, text))
        _PARSED[text] = cat
    return cat


def _parse_cat(tokens, i, text):
    cat, i = _parse_part(tokens, i, text)
    while i < len(tokens) and tokens[i][0] in ("/", "\\"):
        slash = tokens[i][0]
        arg, i = _parse_part(tokens, i + 1, text)
        cat = Functor(cat, slash, arg)
    return cat, i


def _parse_part(tokens, i, text):
    if i >= len(tokens):
        raise CategoryParseError("unexpected end of %r" % text)
    tok, at = tokens[i]
    if tok == "(":
        cat, i = _parse_cat(tokens, i + 1, text)
        if i >= len(tokens) or tokens[i][0] != ")":
            raise CategoryParseError(
                "unbalanced parenthesis opened at position %d in %r" % (at, text))
        return cat, i + 1
    if tok in ("/", "\\", ")", "[", "]"):
        raise CategoryParseError(
            "unexpected %r at position %d in %r" % (tok, at, text))
    name = tok
    i += 1
    feature = None
    if i < len(tokens) and tokens[i][0] == "[":
        if i + 2 >= len(tokens) or tokens[i + 2][0] != "]":
            raise CategoryParseError(
                "unterminated feature at position %d in %r" % (tokens[i][1], text))
        feature = tokens[i + 1][0]
        if feature not in FEATURES:
            raise CategoryParseError(
                "unknown feature %r at position %d in %r"
                % (feature, tokens[i + 1][1], text))
        if name == DUMMY_NAME:
            raise CategoryParseError(
                "dummy category X takes no feature (position %d in %r)"
                % (at, text))
        i += 3
    return Atomic(name, feature), i


def print_category(c: Category) -> str:
    """Canonical text form; parse_category(print_category(c)) is c."""
    return c.text


@dataclass(frozen=True)
class FeatureSubstitution:
    """Feature bindings produced by ``unify_features``.

    ``first`` binds the anonymous variables of the first unified category
    (keyed by atom name), ``second`` those of the second.  Applying the
    substitution fills every empty feature slot of a matching atom name;
    concrete features are left untouched, so application is idempotent and
    the empty substitution is the identity.
    """

    first: Mapping[str, str] = field(default_factory=dict)
    second: Mapping[str, str] = field(default_factory=dict)

    def apply_first(self, c: Category) -> Category:
        return _fill(c, self.first)

    def apply_second(self, c: Category) -> Category:
        return _fill(c, self.second)


def _fill(c: Category, binding: Mapping[str, str]) -> Category:
    if isinstance(c, Atomic):
        if c.feature is None and c.name in binding and c.name != DUMMY_NAME:
            return Atomic(c.name, binding[c.name])
        return c
    return Functor(_fill(c.result, binding), c.slash, _fill(c.argument, binding))


def unify_features(a: Category, b: Category) -> Optional[FeatureSubstitution]:
    """Unify two categories up to features.

    Succeeds iff ``a`` and ``b`` are structurally equal ignoring features and
    the features are jointly satisfiable.  Because featureless atoms of one
    name share a variable per category, a name may not end up bound to two
    different features on one side; a pair of featureless atoms links the two
    sides' variables, so a later binding fills both.  On success the returned
    substitution ``s`` satisfies ``s.apply_first(a) == s.apply_second(b)``.
    """
    pairs: list = []
    if not _collect_pairs(a, b, pairs):
        return None
    a_forced: dict = {}
    b_forced: dict = {}
    linked: set = set()
    for name, fa, fb in pairs:
        if fa is not None and fb is not None:
            if fa != fb:
                return None
        elif fa is None and fb is None:
            linked.add(name)
        elif fa is None:
            if a_forced.setdefault(name, fb) != fb:
                return None
        else:
            if b_forced.setdefault(name, fa) != fa:
                return None
    first: dict = dict(a_forced)
    second: dict = dict(b_forced)
    for name in linked:
        fa = a_forced.get(name)
        fb = b_forced.get(name)
        if fa is not None and fb is not None and fa != fb:
            return None
        value = fa if fa is not None else fb
        if value is not None:
            first[name] = value
            second[name] = value
    return FeatureSubstitution(first, second)


def _collect_pairs(a: Category, b: Category, pairs: list) -> bool:
    if isinstance(a, Atomic) and isinstance(b, Atomic):
        if a.name != b.name:
            return False
        pairs.append((a.name, a.feature, b.feature))
        return True
    if isinstance(a, Functor) and isinstance(b, Functor):
        if a.slash != b.slash:
            return False
        return (_collect_pairs(a.result, b.result, pairs)
                and _collect_pairs(a.argument, b.argument, pairs))
    return False
