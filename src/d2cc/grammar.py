"""Combinatory rule schemas and grammar configuration.

``apply_binary`` and ``apply_unary`` enumerate every (result, rule) pair a
grammar licenses for the given children.  The binary inventory:

=====================  ======================================  =========
rule                   schema                                  symbol
=====================  ======================================  =========
ForwardApply           X/Y  Y'        => X                     >
BackwardApply          Y'  X\\Y       => X                     <
ForwardCompose         X/Y  Y'/Z     => X/Z                    >B
BackwardCompose        Y'\\Z  X\\Y   => X\\Z                   <B
BackwardCrossCompose   Y'/Z  X\\Y    => X/Z                    <Bx
GenForwardCompose      X/Y  (Y'/Z)/W => (X/Z)/W                >B2
Conjunction            conj  Y       => Y\\Y                   Phi
RemovePunctLeft        punct  C      => C                      rp
RemovePunctRight       C  punct      => C                      rp
XAbsorbLeft            C  X          => C
XAbsorbRight           X  C          => C
=====================  ======================================  =========

Feature variables unify across the shared category (``Y`` with ``Y'``) and
the resulting substitution is applied to the pieces taken from each side, so
``(S\\NP)/(S\\NP)`` applied to ``S[dcl]\\NP`` yields ``S[dcl]\\NP``.

Unary rules come from a plain-text table (``FROM -> TO`` lines); entries
whose target has a type-raise shape ``T/(T\\A)`` or ``T\\(T/A)`` are
classified as TypeRaise, the rest as UnaryTypeChange.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, replace
from pathlib import Path
from typing import FrozenSet, Optional, Tuple

from .categories import (
    Category,
    Functor,
    is_conj,
    is_dummy,
    is_punct,
    parse_category,
    unify_features,
)
from .config import (content_lines, data_text, parse_bool, parse_config_text,
                     read_text)
from .errors import DataError


class RuleKind(enum.Enum):
    FORWARD_APPLY = "fa"
    BACKWARD_APPLY = "ba"
    FORWARD_COMPOSE = "fc"
    BACKWARD_COMPOSE = "bc"
    BACKWARD_CROSS_COMPOSE = "bx"
    GEN_FORWARD_COMPOSE = "gfc"
    CONJUNCTION = "conj"
    REMOVE_PUNCT_LEFT = "rpl"
    REMOVE_PUNCT_RIGHT = "rpr"
    UNARY_TYPE_CHANGE = "un"
    TYPE_RAISE = "tr"
    X_ABSORB_LEFT = "xal"
    X_ABSORB_RIGHT = "xar"


UNARY_KINDS = frozenset({RuleKind.UNARY_TYPE_CHANGE, RuleKind.TYPE_RAISE})


def _is_type_raise(source: Category, target: Category) -> bool:
    if not isinstance(target, Functor) or not isinstance(target.argument, Functor):
        return False
    outer, inner = target, target.argument
    if outer.slash == "/" and inner.slash == "\\":
        pass
    elif outer.slash == "\\" and inner.slash == "/":
        pass
    else:
        return False
    return outer.result == inner.result and inner.argument == source


@dataclass(frozen=True)
class Grammar:
    unary_rules: Tuple[Tuple[Category, Category, RuleKind], ...]
    roots: FrozenSet[Category]
    x_absorption: bool = False
    seen_rules: Optional[FrozenSet[Tuple[Category, Category]]] = None


def apply_unary(grammar: Grammar, c: Category):
    """All (category, rule) pairs reachable from ``c`` by one unary rule."""
    out = set()
    for source, target, kind in grammar.unary_rules:
        if source == c:
            out.add((target, kind))
    return out


def apply_binary(grammar: Grammar, left: Category, right: Category):
    """All (category, rule) pairs derivable from the ordered pair."""
    out = set()

    # Absorption rules fire regardless of the seen-rule filter.
    if is_punct(left):
        out.add((right, RuleKind.REMOVE_PUNCT_LEFT))
    if is_punct(right):
        out.add((left, RuleKind.REMOVE_PUNCT_RIGHT))
    if grammar.x_absorption:
        if is_dummy(right):
            out.add((left, RuleKind.X_ABSORB_LEFT))
        if is_dummy(left):
            out.add((right, RuleKind.X_ABSORB_RIGHT))

    if grammar.seen_rules is not None and (left, right) not in grammar.seen_rules:
        return out

    if is_conj(left) and not (is_punct(right) or is_conj(right) or is_dummy(right)):
        out.add((Functor(right, "\\", right), RuleKind.CONJUNCTION))

    if isinstance(left, Functor) and left.slash == "/":
        s = unify_features(left.argument, right)
        if s is not None:
            out.add((s.apply_first(left.result), RuleKind.FORWARD_APPLY))
        if isinstance(right, Functor) and right.slash == "/":
            s = unify_features(left.argument, right.result)
            if s is not None:
                out.add((Functor(s.apply_first(left.result), "/",
                                 s.apply_second(right.argument)),
                         RuleKind.FORWARD_COMPOSE))
            inner = right.result
            if isinstance(inner, Functor) and inner.slash == "/":
                s = unify_features(left.argument, inner.result)
                if s is not None:
                    out.add((Functor(
                        Functor(s.apply_first(left.result), "/",
                                s.apply_second(inner.argument)),
                        "/", s.apply_second(right.argument)),
                        RuleKind.GEN_FORWARD_COMPOSE))

    if isinstance(right, Functor) and right.slash == "\\":
        s = unify_features(right.argument, left)
        if s is not None:
            out.add((s.apply_first(right.result), RuleKind.BACKWARD_APPLY))
        if isinstance(left, Functor):
            s = unify_features(right.argument, left.result)
            if s is not None:
                kind = (RuleKind.BACKWARD_COMPOSE if left.slash == "\\"
                        else RuleKind.BACKWARD_CROSS_COMPOSE)
                out.add((Functor(s.apply_first(right.result), left.slash,
                                 s.apply_second(left.argument)),
                         kind))
    return out


def load_unary_table(path) -> Tuple[Tuple[Category, Category, RuleKind], ...]:
    """Read ``FROM -> TO`` lines; '#' starts a comment."""
    return parse_unary_table(read_text(path), str(path))


def parse_unary_table(text: str, origin: str = "<string>"):
    rules = []
    for lineno, line in content_lines(text):
        if "->" not in line:
            raise DataError("%s:%d: expected 'FROM -> TO', got %r"
                            % (origin, lineno, line))
        src_text, dst_text = line.split("->", 1)
        source = parse_category(src_text.strip())
        target = parse_category(dst_text.strip())
        kind = (RuleKind.TYPE_RAISE if _is_type_raise(source, target)
                else RuleKind.UNARY_TYPE_CHANGE)
        rules.append((source, target, kind))
    return tuple(rules)


def load_roots(path) -> FrozenSet[Category]:
    return parse_roots(read_text(path), str(path))


def parse_roots(text: str, origin: str = "<string>") -> FrozenSet[Category]:
    roots = frozenset(parse_category(line) for _, line in content_lines(text))
    if not roots:
        raise DataError("%s: empty root set" % origin)
    return roots


def load_seen_rules(path) -> FrozenSet[Tuple[Category, Category]]:
    """Read 'LEFT TAB RIGHT' (or double-space separated) category pairs."""
    pairs = set()
    for lineno, line in content_lines(read_text(path)):
        parts = line.split("\t") if "\t" in line else line.split()
        if len(parts) != 2:
            raise DataError("%s:%d: expected two categories" % (path, lineno))
        pairs.add((parse_category(parts[0]), parse_category(parts[1])))
    return frozenset(pairs)


@functools.lru_cache(maxsize=None)
def default_grammar() -> Grammar:
    """The shipped grammar (unary table and roots), parsed once and shared."""
    return Grammar(
        unary_rules=parse_unary_table(data_text("unary.txt"), "data/unary.txt"),
        roots=parse_roots(data_text("roots.txt"), "data/roots.txt"),
    )


def load_grammar_config(path) -> Grammar:
    """Build a grammar from a ``key=value`` config file.

    Recognized keys: ``unary_table``, ``roots``, ``seen_rules`` (paths,
    resolved relative to the config file) and ``x_absorption`` (true/false).
    Missing keys fall back to the shipped defaults.
    """
    values = parse_config_text(read_text(path), str(path))
    unknown = set(values) - {"unary_table", "roots", "seen_rules", "x_absorption"}
    if unknown:
        raise DataError("%s: unknown grammar config keys %s"
                        % (path, ", ".join(sorted(unknown))))
    changes = {field: load(Path(path).parent / values[key])
               for key, field, load in (
                   ("unary_table", "unary_rules", load_unary_table),
                   ("roots", "roots", load_roots),
                   ("seen_rules", "seen_rules", load_seen_rules))
               if key in values}
    if "x_absorption" in values:
        changes["x_absorption"] = parse_bool(values["x_absorption"],
                                             "x_absorption", str(path))
    return replace(default_grammar(), **changes)
