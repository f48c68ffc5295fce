"""Dependency trees, CCG derivation trees, and their file formats.

Supported formats:

* CoNLL-U (consumed columns: ID, FORM, UPOS, HEAD, DEPREL; multiword ``x-y``
  and empty ``x.y`` rows are skipped).
* CCGbank AUTO: ``ID=k`` header line followed by one bracketed derivation,
  ``(<T cat head dtrs> children...)`` internal nodes and
  ``(<L cat pos pos word cat>)`` leaves.  AUTO does not record which rule
  built a node, so the reader infers rules against a grammar.  A word or
  POS may not hold a space, a ``>`` or a line break: ``write_auto``
  refuses one with a DataError.

Walk a derivation only with ``postorder``, ``fold`` or an explicit stack:
they work at any depth, and so do ``==``, ``hash()`` and ``repr()``.

``extract_headfirst`` applies the Head First convention: the head of every
constituent is the head of its left child, so each binary node contributes
one left-to-right arc and token 1 heads the sentence.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from typing import Callable, FrozenSet, Iterator, List, Optional, Sequence, Tuple, Union

from .categories import Category, parse_category, print_category
from .errors import AutoParseError, ConlluError, DataError
from .grammar import Grammar, RuleKind, apply_binary, apply_unary, default_grammar


@dataclass
class DepTree:
    """A single-rooted dependency tree over tokens 1..N (head 0 = root)."""

    tokens: List[str]
    pos: List[str]
    heads: List[int]
    labels: List[str]

    def __len__(self) -> int:
        return len(self.tokens)

    def validate(self, ordinal: int = 0) -> None:
        n = len(self.tokens)
        where = "sentence %d" % ordinal if ordinal else "sentence"
        if n == 0:
            raise ConlluError("%s: empty sentence" % where)
        if not (len(self.pos) == len(self.heads) == len(self.labels) == n):
            raise ConlluError("%s: column lengths disagree" % where)
        roots = [i for i, h in enumerate(self.heads, 1) if h == 0]
        if len(roots) != 1:
            raise ConlluError("%s: expected exactly one root, found %d"
                              % (where, len(roots)))
        for i, h in enumerate(self.heads, 1):
            if not 0 <= h <= n:
                raise ConlluError("%s: token %d has head %d out of range"
                                  % (where, i, h))
            if h == i:
                raise ConlluError("%s: token %d heads itself" % (where, i))
        seen: set = set()
        for i in range(1, n + 1):
            path = []
            j = i
            while j != 0 and j not in seen:
                path.append(j)
                j = self.heads[j - 1]
                if j in path:
                    raise ConlluError("%s: cycle through token %d" % (where, j))
            seen.update(path)


class _Node:
    """``==``, ``hash()`` and ``repr()`` of a derivation, each one pass over
    its nodes, so they work at any depth.  Two derivations are equal when
    their nodes, children before parents, match in kind and in all but
    their daughters."""

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return _shape(self) == _shape(other)

    def __hash__(self) -> int:
        return hash(_shape(self))

    def __repr__(self) -> str:
        parts, stack = [], [self]
        while stack:
            node = stack.pop()
            if isinstance(node, str):
                parts.append(node)
            elif isinstance(node, Terminal):
                parts.append("Terminal(index=%r, word=%r, category=%r, "
                             "pos=%r)" % _own(node))
            elif isinstance(node, Unary):
                parts.append("Unary(child=")
                stack += ", category=%r, rule=%r)" % _own(node), node.child
            else:
                parts.append("Binary(left=")
                stack += (", category=%r, rule=%r)" % _own(node), node.right,
                          ", right=", node.left)
        return "".join(parts)


@dataclass(frozen=True, eq=False, repr=False)
class Terminal(_Node):
    index: int  # 1-based token position
    word: str
    category: Category
    pos: str = "XX"


@dataclass(frozen=True, eq=False, repr=False)
class Unary(_Node):
    child: "CCGTree"
    category: Category
    rule: Optional[RuleKind]


@dataclass(frozen=True, eq=False, repr=False)
class Binary(_Node):
    left: "CCGTree"
    right: "CCGTree"
    category: Category
    rule: Optional[RuleKind]


CCGTree = Union[Terminal, Unary, Binary]


def postorder(t: CCGTree) -> List[CCGTree]:
    """The nodes of ``t``, children before parents and left to right."""
    nodes, stack = [], [t]
    while stack:
        node = stack.pop()
        nodes.append(node)
        if isinstance(node, Binary):
            stack += node.left, node.right
        elif isinstance(node, Unary):
            stack.append(node.child)
    return nodes[::-1]


def fold(t: CCGTree, leaf: Callable, unary: Callable, binary: Callable):
    """The value of ``t`` under ``leaf(node)``, ``unary(node, child)`` and
    ``binary(node, left, right)``, each child passed as its subtree's value."""
    values: list = []
    for node in postorder(t):
        if isinstance(node, Terminal):
            values.append(leaf(node))
        elif isinstance(node, Unary):
            values[-1] = unary(node, values[-1])
        else:
            right = values.pop()
            values[-1] = binary(node, values[-1], right)
    return values[0]


def _own(node: CCGTree) -> tuple:
    """What ``node`` holds besides its daughters."""
    if isinstance(node, Terminal):
        return node.index, node.word, node.category, node.pos
    return node.category, node.rule


def _shape(t: CCGTree) -> tuple:
    """Each node of ``t``, children before parents, as its kind and
    ``_own``: it fixes the whole derivation, since a kind fixes how many
    daughters a node has."""
    return tuple((type(node), _own(node)) for node in postorder(t))


def terminals(t: CCGTree) -> List[Terminal]:
    return [node for node in postorder(t) if isinstance(node, Terminal)]


def _licensed(grammar: Grammar, children: Sequence[CCGTree]
              ) -> FrozenSet[Tuple[Category, RuleKind]]:
    """The (category, rule) pairs that one rule derives from ``children``
    (one for a unary node, two for a binary one), memoised on the Grammar
    object as the decoder keeps its tables: the memo dies with it."""
    memo = grammar.__dict__.setdefault("_licensed", {})
    key = tuple(child.category for child in children)
    found = memo.get(key)
    if found is None:
        found = frozenset(apply_unary(grammar, *key) if len(key) == 1
                          else apply_binary(grammar, *key))
        memo[key] = found
    return found


def span(t: CCGTree) -> Tuple[int, int]:
    terms = terminals(t)
    return terms[0].index, terms[-1].index


def extract_headfirst(t: CCGTree) -> List[int]:
    """Head-First dependencies: ``d[i-1]`` is the parent of token i.

    Every binary node adds an arc from the head of its left child to the head
    of its right child; the sentence head (token 1) gets parent 0.
    """
    parents, heads = [], []  # heads: of the constituents not yet joined
    for node in postorder(t):
        if isinstance(node, Terminal):
            parents.append(0)
            heads.append(node.index)
        elif isinstance(node, Binary):
            right = heads.pop()
            parents[right - 1] = heads[-1]
    parents[heads[0] - 1] = 0
    return parents


def validate_tree(t: CCGTree, grammar: Grammar) -> List[str]:
    """All licensing violations in ``t``; empty list means valid.

    Checks every internal node against apply_binary/apply_unary (category and
    rule must both match) and the root category against the grammar's root
    set.  Terminal indices must be contiguous from the leftmost leaf.
    """
    problems: List[str] = []
    terms = terminals(t)
    start = terms[0].index
    for offset, term in enumerate(terms):
        if term.index != start + offset:
            problems.append("terminal indices not contiguous at %d" % term.index)
            break

    def check(node: CCGTree, first: tuple, last: tuple = None) -> tuple:
        where = first[0], (last or first)[1]
        unary = isinstance(node, Unary)
        children = (node.child,) if unary else (node.left, node.right)
        if node.rule is None:
            problems.append("span %s: %s node %s carries no rule"
                            % (where, "unary" if unary else "binary",
                               print_category(node.category)))
        elif (node.category, node.rule) not in _licensed(grammar, children):
            problems.append("span %s: %s%s => %s not licensed" % (
                where, "unary " if unary else "",
                " + ".join(print_category(c.category) for c in children),
                print_category(node.category)))
        return where

    fold(t, lambda leaf: (leaf.index, leaf.index), check, check)
    if t.category not in grammar.roots:
        problems.append("root category %s not in root set"
                        % print_category(t.category))
    return problems


# ---------------------------------------------------------------------------
# CoNLL-U

# the characters ``str.splitlines`` breaks on, as the body of a regex class
_BREAKS = "\n\r\v\f\x1c-\x1e\x85\u2028\u2029"
# one line of ``str.splitlines`` and the break after it; the last match is
# the empty line at the end of the text
_LINE = re.compile("([^%s]*)(?:\r\n|[%s]|\\Z)" % (_BREAKS, _BREAKS))


def iter_conllu(text: str) -> Iterator[DepTree]:
    """The sentences of ``text``, each parsed and validated when it is
    due.  POS and label strings are interned, so sentences share them."""
    return (tree for _, tree in iter_conllu_starts(text))


def iter_conllu_starts(text: str) -> Iterator[Tuple[int, DepTree]]:
    """``iter_conllu``'s sentences, each with the offset in ``text`` of its
    first token line: ``text[start:next_start]`` reads as that sentence
    alone."""
    count = start = 0
    tokens, pos, heads, labels = [], [], [], []
    # the empty line at the end closes a sentence that lacks a blank line
    for lineno, match in enumerate(_LINE.finditer(text), 1):
        line = match.group(1)
        if not line.strip():
            if tokens:
                count += 1
                tree = DepTree(tokens, pos, heads, labels)
                tree.validate(count)
                yield start, tree
                tokens, pos, heads, labels = [], [], [], []
            continue
        if line.startswith("#"):
            continue
        cols = line.split("\t")
        if len(cols) < 8:
            raise ConlluError("line %d: expected at least 8 tab-separated columns" % lineno)
        tok_id = cols[0]
        if "-" in tok_id or "." in tok_id:
            continue
        try:
            idx = int(tok_id)
        except ValueError:
            raise ConlluError("line %d: bad token id %r" % (lineno, tok_id))
        if idx != len(tokens) + 1:
            raise ConlluError("line %d: token id %d out of order" % (lineno, idx))
        if not tokens:
            start = match.start()
        try:
            head = int(cols[6])
        except ValueError:
            raise ConlluError("line %d: bad head %r" % (lineno, cols[6]))
        tokens.append(cols[1])
        pos.append(sys.intern(cols[3]))
        heads.append(head)
        labels.append(sys.intern(cols[7]))


def read_conllu(text: str) -> List[DepTree]:
    """Every sentence of ``text``."""
    return list(iter_conllu(text))


def write_conllu(sentences: List[DepTree]) -> str:
    lines: List[str] = []
    for tree in sentences:
        for i, word in enumerate(tree.tokens):
            lines.append("\t".join([
                str(i + 1), word, "_", tree.pos[i], "_", "_",
                str(tree.heads[i]), tree.labels[i], "_", "_",
            ]))
        lines.append("")
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# AUTO

def read_auto(text: str, grammar: Optional[Grammar] = None) -> List[CCGTree]:
    """Parse AUTO text into derivation trees.

    Rule identities are reconstructed against ``grammar`` (the shipped
    default when omitted); nodes no rule licenses keep ``rule=None`` and are
    reported by validate_tree.
    """
    if grammar is None:
        grammar = default_grammar()
    trees: List[CCGTree] = []
    for line in text.splitlines():
        if not line.strip() or line.startswith("ID="):
            continue
        count, i = 0, 0
        open_nodes: List[Tuple[Category, int, List[CCGTree]]] = []
        while True:
            while i < len(line) and line[i] == " ":
                i += 1
            if open_nodes and len(open_nodes[-1][2]) == open_nodes[-1][1]:
                if not line.startswith(")", i):
                    raise AutoParseError("expected ')' at byte %d" % i)
                i += 1
                category, dtrs, children = open_nodes.pop()
                rule = min((kind for cat, kind in _licensed(grammar, children)
                            if cat == category),
                           key=lambda kind: kind.value, default=None)
                node: CCGTree = (Unary if dtrs == 1 else Binary)(
                    *children, category, rule)
            elif not line.startswith("(", i):
                raise AutoParseError("expected '(' at byte %d" % i)
            elif not line.startswith("(<", i):
                raise AutoParseError("expected '(<' at byte %d" % i)
            else:
                close = line.find(">", i)
                if close < 0:
                    raise AutoParseError("unterminated node header at byte %d"
                                         % i)
                fields = line[i + 2:close].split(" ")
                node_kind = {"L": "leaf", "T": "internal node"}.get(fields[0])
                if node_kind is None:
                    raise AutoParseError("unknown node kind %r at byte %d"
                                         % (fields[0], i))
                if len(fields) != (6 if node_kind == "leaf" else 4):
                    raise AutoParseError("%s with %d fields at byte %d"
                                         % (node_kind, len(fields), i))
                category = parse_category(fields[1])
                if node_kind == "internal node":
                    try:
                        dtrs = int(fields[3])
                    except ValueError:
                        raise AutoParseError("bad daughter count %r at byte %d"
                                             % (fields[3], i))
                    if dtrs not in (1, 2):
                        raise AutoParseError("daughter count %d at byte %d"
                                             % (dtrs, i))
                    open_nodes.append((category, dtrs, []))
                    i = close + 1
                    continue
                if not line.startswith(")", close + 1):
                    raise AutoParseError("expected ')' after leaf at byte %d"
                                         % (close + 1))
                i = close + 2
                count += 1
                node = Terminal(count, fields[4], category, fields[2])
            if not open_nodes:
                break
            open_nodes[-1][2].append(node)
        if line[i:].strip():
            raise AutoParseError("trailing text at byte %d: %r"
                                 % (i, line[i:i + 20]))
        trees.append(node)
    return trees


# what AUTO cannot hold in a word or a POS: a field separator, the end of a
# node header or a line break
_UNWRITABLE = re.compile("[ >%s]" % _BREAKS)


def write_auto(trees: List[CCGTree], first: int = 1) -> str:
    """AUTO text of ``trees``, their ``ID=`` lines counting from
    ``first``.  A word or POS holding a space, a ``>`` or a line break
    raises DataError."""
    parts: List[str] = []
    unwritable = _UNWRITABLE.search
    for k, tree in enumerate(trees, first):
        parts.append("ID=%d\n" % k)
        # preorder: a node's header, then its daughters, then ")"
        stack: list = [tree]
        while stack:
            node = stack.pop()
            if isinstance(node, str):
                parts.append(node)
            elif isinstance(node, Terminal):
                if unwritable(node.word) or unwritable(node.pos):
                    raise DataError("token %r with POS %r: AUTO holds no "
                                    "space, '>' or line break in either"
                                    % (node.word, node.pos))
                cat = print_category(node.category)
                parts.append("(<L %s %s %s %s %s>)" % (
                    cat, node.pos, node.pos, node.word, cat))
            elif isinstance(node, Unary):
                parts.append("(<T %s 0 1> " % print_category(node.category))
                stack += ")", node.child
            else:
                parts.append("(<T %s 0 2> " % print_category(node.category))
                stack += ")", node.right, " ", node.left
        parts.append("\n")
    return "".join(parts)
