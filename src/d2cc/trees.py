"""Dependency trees, CCG derivation trees, and their file formats.

Supported formats:

* CoNLL-U (consumed columns: ID, FORM, UPOS, HEAD, DEPREL; multiword ``x-y``
  and empty ``x.y`` rows are skipped).
* CCGbank AUTO: ``ID=k`` header line followed by one bracketed derivation,
  ``(<T cat head dtrs> children...)`` internal nodes and
  ``(<L cat pos pos word cat>)`` leaves.  AUTO does not record which rule
  built a node, so the reader infers rules against a grammar.
* A lossless JSON mirror of the tree type (rules included).

``extract_headfirst`` applies the Head First convention: the head of every
constituent is the head of its left child, so each binary node contributes
one left-to-right arc and token 1 heads the sentence.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

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


@dataclass(frozen=True)
class Terminal:
    index: int  # 1-based token position
    word: str
    category: Category
    pos: str = "XX"


@dataclass(frozen=True)
class Unary:
    child: "CCGTree"
    category: Category
    rule: Optional[RuleKind]


@dataclass(frozen=True)
class Binary:
    left: "CCGTree"
    right: "CCGTree"
    category: Category
    rule: Optional[RuleKind]


CCGTree = Union[Terminal, Unary, Binary]


def terminals(t: CCGTree) -> List[Terminal]:
    if isinstance(t, Terminal):
        return [t]
    if isinstance(t, Unary):
        return terminals(t.child)
    return terminals(t.left) + terminals(t.right)


def _licensed(grammar: Grammar, children: Sequence[CCGTree]):
    """The (category, rule) pairs that one rule derives from ``children``
    (one for a unary node, two for a binary one)."""
    if len(children) == 1:
        return apply_unary(grammar, children[0].category)
    return apply_binary(grammar, children[0].category, children[1].category)


def span(t: CCGTree) -> Tuple[int, int]:
    terms = terminals(t)
    return terms[0].index, terms[-1].index


def head_index(t: CCGTree) -> int:
    """Head token of a constituent under Head First: always the leftmost."""
    while not isinstance(t, Terminal):
        t = t.child if isinstance(t, Unary) else t.left
    return t.index


def extract_headfirst(t: CCGTree) -> List[int]:
    """Head-First dependencies: ``d[i-1]`` is the parent of token i.

    Every binary node adds an arc from the head of its left child to the head
    of its right child; the sentence head (token 1) gets parent 0.
    """
    n = len(terminals(t))
    parents = [0] * n

    def walk(node: CCGTree) -> None:
        if isinstance(node, Terminal):
            return
        if isinstance(node, Unary):
            walk(node.child)
            return
        walk(node.left)
        walk(node.right)
        parents[head_index(node.right) - 1] = head_index(node.left)

    walk(t)
    parents[head_index(t) - 1] = 0
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

    def walk(node: CCGTree) -> None:
        if isinstance(node, Terminal):
            return
        unary = isinstance(node, Unary)
        children = (node.child,) if unary else (node.left, node.right)
        for child in children:
            walk(child)
        if node.rule is None:
            problems.append("span %s: %s node %s carries no rule"
                            % (span(node), "unary" if unary else "binary",
                               print_category(node.category)))
        elif (node.category, node.rule) not in _licensed(grammar, children):
            problems.append("span %s: %s%s => %s not licensed" % (
                span(node), "unary " if unary else "",
                " + ".join(print_category(c.category) for c in children),
                print_category(node.category)))

    walk(t)
    if t.category not in grammar.roots:
        problems.append("root category %s not in root set"
                        % print_category(t.category))
    return problems


# ---------------------------------------------------------------------------
# CoNLL-U

def read_conllu(text: str) -> List[DepTree]:
    sentences: List[DepTree] = []
    tokens: List[str] = []
    pos: List[str] = []
    heads: List[int] = []
    labels: List[str] = []

    def flush() -> None:
        if tokens:
            tree = DepTree(list(tokens), list(pos), list(heads), list(labels))
            tree.validate(len(sentences) + 1)
            sentences.append(tree)
            tokens.clear(); pos.clear(); heads.clear(); labels.clear()

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.rstrip("\n")
        if not line.strip():
            flush()
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
        try:
            head = int(cols[6])
        except ValueError:
            raise ConlluError("line %d: bad head %r" % (lineno, cols[6]))
        tokens.append(cols[1])
        pos.append(cols[3])
        heads.append(head)
        labels.append(cols[7])
    flush()
    return sentences


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

def _infer_rule(grammar: Grammar, children: Sequence[CCGTree],
                result: Category) -> Optional[RuleKind]:
    """The rule with the lowest code that builds ``result`` from
    ``children``; None when no rule does."""
    return min((kind for cat, kind in _licensed(grammar, children)
                if cat == result), key=lambda kind: kind.value, default=None)


def read_auto(text: str, grammar: Optional[Grammar] = None) -> List[CCGTree]:
    """Parse AUTO text into derivation trees.

    Rule identities are reconstructed against ``grammar`` (the shipped
    default when omitted); nodes no rule licenses keep ``rule=None`` and are
    reported by validate_tree.
    """
    if grammar is None:
        grammar = default_grammar()
    trees: List[CCGTree] = []
    counter = [0]
    for line in text.splitlines():
        if not line.strip() or line.startswith("ID="):
            continue
        counter[0] = 0
        tree, rest = _parse_auto_node(line, 0, grammar, counter)
        if line[rest:].strip():
            raise AutoParseError("trailing text at byte %d: %r"
                                 % (rest, line[rest:rest + 20]))
        trees.append(tree)
    return trees


def _parse_auto_node(s: str, i: int, grammar: Grammar, counter):
    while i < len(s) and s[i] == " ":
        i += 1
    if i >= len(s) or s[i] != "(":
        raise AutoParseError("expected '(' at byte %d" % i)
    if not s.startswith("(<", i):
        raise AutoParseError("expected '(<' at byte %d" % i)
    close = s.find(">", i)
    if close < 0:
        raise AutoParseError("unterminated node header at byte %d" % i)
    header = s[i + 2:close]
    fields = header.split(" ")
    if fields[0] == "L":
        if len(fields) != 6:
            raise AutoParseError("leaf with %d fields at byte %d"
                                 % (len(fields), i))
        category = parse_category(fields[1])
        counter[0] += 1
        node: CCGTree = Terminal(counter[0], fields[4], category, fields[2])
        i = close + 1
        if i >= len(s) or s[i] != ")":
            raise AutoParseError("expected ')' after leaf at byte %d" % i)
        return node, i + 1
    if fields[0] != "T":
        raise AutoParseError("unknown node kind %r at byte %d" % (fields[0], i))
    if len(fields) != 4:
        raise AutoParseError("internal node with %d fields at byte %d"
                             % (len(fields), i))
    category = parse_category(fields[1])
    try:
        dtrs = int(fields[3])
    except ValueError:
        raise AutoParseError("bad daughter count %r at byte %d" % (fields[3], i))
    if dtrs not in (1, 2):
        raise AutoParseError("daughter count %d at byte %d" % (dtrs, i))
    i = close + 1
    children = []
    for _ in range(dtrs):
        child, i = _parse_auto_node(s, i, grammar, counter)
        children.append(child)
    while i < len(s) and s[i] == " ":
        i += 1
    if i >= len(s) or s[i] != ")":
        raise AutoParseError("expected ')' at byte %d" % i)
    i += 1
    rule = _infer_rule(grammar, children, category)
    if dtrs == 1:
        return Unary(children[0], category, rule), i
    return Binary(children[0], children[1], category, rule), i


def write_auto(trees: List[CCGTree]) -> str:
    lines: List[str] = []
    for k, tree in enumerate(trees, 1):
        lines.append("ID=%d" % k)
        lines.append(_format_auto(tree))
    return "\n".join(lines) + ("\n" if lines else "")


def _format_auto(t: CCGTree) -> str:
    if isinstance(t, Terminal):
        cat = print_category(t.category)
        return "(<L %s %s %s %s %s>)" % (cat, t.pos, t.pos, t.word, cat)
    if isinstance(t, Unary):
        return "(<T %s 0 1> %s)" % (print_category(t.category),
                                    _format_auto(t.child))
    return "(<T %s 0 2> %s %s)" % (print_category(t.category),
                                   _format_auto(t.left), _format_auto(t.right))


# ---------------------------------------------------------------------------
# JSON mirror

def tree_to_dict(t: CCGTree) -> dict:
    if isinstance(t, Terminal):
        return {"kind": "terminal", "index": t.index, "word": t.word,
                "pos": t.pos, "category": print_category(t.category)}
    if isinstance(t, Unary):
        return {"kind": "unary", "category": print_category(t.category),
                "rule": t.rule.value if t.rule else None,
                "child": tree_to_dict(t.child)}
    return {"kind": "binary", "category": print_category(t.category),
            "rule": t.rule.value if t.rule else None,
            "left": tree_to_dict(t.left), "right": tree_to_dict(t.right)}


def tree_from_dict(d: dict) -> CCGTree:
    kind = d.get("kind")
    if kind == "terminal":
        return Terminal(d["index"], d["word"], parse_category(d["category"]),
                        d.get("pos", "XX"))
    rule = RuleKind(d["rule"]) if d.get("rule") else None
    if kind == "unary":
        return Unary(tree_from_dict(d["child"]), parse_category(d["category"]),
                     rule)
    if kind == "binary":
        return Binary(tree_from_dict(d["left"]), tree_from_dict(d["right"]),
                      parse_category(d["category"]), rule)
    raise DataError("unknown tree node kind %r" % kind)


def write_json_trees(trees: List[CCGTree]) -> str:
    return json.dumps([tree_to_dict(t) for t in trees], indent=2,
                      sort_keys=True) + "\n"


def read_json_trees(text: str) -> List[CCGTree]:
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise DataError("JSON tree file is not valid JSON: %s" % exc)
    if not isinstance(data, list):
        raise DataError("JSON tree file must contain a list")
    trees = []
    for k, d in enumerate(data, 1):
        try:
            trees.append(tree_from_dict(d))
        except KeyError as exc:
            raise DataError("JSON tree %d: a node lacks the field %s"
                            % (k, exc))
        except (AttributeError, TypeError, ValueError) as exc:
            raise DataError("JSON tree %d: malformed node: %s" % (k, exc))
    return trees
