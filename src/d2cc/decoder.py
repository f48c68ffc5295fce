"""A* decoding of score matrices into grammar-licensed derivations.

Chart items cover a span with a category; under Head First the span head is
always the leftmost token, so an item's inside score is the sum of its
supertag log-probs plus the head-arc log-prob of every covered token except
the first.  The agenda is ordered by inside + heuristic where the heuristic
grants every outside token its best supertag and best head arc, and the span
head its best head arc, each arc taken over the Head First head columns only
(the root column for token 1, columns 1..t-1 for token t > 1).  That never
underestimates any completion, and no combination raises a priority, so the
first goal item popped is optimal.  Ties break by span width, start index,
category text, unary depth and goal flag; a full tie falls to the push
order, so the search is deterministic.

Each Grammar object is compiled once, on its first decode, into tables that
every later sentence shares: categories interned to integer ids, with their
text and root flag, and memoised ``apply_binary``/``apply_unary`` results
over ids.  The search runs on ids (the chart is keyed on
(start, end, id, depth)) and turns them back into categories only when it
builds the tree.

Span constraints follow the two rejection conditions: a proposal is refused
if its span properly overlaps a constrained span, or if it sits exactly on a
constrained span with an incompatible category that no unary rule can turn
into a compatible one (so an N proposal survives an NP constraint when the
grammar has N => NP).  Terminal category constraints are additionally
enforced by rewriting the token's tag row to a one-hot log distribution.
"""

from __future__ import annotations

import heapq
import itertools
import json
import math
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .categories import (
    Category,
    is_dummy,
    parse_category,
    print_category,
    unify_features,
)
from .errors import BudgetError, ConstraintError, DataError, NoParseError, VocabularyError
from .grammar import Grammar, RuleKind, apply_binary, apply_unary
from .scores import ScoreMatrices, check_normalized
from .trees import Binary, CCGTree, Terminal, Unary, head_index

DEFAULT_BEAM = -math.log(1e-4)
DEFAULT_BUDGET = 10 ** 6
NEG_INF = -math.inf


@dataclass(frozen=True)
class Constraint:
    """A span constraint; ``category`` None means span-only.  1-based,
    inclusive on both ends; ``start == end`` with a category constrains a
    terminal."""

    category: Optional[Category]
    start: int
    end: int


@dataclass(frozen=True)
class ParseResult:
    tree: CCGTree
    score: float


def load_constraint_file(text: str) -> Dict[int, List[Constraint]]:
    """Constraint JSON: object mapping sentence ordinal (1-based, as a
    string) to a list of {"category": str|null, "start": int, "end": int}."""
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise DataError("constraint file is not valid JSON: %s" % exc)
    if not isinstance(data, dict):
        raise DataError("constraint file must be a JSON object keyed by ordinal")
    out: Dict[int, List[Constraint]] = {}
    for key, entries in data.items():
        try:
            ordinal = int(key)
        except ValueError:
            raise DataError("bad sentence ordinal %r in constraint file" % key)
        if not isinstance(entries, list):
            raise DataError("constraints for sentence %s must be a list" % key)
        out[ordinal] = [_constraint_entry(e, key) for e in entries]
    return out


def _constraint_entry(entry, key: str) -> Constraint:
    if not isinstance(entry, dict):
        raise DataError("constraint for sentence %s must be an object, got %r"
                        % (key, entry))
    cat = entry.get("category")
    if cat is not None and not isinstance(cat, str):
        raise DataError("constraint category for sentence %s must be a "
                        "string or null, got %r" % (key, cat))
    start, end = entry.get("start"), entry.get("end")
    for name, value in (("start", start), ("end", end)):
        if isinstance(value, bool) or not isinstance(value, int):
            raise DataError("constraint %r for sentence %s must be an "
                            "integer, got %r" % (name, key, value))
    return Constraint(parse_category(cat) if cat is not None else None,
                      start, end)


def _consistent(a: Category, b: Category) -> bool:
    return unify_features(a, b) is not None


def check_constraint(category: Category, start: int, end: int,
                     constraints: Sequence[Constraint],
                     grammar: Grammar) -> bool:
    """True iff an item (category, start, end) survives every constraint."""
    for con in constraints:
        i, j = con.start, con.end
        if (i < start <= j < end) or (start < i <= end < j):
            return False
        if con.category is not None and i == start and j == end:
            if _consistent(category, con.category):
                continue
            if not any(_consistent(target, con.category)
                       for target, _ in apply_unary(grammar, category)):
                return False
    return True


def validate_constraints(constraints: Sequence[Constraint], n: int) -> None:
    for con in constraints:
        if not (1 <= con.start <= con.end <= n):
            raise ConstraintError(
                "constraint span (%d, %d) out of range for %d tokens"
                % (con.start, con.end, n))


def apply_terminal_constraints(m: ScoreMatrices,
                               constraints: Sequence[Constraint]) -> ScoreMatrices:
    """Rewrite constrained tokens' tag rows to one-hot log distributions."""
    validate_constraints(constraints, len(m))
    forced: Dict[int, Category] = {}
    for con in constraints:
        if con.category is None or con.start != con.end:
            continue
        prev = forced.get(con.start)
        if prev is not None and prev != con.category:
            raise ConstraintError(
                "token %d constrained to both %s and %s"
                % (con.start, print_category(prev), print_category(con.category)))
        forced[con.start] = con.category
    if not forced:
        return m
    tag = m.tag_logp.copy()
    for token, category in forced.items():
        try:
            col = m.categories.index(print_category(category))
        except ValueError:
            raise VocabularyError(
                "constraint category %s not in the model inventory"
                % print_category(category))
        tag[token - 1, :] = -np.inf
        tag[token - 1, col] = 0.0
    return ScoreMatrices(m.tokens, m.categories, tag, m.dep_logp)


def _bound_terms(m: ScoreMatrices) -> Tuple[List[float], List[float],
                                             List[float]]:
    """The pieces of the A* bound: prefix and suffix sums of every token's
    best supertag plus best Head First head arc (``prefix[i]`` covers tokens
    1..i, ``suffix[i]`` tokens i+1..n), and each token's best Head First head
    arc: the root column for token 1, columns 1..t-1 for token t > 1."""
    tmax = np.max(m.tag_logp, axis=1)
    heads = np.tri(len(m), len(m) + 1, dtype=bool)
    heads[1:, 0] = False
    dmax = np.max(m.dep_logp, axis=1, where=heads, initial=NEG_INF)
    per_token = tmax + dmax
    suffix = np.concatenate([np.cumsum(per_token[::-1])[::-1], [0.0]])
    prefix = np.concatenate([[0.0], np.cumsum(per_token)])
    return prefix.tolist(), suffix.tolist(), dmax.tolist()


def heuristic(m: ScoreMatrices, start: int, end: int, head: int) -> float:
    """Admissible completion estimate for an item over [start, end] headed
    by ``head``: the bound ``astar_parse`` adds to an item's inside score,
    with ``head == start``.  Head arcs count only Head First head columns:
    the root column for token 1, columns 1..t-1 for token t > 1."""
    prefix, suffix, dmax = _bound_terms(m)
    return prefix[start - 1] + suffix[end] + dmax[head - 1]


class _Tables:
    """A grammar compiled for the decoder, shared by every sentence decoded
    with that Grammar object.

    Categories are interned to consecutive ids; ``categories``, ``texts``,
    ``is_root``, ``lefts`` and ``rights`` are lists indexed by id.
    ``apply_binary`` results are memoised over id pairs as tuples of
    (result id, rule), in rule-code order, and stored twice so that either
    child can find them with one lookup: ``lefts[right][left]`` and
    ``rights[left][right]``.  ``unary[id]`` memoises ``apply_unary`` the
    same way, and ``by_text`` maps inventory text to ids.  Lookups read the
    tables directly; every miss goes through a method that holds ``lock``,
    so decodes running in threads never hand out one id twice, and an id is
    published only after its entries exist.
    """

    def __init__(self, grammar: Grammar):
        self.grammar = grammar
        self.lock = threading.Lock()
        self.ids: Dict[Category, int] = {}
        self.categories: List[Category] = []
        self.texts: List[str] = []
        self.is_root: List[bool] = []
        self.lefts: List[Dict[int, tuple]] = []
        self.rights: List[Dict[int, tuple]] = []
        self.unary: Dict[int, Tuple[Tuple[int, RuleKind], ...]] = {}
        self.by_text: Dict[str, int] = {}

    def __reduce__(self):
        # a lock cannot be pickled or copied: a pickled or copied grammar
        # starts with empty tables instead
        return (_Tables, (self.grammar,))

    def _intern(self, category: Category) -> int:
        cid = self.ids.get(category)
        if cid is None:
            cid = len(self.categories)
            self.categories.append(category)
            self.texts.append(print_category(category))
            self.is_root.append(category in self.grammar.roots)
            self.lefts.append({})
            self.rights.append({})
            self.ids[category] = cid
        return cid

    def inventory(self, texts: Sequence[str]) -> List[int]:
        ids = [self.by_text.get(text) for text in texts]
        if None in ids:
            with self.lock:
                for text in texts:
                    if text not in self.by_text:
                        self.by_text[text] = self._intern(parse_category(text))
            ids = [self.by_text[text] for text in texts]
        return ids

    def _compiled(self, results) -> Tuple[Tuple[int, RuleKind], ...]:
        """Rule results as (id, rule) pairs in rule-code order: when two
        rules build one category from the same children, the search keeps
        the lower code, the rule that ``read_auto`` infers."""
        return tuple(sorted(((self._intern(c), rule) for c, rule in results),
                            key=lambda pair: pair[1].value))

    def binary_miss(self, left: int, right: int):
        with self.lock:
            found = self.rights[left].get(right)
            if found is None:
                found = self._compiled(apply_binary(
                    self.grammar, self.categories[left],
                    self.categories[right]))
                self.lefts[right][left] = found
                self.rights[left][right] = found
        return found

    def unary_miss(self, cid: int):
        with self.lock:
            found = self.unary.get(cid)
            if found is None:
                found = self._compiled(apply_unary(
                    self.grammar, self.categories[cid]))
                self.unary[cid] = found
        return found


def _tables(grammar: Grammar) -> _Tables:
    """The compiled tables of ``grammar``, built on its first decode.  They
    are kept on the Grammar object itself (as ``functools.cached_property``
    keeps its values), so they live and die with that object; an
    equal-valued or later grammar gets tables of its own."""
    tables = grammar.__dict__.get("_decoder_tables")
    if tables is None:
        tables = grammar.__dict__.setdefault("_decoder_tables",
                                             _Tables(grammar))
    return tables


class _Item:
    __slots__ = ("start", "end", "category", "depth", "inside", "rule",
                 "left", "right")

    def __init__(self, start, end, category, depth, inside, rule, left, right):
        self.start = start
        self.end = end
        self.category = category  # an id of the grammar's _Tables
        self.depth = depth
        self.inside = inside
        self.rule = rule
        self.left = left
        self.right = right


def astar_parse(m: ScoreMatrices, grammar: Grammar,
                constraints: Sequence[Constraint] = (), *,
                beam: Optional[float] = DEFAULT_BEAM,
                budget: int = DEFAULT_BUDGET,
                pos: Optional[Sequence[str]] = None,
                _classify: bool = True) -> ParseResult:
    """Best grammar-licensed tree under the score matrices.

    ``beam`` keeps only supertags within that log margin of each token's
    best (None disables pruning); ``budget`` bounds agenda pops.  Raises
    NoParseError when no goal is reachable and BudgetError past the budget.
    """
    n = len(m)
    if n == 0:
        raise DataError("cannot parse an empty sentence")
    validate_constraints(constraints, n)

    tables = _tables(grammar)
    texts, is_root = tables.texts, tables.is_root
    unary = tables.unary
    prefix, suffix, dmax = _bound_terms(m)
    dep = m.dep_logp.tolist()
    root_arc = dep[0][0]
    # read on every call, so a substituted ``heapq`` sees each push and pop
    heappush, heappop = heapq.heappush, heapq.heappop

    verdicts: Dict[Tuple[int, int, int], bool] = {}

    def allowed(cid: int, start: int, end: int) -> bool:
        key = (cid, start, end)
        verdict = verdicts.get(key)
        if verdict is None:
            verdict = verdicts[key] = check_constraint(
                tables.categories[cid], start, end, constraints, grammar)
        return verdict

    counter = itertools.count()
    agenda: List[tuple] = []

    def push(item: _Item, goal: bool = False) -> None:
        start = item.start
        if goal:
            priority = item.inside + root_arc
        else:
            priority = (item.inside + (prefix[start - 1] + suffix[item.end])
                        + dmax[start - 1])
        if priority == NEG_INF:
            return
        heappush(agenda, (
            -priority, item.end - start, start, texts[item.category],
            item.depth, goal, next(counter), item))

    inventory = tables.inventory(m.categories)
    best = np.max(m.tag_logp, axis=1).tolist()
    for i, row in enumerate(m.tag_logp.tolist(), 1):
        cutoff = NEG_INF if beam is None else best[i - 1] - beam
        for cid, logp in zip(inventory, row):
            if logp == NEG_INF or logp < cutoff:
                continue
            if constraints and not allowed(cid, i, i):
                continue
            push(_Item(i, i, cid, 0, logp, None, None, None))

    chart = set()
    by_start: Dict[int, List[_Item]] = {}
    by_end: Dict[int, List[_Item]] = {}
    pops = 0

    def combine(left: _Item, right: _Item, found) -> None:
        start = left.start
        arc = dep[right.start - 1][start]
        if arc == NEG_INF:
            return
        inside = left.inside + right.inside + arc
        end = right.end
        # push() inlined: every result shares the priority
        priority = inside + (prefix[start - 1] + suffix[end]) + dmax[start - 1]
        if priority == NEG_INF:
            return
        for cid, rule in found:
            if constraints and not allowed(cid, start, end):
                continue
            heappush(agenda, (
                -priority, end - start, start, texts[cid], 0, False,
                next(counter), _Item(start, end, cid, 0, inside, rule,
                                     left, right)))

    while agenda:
        pops += 1
        if pops > budget:
            raise BudgetError("item budget of %d pops exceeded" % budget)
        _, _, _, _, _, goal, _, item = heappop(agenda)
        if goal:
            score = item.inside + root_arc
            return ParseResult(_build_tree(item, m, pos, tables.categories),
                               score)
        cid = item.category
        key = (item.start, item.end, cid, item.depth)
        if key in chart:
            continue
        chart.add(key)
        by_start.setdefault(item.start, []).append(item)
        by_end.setdefault(item.end, []).append(item)

        if item.start == 1 and item.end == n and is_root[cid]:
            push(item, goal=True)

        if item.depth == 0:
            found = unary.get(cid)
            if found is None:
                found = tables.unary_miss(cid)
            for target, rule in found:
                if constraints and not allowed(target, item.start, item.end):
                    continue
                push(_Item(item.start, item.end, target, 1, item.inside,
                           rule, item, None))

        # adjacent items in chart order (the push order settles full ties);
        # one table lookup each, and those that combine with nothing push
        # nothing
        lefts = by_end.get(item.start - 1)
        if lefts:
            row = tables.lefts[cid]
            for left in lefts:
                found = row.get(left.category)
                if found is None:
                    found = tables.binary_miss(left.category, cid)
                if found:
                    combine(left, item, found)
        rights = by_start.get(item.end + 1)
        if rights:
            row = tables.rights[cid]
            for right in rights:
                found = row.get(right.category)
                if found is None:
                    found = tables.binary_miss(cid, right.category)
                if found:
                    combine(item, right, found)

    if constraints and _classify:
        try:
            astar_parse(m, grammar, (), beam=beam, budget=budget, pos=pos,
                        _classify=False)
        except NoParseError:
            raise NoParseError("no valid parse (grammar failure)",
                               reason="grammar")
        except BudgetError:
            raise NoParseError("no valid parse (cause undetermined)",
                               reason="unknown")
        raise NoParseError("no valid parse satisfies the constraints",
                           reason="constraint")
    raise NoParseError("no valid parse (grammar failure)", reason="grammar")


def _build_tree(item: _Item, m: ScoreMatrices, pos: Optional[Sequence[str]],
                categories: List[Category]) -> CCGTree:
    category = categories[item.category]
    if item.left is None:
        word = m.tokens[item.start - 1]
        tag = pos[item.start - 1] if pos else "XX"
        return Terminal(item.start, word, category, tag)
    if item.right is None:
        return Unary(_build_tree(item.left, m, pos, categories), category,
                     item.rule)
    return Binary(_build_tree(item.left, m, pos, categories),
                  _build_tree(item.right, m, pos, categories), category,
                  item.rule)


def convert(params, grammar: Grammar, z, constraints: Sequence[Constraint] = (),
            *, beam: Optional[float] = DEFAULT_BEAM,
            budget: int = DEFAULT_BUDGET) -> CCGTree:
    """Score a dependency tree and decode it into a CCG derivation.

    Scores that do not normalize (NaN from a diverged model, say) raise a
    ``DataError`` before any search runs."""
    from .model import score_sentence

    m = score_sentence(params, z)
    problem = check_normalized(m)
    if problem:
        raise DataError("scorer output: %s" % problem)
    m = apply_terminal_constraints(m, constraints)
    result = astar_parse(m, grammar, constraints, beam=beam, budget=budget,
                         pos=z.pos)
    return result.tree


def strip_dummies(t: CCGTree) -> Optional[CCGTree]:
    """Remove X-category terminals and their absorption nodes, renumbering
    the remaining terminals from the original leftmost position (even if
    that was a dummy).  Returns None if every terminal was a dummy."""
    index = itertools.count(head_index(t))

    def walk(node: CCGTree) -> Optional[CCGTree]:
        if isinstance(node, Terminal):
            if is_dummy(node.category):
                return None
            return Terminal(next(index), node.word, node.category, node.pos)
        if isinstance(node, Unary):
            child = walk(node.child)
            return None if child is None else Unary(child, node.category,
                                                    node.rule)
        left = walk(node.left)
        right = walk(node.right)
        if left is None or right is None:
            return right if left is None else left
        return Binary(left, right, node.category, node.rule)

    return walk(t)
