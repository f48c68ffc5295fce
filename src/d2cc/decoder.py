"""A* decoding of score matrices into grammar-licensed derivations.

Chart items cover a span with a category; under Head First the span head is
always the leftmost token, so an item's inside score is the sum of its
supertag log-probs plus the head-arc log-prob of every covered token except
the first.  The agenda is ordered by inside + heuristic, a span-aware bound
in the style of Yoshikawa, Noji & Matsumoto (ACL 2017).  It grants every
token outside the span [s, e] its best supertag, and takes head arcs over
Head First head columns only (the root column for token 1, columns 1..t-1
for token t > 1): tokens left of s and the span head s get their best such
arc, and a token t right of e gets its best arc over columns 1..s and
e+1..t-1.  Columns s+1..e are out of its reach: t's head is the first token
of its left sibling, and that sibling either contains [s, e] or lies right
of it.  That never underestimates any completion, and no combination raises
a priority (a wider span only narrows the columns of the tokens right of
it, and the arcs that move inside used columns the child's bound allowed),
so the first goal item popped is optimal.  Ties break by span width, start
index, category text, unary depth and goal flag; a full tie falls to the
push order, so the search is deterministic.

The search never pushes a dominated item: it keeps the best inside score
pushed so far for each chart key (start, end, id, depth) and drops a leaf,
unary or binary push whose inside does not exceed it.  That is exact.  The
dropped item has the span, and so the bound, of the earlier push, hence a
lower or equal priority; on equal priority the rest of the key is equal too
and the earlier push wins on the counter.  So it could only have popped
after that item and been discarded unexpanded.  An agenda entry carries the
item's fields, and becomes an item only when it enters the chart.

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
grammar has N => NP).  Every node on the span is a proposal, unary nodes
included, so an N constraint refuses the NP that N => NP builds over it.
Terminal category constraints are additionally enforced by rewriting the
token's tag row to a one-hot log distribution.
"""

from __future__ import annotations

import functools
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
from .trees import Binary, CCGTree, Terminal, Unary, fold, terminals

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
        if ordinal < 1:
            raise DataError("sentence ordinal %r in constraint file is below "
                            "1; sentences count from 1" % key)
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


# cells of one block of the (token, start, end) array in ``_outside``, few
# enough to stay in cache; from 91 tokens on a block holds a single start
_BLOCK_CELLS = 1 << 14


def _outside(m: ScoreMatrices) -> List[List[float]]:
    """The A* completion bound of every span: ``outside[s][e]``, for
    1 <= s <= e <= n, bounds what the tokens outside [s, e] and the span
    head s can add to an item over [s, e].  That is every outside token's
    best supertag, plus the best Head First head arc of the tokens 1..s,
    plus for each token t > e the best arc over columns 1..s and e+1..t-1.

    A token's best arc over columns 1..s is a running maximum along its
    row, and over e+1..t-1 a running maximum from the right.  The sums over
    t > e add up a (token, start, end) array of the better of the two, one
    block of starts at a time, each of at most ``_BLOCK_CELLS`` cells (or
    of one start), so memory stays O(n^2) however long the sentence."""
    tag, dep = m.tag_logp, m.dep_logp
    n = len(tag)
    # cell [t - 1, c - 1] of ``heads``: the arc from token t to column
    # c < t; of ``upto``: the best over columns 1..c; of ``beyond``: the
    # best over columns c..t-1
    heads = np.where(np.tri(n, n, -1, dtype=bool), dep[:, 1:], NEG_INF)
    upto = np.maximum.accumulate(heads, axis=1)
    beyond = np.maximum.accumulate(heads[:, ::-1], axis=1)[:, ::-1]
    table = np.zeros((n + 1, n + 1))
    after = np.tri(n, n - 1, -1, dtype=bool)[:, None, :]
    step = max(1, _BLOCK_CELLS // (n * n + 1))
    for lo in range(0, n - 1, step):
        # starts lo+1..lo+step, so only ends e > lo and tokens t > lo + 1
        # count; cell [t - lo - 2, s - lo - 1, e - lo - 1]: token t's best
        # arc over columns 1..s and e+1..t-1, kept only where t > e
        arcs = np.maximum(upto[lo + 1:, lo:lo + step, None],
                          beyond[lo + 1:, None, lo + 1:])
        table[lo + 1:lo + step + 1, lo + 1:n] = np.where(
            after[lo + 1:, :, lo:], arcs, 0.0).sum(0)
    tmax = np.max(tag, axis=1)
    dmax = upto[:, -1].copy()
    dmax[0] = dep[0, 0]
    prefix = np.concatenate([[0.0], np.cumsum(tmax + dmax)])
    table[:, :n] += np.cumsum(tmax[::-1])[::-1]
    table[1:] += (prefix[:-1] + dmax)[:, None]
    return table.tolist()


def heuristic(m: ScoreMatrices, start: int, end: int) -> float:
    """Admissible completion estimate for an item over [start, end]: the
    bound ``astar_parse`` adds to an item's inside score."""
    return _outside(m)[start][end]


class _Tables:
    """A grammar compiled for the decoder, shared by every sentence decoded
    with that Grammar object.

    Categories are interned to consecutive ids; ``categories``, ``texts``,
    ``is_root``, ``lefts`` and ``rights`` are lists indexed by id.
    ``apply_binary`` results are memoised over id pairs as tuples of
    (result id, rule), ordered by rule code and then category text (never
    by hash, which varies between processes), and stored twice so that either
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
        """Rule results as (id, rule) pairs by rule code, then text: when
        two rules build one category from the same children, the search
        keeps the lower code, the rule that ``read_auto`` infers."""
        if not results:
            return ()
        return tuple(sorted(((self._intern(c), rule) for c, rule in results),
                            key=lambda pair: (pair[1].value,
                                              self.texts[pair[0]])))

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
                pos: Optional[Sequence[str]] = None) -> ParseResult:
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
    outside = _outside(m)
    dep = m.dep_logp.tolist()
    root_arc = dep[0][0]
    # read on every call, so a substituted ``heapq`` sees each push and pop
    heappush, heappop = heapq.heappush, heapq.heappop

    @functools.lru_cache(maxsize=None)
    def allowed(cid: int, start: int, end: int) -> bool:
        return check_constraint(tables.categories[cid], start, end,
                                constraints, grammar)

    counter = itertools.count()
    agenda: List[tuple] = []
    # the best inside pushed so far for each chart key (start, end, id,
    # depth); a push that does not beat it could only pop after that item
    # and be discarded unexpanded, so it is never made
    pushed: Dict[Tuple[int, int, int, int], float] = {}

    def push(start, end, cid, depth, inside, rule, left, right) -> None:
        key = (start, end, cid, depth)
        if inside <= pushed.get(key, NEG_INF):
            return
        priority = inside + outside[start][end]
        if priority == NEG_INF:
            return
        pushed[key] = inside
        heappush(agenda, (-priority, end - start, start, texts[cid], depth,
                          False, next(counter), end, cid, inside, rule, left,
                          right))

    inventory = tables.inventory(m.categories)
    best = np.max(m.tag_logp, axis=1).tolist()
    for i, row in enumerate(m.tag_logp.tolist(), 1):
        cutoff = NEG_INF if beam is None else best[i - 1] - beam
        for cid, logp in zip(inventory, row):
            if logp == NEG_INF or logp < cutoff:
                continue
            if constraints and not allowed(cid, i, i):
                continue
            push(i, i, cid, 0, logp, None, None, None)

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
        priority = inside + outside[start][end]
        if priority == NEG_INF:
            return
        for cid, rule in found:
            key = (start, end, cid, 0)
            if inside <= pushed.get(key, NEG_INF):
                continue
            if constraints and not allowed(cid, start, end):
                continue
            pushed[key] = inside
            heappush(agenda, (-priority, end - start, start, texts[cid], 0,
                              False, next(counter), end, cid, inside, rule,
                              left, right))

    while agenda:
        pops += 1
        if pops > budget:
            raise BudgetError("item budget of %d pops exceeded" % budget)
        (_, _, start, _, depth, goal, _, end, cid, inside, rule, left,
         right) = heappop(agenda)
        if goal:
            item = _Item(start, end, cid, depth, inside, rule, left, right)
            return ParseResult(_build_tree(item, m, pos, tables.categories),
                               inside + root_arc)
        key = (start, end, cid, depth)
        if key in chart:
            continue
        chart.add(key)
        item = _Item(start, end, cid, depth, inside, rule, left, right)
        by_start.setdefault(start, []).append(item)
        by_end.setdefault(end, []).append(item)

        if start == 1 and end == n and is_root[cid]:
            priority = inside + root_arc
            if priority != NEG_INF:
                heappush(agenda, (-priority, end - start, start, texts[cid],
                                  depth, True, next(counter), end, cid,
                                  inside, rule, left, right))

        if depth == 0:
            found = unary.get(cid)
            if found is None:
                found = tables.unary_miss(cid)
            for target, rule in found:
                if constraints and not allowed(target, start, end):
                    continue
                push(start, end, target, 1, inside, rule, item, None)

        # adjacent items in chart order (the push order settles full ties);
        # one table lookup each, and those that combine with nothing push
        # nothing
        lefts = by_end.get(start - 1)
        if lefts:
            row = tables.lefts[cid]
            for left in lefts:
                found = row.get(left.category)
                if found is None:
                    found = tables.binary_miss(left.category, cid)
                if found:
                    combine(left, item, found)
        rights = by_start.get(end + 1)
        if rights:
            row = tables.rights[cid]
            for right in rights:
                found = row.get(right.category)
                if found is None:
                    found = tables.binary_miss(cid, right.category)
                if found:
                    combine(item, right, found)

    if constraints:
        try:
            astar_parse(m, grammar, (), beam=beam, budget=budget, pos=pos)
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
    # explicit stacks: a derivation may be deeper than the recursion limit
    items, stack = [], [item]
    while stack:
        items.append(stack.pop())
        stack.extend(c for c in (items[-1].left, items[-1].right) if c)
    built: List[CCGTree] = []
    for item in reversed(items):
        category = categories[item.category]
        if item.left is None:
            word = m.tokens[item.start - 1]
            tag = pos[item.start - 1] if pos else "XX"
            built.append(Terminal(item.start, word, category, tag))
        elif item.right is None:
            built.append(Unary(built.pop(), category, item.rule))
        else:
            built[-2:] = [Binary(*built[-2:], category, item.rule)]
    return built[0]


def convert(params, grammar: Grammar, z, constraints: Sequence[Constraint] = (),
            *, beam: Optional[float] = DEFAULT_BEAM,
            budget: int = DEFAULT_BUDGET, hmat=None) -> CCGTree:
    """Score a dependency tree and decode it into a CCG derivation.
    ``hmat``, the tree's states from ``model.encode_batch``, skips the
    encoder.

    Scores that do not normalize (NaN from a diverged model, say) raise a
    ``DataError`` before any search runs."""
    from .model import score_sentence

    m = score_sentence(params, z, hmat)
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
    index = itertools.count(terminals(t)[0].index)

    def leaf(t: Terminal) -> Optional[Terminal]:
        if is_dummy(t.category):
            return None
        return Terminal(next(index), t.word, t.category, t.pos)

    def node(t: CCGTree, *children: Optional[CCGTree]) -> Optional[CCGTree]:
        kept = [child for child in children if child is not None]
        if len(kept) < len(children):  # a node that lost a daughter goes
            return kept[0] if kept else None
        return type(t)(*kept, t.category, t.rule)

    return fold(t, leaf, node, node)
