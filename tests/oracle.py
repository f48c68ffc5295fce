"""Independent reference implementations used by the test suite.

Everything here re-derives results with a different algorithm than the
library code under test: an exhaustive bottom-up chart builder instead of
the best-first agenda, an exact outside-score table instead of the cheap
heuristic bound, a direct tree scorer, a separately written span
constraint predicate, and the recursive category printer that categories'
stored text replaced.  The grammar rule functions and the category algebra
are shared on purpose; they define the search space, and the point of the
oracle is to check the search itself.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from d2cc import (
    Atomic,
    Binary,
    CCGTree,
    Category,
    Constraint,
    Functor,
    Grammar,
    ScoreMatrices,
    Terminal,
    Unary,
    apply_binary,
    apply_unary,
    parse_category,
    print_category,
    unify_features,
)

NEG_INF = float("-inf")

# (start, end, category text, depth): mirrors the decoder's chart key.
Key = Tuple[int, int, str, int]


# ---------------------------------------------------------------------------
# memoized grammar closure (the grammar is immutable, so caching by category
# text is safe and makes the exhaustive chart fast enough for the test sizes)


@functools.lru_cache(maxsize=None)
def _cat(text: str) -> Category:
    return parse_category(text)


def _binary_results(grammar: Grammar):
    @functools.lru_cache(maxsize=None)
    def results(left: str, right: str) -> Tuple[str, ...]:
        found = apply_binary(grammar, _cat(left), _cat(right))
        return tuple(sorted({print_category(c) for c, _ in found}))

    return results


def _unary_results(grammar: Grammar):
    @functools.lru_cache(maxsize=None)
    def results(source: str) -> Tuple[str, ...]:
        found = apply_unary(grammar, _cat(source))
        return tuple(sorted({print_category(c) for c, _ in found}))

    return results


# ---------------------------------------------------------------------------
# independent constraint predicate


def _properly_overlap(a: int, b: int, i: int, j: int) -> bool:
    """True when [a, b] and [i, j] intersect without either containing the
    other.  Written as intersection-minus-nesting on purpose; the library
    uses the two explicit inequality chains."""
    intersect = not (b < i or j < a)
    nested = (i <= a and b <= j) or (a <= i and j <= b)
    return intersect and not nested


def allowed(category: Category, start: int, end: int,
            constraints: Sequence[Constraint], grammar: Grammar) -> bool:
    """Reference version of the span constraint check."""
    for con in constraints:
        if _properly_overlap(start, end, con.start, con.end):
            return False
        if con.category is None:
            continue
        if (start, end) != (con.start, con.end):
            continue
        if unify_features(category, con.category) is not None:
            continue
        reachable = _unary_results(grammar)(print_category(category))
        if not any(unify_features(_cat(t), con.category) is not None
                   for t in reachable):
            return False
    return True


# ---------------------------------------------------------------------------
# exhaustive chart


@dataclass
class Chart:
    n: int
    inside: Dict[Key, float]
    back: Dict[Key, tuple]
    # parent -> list of (child keys, arc score); unary edges carry arc 0.0
    edges: Dict[Key, List[Tuple[Tuple[Key, ...], float]]]
    goals: List[Key]
    root_arc: float
    grammar: Grammar

    def best_goal(self) -> Tuple[float, Optional[Key]]:
        best, best_key = NEG_INF, None
        for key in self.goals:
            total = self.inside[key] + self.root_arc
            if total > best:
                best, best_key = total, key
        return best, best_key


def build_chart(mat: ScoreMatrices, grammar: Grammar,
                constraints: Sequence[Constraint] = ()) -> Chart:
    """Exhaustive bottom-up enumeration of every reachable chart item (no
    pruning, no agenda).  Inside scores are exact maxima per item."""
    n = len(mat)
    tag = mat.tag_logp
    dep = mat.dep_logp
    binary = _binary_results(grammar)
    unary = _unary_results(grammar)
    root_texts = {print_category(c) for c in grammar.roots}

    inside: Dict[Key, float] = {}
    back: Dict[Key, tuple] = {}
    edges: Dict[Key, List[Tuple[Tuple[Key, ...], float]]] = {}
    # span -> list of item keys (all depths)
    per_span: Dict[Tuple[int, int], List[Key]] = {}

    def add(key: Key, score: float, pointer: tuple,
            child_keys: Tuple[Key, ...], arc: float) -> None:
        if child_keys:
            edges.setdefault(key, []).append((child_keys, arc))
        if score <= inside.get(key, NEG_INF):
            return
        if key not in inside:
            per_span.setdefault((key[0], key[1]), []).append(key)
        inside[key] = score
        back[key] = pointer

    def close_unary(span_keys: List[Key]) -> None:
        for key in list(span_keys):
            if key[3] != 0:
                continue
            s, e, text, _ = key
            for target in unary(text):
                if not allowed(_cat(target), s, e, constraints, grammar):
                    continue
                add((s, e, target, 1), inside[key], ("un", key), (key,), 0.0)

    for i in range(1, n + 1):
        for c_idx, text in enumerate(mat.categories):
            score = float(tag[i - 1, c_idx])
            if score == NEG_INF:
                continue
            if not allowed(_cat(text), i, i, constraints, grammar):
                continue
            add((i, i, text, 0), score, ("term", c_idx), (), 0.0)
        close_unary(per_span.get((i, i), []))

    for width in range(2, n + 1):
        for start in range(1, n - width + 2):
            end = start + width - 1
            for split in range(start, end):
                lefts = per_span.get((start, split), ())
                rights = per_span.get((split + 1, end), ())
                if not lefts or not rights:
                    continue
                arc = float(dep[split, start])
                if arc == NEG_INF:
                    continue
                for lkey in lefts:
                    lscore = inside[lkey]
                    for rkey in rights:
                        combined = lscore + inside[rkey] + arc
                        for text in binary(lkey[2], rkey[2]):
                            if not allowed(_cat(text), start, end,
                                           constraints, grammar):
                                continue
                            add((start, end, text, 0), combined,
                                ("bin", lkey, rkey), (lkey, rkey), arc)
            close_unary(per_span.get((start, end), []))

    goals = [key for key in per_span.get((1, n), ())
             if key[2] in root_texts]
    return Chart(n, inside, back, edges, goals, float(dep[0, 0]), grammar)


def best_score(mat: ScoreMatrices, grammar: Grammar,
               constraints: Sequence[Constraint] = ()) -> float:
    """Exhaustive maximum total score (tags + arcs + root arc); -inf when
    no complete analysis exists."""
    return build_chart(mat, grammar, constraints).best_goal()[0]


def viterbi_spans(chart: Chart, key: Key) -> List[Key]:
    """All chart keys on the best derivation rooted at ``key``."""
    out = [key]
    pointer = chart.back[key]
    if pointer[0] == "un":
        out.extend(viterbi_spans(chart, pointer[1]))
    elif pointer[0] == "bin":
        out.extend(viterbi_spans(chart, pointer[1]))
        out.extend(viterbi_spans(chart, pointer[2]))
    return out


def random_derivation_spans(chart: Chart, key: Key, rng) -> List[Key]:
    """Keys of one uniformly drawn local derivation below ``key`` (each
    node picks a random incoming edge, terminals stop)."""
    out = [key]
    options = chart.edges.get(key)
    if options:
        children, _ = options[rng.integers(0, len(options))]
        for child in children:
            out.extend(random_derivation_spans(chart, child, rng))
    return out


# ---------------------------------------------------------------------------
# exact outside scores (for the admissibility check)


def outside_table(chart: Chart) -> Dict[Key, float]:
    """Exact best completion score per item: the maximum, over complete
    analyses containing the item, of (total score - the item's best
    inside).  Includes the root arc.  Items on no complete analysis stay
    at -inf."""
    out: Dict[Key, float] = {key: NEG_INF for key in chart.inside}
    for key in chart.goals:
        out[key] = max(out[key], chart.root_arc)
    order = sorted(chart.inside,
                   key=lambda k: (-(k[1] - k[0]), -k[3], k[0], k[2]))
    for key in order:
        source = out[key]
        if source == NEG_INF:
            continue
        for children, arc in chart.edges.get(key, ()):
            if len(children) == 1:
                child = children[0]
                out[child] = max(out[child], source)
            else:
                lkey, rkey = children
                out[lkey] = max(out[lkey],
                                source + chart.inside[rkey] + arc)
                out[rkey] = max(out[rkey],
                                source + chart.inside[lkey] + arc)
    return out


# ---------------------------------------------------------------------------
# independent tree scoring and constraint satisfaction


def leftmost_index(node: CCGTree) -> int:
    while not isinstance(node, Terminal):
        node = node.child if isinstance(node, Unary) else node.left
    return node.index


def score_tree(tree: CCGTree, mat: ScoreMatrices) -> float:
    """Direct re-scoring of a finished tree: supertag log-probs, one head
    arc per binary node, plus the root arc of the first token."""
    total = float(mat.dep_logp[0, 0])
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, Terminal):
            col = mat.categories.index(print_category(node.category))
            total += float(mat.tag_logp[node.index - 1, col])
        elif isinstance(node, Unary):
            stack.append(node.child)
        else:
            head = leftmost_index(node.left)
            dependent = leftmost_index(node.right)
            total += float(mat.dep_logp[dependent - 1, head])
            stack.append(node.left)
            stack.append(node.right)
    return total


def node_spans(tree: CCGTree) -> List[Tuple[int, int, Category]]:
    out = []

    def walk(node: CCGTree) -> Tuple[int, int]:
        if isinstance(node, Terminal):
            s = e = node.index
        elif isinstance(node, Unary):
            s, e = walk(node.child)
        else:
            s, _ = walk(node.left)
            _, e = walk(node.right)
        out.append((s, e, node.category))
        return s, e

    walk(tree)
    return out


def tree_satisfies(tree: CCGTree, constraints: Sequence[Constraint],
                   grammar: Grammar) -> bool:
    """Every node passes the reference predicate and every constrained
    span shows up as a constituent."""
    spans = node_spans(tree)
    for s, e, category in spans:
        if not allowed(category, s, e, constraints, grammar):
            return False
    covered = {(s, e) for s, e, _ in spans}
    return all((con.start, con.end) in covered for con in constraints)


def print_category_reference(c: Category) -> str:
    """Category text by recursion over the parts, as ``print_category``
    worked before categories kept their text."""
    if isinstance(c, Atomic):
        return c.name if c.feature is None else "%s[%s]" % (c.name, c.feature)
    left = print_category_reference(c.result)
    if isinstance(c.result, Functor):
        left = "(" + left + ")"
    right = print_category_reference(c.argument)
    if isinstance(c.argument, Functor):
        right = "(" + right + ")"
    return left + c.slash + right


def strip_dummies_reference(tree: CCGTree) -> Optional[CCGTree]:
    """Dummy stripping in two passes: prune every X terminal together with
    the nodes it leaves without content, then renumber the surviving
    leaves left to right from the original leftmost index."""

    def prune(node: CCGTree) -> Optional[CCGTree]:
        if isinstance(node, Terminal):
            return None if print_category(node.category) == "X" else node
        if isinstance(node, Unary):
            child = prune(node.child)
            return None if child is None else Unary(child, node.category,
                                                    node.rule)
        kids = [k for k in (prune(node.left), prune(node.right))
                if k is not None]
        if len(kids) < 2:
            return kids[0] if kids else None
        return Binary(kids[0], kids[1], node.category, node.rule)

    pruned = prune(tree)
    if pruned is None:
        return None
    # a span starts at a leaf index, and every leaf starts its own span
    leaves = sorted({s for s, _, _ in node_spans(pruned)})
    first = leftmost_index(tree)
    order = {old: first + k for k, old in enumerate(leaves)}

    def renumber(node: CCGTree) -> CCGTree:
        if isinstance(node, Terminal):
            return Terminal(order[node.index], node.word, node.category,
                            node.pos)
        if isinstance(node, Unary):
            return Unary(renumber(node.child), node.category, node.rule)
        return Binary(renumber(node.left), renumber(node.right),
                      node.category, node.rule)

    return renumber(pruned)


# ---------------------------------------------------------------------------
# random instance generation

# Curated lexical pool: enough overlap for frequent analyses, enough
# variety to exercise application, composition, type-raising targets,
# coordination, and punctuation absorption.
BACKBONE = ("NP", "N", "NP/N", "S[dcl]\\NP", "(S[dcl]\\NP)/NP")
EXTRAS = (
    "N/N",
    "NP\\NP",
    "(NP\\NP)/NP",
    "S[dcl]",
    "S[b]\\NP",
    "(S[b]\\NP)/NP",
    "(S[dcl]\\NP)/(S[b]\\NP)",
    "(S\\NP)/(S\\NP)",
    "(S[dcl]\\NP)\\(S[dcl]\\NP)",
    "S/S",
    "conj",
    ",",
    ".",
    "PP/NP",
    "(S[dcl]\\NP)/PP",
)


def random_matrices(rng, n_tokens: int, n_cats: int) -> ScoreMatrices:
    """Row-normalized random score matrices over a curated category pool.
    The dependency rows mask the self arc exactly like model output."""
    n_extra = max(0, n_cats - len(BACKBONE))
    picks = rng.choice(len(EXTRAS), size=n_extra, replace=False)
    categories = list(BACKBONE) + [EXTRAS[i] for i in sorted(picks)]
    categories = categories[:n_cats]
    tokens = ["w%d" % (i + 1) for i in range(n_tokens)]

    tag = rng.normal(size=(n_tokens, len(categories))) * 2.0
    tag = tag - _logsumexp_rows(tag)

    dep = rng.normal(size=(n_tokens, n_tokens + 1)) * 2.0
    for t in range(1, n_tokens + 1):
        dep[t - 1, t] = NEG_INF
    dep = dep - _logsumexp_rows(dep)
    return ScoreMatrices(tokens, categories, tag, dep)


def _logsumexp_rows(a: np.ndarray) -> np.ndarray:
    high = np.max(a, axis=1, keepdims=True)
    return high + np.log(np.sum(np.exp(a - high), axis=1, keepdims=True))


def sample_satisfiable_constraints(chart: Chart, rng,
                                   count: int) -> Optional[List[Constraint]]:
    """Constraints drawn from the constituents of one randomly sampled
    complete derivation, so at least that derivation satisfies them.

    A sampled category can still reject the node's own unary parent or
    child sitting at the same span (the identical-span clause applies to
    every node there); such picks are demoted to span-only so the source
    derivation remains admissible."""
    if not chart.goals:
        return None
    goal = chart.goals[rng.integers(0, len(chart.goals))]
    keys = random_derivation_spans(chart, goal, rng)
    picks = rng.choice(len(keys), size=min(count, len(keys)), replace=False)
    constraints = []
    for pick in picks:
        s, e, text, _ = keys[pick]
        con = Constraint(_cat(text), s, e) if rng.integers(0, 2) else \
            Constraint(None, s, e)
        if con.category is not None and any(
                not allowed(_cat(text2), s2, e2, [con], chart.grammar)
                for s2, e2, text2, _ in keys):
            con = Constraint(None, s, e)
        constraints.append(con)
    return constraints
