"""Output checks for the benchmark's commands.

``convert`` and ``decode`` drop failed sentences from their AUTO output
and renumber the ``ID=`` lines, so every output tree is aligned to its
input through the ``sentence k:`` failure lines the command prints on
stderr.  A failed check is returned as a message; the caller fails the
run on any message.
"""

from __future__ import annotations

import hashlib
import math
import re
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from d2cc.categories import parse_category, print_category
from d2cc.grammar import apply_binary, apply_unary
from d2cc.pas import default_coindex_table, evaluate, extract_deps
from d2cc.trees import (Terminal, Unary, extract_headfirst, terminals,
                        validate_tree, write_auto)

FAILURE_LINE = re.compile(r"^sentence (\d+): (.*)$", re.M)


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def failures(stderr: str) -> Dict[int, str]:
    """Sentence ordinal -> failure message, from a command's stderr."""
    return {int(k): msg for k, msg in FAILURE_LINE.findall(stderr)}


def align(trees: Sequence, count: int, failed: Dict[int, str],
          problems: List[str]) -> List[Optional[object]]:
    """Output trees placed at their input ordinals (None where failed)."""
    expected = count - len(failed)
    if len(trees) != expected or any(not 1 <= k <= count for k in failed):
        problems.append("%d output trees for %d inputs and %d failures"
                        % (len(trees), count, len(failed)))
        return [None] * count
    out = iter(trees)
    return [None if k in failed else next(out) for k in range(1, count + 1)]


def node_spans(tree) -> set:
    spans = set()

    def walk(node):
        if isinstance(node, Terminal):
            s = e = node.index
        elif isinstance(node, Unary):
            s, e = walk(node.child)
        else:
            s, _ = walk(node.left)
            _, e = walk(node.right)
        spans.add((s, e))
        return s, e

    walk(tree)
    return spans


def check_tree(k: int, tree, tokens: Sequence[str], grammar,
               pos: Optional[Sequence[str]] = None,
               brackets: Sequence[tuple] = ()) -> List[str]:
    """Licensing, leaf alignment and bracket checks for one output tree."""
    where = "sentence %d" % k
    problems = ["%s: %s" % (where, p) for p in validate_tree(tree, grammar)]
    leaves = terminals(tree)
    if [leaf.index for leaf in leaves] != list(range(1, len(tokens) + 1)):
        problems.append("%s: leaf indices are not 1..%d"
                        % (where, len(tokens)))
    if [leaf.word for leaf in leaves] != list(tokens):
        problems.append("%s: leaves do not match the input tokens" % where)
    if pos is not None and [leaf.pos for leaf in leaves] != list(pos):
        problems.append("%s: leaf POS tags do not match the input" % where)
    missing = set(map(tuple, brackets)) - node_spans(tree)
    if missing:
        problems.append("%s: constrained spans %s are not constituents"
                        % (where, sorted(missing)))
    return problems


def tree_score(tree, m) -> float:
    """Score of a finished tree, recomputed without the decoder: leaf tag
    log-probs plus the Head First arcs plus the root arc of token 1."""
    leaves = terminals(tree)
    parents = extract_headfirst(tree)
    total = 0.0
    for leaf, parent in zip(leaves, parents):
        col = m.categories.index(print_category(leaf.category))
        total += float(m.tag_logp[leaf.index - 1, col])
        total += float(m.dep_logp[leaf.index - 1, parent])
    return total


def quality(predicted: Sequence[Optional[object]], gold: Sequence) -> dict:
    """Exact match and labeled F1 of aligned predictions against gold; a
    failed sentence is a miss and an empty prediction."""
    table = default_coindex_table()
    exact = sum(1 for p, g in zip(predicted, gold)
                if p is not None and _derivation(p) == _derivation(g))
    pred_deps = [extract_deps(p, table) if p is not None else []
                 for p in predicted]
    gold_deps = [extract_deps(g, table) for g in gold]
    metrics = evaluate(pred_deps, gold_deps)
    return {"exact_match": exact / len(gold),
            "labeled_f1": metrics.labeled.f1}


def _derivation(tree) -> str:
    return write_auto([tree]).splitlines()[1]


def best_score(m, grammar, beam: Optional[float]) -> float:
    """The best derivation score in the decoder's search space, found by an
    exhaustive bottom-up chart instead of best-first search: supertags
    within ``beam`` of each row's best, at most one unary rule above each
    binary or leaf item, Head First arcs and the root arc of token 1.
    -inf when no derivation reaches a root category."""
    n = len(m)
    inventory = [parse_category(c) for c in m.categories]
    chart = {}

    def close(cell):
        for (category, depth), inside in list(cell.items()):
            if depth == 0:
                for target, _ in apply_unary(grammar, category):
                    key = (target, 1)
                    cell[key] = max(cell.get(key, -math.inf), inside)
        return cell

    for i in range(1, n + 1):
        row = m.tag_logp[i - 1]
        cutoff = -math.inf if beam is None else float(max(row)) - beam
        cell = {}
        for category, logp in zip(inventory, row):
            if logp > -math.inf and logp >= cutoff:
                key = (category, 0)
                cell[key] = max(cell.get(key, -math.inf), float(logp))
        chart[i, i] = close(cell)
    for width in range(2, n + 1):
        for start in range(1, n - width + 2):
            end = start + width - 1
            cell = {}
            for split in range(start, end):
                # the right part's head (token split + 1) attaches to the
                # left part's head (token start)
                arc = float(m.dep_logp[split, start])
                if arc == -math.inf:
                    continue
                for (lc, _), li in chart[start, split].items():
                    for (rc, _), ri in chart[split + 1, end].items():
                        for category, _ in apply_binary(grammar, lc, rc):
                            key = (category, 0)
                            cell[key] = max(cell.get(key, -math.inf),
                                            li + ri + arc)
            chart[start, end] = close(cell)
    roots = [inside for (category, _), inside in chart[1, n].items()
             if category in grammar.roots]
    return max(roots, default=-math.inf) + float(m.dep_logp[0, 0])
