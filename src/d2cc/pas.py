"""Predicate-argument extraction by head-variable unification, and scoring.

Every terminal gets an indexed copy of its category: atoms carry variables,
the word's own constant sits on the head of the result spine, and numbered
slots mark argument positions (innermost argument = slot 1).  Replaying the
derivation unifies the variable structures that each rule identifies, so a
slot variable eventually resolves to the word constant filling the argument,
including long-range fillers threaded through composition and type raising.

Default indexing, overridable per category via the coindexation table:

* outermost modifiers ``X|X`` (features ignored) index as pure pass-through:
  result and argument share variables pairwise, no constant, no slots;
* other categories place the constant on the innermost result atom unless it
  is variable-shared with an argument, and number every outer argument.

The shipped table (``data/coindex.txt``) is parsed once per process and
shared; ``load_coindex_table`` (the ``--coindex`` override) reads its file
on every call.  Every table is read-only.

Evaluation is micro-averaged P/R/F1.  A labeled match requires the slot and
the predicate's lexical category; an unlabeled match only the (predicate,
argument) token pair.  Precision over zero predictions and recall over zero
gold are vacuously 100.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .categories import (
    Atomic,
    Category,
    Functor,
    is_dummy,
    parse_category,
    print_category,
    strip_features,
)
from .config import content_lines, data_text, read_text
from .errors import DataError, ExtractionError
from .grammar import RuleKind
from .trees import Binary, CCGTree, Terminal, Unary, fold, span


class Var:
    """Union-find cell, optionally bound to a word index."""

    __slots__ = ("parent", "constant")

    def __init__(self) -> None:
        self.parent: "Var" = self
        self.constant: Optional[int] = None


def _find(v: Var) -> Var:
    while v.parent is not v:
        v.parent = v.parent.parent
        v = v.parent
    return v


def _where(where: Union[CCGTree, str]) -> str:
    """Error text for a location: fixed text as it is, or a replayed
    node's span and category, which only a raise site formats."""
    if isinstance(where, str):
        return where
    return "span %s (%s)" % (span(where), print_category(where.category))


def _union(a: Var, b: Var, where: Union[CCGTree, str]) -> None:
    ra, rb = _find(a), _find(b)
    if ra is rb:
        return
    if ra.constant is not None and rb.constant is not None:
        if ra.constant != rb.constant:
            raise ExtractionError(
                "unification clash at %s: word %d vs word %d"
                % (_where(where), ra.constant, rb.constant))
    if ra.constant is None:
        ra.parent = rb
    else:
        rb.parent = ra


# Terms mirror the category structure: a Var for an atom, a (result, argument)
# pair for a functor.
Terms = Union[Var, Tuple["Terms", "Terms"]]


@dataclass
class IndexedCategory:
    category: Category
    terms: Terms
    slots: List[Tuple[int, Var]] = field(default_factory=list)


@dataclass(frozen=True, order=True)
class PASDep:
    predicate: int
    category: str
    slot: int
    argument: int


def _fresh_terms(c: Category) -> Terms:
    if isinstance(c, Atomic):
        return Var()
    return (_fresh_terms(c.result), _fresh_terms(c.argument))


def _head_term(t: Terms) -> Var:
    while isinstance(t, tuple):
        t = t[0]
    return t


def _atom_vars(t: Terms) -> List[Var]:
    if isinstance(t, Var):
        return [t]
    return _atom_vars(t[0]) + _atom_vars(t[1])


def _link_pairwise(a: Terms, b: Terms, where: Union[CCGTree, str]) -> None:
    if isinstance(a, Var) and isinstance(b, Var):
        _union(a, b, where)
        return
    if isinstance(a, tuple) and isinstance(b, tuple):
        _link_pairwise(a[0], b[0], where)
        _link_pairwise(a[1], b[1], where)
        return
    raise ExtractionError("structure mismatch at %s" % _where(where))


def _spine_arguments(c: Category, t: Terms) -> List[Tuple[int, Terms]]:
    """(slot number, argument terms) of each argument along the result
    spine, innermost (slot 1) first."""
    args = []
    while isinstance(c, Functor):
        args.append(t[1])
        c, t = c.result, t[0]
    return list(enumerate(reversed(args), 1))


def _is_modifier(c: Category) -> bool:
    return (isinstance(c, Functor)
            and strip_features(c.result) == strip_features(c.argument))


def _coindex_modifiers(c: Category, t: Terms) -> None:
    if isinstance(c, Atomic):
        return
    if _is_modifier(c):
        _link_pairwise(t[0], t[1], "modifier coindexation")
    _coindex_modifiers(c.result, t[0])
    _coindex_modifiers(c.argument, t[1])


def default_index(category: Category, word_index: int) -> IndexedCategory:
    terms = _fresh_terms(category)
    _coindex_modifiers(category, terms)
    if _is_modifier(category):
        return IndexedCategory(category, terms, [])
    slots: List[Tuple[int, Var]] = []
    head = _head_term(terms)
    head_shared = False
    for slot, arg_terms in _spine_arguments(category, terms):
        for v in _atom_vars(arg_terms):
            if _find(v) is _find(head):
                head_shared = True
        slots.append((slot, _head_term(arg_terms)))
    if isinstance(category, Atomic) and is_dummy(category):
        return IndexedCategory(category, terms, [])
    if not head_shared:
        _find(head).constant = word_index
    return IndexedCategory(category, terms, slots)


# ---------------------------------------------------------------------------
# Coindexation table

# An atom (with optional feature) plus an optional {annotation} right after it.
_PATOM_RE = re.compile(r"(?:[A-Za-z]+(?:\[[a-z]+\])?|[,.;:])(\{[^{}]*\})?")


@dataclass(frozen=True)
class _PatternAtom:
    var: Optional[str]  # None = private, "!" = word constant
    slot: Optional[int]


@dataclass(frozen=True)
class _Recipe:
    """A category's slot analysis with its variables numbered, so that
    ``make`` gives each leaf fresh ones.  ``program`` rebuilds the terms
    in reverse preorder: a class number pushes that class's variable, -1
    pairs the last term pushed (the result) with the one below it."""

    program: Tuple[int, ...]
    classes: int
    constants: Tuple[int, ...]  # classes bound to the word
    slots: Tuple[Tuple[int, int], ...]

    def make(self, category: Category, word_index: int) -> IndexedCategory:
        vs = [Var() for _ in range(self.classes)]
        for c in self.constants:
            vs[c].constant = word_index
        stack: list = []
        for op in self.program:
            if op < 0:
                result = stack.pop()
                stack[-1] = (result, stack[-1])
            else:
                stack.append(vs[op])
        return IndexedCategory(category, stack[0],
                               [(slot, vs[c]) for slot, c in self.slots])


def _recipe(ic: IndexedCategory) -> _Recipe:
    """``ic`` numbered: one class per union-find root, in preorder."""
    classes: Dict[Var, int] = {}
    program = []
    stack = [ic.terms]
    while stack:
        t = stack.pop()
        if isinstance(t, tuple):
            program.append(-1)
            stack += t[1], t[0]
        else:
            program.append(classes.setdefault(_find(t), len(classes)))
    slots = tuple((slot, classes[_find(v)]) for slot, v in ic.slots)
    return _Recipe(tuple(reversed(program)), len(classes),
                   tuple(c for root, c in classes.items()
                         if root.constant is not None), slots)


class CoindexTable:
    """category text -> annotation tuple in atom order (left to right),
    read-only.  Each category is analysed once per table; its leaves get
    fresh variables from the stored recipe."""

    def __init__(self, entries: Mapping[str, Sequence[_PatternAtom]]):
        self.entries = MappingProxyType(
            {text: tuple(annots) for text, annots in entries.items()})
        self._recipes: Dict[str, _Recipe] = {}

    def index(self, category: Category, word_index: int) -> IndexedCategory:
        return self._index(category, print_category(category), word_index)

    def _index(self, category: Category, text: str,
               word_index: int) -> IndexedCategory:
        """``index`` for a category whose printed ``text`` is known."""
        recipe = self._recipes.get(text)
        if recipe is None:
            recipe = _recipe(self._analyse(category, text))
            self._recipes[text] = recipe
        return recipe.make(category, word_index)

    def _analyse(self, category: Category, text: str) -> IndexedCategory:
        """The indexed category, with any word constant on word 0."""
        annots = self.entries.get(text)
        if annots is None:
            return default_index(category, 0)
        terms = _fresh_terms(category)
        atoms = _atom_vars(terms)
        if len(atoms) != len(annots):
            raise DataError("coindexation entry for %s has %d annotations "
                            "for %d atoms" % (text, len(annots), len(atoms)))
        named: Dict[str, Var] = {}
        slots: List[Tuple[int, Var]] = []
        for v, annot in zip(atoms, annots):
            if annot.var == "!":
                _find(v).constant = 0
            elif annot.var is not None and annot.var != "_":
                if annot.var in named:
                    _union(v, named[annot.var], "coindexation entry")
                else:
                    named[annot.var] = v
            if annot.slot is not None:
                slots.append((annot.slot, v))
        slots.sort(key=lambda s: s[0])
        return IndexedCategory(category, terms, slots)


def parse_coindex_table(text: str, origin: str = "<string>") -> CoindexTable:
    entries: Dict[str, List[_PatternAtom]] = {}
    for lineno, line in content_lines(text):
        if ":" not in line:
            raise DataError("%s:%d: expected 'CATEGORY : PATTERN'"
                            % (origin, lineno))
        key_text, pattern = line.split(":", 1)
        key = parse_category(key_text.strip())
        annots: List[_PatternAtom] = []
        for match in _PATOM_RE.finditer(pattern.strip()):
            body = match.group(1)
            if body is None:
                annots.append(_PatternAtom(None, None))
                continue
            body = body[1:-1].strip()
            if "," in body:
                var_part, slot_part = body.split(",", 1)
                try:
                    slot = int(slot_part)
                except ValueError:
                    raise DataError("%s:%d: bad slot %r"
                                    % (origin, lineno, slot_part))
                annots.append(_PatternAtom(var_part.strip() or None, slot))
            else:
                annots.append(_PatternAtom(body or None, None))
        bare = re.sub(r"\{[^{}]*\}", "", pattern.strip())
        pattern_cat = parse_category(bare)
        if strip_features(pattern_cat) != strip_features(key):
            raise DataError("%s:%d: pattern does not match category %s"
                            % (origin, lineno, key_text.strip()))
        n_atoms = len(_atom_vars(_fresh_terms(key)))
        if len(annots) != n_atoms:
            raise DataError("%s:%d: %d annotated atoms for %d category atoms"
                            % (origin, lineno, len(annots), n_atoms))
        entries[print_category(key)] = annots
    return CoindexTable(entries)


def load_coindex_table(path) -> CoindexTable:
    return parse_coindex_table(read_text(path), str(path))


@functools.lru_cache(maxsize=None)
def default_coindex_table() -> CoindexTable:
    """The shipped table, parsed on the first call and then shared."""
    return parse_coindex_table(data_text("coindex.txt"), "data/coindex.txt")


def index_lexicon(category: Category, word_index: int,
                  table: Optional[CoindexTable] = None) -> IndexedCategory:
    """Indexed copy of a terminal category for word ``word_index``."""
    if table is None:
        table = default_coindex_table()
    return table.index(category, word_index)


# ---------------------------------------------------------------------------
# Extraction

def extract_deps(t: CCGTree,
                 table: Optional[CoindexTable] = None) -> List[PASDep]:
    """Predicate-argument dependencies of a derivation.

    Raises ExtractionError on unification clashes or nodes without a rule.
    """
    if table is None:
        table = default_coindex_table()
    watches: List[Tuple[int, str, int, Var]] = []

    def leaf(node: Terminal) -> IndexedCategory:
        cat_text = print_category(node.category)
        indexed = table._index(node.category, cat_text, node.index)
        for slot, v in indexed.slots:
            watches.append((node.index, cat_text, slot, v))
        return indexed

    fold(t, leaf, _replay_unary, _replay_binary)
    deps = set()
    for pred, cat_text, slot, v in watches:
        root = _find(v)
        if root.constant is not None:
            deps.add(PASDep(pred, cat_text, slot, root.constant))
    return sorted(deps)


def _replay_unary(node: Unary, child: IndexedCategory) -> IndexedCategory:
    if node.rule is None:
        raise ExtractionError("%s: unary node without rule" % _where(node))
    cat = node.category
    if node.rule is RuleKind.TYPE_RAISE:
        if not (isinstance(cat, Functor) and isinstance(cat.argument, Functor)):
            raise ExtractionError("%s: malformed type raise" % _where(node))
        # Both copies of T share one variable structure.
        t_terms = _fresh_terms(cat.result)
        return IndexedCategory(cat, (t_terms, (t_terms, child.terms)))
    terms = _fresh_terms(cat)
    _union(_head_term(terms), _head_term(child.terms), node)
    return IndexedCategory(cat, terms)


def _pair(t: Terms, where: Union[CCGTree, str]) -> tuple:
    if not isinstance(t, tuple):
        raise ExtractionError("structure mismatch at %s" % _where(where))
    return t


def _replay_binary(node: Binary, left: IndexedCategory,
                   right: IndexedCategory) -> IndexedCategory:
    rule = node.rule
    if rule is None:
        raise ExtractionError("%s: binary node without rule" % _where(node))
    if rule is RuleKind.FORWARD_APPLY:
        lt = _pair(left.terms, node)
        _link_pairwise(lt[1], right.terms, node)
        return IndexedCategory(node.category, lt[0])
    if rule is RuleKind.BACKWARD_APPLY:
        rt = _pair(right.terms, node)
        _link_pairwise(rt[1], left.terms, node)
        return IndexedCategory(node.category, rt[0])
    if rule is RuleKind.FORWARD_COMPOSE:
        lt = _pair(left.terms, node)
        rt = _pair(right.terms, node)
        _link_pairwise(lt[1], rt[0], node)
        return IndexedCategory(node.category, (lt[0], rt[1]))
    if rule in (RuleKind.BACKWARD_COMPOSE, RuleKind.BACKWARD_CROSS_COMPOSE):
        lt = _pair(left.terms, node)
        rt = _pair(right.terms, node)
        _link_pairwise(rt[1], lt[0], node)
        return IndexedCategory(node.category, (rt[0], lt[1]))
    if rule is RuleKind.GEN_FORWARD_COMPOSE:
        lt = _pair(left.terms, node)
        rt = _pair(right.terms, node)
        inner = _pair(rt[0], node)
        _link_pairwise(lt[1], inner[0], node)
        return IndexedCategory(node.category, ((lt[0], inner[1]), rt[1]))
    if rule is RuleKind.CONJUNCTION:
        fresh = _fresh_terms(node.category.argument)
        return IndexedCategory(node.category, (right.terms, fresh))
    if rule in (RuleKind.REMOVE_PUNCT_LEFT, RuleKind.X_ABSORB_RIGHT):
        return IndexedCategory(node.category, right.terms)
    if rule in (RuleKind.REMOVE_PUNCT_RIGHT, RuleKind.X_ABSORB_LEFT):
        return IndexedCategory(node.category, left.terms)
    raise ExtractionError("%s: rule %s is not binary"
                          % (_where(node), rule.value))


# ---------------------------------------------------------------------------
# Evaluation

@dataclass(frozen=True)
class Score:
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class CategoryScore:
    precision: float
    recall: float
    f1: float
    gold: int


@dataclass(frozen=True)
class Metrics:
    labeled: Score
    unlabeled: Score
    n_predicted: int
    n_gold: int
    labeled_correct: int
    per_category: Dict[Tuple[str, int], CategoryScore]


def _prf(correct_p: int, n_pred: int, correct_r: int, n_gold: int) -> Score:
    p = 100.0 * correct_p / n_pred if n_pred else 100.0
    r = 100.0 * correct_r / n_gold if n_gold else 100.0
    f1 = 0.0 if p + r == 0 else 2 * p * r / (p + r)
    return Score(p, r, f1)


def evaluate(predicted: Sequence[Sequence[PASDep]],
             gold: Sequence[Sequence[PASDep]]) -> Metrics:
    """Micro-averaged labeled and unlabeled P/R/F1 over aligned sentences."""
    if len(predicted) != len(gold):
        raise DataError("evaluate: %d predicted sentences vs %d gold"
                        % (len(predicted), len(gold)))
    n_pred = n_gold = lab_correct = 0
    unlab_p_correct = unlab_r_correct = 0
    by_cat: Dict[Tuple[str, int], List[int]] = {}
    for pred_deps, gold_deps in zip(predicted, gold):
        pset = set(pred_deps)
        gset = set(gold_deps)
        n_pred += len(pset)
        n_gold += len(gset)
        lab_correct += len(pset & gset)
        gpairs = {(d.predicate, d.argument) for d in gset}
        ppairs = {(d.predicate, d.argument) for d in pset}
        unlab_p_correct += sum((d.predicate, d.argument) in gpairs for d in pset)
        unlab_r_correct += sum((d.predicate, d.argument) in ppairs for d in gset)
        for d in pset:
            row = by_cat.setdefault((d.category, d.slot), [0, 0, 0])
            row[0] += 1
            if d in gset:
                row[2] += 1
        for d in gset:
            by_cat.setdefault((d.category, d.slot), [0, 0, 0])[1] += 1
    per_category = {}
    for key, (p, g, c) in sorted(by_cat.items()):
        s = _prf(c, p, c, g)
        per_category[key] = CategoryScore(s.precision, s.recall, s.f1, g)
    return Metrics(
        labeled=_prf(lab_correct, n_pred, lab_correct, n_gold),
        unlabeled=_prf(unlab_p_correct, n_pred, unlab_r_correct, n_gold),
        n_predicted=n_pred,
        n_gold=n_gold,
        labeled_correct=lab_correct,
        per_category=per_category,
    )


def write_pas_dump(per_sentence: Sequence[Sequence[PASDep]]) -> str:
    """One ``pred_index slot arg_index pred_category`` line per dependency,
    blank line between sentences."""
    blocks = []
    for deps in per_sentence:
        lines = ["%d %d %d %s" % (d.predicate, d.slot, d.argument, d.category)
                 for d in sorted(deps)]
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"
