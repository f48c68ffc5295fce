"""Seeded generator of long aligned (CoNLL-U, AUTO) sentences.

Follows the builder pattern of ``tools/make_mini_treebank.py``: a Builder
hands out terminal indices left to right, and phrase functions return the
derivation of a constituent together with its lexical (UD) head, while the
builder records the dependency arcs.  Sentences mix subject and object
relative clauses, PP attachment to nouns and verbs, NP/VP/S coordination,
auxiliaries, control verbs, sentential complements, ditransitives,
sentence adverbs and punctuation.  Only sentences of ``MIN_LEN`` to
``MAX_LEN`` tokens are kept.

Every sentence is checked as it is made: the dependency tree validates,
the derivation passes ``validate_tree`` under the default grammar, its
leaves equal the CoNLL-U tokens, and Head First and predicate-argument
extraction succeed.  The first violation raises ``GeneratorError``.
The same seed always gives the same bytes.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from d2cc.categories import parse_category
from d2cc.grammar import RuleKind, default_grammar
from d2cc.pas import extract_deps
from d2cc.trees import (Binary, DepTree, Terminal, Unary, extract_headfirst,
                        terminals, validate_tree)

MIN_LEN, MAX_LEN = 15, 40

C = parse_category
DET, N, ADJ, NP = C("NP/N"), C("N"), C("N/N"), C("NP")
S, SS = C("S[dcl]"), C("S/S")
IV, TV, DTV = C("S[dcl]\\NP"), C("(S[dcl]\\NP)/NP"), C("((S[dcl]\\NP)/NP)/NP")
BIV, BTV = C("S[b]\\NP"), C("(S[b]\\NP)/NP")
AUX, CTRL, TO = (C("(S[dcl]\\NP)/(S[b]\\NP)"), C("(S[dcl]\\NP)/(S[to]\\NP)"),
                 C("(S[to]\\NP)/(S[b]\\NP)"))
SAY = C("(S[dcl]\\NP)/S[dcl]")
NPREP, NP_MOD = C("(NP\\NP)/NP"), C("NP\\NP")
VPREP, VP_MOD = C("((S\\NP)\\(S\\NP))/NP"), C("(S\\NP)\\(S\\NP)")
SUBJ_REL, OBJ_REL = C("(NP\\NP)/(S[dcl]\\NP)"), C("(NP\\NP)/(S[dcl]/NP)")
RAISED, GAPPED = C("S/(S\\NP)"), C("S[dcl]/NP")
CONJ, COMMA, STOP = C("conj"), C(","), C(".")

DETS = ["the", "a", "every", "some", "no", "this", "that", "each"]
NOUNS = ["dog", "cat", "fox", "bird", "house", "tree", "man", "woman", "park",
         "book", "farmer", "teacher", "river", "garden", "letter", "child",
         "doctor", "city", "road", "window", "song", "friend", "horse",
         "table", "village", "student", "painter", "boat", "storm", "market"]
PLURALS = ["dogs", "cats", "birds", "children", "farmers", "students",
           "horses", "letters", "songs", "boats"]
ADJS = ["big", "small", "old", "red", "quiet", "young", "green", "tired",
        "clever", "famous"]
IVS = ["barks", "sleeps", "runs", "waits"]
TVS = ["sees", "likes", "chases", "finds", "visits"]
DTVS = ["gives", "sends"]
BIVS = ["sleep", "run", "leave"]
BTVS = ["see", "find", "visit"]
AUXS = ["will", "can", "must"]
CTRLS = ["wants", "tries"]
SAYS = ["thinks", "says"]
NPREPS = ["near", "of", "from"]
VPREPS = ["with", "after", "before"]
ADVS = ["quickly", "often", "again"]
SADVS = ["however", "perhaps"]
CONJS = ["and", "or", "but"]
RELS = ["that", "which", "who"]
OBJ_RELS = ["whom"]


class GeneratorError(AssertionError):
    """A generated sentence broke one of the generator's guarantees."""


def fa(l, r, cat):
    return Binary(l, r, cat, RuleKind.FORWARD_APPLY)


def ba(l, r, cat):
    return Binary(l, r, cat, RuleKind.BACKWARD_APPLY)


def rpr(l, r):
    return Binary(l, r, l.category, RuleKind.REMOVE_PUNCT_RIGHT)


class Builder:
    """Assigns 1-based indices to terminals in left-to-right order and
    collects the dependency arcs of one sentence."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.tokens: List[str] = []
        self.pos: List[str] = []
        self.heads: List[int] = []
        self.labels: List[str] = []

    def leaf(self, pool, category, pos) -> Tuple[Terminal, int]:
        word = self.rng.choice(pool) if isinstance(pool, list) else pool
        self.tokens.append(word)
        self.pos.append(pos)
        self.heads.append(-1)
        self.labels.append("_")
        k = len(self.tokens)
        return Terminal(k, word, category, pos), k

    def arc(self, dep: int, head: int, label: str) -> None:
        self.heads[dep - 1] = head
        self.labels[dep - 1] = label

    def chance(self, p: float) -> bool:
        return self.rng.random() < p


# ---------------------------------------------------------------------------
# noun phrases


def nbar(b: Builder):
    """(adj)* noun, right-nested N/N applications."""
    count = b.rng.choice([0, 0, 1, 2])
    adjs = [b.leaf(ADJS, ADJ, "ADJ") for _ in range(count)]
    tree, head = b.leaf(NOUNS, N, "NOUN")
    for adj, k in reversed(adjs):
        tree = fa(adj, tree, N)
        b.arc(k, head, "amod")
    return tree, head


def simple_np(b: Builder):
    if b.chance(0.15):
        noun, head = b.leaf(PLURALS, N, "NOUN")
        return Unary(noun, NP, RuleKind.UNARY_TYPE_CHANGE), head
    return det_np(b)


def det_np(b: Builder):
    det, k = b.leaf(DETS, DET, "DET")
    tree, head = nbar(b)
    b.arc(k, head, "det")
    return fa(det, tree, NP), head


def np(b: Builder, depth: int):
    """An NP with optional PP, relative clause and NP coordination."""
    tree, head = simple_np(b)
    if depth < 2 and b.chance(0.4):
        prep, k = b.leaf(NPREPS, NPREP, "ADP")
        obj, oh = np(b, depth + 1)
        b.arc(k, oh, "case")
        b.arc(oh, head, "nmod")
        tree = ba(tree, fa(prep, obj, NP_MOD), NP)
    if depth < 1 and b.chance(0.3):
        tree = relative(b, tree, head, depth)
    if depth < 1 and b.chance(0.12):
        conj, k = b.leaf(CONJS[:2], CONJ, "CCONJ")
        other, oh = simple_np(b)
        b.arc(k, oh, "cc")
        b.arc(oh, head, "conj")
        tree = ba(tree, Binary(conj, other, C("NP\\NP"), RuleKind.CONJUNCTION),
                  NP)
    return tree, head


def relative(b: Builder, noun_np, head: int, depth: int):
    """Subject or object relative clause attached to ``noun_np``; commas
    around it some of the time."""
    commas = b.chance(0.3)
    if commas:
        comma, k = b.leaf(",", COMMA, "PUNCT")
        b.arc(k, head, "punct")
        noun_np = rpr(noun_np, comma)
    if b.chance(0.5):
        rel, k = b.leaf(RELS, SUBJ_REL, "PRON")
        body, vh = vp(b, depth + 1)
        b.arc(k, vh, "nsubj")
        clause = fa(rel, body, NP_MOD)
    else:
        # a determiner NP: the decoder stacks at most one unary rule, so a
        # bare plural (N => NP) could not also be type-raised here
        rel, k = b.leaf(OBJ_RELS, OBJ_REL, "PRON")
        subj, sh = det_np(b)
        verb, vh = b.leaf(TVS, TV, "VERB")
        b.arc(k, vh, "obj")
        b.arc(sh, vh, "nsubj")
        raised = Unary(subj, RAISED, RuleKind.TYPE_RAISE)
        body = Binary(raised, verb, GAPPED, RuleKind.FORWARD_COMPOSE)
        clause = fa(rel, body, NP_MOD)
    b.arc(vh, head, "acl:relcl")
    tree = ba(noun_np, clause, NP)
    if commas:
        comma, k = b.leaf(",", COMMA, "PUNCT")
        b.arc(k, vh, "punct")
        tree = rpr(tree, comma)
    return tree


# ---------------------------------------------------------------------------
# verb phrases


def bare_vp(b: Builder, depth: int):
    """S[b]\\NP: a bare intransitive or a bare transitive with its object."""
    if b.chance(0.5):
        return b.leaf(BIVS, BIV, "VERB")
    verb, vh = b.leaf(BTVS, BTV, "VERB")
    obj, oh = np(b, depth + 1)
    b.arc(oh, vh, "obj")
    return fa(verb, obj, BIV), vh


def vp_core(b: Builder, depth: int):
    kind = b.rng.choice(["iv", "tv", "tv", "dtv", "aux", "ctrl", "say"]
                        if depth == 0 else ["iv", "tv", "tv", "aux"])
    if kind == "iv":
        return b.leaf(IVS, IV, "VERB")
    if kind == "tv":
        verb, vh = b.leaf(TVS, TV, "VERB")
        obj, oh = np(b, depth + 1)
        b.arc(oh, vh, "obj")
        return fa(verb, obj, IV), vh
    if kind == "dtv":
        verb, vh = b.leaf(DTVS, DTV, "VERB")
        iobj, ih = simple_np(b)
        obj, oh = np(b, depth + 1)
        b.arc(ih, vh, "iobj")
        b.arc(oh, vh, "obj")
        return fa(fa(verb, iobj, TV), obj, IV), vh
    if kind == "aux":
        aux, k = b.leaf(AUXS, AUX, "AUX")
        body, vh = bare_vp(b, depth)
        b.arc(k, vh, "aux")
        return fa(aux, body, IV), vh
    if kind == "ctrl":
        verb, vh = b.leaf(CTRLS, CTRL, "VERB")
        to, k = b.leaf("to", TO, "PART")
        body, bh = bare_vp(b, depth)
        b.arc(k, bh, "mark")
        b.arc(bh, vh, "xcomp")
        return fa(verb, fa(to, body, C("S[to]\\NP")), IV), vh
    verb, vh = b.leaf(SAYS, SAY, "VERB")
    body, ch = clause(b, depth + 1)
    b.arc(ch, vh, "ccomp")
    return fa(verb, body, IV), vh


def vp(b: Builder, depth: int):
    """S[dcl]\\NP with optional VP adverb, VP-attached PP and VP
    coordination."""
    tree, head = vp_core(b, depth)
    if b.chance(0.25):
        adv, k = b.leaf(ADVS, VP_MOD, "ADV")
        b.arc(k, head, "advmod")
        tree = ba(tree, adv, IV)
    if depth < 2 and b.chance(0.3):
        prep, k = b.leaf(VPREPS, VPREP, "ADP")
        obj, oh = np(b, depth + 1)
        b.arc(k, oh, "case")
        b.arc(oh, head, "obl")
        tree = ba(tree, fa(prep, obj, VP_MOD), IV)
    if depth == 0 and b.chance(0.2):
        conj, k = b.leaf(CONJS, CONJ, "CCONJ")
        other, oh = vp_core(b, depth + 1)
        b.arc(k, oh, "cc")
        b.arc(oh, head, "conj")
        tree = ba(tree, Binary(conj, other, C("(S[dcl]\\NP)\\(S[dcl]\\NP)"),
                               RuleKind.CONJUNCTION), IV)
    return tree, head


def clause(b: Builder, depth: int):
    subj, sh = np(b, depth)
    body, vh = vp(b, depth)
    b.arc(sh, vh, "nsubj")
    return ba(subj, body, S), vh


def sentence(b: Builder):
    """Optional sentence adverb, one or two coordinated clauses, a stop."""
    adverb = None
    if b.chance(0.2):
        adv, k = b.leaf(SADVS, SS, "ADV")
        comma, c = b.leaf(",", COMMA, "PUNCT")
        adverb = (rpr(adv, comma), k, c)
    tree, head = clause(b, 0)
    if b.chance(0.35):
        conj, k = b.leaf(CONJS, CONJ, "CCONJ")
        other, oh = clause(b, 1)
        b.arc(k, oh, "cc")
        b.arc(oh, head, "conj")
        tree = ba(tree, Binary(conj, other, C("S[dcl]\\S[dcl]"),
                               RuleKind.CONJUNCTION), S)
    if adverb is not None:
        adv_tree, k, c = adverb
        b.arc(k, head, "advmod")
        b.arc(c, head, "punct")
        tree = fa(adv_tree, tree, S)
    stop, k = b.leaf(".", STOP, "PUNCT")
    b.arc(k, head, "punct")
    b.arc(head, 0, "root")
    return rpr(tree, stop)


# ---------------------------------------------------------------------------


def check_pair(z: DepTree, tree, grammar) -> None:
    """Raise GeneratorError unless ``(z, tree)`` is a valid aligned pair."""
    try:
        z.validate()
    except Exception as exc:  # ConlluError, but any failure is a violation
        raise GeneratorError("dependency tree invalid: %s" % exc)
    problems = validate_tree(tree, grammar)
    if problems:
        raise GeneratorError("derivation invalid: %s" % problems)
    leaves = terminals(tree)
    if [leaf.word for leaf in leaves] != z.tokens:
        raise GeneratorError("leaves %r differ from tokens %r"
                             % ([leaf.word for leaf in leaves], z.tokens))
    extract_headfirst(tree)
    extract_deps(tree)


def generate(seed: int, count: int, grammar=None) -> List[tuple]:
    """``count`` checked (DepTree, derivation) pairs of MIN_LEN..MAX_LEN
    tokens, fully determined by ``seed``."""
    grammar = grammar or default_grammar()
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < count:
        b = Builder(rng)
        tree = sentence(b)
        if not MIN_LEN <= len(b.tokens) <= MAX_LEN:
            continue
        z = DepTree(b.tokens, b.pos, b.heads, b.labels)
        check_pair(z, tree, grammar)
        pairs.append((z, tree))
    return pairs
