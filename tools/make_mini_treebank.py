#!/usr/bin/env python3
"""Generate the shipped synthetic aligned mini-treebank.

Usage: python3 tools/make_mini_treebank.py [OUT_DIR]

Builds 64 English toy sentences from eight templates, each paired with
a UD-style dependency tree (CoNLL-U) and a CCG derivation (AUTO) that
validates under the default grammar, and writes ``mini.conllu`` and
``mini.auto`` into OUT_DIR (default ``src/d2cc/data/mini``).  Word choices
cycle through small pools deterministically, so reruns are byte-identical.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from d2cc.categories import parse_category
from d2cc.grammar import RuleKind, default_grammar
from d2cc.pas import extract_deps
from d2cc.trees import (Binary, DepTree, Terminal, Unary, extract_headfirst,
                        read_auto, read_conllu, terminals, validate_tree,
                        write_auto, write_conllu)

DET = parse_category("NP/N")
NOUN = parse_category("N")
ADJ = parse_category("N/N")
NP = parse_category("NP")
IV = parse_category("S[dcl]\\NP")
TV = parse_category("(S[dcl]\\NP)/NP")
PREP = parse_category("(NP\\NP)/NP")
CONJ = parse_category("conj")
COMMA = parse_category(",")
STOP = parse_category(".")
S = parse_category("S[dcl]")
VP_MOD = parse_category("S[dcl]\\S[dcl]")
NP_MOD = parse_category("NP\\NP")

DETS = ["the", "a", "every", "some"]
NOUNS = ["dog", "cat", "fox", "bird", "house", "tree", "man", "woman",
         "park", "book"]
PLURALS = ["dogs", "cats", "foxes", "birds"]
ADJS = ["big", "small", "old", "red"]
IVS = ["barks", "sleeps", "runs", "sings"]
IV_PLS = ["bark", "sleep", "run"]
TVS = ["sees", "likes", "chases", "finds"]
PREPS = ["near", "behind"]
CONJS = ["and", "or"]


class Builder:
    """Assigns 1-based indices to terminals in left-to-right order."""

    def __init__(self):
        self.k = 0
        self.tokens = []
        self.pos = []

    def leaf(self, word, category, pos):
        self.k += 1
        self.tokens.append(word)
        self.pos.append(pos)
        return Terminal(self.k, word, category, pos)


def fa(l, r, cat):
    return Binary(l, r, cat, RuleKind.FORWARD_APPLY)


def ba(l, r, cat):
    return Binary(l, r, cat, RuleKind.BACKWARD_APPLY)


def rpr(l, r):
    return Binary(l, r, l.category, RuleKind.REMOVE_PUNCT_RIGHT)


def t1(i):
    """det noun iv . (e.g. 'the dog barks .')"""
    b = Builder()
    d = b.leaf(DETS[i % 4], DET, "DET")
    n = b.leaf(NOUNS[i % 10], NOUN, "NOUN")
    v = b.leaf(IVS[i % 4], IV, "VERB")
    p = b.leaf(".", STOP, "PUNCT")
    tree = rpr(ba(fa(d, n, NP), v, S), p)
    z = DepTree(b.tokens, b.pos, [2, 3, 0, 3],
                ["det", "nsubj", "root", "punct"])
    return z, tree


def t2(i):
    """det noun tv det noun . (e.g. 'the dog sees a cat .')"""
    b = Builder()
    d1 = b.leaf(DETS[i % 4], DET, "DET")
    n1 = b.leaf(NOUNS[i % 10], NOUN, "NOUN")
    v = b.leaf(TVS[i % 4], TV, "VERB")
    d2 = b.leaf(DETS[(i + 1) % 4], DET, "DET")
    n2 = b.leaf(NOUNS[(i + 3) % 10], NOUN, "NOUN")
    p = b.leaf(".", STOP, "PUNCT")
    tree = rpr(ba(fa(d1, n1, NP), fa(v, fa(d2, n2, NP), IV), S), p)
    z = DepTree(b.tokens, b.pos, [2, 3, 0, 5, 3, 3],
                ["det", "nsubj", "root", "det", "obj", "punct"])
    return z, tree


def t3(i):
    """det adj noun iv . (e.g. 'the big dog sleeps .')"""
    b = Builder()
    d = b.leaf(DETS[i % 4], DET, "DET")
    a = b.leaf(ADJS[i % 4], ADJ, "ADJ")
    n = b.leaf(NOUNS[(i + 5) % 10], NOUN, "NOUN")
    v = b.leaf(IVS[(i + 2) % 4], IV, "VERB")
    p = b.leaf(".", STOP, "PUNCT")
    tree = rpr(ba(fa(d, fa(a, n, NOUN), NP), v, S), p)
    z = DepTree(b.tokens, b.pos, [3, 3, 4, 0, 4],
                ["det", "amod", "nsubj", "root", "punct"])
    return z, tree


def t4(i):
    """det noun prep det noun iv . ('the dog near the house barks .')"""
    b = Builder()
    d1 = b.leaf(DETS[i % 4], DET, "DET")
    n1 = b.leaf(NOUNS[i % 10], NOUN, "NOUN")
    pr = b.leaf(PREPS[i % 2], PREP, "ADP")
    d2 = b.leaf(DETS[(i + 2) % 4], DET, "DET")
    n2 = b.leaf(NOUNS[(i + 4) % 10], NOUN, "NOUN")
    v = b.leaf(IVS[i % 4], IV, "VERB")
    p = b.leaf(".", STOP, "PUNCT")
    subj = ba(fa(d1, n1, NP), fa(pr, fa(d2, n2, NP), NP_MOD), NP)
    tree = rpr(ba(subj, v, S), p)
    z = DepTree(b.tokens, b.pos, [2, 6, 5, 5, 2, 0, 6],
                ["det", "nsubj", "case", "det", "nmod", "root", "punct"])
    return z, tree


def t5(i):
    """det noun tv det adj noun . ('a cat chases the small bird .')"""
    b = Builder()
    d1 = b.leaf(DETS[(i + 1) % 4], DET, "DET")
    n1 = b.leaf(NOUNS[(i + 1) % 10], NOUN, "NOUN")
    v = b.leaf(TVS[(i + 2) % 4], TV, "VERB")
    d2 = b.leaf(DETS[i % 4], DET, "DET")
    a = b.leaf(ADJS[(i + 1) % 4], ADJ, "ADJ")
    n2 = b.leaf(NOUNS[(i + 6) % 10], NOUN, "NOUN")
    p = b.leaf(".", STOP, "PUNCT")
    obj = fa(d2, fa(a, n2, NOUN), NP)
    tree = rpr(ba(fa(d1, n1, NP), fa(v, obj, IV), S), p)
    z = DepTree(b.tokens, b.pos, [2, 3, 0, 6, 6, 3, 3],
                ["det", "nsubj", "root", "det", "amod", "obj", "punct"])
    return z, tree


def t6(i):
    """plural-noun iv . ('dogs bark .'), subject via the N -> NP rule"""
    b = Builder()
    n = b.leaf(PLURALS[i % 4], NOUN, "NOUN")
    v = b.leaf(IV_PLS[i % 3], IV, "VERB")
    p = b.leaf(".", STOP, "PUNCT")
    subj = Unary(n, NP, RuleKind.UNARY_TYPE_CHANGE)
    tree = rpr(ba(subj, v, S), p)
    z = DepTree(b.tokens, b.pos, [2, 0, 2], ["nsubj", "root", "punct"])
    return z, tree


def t7(i):
    """S conj S . ('the dog barks and a cat sleeps .')"""
    b = Builder()
    d1 = b.leaf(DETS[i % 4], DET, "DET")
    n1 = b.leaf(NOUNS[(i + 2) % 10], NOUN, "NOUN")
    v1 = b.leaf(IVS[i % 4], IV, "VERB")
    c = b.leaf(CONJS[i % 2], CONJ, "CCONJ")
    d2 = b.leaf(DETS[(i + 3) % 4], DET, "DET")
    n2 = b.leaf(NOUNS[(i + 7) % 10], NOUN, "NOUN")
    v2 = b.leaf(IVS[(i + 1) % 4], IV, "VERB")
    p = b.leaf(".", STOP, "PUNCT")
    s1 = ba(fa(d1, n1, NP), v1, S)
    s2 = ba(fa(d2, n2, NP), v2, S)
    coord = Binary(c, s2, VP_MOD, RuleKind.CONJUNCTION)
    tree = rpr(ba(s1, coord, S), p)
    z = DepTree(b.tokens, b.pos, [2, 3, 0, 7, 6, 7, 3, 3],
                ["det", "nsubj", "root", "cc", "det", "nsubj", "conj",
                 "punct"])
    return z, tree


def t8(i):
    """det noun . fragment ('the park .'), NP root"""
    b = Builder()
    d = b.leaf(DETS[(i + 2) % 4], DET, "DET")
    n = b.leaf(NOUNS[(i + 8) % 10], NOUN, "NOUN")
    p = b.leaf(".", STOP, "PUNCT")
    tree = rpr(fa(d, n, NP), p)
    z = DepTree(b.tokens, b.pos, [2, 0, 2], ["det", "root", "punct"])
    return z, tree


TEMPLATES = [(t1, 8), (t2, 12), (t3, 8), (t4, 10), (t5, 8), (t6, 6),
             (t7, 8), (t8, 4)]


def main(argv):
    grammar = default_grammar()
    pairs = []
    for template, count in TEMPLATES:
        for i in range(count):
            z, tree = template(i)
            z.validate(len(pairs) + 1)
            problems = validate_tree(tree, grammar)
            assert not problems, (template.__name__, i, problems)
            assert len(terminals(tree)) == len(z)
            extract_headfirst(tree)
            extract_deps(tree)
            pairs.append((z, tree))
    assert len(pairs) == 64, len(pairs)
    sents = [tuple(z.tokens) for z, _ in pairs]
    assert len(set(sents)) == 64, "duplicate sentences"
    assert max(len(z) for z, _ in pairs) <= 8

    cats = {str(leaf.category) for _, t in pairs for leaf in terminals(t)}
    print("categories (%d): %s" % (len(cats), sorted(cats)))

    out = Path(argv[0]) if argv else ROOT / "src" / "d2cc" / "data" / "mini"
    out.mkdir(parents=True, exist_ok=True)
    conllu_text = write_conllu([z for z, _ in pairs])
    auto_text = write_auto([t for _, t in pairs])
    (out / "mini.conllu").write_text(conllu_text, encoding="utf-8")
    (out / "mini.auto").write_text(auto_text, encoding="utf-8")

    # round-trip checks
    back_z = read_conllu(conllu_text)
    back_t = read_auto(auto_text, grammar)
    assert len(back_z) == len(back_t) == 64
    for (z, t), bz, bt in zip(pairs, back_z, back_t):
        assert bz == z, z.tokens
        assert bt == t, z.tokens
    assert write_auto(back_t) == auto_text
    print("wrote %s (64 sentences) and matching AUTO" % (out / "mini.conllu"))


if __name__ == "__main__":
    main(sys.argv[1:])
