"""The long-sentence generator: determinism, validity and abort."""

import pytest

import longbank
from d2cc.grammar import default_grammar
from d2cc.trees import (read_auto, read_conllu, terminals, validate_tree,
                        write_auto, write_conllu)


def _texts(seed, count):
    pairs = longbank.generate(seed, count)
    return (write_conllu([z for z, _ in pairs]),
            write_auto([t for _, t in pairs]))


def test_same_seed_same_bytes():
    assert _texts(7, 12) == _texts(7, 12)
    assert _texts(7, 12) != _texts(8, 12)


def test_generated_pairs_are_valid_and_long():
    grammar = default_grammar()
    conllu, auto = _texts(3, 40)
    sentences = read_conllu(conllu)
    trees = read_auto(auto, grammar)
    assert len(sentences) == len(trees) == 40
    lengths = [len(z) for z in sentences]
    assert min(lengths) >= longbank.MIN_LEN
    assert max(lengths) <= longbank.MAX_LEN
    assert 20 <= sum(lengths) / len(lengths) <= 28
    categories = set()
    for z, tree in zip(sentences, trees):
        assert validate_tree(tree, grammar) == []
        assert [leaf.word for leaf in terminals(tree)] == z.tokens
        categories |= {str(leaf.category) for leaf in terminals(tree)}
    assert len(categories) >= 16  # the mini treebank has 8


def test_generation_aborts_on_first_violation(monkeypatch):
    original = longbank.det_np

    def broken(b):
        tree, head = original(b)
        return longbank.fa(tree, tree, longbank.S), head  # NP NP => S

    monkeypatch.setattr(longbank, "det_np", broken)
    with pytest.raises(longbank.GeneratorError):
        longbank.generate(1, 5)
