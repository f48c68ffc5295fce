"""Property tests over drawn inputs (hypothesis, derandomized so every run
draws the same examples)."""

import copy
import json
import math
import os
import pickle
import string
import struct
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import d2cc
import d2cc.trees as trees
from d2cc import (Atomic, BudgetError, D2ccError, DataError, Functor,
                  NoParseError,
                  ScoreMatrices, Terminal, astar_parse, default_grammar,
                  load_constraint_file, parse_category, print_category,
                  read_auto, read_conllu, read_score_file, validate_tree,
                  write_auto, write_score_file)
from d2cc.categories import FEATURES, PUNCT_NAMES
from d2cc.decoder import DEFAULT_BEAM
from d2cc.grammar import (apply_binary, apply_unary, parse_roots,
                          parse_unary_table)
from d2cc.model import (ModelConfig, build_vocab, configs_from_dict,
                        init_model, load_ext_embeddings, load_model,
                        parse_config_text, save_model)
from d2cc.pas import parse_coindex_table

import oracle

GRAMMAR = default_grammar()
X_GRAMMAR = replace(default_grammar(), x_absorption=True)


def normalized(a):
    return a - oracle._logsumexp_rows(a)


@settings(derandomize=True, database=None, deadline=None, max_examples=500)
@given(words=st.lists(st.text(max_size=6), min_size=2, max_size=2),
       tags=st.lists(st.text(max_size=3), min_size=2, max_size=2))
def test_tokens_written_to_auto_read_back(words, tags):
    """Every word and POS that write_auto accepts reads back unchanged; it
    refuses just those holding a space, a '>' or a line break."""
    left = Terminal(1, words[0], parse_category("NP/N"), tags[0])
    right = Terminal(2, words[1], parse_category("N"), tags[1])
    tree = d2cc.Binary(left, right, parse_category("NP"),
                       d2cc.RuleKind.FORWARD_APPLY)
    unreadable = any(c in " >" or len(("a%sa" % c).splitlines()) > 1
                     for c in "".join(words + tags))
    try:
        text = write_auto([tree])
    except DataError:
        assert unreadable
        return
    assert not unreadable
    assert read_auto(text) == [tree]


@st.composite
def flat_matrices(draw):
    """Row-normalized flat score matrices of 1-7 tokens over the oracle's
    category pool, with the self arc masked as in model output."""
    n = draw(st.integers(1, 7))
    extras = draw(st.lists(st.sampled_from(oracle.EXTRAS), max_size=6,
                           unique=True))
    categories = list(oracle.BACKBONE) + extras
    logits = st.floats(-4.0, 4.0)
    tag = draw(arrays(np.float64, (n, len(categories)), elements=logits))
    dep = draw(arrays(np.float64, (n, n + 1), elements=logits))
    dep[np.arange(n), np.arange(1, n + 1)] = -np.inf
    return ScoreMatrices(["w%d" % i for i in range(1, n + 1)], categories,
                         normalized(tag), normalized(dep))


def beam_pruned(m, beam):
    """``m`` with every supertag the decoder's beam drops set to -inf, so
    the exhaustive chart searches what the beam leaves."""
    if beam is None:
        return m
    tag = m.tag_logp.copy()
    tag[tag < tag.max(axis=1, keepdims=True) - beam] = -np.inf
    return ScoreMatrices(m.tokens, m.categories, tag, m.dep_logp)


@pytest.mark.parametrize("beam", [DEFAULT_BEAM, None],
                         ids=["beam", "no-beam"])
@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(m=flat_matrices())
def test_decoder_score_is_optimal_and_is_its_trees_score(m, beam):
    best, _ = oracle.build_chart(beam_pruned(m, beam), GRAMMAR).best_goal()
    if best == -math.inf:
        with pytest.raises(NoParseError):
            astar_parse(m, GRAMMAR, beam=beam)
        return
    result = astar_parse(m, GRAMMAR, beam=beam)
    assert result.score == pytest.approx(best, abs=1e-9)
    assert oracle.score_tree(result.tree, m) == pytest.approx(
        result.score, abs=1e-9)


def atoms():
    names = st.text(string.ascii_letters, min_size=1, max_size=4)
    featured = st.builds(Atomic, names.filter(lambda name: name != "X"),
                         st.sampled_from(FEATURES))
    return st.one_of(st.builds(Atomic, names),
                     st.builds(Atomic, st.sampled_from(sorted(PUNCT_NAMES))),
                     featured)


categories = st.recursive(
    atoms(), lambda inner: st.builds(Functor, inner, st.sampled_from("/\\"),
                                     inner),
    max_leaves=12)


@settings(derandomize=True, database=None, deadline=None, max_examples=500)
@given(c=categories)
def test_printed_category_parses_back(c):
    assert print_category(c) == oracle.print_category_reference(c)
    assert parse_category(print_category(c)) is c


@st.composite
def seeded_matrices(draw, dummy):
    """``oracle.random_matrices`` from a drawn seed; with ``dummy``, an X
    column joins the categories, so X absorption has something to absorb."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m = oracle.random_matrices(rng, draw(st.integers(2, 6)),
                               draw(st.integers(6, 20)))
    if not dummy:
        return m
    tag = np.hstack([m.tag_logp, rng.normal(size=(len(m), 1)) * 2.0])
    return ScoreMatrices(m.tokens, m.categories + ["X"], normalized(tag),
                         m.dep_logp)


@pytest.mark.parametrize("grammar, dummy", [(GRAMMAR, False),
                                            (X_GRAMMAR, True)],
                         ids=["default", "x-absorption"])
@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(data=st.data())
def test_decoded_tree_survives_auto_round_trip(grammar, dummy, data):
    m = data.draw(seeded_matrices(dummy))
    try:
        tree = astar_parse(m, grammar).tree
    except (NoParseError, BudgetError):
        return
    assert read_auto(write_auto([tree]), grammar) == [tree]


# The oracle's pool with the dummy and punctuation, so the drawn pairs
# reach every kind of rule, absorption included.
POOL = [parse_category(text) for text in
        oracle.BACKBONE + oracle.EXTRAS + ("X", ",", "conj")]
SEEN_GRAMMAR = replace(GRAMMAR, seen_rules=frozenset(
    (left, right) for k, left in enumerate(POOL)
    for right in POOL[k % 3::3]))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(children=st.lists(st.lists(st.one_of(st.sampled_from(POOL),
                                            categories),
                                  min_size=1, max_size=2),
                          min_size=1, max_size=12))
def test_licensing_memo_matches_the_rules(children):
    """Each grammar's memo gives what its rules give now, however the calls
    on three grammars interleave; each grammar keeps a memo of its own."""
    grammars = (GRAMMAR, X_GRAMMAR, SEEN_GRAMMAR)
    for cats in children:
        leaves = [Terminal(k, "w", c) for k, c in enumerate(cats, 1)]
        for grammar in grammars:
            found = trees._licensed(grammar, leaves)
            assert isinstance(found, frozenset)
            if len(cats) == 1:
                assert found == apply_unary(grammar, cats[0])
            else:
                assert found == apply_binary(grammar, *cats)
    memos = [g.__dict__.get("_licensed") for g in grammars]
    assert len({id(memo) for memo in memos}) == 3


def test_licensing_memo_survives_pickle_and_deepcopy():
    grammar = replace(GRAMMAR)
    text = mini_text("mini.auto", range(64))
    gold = read_auto(text, grammar)
    assert grammar.__dict__["_licensed"]
    copied = copy.deepcopy(pickle.loads(pickle.dumps(grammar)))
    assert copied == grammar
    assert copied.__dict__["_licensed"] == grammar.__dict__["_licensed"]
    assert copied.__dict__["_licensed"] is not grammar.__dict__["_licensed"]
    assert read_auto(text, copied) == gold
    assert [validate_tree(t, copied) for t in gold] == [[]] * 64
    assert "_licensed" not in replace(copied).__dict__


XXNP_SCRIPT = """
import json
from dataclasses import replace
import numpy as np
from d2cc import ScoreMatrices, astar_parse, default_grammar
tag = np.log([[0.9, 0.1], [0.9, 0.1], [0.1, 0.9]])
dep = np.full((3, 4), np.log(1 / 3))
dep[[0, 1, 2], [1, 2, 3]] = -np.inf
m = ScoreMatrices(["oh", "hey", "dogs"], ["X", "NP"], tag, dep)
tree = astar_parse(m, replace(default_grammar(), x_absorption=True)).tree
print(json.dumps({"tree": repr(tree), "rule": tree.left.rule.value}))
"""


def test_tie_between_rules_does_not_depend_on_hash_seed():
    """X + X gives X by both absorption rules; every hash seed keeps the
    same one, the rule that ``read_auto`` infers."""
    src = str(Path(d2cc.__file__).resolve().parents[1])
    outputs = []
    for seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", XXNP_SCRIPT], env=env,
                              capture_output=True, text=True, check=True)
        outputs.append(json.loads(done.stdout))
    assert outputs[0] == outputs[1] == outputs[2]
    assert outputs[0]["rule"] == "xal"


def mini_text(name, blocks):
    """Blocks (sentences or ``ID=`` trees) of a mini treebank file."""
    text = (Path(d2cc.__file__).parent / "data" / "mini" / name).read_text(
        encoding="utf-8")
    if name.endswith(".conllu"):
        parts = text.strip().split("\n\n")
        return "\n\n".join(parts[k] for k in blocks) + "\n"
    parts = text.strip().split("ID=")[1:]
    return "".join("ID=" + parts[k] for k in blocks)


def data_text(name):
    return (Path(d2cc.__file__).parent / "data" / name).read_text(
        encoding="utf-8")


SCORE_TEXT = write_score_file(
    [oracle.random_matrices(np.random.default_rng(k), 3, 4) for k in (1, 2)])
CONSTRAINT_TEXT = json.dumps(
    {"1": [{"category": "NP", "start": 1, "end": 2},
           {"category": None, "start": 2, "end": 3}], "2": []})
CONFIG_TEXT = """\
# model
word_dim = 5
seq_dim = 8
seq_layers = 1
unk_buckets = 2
# training
lr = 0.003
beta2 = 0.99
epochs = 150
batch_size = 2
shuffle = false
early_stop_acc = 1.0
"""
CATEGORY_TEXTS = ["(S[dcl]\\NP)/NP", "((S[b]\\NP)/PP)/NP", "N/N", ",",
                  "S[X]\\S[X]"]

# each reader with the text its mutations start from
READERS = {
    "read_conllu": (lambda: mini_text("mini.conllu", (0, 31, 63)),
                    read_conllu),
    "read_auto": (lambda: mini_text("mini.auto", (0, 31, 63)),
                  lambda text: read_auto(text, GRAMMAR)),
    "read_score_file": (lambda: SCORE_TEXT, read_score_file),
    "load_constraint_file": (lambda: CONSTRAINT_TEXT, load_constraint_file),
    "parse_category": (None, parse_category),
    "parse_unary_table": (lambda: data_text("unary.txt"), parse_unary_table),
    "parse_roots": (lambda: data_text("roots.txt"), parse_roots),
    "parse_coindex_table": (lambda: data_text("coindex.txt"),
                            parse_coindex_table),
    "config": (lambda: CONFIG_TEXT,
               lambda text: configs_from_dict(parse_config_text(text))),
}
MUTATION_CHARS = "\t\n ()<>[]{}/\\:,.\"-+0123456789eEnaNXSTLID=_é"


@st.composite
def mutated(draw, text):
    """``text`` after one to four drawn edits, each deleting, doubling or
    replacing a slice of at most 12 characters."""
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 12)))
        edit = draw(st.sampled_from(["delete", "double", "replace"]))
        middle = {"delete": "", "double": text[i:j] * 2}.get(edit)
        if middle is None:
            middle = draw(st.text(MUTATION_CHARS, max_size=4))
        text = text[:i] + middle + text[j:]
    return text


@pytest.mark.parametrize("name", sorted(READERS))
@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(data=st.data())
def test_readers_raise_only_d2cc_errors(name, data):
    source, reader = READERS[name]
    text = source() if source else data.draw(st.sampled_from(CATEGORY_TEXTS))
    try:
        reader(data.draw(mutated(text)))
    except D2ccError:
        pass


def checkpoint_bytes():
    """A tiny model's checkpoint, trained on nothing."""
    blocks = (0, 31, 63)
    pairs = list(zip(read_conllu(mini_text("mini.conllu", blocks)),
                     read_auto(mini_text("mini.auto", blocks), GRAMMAR)))
    config = ModelConfig(word_dim=4, pos_dim=3, label_dim=3, seq_dim=6,
                         seq_layers=1, tree_dim=6, mlp_dim=5, unk_buckets=2)
    model = init_model(build_vocab(pairs, config.unk_buckets), config)
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "m.bin"
        save_model(model, path)
        return path.read_bytes()


CHECKPOINT = checkpoint_bytes()


@st.composite
def mutated_bytes(draw, blob, header=True):
    """``blob`` after one to four edits like those of ``mutated``, each
    drawn anywhere in the file or, for a checkpoint (``header``), inside
    its JSON header."""
    ends = [len(blob)]
    if header:
        ends.insert(0, 12 + struct.unpack("<I", blob[8:12])[0])
    for _ in range(draw(st.integers(1, 4))):
        end = min(len(blob), draw(st.sampled_from(ends)))
        i = draw(st.integers(0, end))
        j = draw(st.integers(i, min(len(blob), i + 12)))
        edit = draw(st.sampled_from(["delete", "double", "replace"]))
        middle = {"delete": b"", "double": blob[i:j] * 2}.get(edit)
        if middle is None:
            middle = draw(st.one_of(
                st.binary(max_size=4),
                st.text(MUTATION_CHARS, max_size=4).map(str.encode)))
        blob = blob[:i] + middle + blob[j:]
    return blob


JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 50), st.floats(-2.0, 50.0),
    st.text(MUTATION_CHARS, max_size=4), st.text(max_size=4),
    st.lists(st.integers(0, 50), max_size=3), st.just({}))


def with_header(blob, edit):
    """``blob`` with its JSON header replaced by what ``edit`` makes of
    the parsed header."""
    header_end = 12 + struct.unpack("<I", blob[8:12])[0]
    header = edit(json.loads(blob[12:header_end]))
    text = json.dumps(header, sort_keys=True).encode("utf-8")
    return (blob[:8] + struct.pack("<I", len(text)) + text
            + blob[header_end:])


@st.composite
def header_edited(draw, blob):
    """``blob`` with one value of its JSON header, at any depth, replaced
    by a drawn JSON value of any type."""
    def edit(header):
        node = header
        while True:
            keys = sorted(node) if isinstance(node, dict) else range(len(node))
            key = draw(st.sampled_from(keys))
            child = node[key]
            if not (isinstance(child, (dict, list)) and child) \
                    or draw(st.booleans()):
                break
            node = child
        node[key] = draw(JSON_VALUES)
        return header

    return with_header(blob, edit)


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(data=st.data())
def test_mutated_checkpoint_loads_or_raises_a_data_error(data):
    # a file the header names but that cannot be read is a DataError too
    blob = data.draw(st.one_of(mutated_bytes(CHECKPOINT),
                               header_edited(CHECKPOINT)))
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "m.bin"
        path.write_bytes(blob)
        try:
            load_model(path)
        except DataError:
            pass


EMBEDDINGS = "the 0.5 -1.25 3e-2\ncat 1 2 3\n\ndog -0.0 1e3 7\n".encode("utf-8")


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(blob=mutated_bytes(EMBEDDINGS, header=False))
def test_mutated_embeddings_load_or_raise_a_data_error(blob):
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "vectors.txt"
        path.write_bytes(blob)
        try:
            load_ext_embeddings(path)
        except DataError:
            pass


@pytest.mark.parametrize("name", ["a\0b", "\ud800"])
def test_checkpoint_naming_an_impossible_embeddings_file(name, tmp_path):
    def edit(header):
        header["config"]["ext_embeddings"] = name
        return header

    path = tmp_path / "m.bin"
    path.write_bytes(with_header(CHECKPOINT, edit))
    with pytest.raises(DataError, match="cannot read embeddings"):
        load_model(path)
