"""The trainable scorer: vocabulary, encoding, score heads, loss/gradients,
training loop, and checkpoints."""

import ast
import dataclasses
import json
import math
import re
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import d2cc
from d2cc import (AlignmentError, CheckpointError, DataError, DepTree,
                  TrainingError, VocabularyError)
from d2cc.config import read_bytes, read_text
from d2cc.model import (
    AdamState,
    ModelConfig,
    TrainConfig,
    Vocabulary,
    build_vocab,
    configs_from_dict,
    encode,
    encode_batch,
    grad_check,
    init_model,
    load_ext_embeddings,
    load_model,
    loss_value,
    nll_loss,
    param_shapes,
    parse_config_text,
    save_model,
    score_dep,
    score_sentence,
    score_tag,
    train,
    tree_targets,
)
from d2cc.model.network import _encode, _sigmoid
from d2cc import (
    Binary,
    RuleKind,
    Terminal,
    Unary,
    check_normalized,
    default_grammar,
    parse_category,
    read_auto,
    read_conllu,
)

C = parse_category

FIXTURES = Path(__file__).parent / "fixtures"

TINY = ModelConfig(word_dim=4, pos_dim=3, label_dim=3, seq_dim=6,
                   seq_layers=2, tree_dim=6, mlp_dim=5, unk_buckets=2)


def toy_pair(words, pos, heads, labels, tree):
    return DepTree(list(words), list(pos), list(heads), list(labels)), tree


def np_tree(words=("the", "cat", "sleeps")):
    the = Terminal(1, words[0], C("NP/N"), "DET")
    cat = Terminal(2, words[1], C("N"), "NOUN")
    sleeps = Terminal(3, words[2], C("S[dcl]\\NP"), "VERB")
    np_node = Binary(the, cat, C("NP"), RuleKind.FORWARD_APPLY)
    return Binary(np_node, sleeps, C("S[dcl]"), RuleKind.BACKWARD_APPLY)


def toy_dataset():
    pairs = []
    for words in [("the", "cat", "sleeps"), ("a", "dog", "runs"),
                  ("the", "dog", "sleeps"), ("a", "cat", "runs")]:
        z = DepTree(list(words), ["DET", "NOUN", "VERB"], [2, 3, 0],
                    ["det", "nsubj", "root"])
        pairs.append((z, np_tree(words)))
    return pairs


def tiny_model(pairs=None, seed=0):
    pairs = pairs or toy_dataset()
    vocab = build_vocab(pairs, unk_buckets=TINY.unk_buckets)
    return init_model(vocab, TINY, seed=seed)


class TestVocabulary:
    def test_build_sorted_and_reserved(self):
        vocab = build_vocab(toy_dataset())
        assert vocab.words == ("a", "cat", "dog", "runs", "sleeps", "the")
        assert vocab.pos[0] == "<unk>"
        assert vocab.labels[0] == "<unk>"
        assert list(vocab.pos[1:]) == sorted(vocab.pos[1:])
        assert vocab.categories == ("N", "NP/N", "S[dcl]\\NP")

    def test_word_unk_buckets_stable(self):
        vocab = build_vocab(toy_dataset(), unk_buckets=4)
        known = vocab.word_id("cat")
        assert known == vocab.words.index("cat")
        b1 = vocab.word_id("zyzzyva")
        b2 = vocab.word_id("zyzzyva")
        assert b1 == b2
        assert len(vocab.words) <= b1 < len(vocab.words) + 4
        assert vocab.word_rows == len(vocab.words) + 4

    def test_pos_label_fall_back_to_reserved_row(self):
        vocab = build_vocab(toy_dataset())
        assert vocab.pos_id("NEVERSEEN") == 0
        assert vocab.label_id("NEVERSEEN") == 0

    def test_category_closed(self):
        vocab = build_vocab(toy_dataset())
        assert vocab.category_id("N") == 0
        with pytest.raises(VocabularyError, match="PP"):
            vocab.category_id("PP")

    def test_too_few_categories(self):
        z = DepTree(["hi"], ["X"], [0], ["root"])
        t = Terminal(1, "hi", C("NP"), "X")
        with pytest.raises(DataError, match="at least 2"):
            build_vocab([(z, t)])

    def test_ext_embeddings(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("cat 1.0 2.0\ndog 3.0 4.0\n")
        table, dim = load_ext_embeddings(path)
        assert dim == 2
        np.testing.assert_array_equal(table["cat"], [1.0, 2.0])

    def test_ext_embeddings_ragged(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("cat 1.0 2.0\ndog 3.0\n")
        with pytest.raises(DataError, match="expected 2 values"):
            load_ext_embeddings(path)

    def test_ext_embeddings_empty(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("")
        with pytest.raises(DataError, match="empty"):
            load_ext_embeddings(path)

    @pytest.mark.parametrize("line, message", [
        ("dog 1.0 abc", "vectors.txt:2: could not convert"),
        ("dog", "vectors.txt:2: word 'dog' has no values"),
    ])
    def test_ext_embeddings_malformed(self, tmp_path, line, message):
        path = tmp_path / "vectors.txt"
        path.write_text("cat 1.0 2.0\n%s\n" % line)
        with pytest.raises(DataError, match=message):
            load_ext_embeddings(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_ext_embeddings_non_finite(self, tmp_path, value):
        path = tmp_path / "vectors.txt"
        path.write_text("cat 1.0 2.0\ndog %s 1.0\n" % value)
        with pytest.raises(DataError, match="vectors.txt:2: .*non-finite"):
            load_ext_embeddings(path)


class TestConfig:
    def test_defaults(self):
        cfg = ModelConfig()
        assert (cfg.word_dim, cfg.pos_dim, cfg.label_dim) == (64, 50, 50)
        assert (cfg.seq_dim, cfg.seq_layers, cfg.tree_dim, cfg.mlp_dim) \
            == (300, 2, 300, 100)
        tc = TrainConfig()
        assert (tc.lr, tc.beta1, tc.beta2) == (1e-3, 0.9, 0.9)
        assert (tc.epochs, tc.batch_size) == (200, 8)

    def test_parse_and_convert(self):
        values = parse_config_text(
            "word_dim = 8  # comment\n\nepochs=3\nshuffle = no\n")
        model_cfg, train_cfg = configs_from_dict(values)
        assert model_cfg.word_dim == 8
        assert train_cfg.epochs == 3
        assert train_cfg.shuffle is False

    def test_unknown_key(self):
        with pytest.raises(DataError, match="unknown"):
            configs_from_dict({"word_dmi": "8"})

    def test_bad_value(self):
        with pytest.raises(DataError, match="epochs"):
            configs_from_dict({"epochs": "many"})

    def test_bad_line(self):
        with pytest.raises(DataError, match="key=value"):
            parse_config_text("word_dim 8\n")


# the only functions of ``src/d2cc`` that open a file, and so the only
# ones that turn an OSError into a DataError (``data_text`` reads a file
# shipped in the package and maps nothing; ``cli._leave_parent_cpu``
# reads which CPU a worker is on from /proc and ignores an OSError)
OPENERS = {"config.read_text", "config.read_bytes", "config.data_text",
           "checkpoint.save_model", "cli._output_stream",
           "cli._leave_parent_cpu"}
FILE_CALLS = {"open", "read_text", "read_bytes", "write_text", "write_bytes"}


def _file_boundary(node, where, opens, catches):
    """Add to ``opens`` each function under ``node`` that calls ``open(``
    or a ``.open(``, ``.read_text(``, ``.read_bytes(``, ``.write_text(`` or
    ``.write_bytes(`` method, and to ``catches`` each one that catches
    OSError."""
    for child in ast.iter_child_nodes(node):
        inner = where
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            inner = "%s.%s" % (where, child.name)
        elif isinstance(child, ast.Call):
            func = child.func
            if (isinstance(func, ast.Name) and func.id == "open") or (
                    isinstance(func, ast.Attribute)
                    and func.attr in FILE_CALLS):
                opens.add(where)
        elif isinstance(child, ast.ExceptHandler) and child.type is not None \
                and "OSError" in ast.unparse(child.type):
            catches.add(where)
        _file_boundary(child, inner, opens, catches)


class TestFileBoundary:
    """Library functions, not only commands, report a file they cannot
    read or write as a DataError naming it."""

    @pytest.mark.parametrize("reader", [read_text, read_bytes, load_model])
    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_path(self, tmp_path, reader, kind):
        path = tmp_path / "input"
        if kind == "directory":
            path.mkdir()
        with pytest.raises(DataError,
                           match="cannot read " + re.escape(str(path))):
            reader(path)

    def test_save_into_a_missing_directory(self, tmp_path):
        path = tmp_path / "missing" / "model.bin"
        with pytest.raises(DataError,
                           match="cannot write " + re.escape(str(path))):
            save_model(tiny_model(), path)

    def test_only_the_boundary_opens_files(self):
        opens, catches = set(), set()
        for path in sorted(Path(d2cc.__file__).parent.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            _file_boundary(tree, path.stem, opens, catches)
        assert opens == OPENERS
        assert catches == OPENERS - {"config.data_text"}


class TestShapesAndInit:
    def test_param_inventory(self):
        vocab = build_vocab(toy_dataset(), unk_buckets=TINY.unk_buckets)
        shapes = param_shapes(TINY, vocab)
        t, m = TINY.tree_dim, TINY.mlp_dim
        dt = TINY.seq_dim + TINY.label_dim
        assert shapes["emb_word"] == (vocab.word_rows, TINY.word_dim)
        assert shapes["emb_pos"] == (len(vocab.pos), TINY.pos_dim)
        assert shapes["emb_label"] == (len(vocab.labels), TINY.label_dim)
        assert shapes["up_W"] == (4 * t, dt)
        assert shapes["up_U"] == (3 * t, t)
        assert shapes["up_Uf"] == (t, t)
        assert shapes["down_W"] == (4 * t, dt)
        assert shapes["down_U"] == (4 * t, t)
        assert shapes["root_h"] == (2 * t,)
        assert shapes["biaff_W"] == (m, m)
        assert shapes["biaff_w"] == (m,)
        ncat = len(vocab.categories)
        assert shapes["bil_W"] == (ncat, m, m)
        assert shapes["bil_b"] == (ncat,)
        for side in ("dep", "tag"):
            for role in ("child", "head"):
                assert shapes["mlp_%s_%s_W" % (side, role)] == (m, 2 * t)
        # two layers, two directions
        half = TINY.seq_dim // 2
        d0 = TINY.pos_dim + TINY.word_dim
        assert shapes["seq0_f_W"] == (4 * half, d0 + half)
        assert shapes["seq1_f_W"] == (4 * half, TINY.seq_dim + half)

    def test_init_deterministic_and_biases_zero(self):
        m1 = tiny_model(seed=7)
        m2 = tiny_model(seed=7)
        m3 = tiny_model(seed=8)
        for name in m1.params:
            np.testing.assert_array_equal(m1.params[name], m2.params[name])
        assert any(not np.array_equal(m1.params[n], m3.params[n])
                   for n in m1.params)
        for name in ("up_b", "down_b", "bil_b",
                     "mlp_dep_child_b", "seq0_f_b"):
            assert not m1.params[name].any()


class TestSigmoid:
    """The one sigmoid of every gate, against the logaddexp form."""

    GRID = np.linspace(-800.0, 800.0, 200_001)
    EDGES = np.array([0.0, -0.0, np.inf, -np.inf, 1e-300, -1e-300,
                      1.7e308, -1.7e308])

    def test_matches_logaddexp_form(self):
        x = np.concatenate([self.GRID, self.EDGES])
        with np.errstate(under="ignore"):
            old = np.exp(-np.logaddexp(0.0, -x))
        assert np.abs(_sigmoid(x) - old).max() <= 2.0 ** -53

    def test_range_and_order(self):
        values = _sigmoid(np.concatenate([self.GRID, self.EDGES]))
        assert ((values >= 0.0) & (values <= 1.0)).all()
        assert (np.diff(_sigmoid(self.GRID)) >= 0.0).all()
        assert (_sigmoid(np.array([0.0, -0.0])) == 0.5).all()
        assert np.isnan(_sigmoid(np.array([np.nan]))).all()

    def test_raises_no_floating_point_error(self):
        with np.errstate(all="raise"):
            _sigmoid(np.concatenate([self.GRID, self.EDGES]))

    def test_bits_of_the_tanh_form_and_input_unchanged(self):
        x = np.concatenate([self.GRID, self.EDGES])
        before = x.copy()
        expect = 0.5 * np.tanh(0.5 * x) + 0.5
        assert (_sigmoid(x).view(np.uint64) == expect.view(np.uint64)).all()
        assert (x.view(np.uint64) == before.view(np.uint64)).all()


class TestEncode:
    def test_shape(self):
        model = tiny_model()
        z = toy_dataset()[0][0]
        h = encode(model, z)
        assert h.shape == (3, 2 * TINY.tree_dim)

    def test_single_token(self):
        model = tiny_model()
        z = DepTree(["cat"], ["NOUN"], [0], ["root"])
        h = encode(model, z)
        assert h.shape == (1, 2 * TINY.tree_dim)
        assert np.all(np.isfinite(h))

    def test_up_half_ignores_tokens_outside_subtree(self):
        # label embeddings feed only the tree stage, so perturbing the
        # label of a token outside node i's subtree must leave h_i (up
        # half) unchanged.  Tree: 1 <- {2, 3}, 3 <- 4; token 4 is outside
        # token 2's subtree.
        pairs = [(DepTree(["a", "b", "c", "d"], ["P1", "P2", "P3", "P4"],
                          [0, 1, 1, 3], ["l1", "l2", "l3", "l4"]),
                  np_tree())]
        vocab = build_vocab(toy_dataset() + pairs,
                            unk_buckets=TINY.unk_buckets)
        model = init_model(vocab, TINY, seed=3)
        z = pairs[0][0]
        t = TINY.tree_dim
        base = encode(model, z)
        row = model.vocab.label_id("l4")
        model.params["emb_label"][row] += 0.75
        bumped = encode(model, z)
        np.testing.assert_array_equal(base[1, :t], bumped[1, :t])
        # sanity: the perturbation did move token 4's own state
        assert not np.array_equal(base[3, :t], bumped[3, :t])

    def test_down_half_ignores_tokens_off_root_path(self):
        # root path of token 2 is {1, 2}; tokens 3 and 4 are off it
        pairs = [(DepTree(["a", "b", "c", "d"], ["P1", "P2", "P3", "P4"],
                          [0, 1, 1, 3], ["l1", "l2", "l3", "l4"]),
                  np_tree())]
        vocab = build_vocab(toy_dataset() + pairs,
                            unk_buckets=TINY.unk_buckets)
        model = init_model(vocab, TINY, seed=3)
        z = pairs[0][0]
        t = TINY.tree_dim
        base = encode(model, z)
        row = model.vocab.label_id("l3")
        model.params["emb_label"][row] += 0.75
        bumped = encode(model, z)
        np.testing.assert_array_equal(base[1, t:], bumped[1, t:])
        # the root path itself does influence the down half
        row1 = model.vocab.label_id("l1")
        model.params["emb_label"][row1] += 0.75
        moved = encode(model, z)
        assert not np.array_equal(base[1, t:], moved[1, t:])

    def test_forest_rejected(self):
        model = tiny_model()
        z = DepTree(["a", "b", "c"], ["X", "X", "X"], [2, 1, 2],
                    ["l", "l", "l"])
        with pytest.raises(Exception, match="forest"):
            encode(model, z)


class TestScoreDep:
    def test_rows_normalized(self):
        model = tiny_model()
        z = toy_dataset()[0][0]
        dep = score_dep(model, encode(model, z))
        lse = np.logaddexp.reduce(dep, axis=1)
        np.testing.assert_allclose(lse, 0.0, atol=1e-9)

    def test_self_arc_masked(self):
        model = tiny_model()
        z = toy_dataset()[0][0]
        dep = score_dep(model, encode(model, z))
        for t in range(1, 4):
            assert dep[t - 1, t] == -np.inf

    def test_single_token_all_mass_on_root(self):
        model = tiny_model()
        z = DepTree(["cat"], ["NOUN"], [0], ["root"])
        dep = score_dep(model, encode(model, z))
        assert dep.shape == (1, 2)
        assert dep[0, 0] == 0.0
        assert dep[0, 1] == -np.inf

    def test_biaffine_closed_form(self):
        # with W = 0 and w = e_k the unnormalized score is coordinate k of
        # the head-side representation, identical for every child row
        model = tiny_model(seed=11)
        model.params["biaff_W"][:] = 0.0
        model.params["biaff_w"][:] = 0.0
        k = 2
        model.params["biaff_w"][k] = 1.0
        z = toy_dataset()[0][0]
        h = encode(model, z)
        hall = np.vstack([model.params["root_h"][None, :], h])
        a = hall @ model.params["mlp_dep_head_W"].T \
            + model.params["mlp_dep_head_b"]
        rh = np.where(a > 0, a, np.expm1(a))
        logits = np.tile(rh[:, k], (3, 1))
        for t in range(1, 4):
            logits[t - 1, t] = -np.inf
        hi = np.max(logits, axis=1, keepdims=True)
        expect = logits - hi - np.log(
            np.sum(np.exp(logits - hi), axis=1, keepdims=True))
        np.testing.assert_allclose(score_dep(model, h), expect, atol=1e-12)


class TestScoreTag:
    def test_rows_normalized(self):
        model = tiny_model()
        z = toy_dataset()[0][0]
        h = encode(model, z)
        tag = score_tag(model, h, score_dep(model, h))
        lse = np.logaddexp.reduce(tag, axis=1)
        np.testing.assert_allclose(lse, 0.0, atol=1e-9)

    def test_degenerate_parameters_give_bias_softmax(self):
        model = tiny_model(seed=5)
        model.params["bil_W"][:] = 0.0
        model.params["bil_v"][:] = 0.0
        model.params["bil_u"][:] = 0.0
        b = np.array([0.3, -0.2, 0.9])
        model.params["bil_b"][:] = b
        z = toy_dataset()[0][0]
        h = encode(model, z)
        tag = score_tag(model, h, score_dep(model, h))
        expect = b - np.logaddexp.reduce(b)
        for row in tag:
            np.testing.assert_allclose(row, expect, atol=1e-12)

    def test_argmax_tie_breaks_low(self):
        model = tiny_model(seed=9)
        z = toy_dataset()[0][0]
        h = encode(model, z)
        tied = np.full((3, 4), math.log(1.0 / 3.0))
        for t in range(1, 4):
            tied[t - 1, t] = -np.inf
        # every row ties across its finite columns; the lowest index (0)
        # must win, i.e. output equals the explicit override at 0
        got = score_tag(model, h, tied)
        np.testing.assert_array_equal(
            got, score_tag(model, h, tied, dhat_override=[0, 0, 0]))
        other = score_tag(model, h, tied, dhat_override=[3, 3, 2])
        assert not np.array_equal(got, other)


class TestScoreSentence:
    def test_matrices_well_formed(self):
        model = tiny_model()
        for z, _ in toy_dataset():
            m = score_sentence(model, z)
            assert check_normalized(m) is None
            assert m.tokens == z.tokens
            assert list(m.categories) == list(model.vocab.categories)

    def test_empty_sentence(self):
        model = tiny_model()
        m = score_sentence(model, DepTree([], [], [], []))
        assert m.tag_logp.shape == (0, len(model.vocab.categories))
        assert m.dep_logp.shape == (0, 1)

    def test_unknown_symbols_still_score(self):
        model = tiny_model()
        z = DepTree(["qqq", "zzz"], ["NOPE", "NOPE"], [0, 1],
                    ["mystery", "mystery"])
        assert check_normalized(score_sentence(model, z)) is None


def mini_treebank():
    data = resources.files("d2cc").joinpath("data/mini")
    sentences = read_conllu(data.joinpath("mini.conllu").read_text(
        encoding="utf-8"))
    trees = read_auto(data.joinpath("mini.auto").read_text(encoding="utf-8"),
                      default_grammar())
    return list(zip(sentences, trees))


def golden_scores():
    """Score matrices of a seeded TINY model over the mini treebank: the
    tag rows of every sentence stacked, and every head matrix flattened
    and concatenated.

    ``tests/fixtures/golden_scores.npz`` holds these arrays as computed by
    the per-node scorer that the level-batched one replaced, written with
    ``np.savez_compressed(path, **golden_scores())``.
    """
    pairs = mini_treebank()
    vocab = build_vocab(pairs, unk_buckets=TINY.unk_buckets)
    model = init_model(vocab, TINY, seed=17)
    scores = [score_sentence(model, z) for z, _ in pairs]
    return {"tag": np.vstack([m.tag_logp for m in scores]),
            "dep": np.concatenate([m.dep_logp.ravel() for m in scores])}


WIDE = ModelConfig(word_dim=32, pos_dim=16, label_dim=16, seq_dim=64,
                   seq_layers=2, tree_dim=64, mlp_dim=32, unk_buckets=2)


class TestEncodeBatch:
    """One batched encoder pass over a chunk of sentences against the
    sentences encoded one at a time."""

    @pytest.fixture(scope="class", params=[TINY, WIDE], ids=["tiny", "wide"])
    def model(self, request):
        """Biases are drawn too: with the zero biases of a fresh model, a
        zero input leaves a zero LSTM state, so padding read before a
        sentence would go unnoticed."""
        vocab = build_vocab(mini_treebank(), unk_buckets=2)
        model = init_model(vocab, request.param, seed=11)
        rng = np.random.default_rng(11)
        for name in sorted(model.params):
            if name.endswith("_b"):
                model.params[name] += rng.normal(0.0, 0.5,
                                                 model.params[name].shape)
        return model

    @staticmethod
    def chunks():
        """Seeded chunks of 1-9 sentences of mixed lengths: the mini
        treebank, two long chains, a 1-token tree and an empty tree."""
        trees = [z for z, _ in mini_treebank()]
        for n in (17, 31):
            trees.append(DepTree(["w%d" % k for k in range(n)], ["NOUN"] * n,
                                 list(range(n)), ["dep"] * n))
        trees += [DepTree(["cat"], ["NOUN"], [0], ["root"]),
                  DepTree([], [], [], [])]
        rng = np.random.default_rng(5)
        order = [trees[k] for k in rng.permutation(len(trees))]
        chunks, start = [], 0
        while start < len(order):
            size = int(rng.integers(1, 10))
            chunks.append(order[start:start + size])
            start += size
        return chunks

    def test_matches_per_sentence_encode(self, model):
        for chunk in self.chunks():
            states = encode_batch(model, chunk)
            assert len(states) == len(chunk)
            for z, h in zip(chunk, states):
                alone = encode(model, z)
                assert h.shape == alone.shape
                np.testing.assert_allclose(h, alone, rtol=0, atol=1e-12)

    def test_batch_of_one_is_encode(self, model):
        for chunk in self.chunks():
            for z in chunk:
                assert np.array_equal(encode_batch(model, [z])[0],
                                      encode(model, z))

    def test_scores_from_batch_states(self, model):
        for chunk in self.chunks():
            for z, h in zip(chunk, encode_batch(model, chunk)):
                given = score_sentence(model, z, hmat=h)
                alone = score_sentence(model, z)
                np.testing.assert_allclose(given.tag_logp, alone.tag_logp,
                                           rtol=0, atol=1e-12)
                np.testing.assert_allclose(given.dep_logp, alone.dep_logp,
                                           rtol=0, atol=1e-12)

    def test_empty_batch(self, model):
        assert encode_batch(model, []) == []

    def test_inference_pass_equals_training_pass(self, model):
        # encode_batch keeps only what the next step reads; the pass that
        # keeps every array for the backward pass must give the same bits
        for chunk in self.chunks():
            kept = _encode(model, chunk, cache={})
            assert np.array_equal(np.concatenate(encode_batch(model, chunk)),
                                  kept)

    def test_states_must_match_the_tokens(self, model):
        z = mini_treebank()[0][0]
        h = encode(model, z)
        with pytest.raises(AlignmentError):
            score_sentence(model, z, hmat=h[1:])

    def test_heads_must_stay_inside_their_sentence(self, model):
        # head 3 of a 2-token tree would point into the next sentence
        bad = DepTree(["a", "b"], ["DET", "NOUN"], [0, 3], ["det", "root"])
        with pytest.raises(AlignmentError):
            encode_batch(model, [bad, mini_treebank()[0][0]])


class TestGoldenScores:
    def test_matches_recorded_scores(self):
        with np.load(FIXTURES / "golden_scores.npz") as golden:
            expect = dict(golden)
        got = golden_scores()
        assert sorted(got) == sorted(expect)
        for name, arr in got.items():
            np.testing.assert_allclose(arr, expect[name], rtol=0, atol=1e-10,
                                       err_msg=name)


class TestLoss:
    def test_uniform_model_loss_formula(self):
        # all-zero parameters give uniform rows: |C| choices per tag and,
        # with the self arc masked, N head choices per token
        pairs = toy_dataset()
        vocab = build_vocab(pairs, unk_buckets=TINY.unk_buckets)
        model = init_model(vocab, TINY, seed=0)
        for name in model.params:
            model.params[name][:] = 0.0
        z, tree = pairs[0]
        tags, heads = tree_targets(tree)
        n, ncat = 3, len(vocab.categories)
        expect = n * math.log(ncat) + n * math.log(n)
        assert loss_value(model, z, tags, heads) == pytest.approx(
            expect, abs=1e-9)

    def test_loss_matches_matrix_entries(self):
        model = tiny_model(seed=2)
        z, tree = toy_dataset()[1]
        tags, heads = tree_targets(tree)
        loss, grads, aux = nll_loss(model, z, tags, heads)
        m = score_sentence(model, z)
        expect = 0.0
        for i, (tag, head) in enumerate(zip(tags, heads)):
            expect -= m.tag_logp[i, model.vocab.category_id(tag)]
            expect -= m.dep_logp[i, head]
        assert loss == pytest.approx(expect, abs=1e-9)
        assert set(grads) == set(model.params)

    def test_gold_category_not_in_inventory(self):
        model = tiny_model()
        z, _ = toy_dataset()[0]
        with pytest.raises(VocabularyError):
            loss_value(model, z, ["PP", "N", "S[dcl]\\NP"], [0, 1, 1])

    def test_tree_targets(self):
        tags, heads = tree_targets(np_tree())
        assert tags == ["NP/N", "N", "S[dcl]\\NP"]
        assert heads == [0, 1, 1]

    def test_dhat_override_noop_when_equal(self):
        model = tiny_model(seed=4)
        z, tree = toy_dataset()[0]
        tags, heads = tree_targets(tree)
        _, _, aux = nll_loss(model, z, tags, heads)
        again = nll_loss(model, z, tags, heads,
                         dhat_override=list(aux["dhat"]))
        assert again[0] == pytest.approx(
            loss_value(model, z, tags, heads), abs=1e-12)


class TestGradCheck:
    def test_small_instances_pass(self):
        # seeds chosen so no ELU pre-activation falls inside the 1e-4
        # difference window; at such kinks the central difference itself
        # loses accuracy even though the analytic gradient is exact
        for trial in range(3):
            model = tiny_model(seed=trial + 60)
            z, tree = toy_dataset()[trial % 4]
            tags, heads = tree_targets(tree)
            err = grad_check(model, z, tags, heads)
            assert err < 1e-4, "trial %d error %g" % (trial, err)

    def test_negative_control(self):
        model = tiny_model(seed=50)
        z, tree = toy_dataset()[0]
        tags, heads = tree_targets(tree)
        err = grad_check(model, z, tags, heads, corrupt="biaff_W")
        assert err > 1e-2

    # the tree LSTM runs one height (up) or depth (down) at a time, so
    # these shapes put nodes with different child counts and subtrees of
    # different heights into the same level
    @pytest.mark.parametrize("heads, seed", [
        ([2, 0, 4, 2, 4], 70),      # siblings of heights 0 and 1
        ([2, 0, 2, 2], 75),         # a node with three children
        ([2, 3, 4, 5, 0], 72),      # a chain: token 1 at depth 4
        ([0], 73),                  # a single token
    ], ids=["uneven-siblings", "three-children", "depth-4", "single-token"])
    def test_tree_shapes(self, heads, seed):
        model = tiny_model(seed=seed)
        n = len(heads)
        words = ["the", "cat", "sleeps", "dog", "runs"]
        cats = ["NP/N", "N", "S[dcl]\\NP"]
        z = DepTree(words[:n], [["DET", "NOUN", "VERB"][k % 3]
                                for k in range(n)],
                    list(heads), [["det", "nsubj", "root"][k % 3]
                                  for k in range(n)])
        tags = [cats[k % 3] for k in range(n)]
        assert grad_check(model, z, tags, heads) < 1e-4


class TestTraining:
    def test_overfits_toy_data(self):
        pairs = toy_dataset()
        model = tiny_model(pairs)
        cfg = TrainConfig(epochs=60, batch_size=2, seed=1,
                          early_stop_acc=1.0)
        history = train(model, [(pairs, 1.0)], cfg)
        last = history[-1]
        assert last["tag_acc"] == 1.0
        assert last["head_acc"] == 1.0
        assert len(history) < 60  # early stop fired

    def test_zero_epochs_no_op(self):
        pairs = toy_dataset()
        model = tiny_model(pairs)
        before = {k: v.copy() for k, v in model.params.items()}
        history = train(model, [(pairs, 1.0)], TrainConfig(epochs=0))
        assert history == []
        for name in before:
            np.testing.assert_array_equal(before[name], model.params[name])

    def test_fixed_seed_bit_identical(self):
        cfg = TrainConfig(epochs=4, batch_size=2, seed=5)
        runs = []
        for _ in range(2):
            pairs = toy_dataset()
            model = tiny_model(pairs)
            train(model, [(pairs, 1.0)], cfg)
            runs.append(model.params)
        for name in runs[0]:
            np.testing.assert_array_equal(runs[0][name], runs[1][name])

    def test_different_seed_differs(self):
        outs = []
        for seed in (1, 2):
            pairs = toy_dataset()
            model = tiny_model(pairs)
            train(model, [(pairs, 1.0)],
                  TrainConfig(epochs=3, batch_size=2, seed=seed))
            outs.append(model.params)
        assert any(not np.array_equal(outs[0][n], outs[1][n])
                   for n in outs[0])

    def test_mixture_sampling_counts(self):
        pairs = toy_dataset()
        extra = toy_dataset()
        model = tiny_model(pairs)
        cfg = TrainConfig(epochs=20, batch_size=4, seed=3)
        history = train(model, [(pairs, 1.0), (extra, 0.5)], cfg)
        drawn = [h["drawn"][1] for h in history]
        # weight 0.5 keeps no whole copy and draws each pair with p=.5
        assert all(0 <= d <= len(extra) for d in drawn)
        mean = sum(drawn) / len(drawn)
        assert 0.5 < mean < 3.5
        assert all(h["drawn"][0] == len(pairs) for h in history)
        assert all(h["examples"] == h["drawn"][0] + h["drawn"][1]
                   for h in history)

    def test_integer_weight_repeats_copies(self):
        pairs = toy_dataset()
        model = tiny_model(pairs)
        history = train(model, [(pairs, 2.0)],
                        TrainConfig(epochs=1, batch_size=4, seed=0))
        assert history[0]["drawn"] == [2 * len(pairs)]
        assert history[0]["examples"] == 2 * len(pairs)

    def test_no_examples_rejected(self):
        model = tiny_model()
        with pytest.raises(TrainingError, match="no training data"):
            train(model, [], TrainConfig(epochs=1))

    def test_loss_decreases(self):
        pairs = toy_dataset()
        model = tiny_model(pairs)
        history = train(model, [(pairs, 1.0)],
                        TrainConfig(epochs=10, batch_size=2, seed=2))
        assert history[-1]["loss"] < history[0]["loss"]


class TestAdam:
    def test_update_moves_against_gradient(self):
        params = {"w": np.array([1.0, -1.0])}
        state = AdamState(params)
        grads = {"w": np.array([1.0, -2.0])}
        cfg = TrainConfig(lr=0.1)
        state.update(params, grads, cfg)
        assert params["w"][0] < 1.0
        assert params["w"][1] > -1.0

    def test_bit_identical_to_reference_expression(self):
        rng = np.random.default_rng(8)
        shapes = {"a": (3, 4), "b": (5,), "c": (2, 3, 2)}
        params = {k: rng.normal(size=s) for k, s in shapes.items()}
        ref = {k: v.copy() for k, v in params.items()}
        m = {k: np.zeros(s) for k, s in shapes.items()}
        v = {k: np.zeros(s) for k, s in shapes.items()}
        cfg = TrainConfig(lr=0.01, beta1=0.9, beta2=0.99, eps=1e-8)
        state = AdamState(params)
        for step in range(1, 31):
            grads = {k: rng.normal(size=s) for k, s in shapes.items()}
            state.update(params, grads, cfg)
            bias1 = 1.0 - cfg.beta1 ** step
            bias2 = 1.0 - cfg.beta2 ** step
            for k in shapes:
                g = grads[k]
                m[k] = cfg.beta1 * m[k] + (1.0 - cfg.beta1) * g
                v[k] = cfg.beta2 * v[k] + (1.0 - cfg.beta2) * g * g
                ref[k] -= cfg.lr * (m[k] / bias1) / (
                    np.sqrt(v[k] / bias2) + cfg.eps)
        for k in shapes:
            np.testing.assert_array_equal(params[k], ref[k])


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        model = tiny_model(seed=6)
        path = tmp_path / "model.bin"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.config == model.config
        assert loaded.vocab == model.vocab
        assert set(loaded.params) == set(model.params)
        for name in model.params:
            np.testing.assert_array_equal(loaded.params[name],
                                          model.params[name])

    def test_save_deterministic(self, tmp_path):
        model = tiny_model(seed=6)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_model(model, p1)
        save_model(model, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "model.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(CheckpointError, match="magic"):
            load_model(path)

    def test_bad_version(self, tmp_path):
        model = tiny_model()
        path = tmp_path / "model.bin"
        save_model(model, path)
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="version"):
            load_model(path)

    def test_truncated(self, tmp_path):
        model = tiny_model()
        path = tmp_path / "model.bin"
        save_model(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) - 16])
        with pytest.raises(CheckpointError, match="truncated"):
            load_model(path)

    def test_trailing_bytes(self, tmp_path):
        model = tiny_model()
        path = tmp_path / "model.bin"
        save_model(model, path)
        path.write_bytes(path.read_bytes() + b"extra")
        with pytest.raises(CheckpointError, match="trailing"):
            load_model(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_tensor(self, tmp_path, bad):
        model = tiny_model()
        model.params["up_U"][1, 2] = bad
        path = tmp_path / "model.bin"
        save_model(model, path)
        with pytest.raises(CheckpointError, match="up_U"):
            load_model(path)

    def test_tensor_shape_mismatch(self, tmp_path):
        model = tiny_model()
        model.params["root_h"] = np.zeros((2, 64))
        path = tmp_path / "model.bin"
        save_model(model, path)
        with pytest.raises(CheckpointError, match=r"root_h\(2, 64\) where "
                           r"the configuration expects root_h\(12,\)"):
            load_model(path)

    def test_missing_tensor(self, tmp_path):
        model = tiny_model()
        del model.params["up_b"]
        path = tmp_path / "model.bin"
        save_model(model, path)
        with pytest.raises(CheckpointError, match="up_b"):
            load_model(path)

    @pytest.mark.parametrize("edit", [
        lambda h: h["config"].update(seq_dim="6"),
        lambda h: h.update(tensors=[["root_h", 12]]),
        lambda h: h.update(ext_sha256=None),
    ])
    def test_malformed_header(self, tmp_path, edit):
        model = tiny_model()
        path = tmp_path / "model.bin"
        save_model(model, path)
        raw = path.read_bytes()
        length = int.from_bytes(raw[8:12], "little")
        header = json.loads(raw[12:12 + length])
        edit(header)
        blob = json.dumps(header).encode("utf-8")
        path.write_bytes(raw[:8] + len(blob).to_bytes(4, "little") + blob
                         + raw[12 + length:])
        with pytest.raises(CheckpointError, match="malformed checkpoint"):
            load_model(path)

    def ext_checkpoint(self, tmp_path):
        """A checkpoint of a model with external vectors, and their file."""
        vectors = tmp_path / "vectors.txt"
        vectors.write_text("cat 1.0 2.0\ndog 3.0 4.0\n")
        ext, dim = load_ext_embeddings(vectors)
        config = dataclasses.replace(TINY, ext_embeddings=str(vectors))
        model = init_model(build_vocab(toy_dataset(), config.unk_buckets),
                           config, ext=ext, ext_dim=dim)
        path = tmp_path / "model.bin"
        save_model(model, path)
        return path, vectors

    def test_edited_embeddings_refused(self, tmp_path):
        path, vectors = self.ext_checkpoint(tmp_path)
        assert load_model(path).ext_dim == 2
        vectors.write_text("cat 1.0 2.0\ndog 3.0 4.5\n")
        with pytest.raises(CheckpointError,
                           match="vectors.txt no longer have the sha256"):
            load_model(path)

    def test_header_without_embeddings_digest_loads(self, tmp_path):
        path, vectors = self.ext_checkpoint(tmp_path)
        raw = path.read_bytes()
        length = int.from_bytes(raw[8:12], "little")
        header = json.loads(raw[12:12 + length])
        assert len(header.pop("ext_sha256")) == 64
        blob = json.dumps(header, sort_keys=True).encode("utf-8")
        path.write_bytes(raw[:8] + len(blob).to_bytes(4, "little") + blob
                         + raw[12 + length:])
        vectors.write_text("cat 1.0 2.0\ndog 3.0 4.5\n")
        assert load_model(path).ext["dog"][1] == 4.5

    def test_vanished_embeddings_named_on_save(self, tmp_path):
        path, vectors = self.ext_checkpoint(tmp_path)
        model = load_model(path)
        vectors.unlink()
        with pytest.raises(DataError,
                           match="cannot read " + re.escape(str(vectors))):
            save_model(model, tmp_path / "again.bin")
        assert not (tmp_path / "again.bin").exists()

    def test_no_embeddings_digest_without_embeddings(self, tmp_path):
        path = tmp_path / "model.bin"
        save_model(tiny_model(), path)
        assert b"ext_sha256" not in path.read_bytes()

    def test_scores_survive_round_trip(self, tmp_path):
        model = tiny_model(seed=12)
        path = tmp_path / "model.bin"
        save_model(model, path)
        loaded = load_model(path)
        z = toy_dataset()[0][0]
        m1 = score_sentence(model, z)
        m2 = score_sentence(loaded, z)
        np.testing.assert_array_equal(m1.tag_logp, m2.tag_logp)
        np.testing.assert_array_equal(m1.dep_logp, m2.dep_logp)
