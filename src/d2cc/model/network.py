"""Tree-encoder scorer with manually implemented gradients.

A dependency tree is encoded by a stacked sequential BiLSTM over
POS+word embeddings followed by a bidirectional tree LSTM over the
dependency structure (child-sum cell for the bottom-up pass, a
single-parent recurrence for the top-down pass), with the arc-label
embedding joining at the tree input.  Head attachments are scored by a
biaffine layer over MLP-projected states and supertags by per-category
bilinear forms conditioned on each token's most probable head.

The encoder runs over a batch of sentences at once (``encode_batch``):
their tokens follow each other in one array, and their trees form one
forest.  Each recurrence projects its inputs with one matrix product
outside its loop.  The sequence LSTM steps one token of every sentence at
a time, the tree LSTM one level of the forest at a time: the nodes of one
height going up (leaves first), of one depth going down (roots first).
For training, the forward pass keeps gates, cells and states as arrays,
one row per step or node; the backward pass, over a batch of one
sentence, reruns the loops in reverse for the stacked gate derivatives
``dz`` and the carries only, so each weight gradient is one product
``dz.T @ inputs``.  ``encode_batch`` computes the same bits but keeps only
what the next step reads: each LSTM run its states, the up pass its sums
and cells until the down pass starts, the down pass its cells.  All
arrays are float64.  A batch of one computes the same bits as scoring the
sentence alone; in a larger batch, the matrix products over more rows can
round an encoder state differently in the last bits.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import AlignmentError
from ..scores import ScoreMatrices
from ..trees import DepTree
from ..config import ModelConfig
from .vocab import Vocabulary


@dataclass
class Model:
    """Bundles trainable tensors with their vocabulary and dimensions."""

    config: ModelConfig
    vocab: Vocabulary
    params: Dict[str, np.ndarray]
    ext: Optional[Dict[str, np.ndarray]] = None
    ext_dim: int = 0


def param_shapes(config: ModelConfig, vocab: Vocabulary,
                 ext_dim: int = 0) -> Dict[str, Tuple[int, ...]]:
    """Shape of every trainable tensor, keyed by name."""
    cfg = config
    h = cfg.seq_dim // 2
    t = cfg.tree_dim
    m = cfg.mlp_dim
    d0 = cfg.pos_dim + cfg.word_dim + ext_dim
    dt = cfg.seq_dim + cfg.label_dim
    ncat = len(vocab.categories)
    shapes = {
        "emb_word": (vocab.word_rows, cfg.word_dim),
        "emb_pos": (len(vocab.pos), cfg.pos_dim),
        "emb_label": (len(vocab.labels), cfg.label_dim),
        "up_W": (4 * t, dt),
        "up_U": (3 * t, t),
        "up_Uf": (t, t),
        "up_b": (4 * t,),
        "down_W": (4 * t, dt),
        "down_U": (4 * t, t),
        "down_b": (4 * t,),
        "root_h": (2 * t,),
        "biaff_W": (m, m),
        "biaff_w": (m,),
        "bil_W": (ncat, m, m),
        "bil_v": (ncat, m),
        "bil_u": (ncat, m),
        "bil_b": (ncat,),
    }
    for name in ("dep_child", "dep_head", "tag_child", "tag_head"):
        shapes["mlp_%s_W" % name] = (m, 2 * t)
        shapes["mlp_%s_b" % name] = (m,)
    for layer in range(cfg.seq_layers):
        din = d0 if layer == 0 else cfg.seq_dim
        for direction in ("f", "b"):
            shapes["seq%d_%s_W" % (layer, direction)] = (4 * h, din + h)
            shapes["seq%d_%s_b" % (layer, direction)] = (4 * h,)
    return shapes


def init_model(vocab: Vocabulary, config: ModelConfig,
               seed: int = 0, ext: Optional[Dict[str, np.ndarray]] = None,
               ext_dim: int = 0) -> Model:
    """Random parameters; draws happen in sorted tensor-name order."""
    rng = np.random.default_rng(seed)
    params: Dict[str, np.ndarray] = {}
    for name, shape in sorted(param_shapes(config, vocab, ext_dim).items()):
        if name.endswith("_b"):
            params[name] = np.zeros(shape, dtype=np.float64)
        elif name.startswith("emb_") or name == "root_h":
            params[name] = rng.normal(0.0, 0.1, size=shape)
        else:
            scale = 1.0 / np.sqrt(shape[-1])
            params[name] = rng.normal(0.0, scale, size=shape)
    return Model(config=config, vocab=vocab, params=params,
                 ext=ext, ext_dim=ext_dim)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """σ(x) = ½·tanh(x/2) + ½: one transcendental per element, where
    ``exp(-logaddexp(0, -x))`` takes three; the two forms differ by at
    most 2^-53.  The steps run in one buffer."""
    out = np.multiply(0.5, x)
    np.tanh(out, out=out)
    out *= 0.5
    out += 0.5
    return out


def _gates(a: np.ndarray, split: int, out: np.ndarray) -> np.ndarray:
    """Sigmoid gates before column ``split``, tanh candidates after it;
    ``out`` may be ``a`` itself."""
    out[..., :split] = _sigmoid(a[..., :split])
    np.tanh(a[..., split:], out=out[..., split:])
    return out


def _elu(a: np.ndarray) -> np.ndarray:
    return np.where(a > 0.0, a, np.expm1(a))


def _elu_grad(a: np.ndarray) -> np.ndarray:
    return np.where(a > 0.0, 1.0, np.exp(a))


def _log_softmax_rows(s: np.ndarray) -> np.ndarray:
    m = np.max(s, axis=1, keepdims=True)
    z = np.log(np.sum(np.exp(s - m), axis=1, keepdims=True))
    return s - m - z


# ---------------------------------------------------------------------------
# Forward passes.  Every stage stores its arrays in the shared cache dict.


def _embed(model: Model, trees: Sequence[DepTree],
           cache: dict) -> np.ndarray:
    """Input rows of the tokens of ``trees``, one sentence after another."""
    vocab, p = model.vocab, model.params
    words = [w for z in trees for w in z.tokens]
    n = len(words)
    wi = np.array([vocab.word_id(w) for w in words], dtype=np.int64)
    pi = np.array([vocab.pos_id(t) for z in trees for t in z.pos],
                  dtype=np.int64)
    li = np.array([vocab.label_id(l) for z in trees for l in z.labels],
                  dtype=np.int64)
    parts = [p["emb_pos"][pi], p["emb_word"][wi]]
    if model.ext_dim:
        ext = np.zeros((n, model.ext_dim))
        for k, word in enumerate(words):
            vec = model.ext.get(word) if model.ext else None
            if vec is not None:
                ext[k] = vec
        parts.append(ext)
    x0 = np.concatenate(parts, axis=1)
    cache.update(n=n, wi=wi, pi=pi, li=li)
    return x0


def _lstm_run(p: Dict[str, np.ndarray], name: str, xs: np.ndarray,
              keep: bool = True) -> dict:
    """One LSTM direction (tensors ``name``_W, _b) over ``xs``, shaped
    (steps, batch, inputs).

    ``gates[s]`` (i, f, o, g) and ``tanh_c[s]`` hold step s of every batch
    row; each step's gates overwrite its input projection.  ``hs`` and
    ``cs`` start with the zero initial state, so ``hs[:-1]`` holds each
    step's previous state and ``hs[1:]`` its output.  Without ``keep``,
    only ``hs`` is returned.
    """
    (n, b, din), w = xs.shape, p[name + "_W"]
    h = w.shape[0] // 4
    wx, wh = w[:, :din], np.ascontiguousarray(w[:, din:])
    gates = xs.reshape(n * b, din) @ wx.T + p[name + "_b"]
    gates = gates.reshape(n, b, 4 * h)
    tcs = np.empty((n, b, h))
    i, f, o, g = (gates[..., k * h:(k + 1) * h] for k in range(4))
    hs, cs = np.zeros((2, n + 1, b, h))
    for s in range(n):
        _gates(gates[s] + hs[s] @ wh.T, 3 * h, gates[s])
        c = cs[s + 1] = f[s] * cs[s] + i[s] * g[s]
        np.tanh(c, out=tcs[s])
        np.multiply(o[s], tcs[s], out=hs[s + 1])
    if not keep:
        return dict(hs=hs)
    return dict(name=name, x=xs, wx=wx, wh=wh, gates=gates, tanh_c=tcs,
                hs=hs, cs=cs)


def _seq_forward(model: Model, x0: np.ndarray, lengths: Sequence[int],
                 cache: Optional[dict]) -> np.ndarray:
    """Stacked BiLSTM over sentences of ``lengths`` tokens whose rows
    follow each other in ``x0``.  Sentence i is batch row i.  Both
    directions start every sentence at step 0, the backward one reading
    it reversed, and pad it with zeros after its last token.  Without a
    ``cache``, each layer's runs are freed once the next layer has its
    input."""
    cfg, p = model.config, model.params
    lens = np.asarray(lengths, dtype=np.int64)
    row = np.repeat(np.arange(len(lens)), lens)
    fstep = np.arange(len(row)) - (np.cumsum(lens) - lens)[row]
    bstep = lens[row] - 1 - fstep
    shape = (max(lengths, default=0), len(lens))
    runs, xs = [], x0
    for layer in range(cfg.seq_layers):
        out = []
        for d, step in (("f", fstep), ("b", bstep)):
            batch = np.zeros(shape + xs.shape[1:])
            batch[step, row] = xs
            out.append(_lstm_run(p, "seq%d_%s" % (layer, d), batch,
                                 keep=cache is not None))
        xs = np.concatenate([out[0]["hs"][1:][fstep, row],
                             out[1]["hs"][1:][bstep, row]], axis=1)
        if cache is not None:
            runs.append(tuple(out))
    if cache is not None:
        cache["seq_runs"] = runs
    return xs


def _tree_levels(par: Sequence[int]) -> dict:
    """Parents (``par``, -1 at a root) and the level order of both tree
    passes over a forest.

    ``down`` holds the nodes of each depth, roots first.  ``kids`` lists
    the non-root nodes (``kpar`` their parents) by their parent's height;
    ``up`` holds the nodes of each height, leaves first, with the slice
    of ``kids`` whose parents have that height.
    """
    n = len(par)
    children: list = [[] for _ in range(n)]
    for k in range(n):
        if par[k] >= 0:
            children[par[k]].append(k)
    order = [k for k in range(n) if par[k] < 0]
    for node in order:  # breadth first: the loop visits what it appends
        order.extend(children[node])
    if len(order) != n:
        raise AlignmentError("dependency structure is not a forest")
    depth, height = [0] * n, [0] * n
    for node in order:
        if par[node] >= 0:
            depth[node] = depth[par[node]] + 1
    for node in reversed(order):
        if par[node] >= 0:
            height[par[node]] = max(height[par[node]], height[node] + 1)
    levels = range(max(depth, default=-1) + 1)
    kids = sorted((k for k in range(n) if par[k] >= 0),
                  key=lambda k: height[par[k]])
    keys = [height[par[k]] for k in kids]
    down = [np.array([k for k in range(n) if depth[k] == d]) for d in levels]
    up = [(np.array([k for k in range(n) if height[k] == d]),
           slice(bisect_left(keys, d), bisect_right(keys, d))) for d in levels]
    parent, kids = np.array(par), np.array(kids, dtype=np.int64)
    return dict(parent=parent, kids=kids, kpar=parent[kids], up=up,
                down=down)


def _tree_forward(model: Model, par: Sequence[int], s: np.ndarray,
                  cache: dict, keep: bool = True) -> np.ndarray:
    """Both tree passes over the forest of parents ``par``; with ``keep``,
    ``cache`` receives every array that the backward pass reads."""
    p, t, n = model.params, model.config.tree_dim, s.shape[0]
    xt = np.concatenate([s, p["emb_label"][cache["li"]]], axis=1)
    lv = _tree_levels(par)
    parent, kids, kpar = lv["parent"], lv["kids"], lv["kpar"]

    # the states of both passes are the two halves of hmat's rows; row n
    # stays zero and stands in for a root's parent going down
    states = np.zeros((n + 1, 2 * t))
    hmat, up_h, dn_h = states[:n], states[:, :t], states[:, t:]

    # bottom-up child-sum pass, one height at a time from the leaves;
    # gates i, o, u per node and one forget gate per (child, parent) edge
    xu = xt @ p["up_W"].T + p["up_b"]
    hsum, up_c = np.zeros((2, n, t))
    if keep:
        up_g, up_tc = np.empty((n, 3 * t)), np.empty((n, t))
        up_f = np.empty((len(kids), t))
    for nodes, e in lv["up"]:
        ch, par = kids[e], kpar[e]
        np.add.at(hsum, par, up_h[ch])
        a = xu[nodes, :3 * t] + hsum[nodes] @ p["up_U"].T
        g = _gates(a, 2 * t, a)
        f = _sigmoid(xu[par, 3 * t:] + up_h[ch] @ p["up_Uf"].T)
        up_c[nodes] = g[:, :t] * g[:, 2 * t:]
        np.add.at(up_c, par, f * up_c[ch])
        tc = np.tanh(up_c[nodes])
        up_h[nodes] = g[:, t:2 * t] * tc
        if keep:
            up_g[nodes], up_f[e], up_tc[nodes] = g, f, tc
    if keep:
        cache.update(hsum=hsum, up_g=up_g, up_f=up_f, up_c=up_c, up_tc=up_tc)

    # top-down pass, one depth at a time from the roots; row n of dn_c
    # stays zero as well.  The up pass's arrays are freed first: the
    # backward pass does not read xu, and ``cache`` keeps what it reads.
    del xu, hsum, up_c
    xd = xt @ p["down_W"].T + p["down_b"]
    dn_c = np.zeros((n + 1, t))
    if keep:
        dn_g, dn_tc = np.empty((n, 4 * t)), np.empty((n, t))
    for nodes in lv["down"]:
        par = parent[nodes]
        a = xd[nodes] + dn_h[par] @ p["down_U"].T
        g = _gates(a, 3 * t, a)
        dn_c[nodes] = g[:, t:2 * t] * dn_c[par] + g[:, :t] * g[:, 3 * t:]
        tc = np.tanh(dn_c[nodes])
        dn_h[nodes] = g[:, 2 * t:3 * t] * tc
        if keep:
            dn_g[nodes], dn_tc[nodes] = g, tc
    if keep:
        cache.update(xt=xt, levels=lv, up_h=up_h, dn_g=dn_g, dn_tc=dn_tc,
                     dn_h=dn_h, dn_c=dn_c, h=hmat)
    return hmat


def _dep_forward(model: Model, hmat: np.ndarray, cache: dict) -> np.ndarray:
    p = model.params
    n = hmat.shape[0]
    hall = np.vstack([p["root_h"][None, :], hmat])
    ac = hmat @ p["mlp_dep_child_W"].T + p["mlp_dep_child_b"]
    rc = _elu(ac)
    ah = hall @ p["mlp_dep_head_W"].T + p["mlp_dep_head_b"]
    rh = _elu(ah)
    sdep = rc @ p["biaff_W"] @ rh.T + rh @ p["biaff_w"]
    sdep[np.arange(n), np.arange(1, n + 1)] = -np.inf
    dep_logp = _log_softmax_rows(sdep)
    cache.update(hall=hall, dep_ac=ac, dep_rc=rc, dep_ah=ah, dep_rh=rh,
                 sdep=sdep, dep_logp=dep_logp)
    return dep_logp


def _tag_forward(model: Model, hmat: np.ndarray, dep_logp: np.ndarray,
                 cache: dict,
                 dhat_override: Optional[Sequence[int]] = None) -> np.ndarray:
    p = model.params
    hall = cache.get("hall")
    if hall is None:
        hall = np.vstack([p["root_h"][None, :], hmat])
    dhat = (np.argmax(dep_logp, axis=1) if dhat_override is None
            else np.asarray(dhat_override, dtype=np.int64))
    aqc = hmat @ p["mlp_tag_child_W"].T + p["mlp_tag_child_b"]
    qc = _elu(aqc)
    aqh = hall @ p["mlp_tag_head_W"].T + p["mlp_tag_head_b"]
    qh = _elu(aqh)
    qd = qh[dhat]
    # qdw[t, c, i] = sum_j bil_W[c, i, j] qd[t, j]
    ncat, m = p["bil_v"].shape
    qdw = (qd @ p["bil_W"].reshape(ncat * m, m).T).reshape(-1, ncat, m)
    stag = ((qdw @ qc[:, :, None])[:, :, 0]
            + qc @ p["bil_v"].T + qd @ p["bil_u"].T + p["bil_b"])
    tag_logp = _log_softmax_rows(stag)
    cache.update(hall=hall, dhat=dhat, tag_aqc=aqc, tag_qc=qc, tag_aqh=aqh,
                 tag_qh=qh, tag_qd=qd, tag_qdw=qdw, stag=stag,
                 tag_logp=tag_logp)
    return tag_logp


def _encode(model: Model, trees: Sequence[DepTree],
            cache: Optional[dict] = None,
            seq: Optional[np.ndarray] = None) -> np.ndarray:
    """Encoder states of the tokens of ``trees``, one sentence after
    another, from one batched pass.  ``cache``, when given, receives every
    stage's arrays for the backward pass; without it, the sequence
    stage's arrays are freed as soon as the next layer or the tree stage
    has its input, which bounds the peak memory of a large batch.
    ``seq``, the sequence BiLSTM's output for ``trees``, skips that stage."""
    par: List[int] = []
    for z in trees:
        n, start = len(z.tokens), len(par)
        if len(z.heads) != n or not all(0 <= hd <= n for hd in z.heads):
            raise AlignmentError("heads do not index the sentence's %d "
                                 "tokens" % n)
        par.extend(hd - 1 + start if hd else -1 for hd in z.heads)
    stages = {} if cache is None else cache
    x0 = _embed(model, trees, stages)
    if seq is None:
        seq = _seq_forward(model, x0, [len(z.tokens) for z in trees], cache)
    return _tree_forward(model, par, seq, stages, keep=cache is not None)


def _forward(model: Model, z: DepTree,
             dhat_override: Optional[Sequence[int]] = None,
             hmat: Optional[np.ndarray] = None) -> dict:
    """Every stage's arrays for one sentence; ``hmat``, when given, holds
    its encoder states and skips the encoder."""
    cache: dict = {}
    if hmat is None:
        hmat = _encode(model, [z], cache)
    dep_logp = _dep_forward(model, hmat, cache)
    _tag_forward(model, hmat, dep_logp, cache, dhat_override)
    return cache


# ---------------------------------------------------------------------------
# Public scoring API.


def encode_batch(model: Model, trees: Sequence[DepTree]) -> List[np.ndarray]:
    """Hidden states of each tree's tokens, bottom-up half then top-down
    half, from one pass over all of ``trees``."""
    hmat = _encode(model, trees)
    ends = np.cumsum([len(z.tokens) for z in trees], dtype=np.int64)
    return [hmat[end - len(z.tokens):end] for z, end in zip(trees, ends)]


def encode(model: Model, z: DepTree) -> np.ndarray:
    """Hidden state per token: bottom-up half then top-down half."""
    return encode_batch(model, [z])[0]


def score_dep(model: Model, hmat: np.ndarray) -> np.ndarray:
    """Log probability of each head (column 0 = root), self-arc masked."""
    return _dep_forward(model, hmat, {})


def score_tag(model: Model, hmat: np.ndarray, dep_logp: np.ndarray,
              dhat_override: Optional[Sequence[int]] = None) -> np.ndarray:
    """Log probability of each category given the most probable head."""
    return _tag_forward(model, hmat, dep_logp, {}, dhat_override)


def score_sentence(model: Model, z: DepTree,
                   hmat: Optional[np.ndarray] = None) -> ScoreMatrices:
    """Tag and head log probabilities of ``z``.  ``hmat``, its states from
    ``encode_batch``, skips the encoder."""
    if hmat is not None and hmat.shape[0] != len(z.tokens):
        raise AlignmentError("%d encoder states for %d tokens"
                             % (hmat.shape[0], len(z.tokens)))
    cache = _forward(model, z, hmat=hmat)
    return ScoreMatrices(tokens=list(z.tokens),
                         categories=list(model.vocab.categories),
                         tag_logp=cache["tag_logp"],
                         dep_logp=cache["dep_logp"])


def _gold_ids(model: Model, z: DepTree, tags: Sequence[str],
              heads: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
    n = len(z.tokens)
    if len(tags) != n or len(heads) != n:
        raise AlignmentError(
            "expected %d tags and heads, got %d and %d"
            % (n, len(tags), len(heads)))
    tag_ids = np.array([model.vocab.category_id(c) for c in tags],
                       dtype=np.int64)
    return tag_ids, np.asarray(heads, dtype=np.int64)


def loss_value(model: Model, z: DepTree, tags: Sequence[str],
               heads: Sequence[int],
               dhat_override: Optional[Sequence[int]] = None,
               hmat: Optional[np.ndarray] = None) -> float:
    """Negative log likelihood without gradient bookkeeping.  ``hmat``,
    the encoder states of ``z``, skips the encoder."""
    tag_ids, head_ids = _gold_ids(model, z, tags, heads)
    cache = _forward(model, z, dhat_override, hmat)
    rows = np.arange(len(tag_ids))
    return float(-(cache["tag_logp"][rows, tag_ids].sum()
                   + cache["dep_logp"][rows, head_ids].sum()))


def _lstm_factors(gates: np.ndarray, c_prev: np.ndarray, tanh_c: np.ndarray,
                  k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Per-row factors A, B of an LSTM cell's (i, f, o, g) derivatives:
    with ``dh`` reaching a row's output and ``dc_next`` its cell, ``dc =
    dc_next + dh * A`` and the gate gradient is ``[dc, dc, dh, dc] * B``.
    """
    i, f, o, g = (gates[:, j * k:(j + 1) * k] for j in range(4))
    return o * (1.0 - tanh_c ** 2), np.concatenate(
        [g * i * (1.0 - i), c_prev * f * (1.0 - f), tanh_c * o * (1.0 - o),
         i * (1.0 - g ** 2)], axis=1)


def _lstm_backward(run: dict, dout: np.ndarray, grads: dict) -> np.ndarray:
    """Gradients of one LSTM direction run over a batch of one; returns
    its input's gradient."""
    gates = run["gates"][:, 0]
    h = dout.shape[1]
    a, b = _lstm_factors(gates, run["cs"][:-1, 0], run["tanh_c"][:, 0], h)
    f = gates[:, h:2 * h]
    dz = np.empty_like(gates)
    dh_rec, dc_rec = np.zeros((2, h))
    for s in range(len(dout) - 1, -1, -1):
        dh = dout[s] + dh_rec
        dc = dc_rec + dh * a[s]
        dc_rec = dc * f[s]
        np.multiply(np.concatenate((dc, dc, dh, dc)), b[s], out=dz[s])
        dh_rec = dz[s] @ run["wh"]
    grads[run["name"] + "_W"] = dz.T @ np.hstack([run["x"][:, 0],
                                                  run["hs"][:-1, 0]])
    grads[run["name"] + "_b"] = dz.sum(axis=0)
    return dz @ run["wx"]


def _tree_backward(p: Dict[str, np.ndarray], cache: dict, dhmat: np.ndarray,
                   grads: dict) -> np.ndarray:
    """Gradients of both tree passes; returns the gradient of ``xt``."""
    n, t = dhmat.shape[0], dhmat.shape[1] // 2
    lv = cache["levels"]
    parent, kids, kpar = lv["parent"], lv["kids"], lv["kpar"]

    # top-down pass, deepest level first; row n collects roots' carries
    gates = cache["dn_g"]
    a, b = _lstm_factors(gates, cache["dn_c"][parent], cache["dn_tc"], t)
    dh, dc = np.zeros((2, n + 1, t))
    dh[:n] = dhmat[:, t:]
    dz_dn = np.empty((n, 4 * t))
    for nodes in reversed(lv["down"]):
        par = parent[nodes]
        dcn = dc[nodes] + dh[nodes] * a[nodes]
        dzn = dz_dn[nodes] = np.concatenate(
            [dcn, dcn, dh[nodes], dcn], axis=1) * b[nodes]
        np.add.at(dh, par, dzn @ p["down_U"])
        np.add.at(dc, par, dcn * gates[nodes, t:2 * t])
    grads["down_W"] = dz_dn.T @ cache["xt"]
    grads["down_U"] = dz_dn.T @ cache["dn_h"][parent]
    grads["down_b"] = dz_dn.sum(axis=0)

    # bottom-up pass, highest level first: gates i, o, u per node, then
    # the forget gate of each edge summed into its parent's f column
    g, tc, fe = cache["up_g"], cache["up_tc"], cache["up_f"]
    i, o, u = g[:, :t], g[:, t:2 * t], g[:, 2 * t:]
    a = o * (1.0 - tc ** 2)
    b = np.concatenate([u * i * (1.0 - i), tc * o * (1.0 - o),
                        i * (1.0 - u ** 2)], axis=1)
    bf = cache["up_c"][kids] * fe * (1.0 - fe)
    dh, dc, dhsum = dhmat[:, :t].copy(), np.zeros((n, t)), np.empty((n, t))
    dz_up, dz_f = np.zeros((n, 4 * t)), np.empty((len(kids), t))
    for nodes, e in reversed(lv["up"]):
        ch, par = kids[e], kpar[e]
        dc[nodes] += dh[nodes] * a[nodes]
        dcn = dc[nodes]
        dzn = dz_up[nodes, :3 * t] = np.concatenate(
            [dcn, dh[nodes], dcn], axis=1) * b[nodes]
        dhsum[nodes] = dzn @ p["up_U"]
        dzf = dz_f[e] = dc[par] * bf[e]
        np.add.at(dz_up[:, 3 * t:], par, dzf)
        dh[ch] += dzf @ p["up_Uf"] + dhsum[par]
        dc[ch] += dc[par] * fe[e]
    grads["up_W"] = dz_up.T @ cache["xt"]
    grads["up_U"] = dz_up[:, :3 * t].T @ cache["hsum"]
    grads["up_Uf"] = dz_f.T @ cache["up_h"][kids]
    grads["up_b"] = dz_up.sum(axis=0)
    return dz_up @ p["up_W"] + dz_dn @ p["down_W"]


def nll_loss(model: Model, z: DepTree, tags: Sequence[str],
             heads: Sequence[int],
             dhat_override: Optional[Sequence[int]] = None):
    """Loss, gradient dict and an aux dict with the score matrices.

    The head used by the tag scorer is the argmax of the head
    distribution (frozen when ``dhat_override`` is given); it is treated
    as a constant in the backward pass.
    """
    cfg, p = model.config, model.params
    tag_ids, head_ids = _gold_ids(model, z, tags, heads)
    cache = _forward(model, z, dhat_override)
    rows = np.arange(cache["n"])
    loss = float(-(cache["tag_logp"][rows, tag_ids].sum()
                   + cache["dep_logp"][rows, head_ids].sum()))

    # tag bilinear, with bil_W as a (ncat * m, m) matrix
    dstag = np.exp(cache["tag_logp"])
    dstag[rows, tag_ids] -= 1.0
    qc, qd = cache["tag_qc"], cache["tag_qd"]
    ncat, m = p["bil_v"].shape
    bil_w = p["bil_W"].reshape(ncat * m, m)
    dsq = (dstag[:, :, None] * qc[:, None, :]).reshape(len(rows), ncat * m)
    grads = {"bil_b": dstag.sum(axis=0), "bil_v": dstag.T @ qc,
             "bil_u": dstag.T @ qd,
             "bil_W": (dsq.T @ qd).reshape(ncat, m, m)}
    dqc = (dstag[:, None, :] @ cache["tag_qdw"])[:, 0] + dstag @ p["bil_v"]
    dqd = dsq @ bil_w + dstag @ p["bil_u"]
    dqh = np.zeros_like(cache["tag_qh"])
    np.add.at(dqh, cache["dhat"], dqd)
    daqh = dqh * _elu_grad(cache["tag_aqh"])
    daqc = dqc * _elu_grad(cache["tag_aqc"])

    # dep biaffine
    dsdep = np.exp(cache["dep_logp"])
    dsdep[rows, head_ids] -= 1.0
    rc, rh = cache["dep_rc"], cache["dep_rh"]
    grads["biaff_W"] = rc.T @ dsdep @ rh
    grads["biaff_w"] = dsdep.sum(axis=0) @ rh
    drc = (dsdep @ rh) @ p["biaff_W"].T
    drh = (dsdep.T @ rc) @ p["biaff_W"] + np.outer(dsdep.sum(axis=0),
                                                   p["biaff_w"])
    dah = drh * _elu_grad(cache["dep_ah"])
    dac = drc * _elu_grad(cache["dep_ac"])

    hall, hmat = cache["hall"], cache["h"]
    for name, dz, x in (("tag_head", daqh, hall), ("tag_child", daqc, hmat),
                        ("dep_head", dah, hall), ("dep_child", dac, hmat)):
        grads["mlp_%s_W" % name] = dz.T @ x
        grads["mlp_%s_b" % name] = dz.sum(axis=0)
    dhall = daqh @ p["mlp_tag_head_W"] + dah @ p["mlp_dep_head_W"]
    grads["root_h"] = dhall[0]
    dhmat = (daqc @ p["mlp_tag_child_W"] + dac @ p["mlp_dep_child_W"]
             + dhall[1:])

    dxt = _tree_backward(p, cache, dhmat, grads)

    # sequence layers, top to bottom; the backward direction's rows run
    # in step order, last token first
    h = cfg.seq_dim // 2
    dout = dxt[:, :cfg.seq_dim]
    for fwd, bwd in reversed(cache["seq_runs"]):
        dout = (_lstm_backward(fwd, dout[:, :h], grads)
                + _lstm_backward(bwd, dout[::-1, h:], grads)[::-1])

    for name, ids, d in (
            ("emb_label", cache["li"], dxt[:, cfg.seq_dim:]),
            ("emb_pos", cache["pi"], dout[:, :cfg.pos_dim]),
            ("emb_word", cache["wi"],
             dout[:, cfg.pos_dim:cfg.pos_dim + cfg.word_dim])):
        grads[name] = np.zeros_like(p[name])
        np.add.at(grads[name], ids, d)

    aux = dict(tag_logp=cache["tag_logp"], dep_logp=cache["dep_logp"],
               dhat=cache["dhat"], gold_tag_ids=tag_ids,
               gold_head_ids=head_ids,
               pred_tags=np.argmax(cache["tag_logp"], axis=1))
    return loss, grads, aux
