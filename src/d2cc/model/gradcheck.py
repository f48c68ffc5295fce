"""Finite-difference verification of the analytic gradients."""

from __future__ import annotations

from typing import Optional, Sequence

from ..trees import DepTree
from .network import (Model, _embed, _encode, _seq_forward, encode,
                      loss_value, nll_loss)

# the tensors of the score heads, which the encoder never reads
_HEAD_TENSORS = ("root_h", "biaff_", "bil_", "mlp_")
# the tensors of the tree stage, which the sequence BiLSTM never reads
_TREE_TENSORS = ("up_", "down_", "emb_label")


def grad_check(model: Model, z: DepTree, tags: Sequence[str],
               heads: Sequence[int], eps: float = 1e-4,
               corrupt: Optional[str] = None) -> float:
    """Max relative error between analytic and central-difference grads.

    The predicted head used by the tag scorer is frozen to its value at
    the unperturbed parameters so every finite-difference evaluation
    sees the same discrete choice.  ``corrupt`` names a tensor whose
    analytic gradient is deliberately damaged, as a negative control.
    Perturbing a head tensor leaves the encoder states as they are, so
    those evaluations reuse the states of the unperturbed parameters;
    perturbing a tree tensor leaves the sequence BiLSTM's output as it is,
    so those evaluations rerun only the tree stage over it.
    """
    _, grads, aux = nll_loss(model, z, tags, heads)
    dhat = aux["dhat"]
    states = encode(model, z)
    seq = _seq_forward(model, _embed(model, [z], {}), [len(z.tokens)], None)

    def loss(perturbed: str) -> float:
        if perturbed.startswith(_HEAD_TENSORS):
            hmat = states
        elif perturbed.startswith(_TREE_TENSORS):
            hmat = _encode(model, [z], seq=seq)
        else:
            hmat = None
        return loss_value(model, z, tags, heads, dhat, hmat=hmat)

    if corrupt is not None:
        grads[corrupt] = grads[corrupt] * 2.0 + 0.1
    worst = 0.0
    for name in sorted(model.params):
        arr = model.params[name]
        gflat = grads[name].reshape(-1)
        flat = arr.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + eps
            lp = loss(name)
            flat[idx] = orig - eps
            lm = loss(name)
            flat[idx] = orig
            numeric = (lp - lm) / (2.0 * eps)
            analytic = gflat[idx]
            rel = abs(analytic - numeric) / max(abs(analytic),
                                                abs(numeric), 1e-4)
            worst = max(worst, rel)
    return worst
