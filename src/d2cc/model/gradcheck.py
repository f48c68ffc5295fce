"""Finite-difference verification of the analytic gradients."""

from __future__ import annotations

from typing import Optional, Sequence

from ..trees import DepTree
from .network import Model, encode, loss_value, nll_loss

# the tensors of the score heads, which the encoder never reads
_HEAD_TENSORS = ("root_h", "biaff_", "bil_", "mlp_")


def grad_check(model: Model, z: DepTree, tags: Sequence[str],
               heads: Sequence[int], eps: float = 1e-4,
               corrupt: Optional[str] = None) -> float:
    """Max relative error between analytic and central-difference grads.

    The predicted head used by the tag scorer is frozen to its value at
    the unperturbed parameters so every finite-difference evaluation
    sees the same discrete choice.  ``corrupt`` names a tensor whose
    analytic gradient is deliberately damaged, as a negative control.
    Perturbing a head tensor leaves the encoder states as they are, so
    those evaluations reuse the states of the unperturbed parameters.
    """
    _, grads, aux = nll_loss(model, z, tags, heads)
    dhat = aux["dhat"]
    states = encode(model, z)
    if corrupt is not None:
        grads[corrupt] = grads[corrupt] * 2.0 + 0.1
    worst = 0.0
    for name in sorted(model.params):
        arr = model.params[name]
        gflat = grads[name].reshape(-1)
        flat = arr.reshape(-1)
        hmat = states if name.startswith(_HEAD_TENSORS) else None
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + eps
            lp = loss_value(model, z, tags, heads, dhat, hmat=hmat)
            flat[idx] = orig - eps
            lm = loss_value(model, z, tags, heads, dhat, hmat=hmat)
            flat[idx] = orig
            numeric = (lp - lm) / (2.0 * eps)
            analytic = gflat[idx]
            rel = abs(analytic - numeric) / max(abs(analytic),
                                                abs(numeric), 1e-4)
            worst = max(worst, rel)
    return worst
