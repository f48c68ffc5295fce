"""Finite-difference verification of the analytic gradients."""

from __future__ import annotations

from typing import Optional, Sequence

from ..trees import DepTree
from .network import Model, loss_value, nll_loss


def grad_check(model: Model, z: DepTree, tags: Sequence[str],
               heads: Sequence[int], eps: float = 1e-4,
               corrupt: Optional[str] = None) -> float:
    """Max relative error between analytic and central-difference grads.

    The predicted head used by the tag scorer is frozen to its value at
    the unperturbed parameters so every finite-difference evaluation
    sees the same discrete choice.  ``corrupt`` names a tensor whose
    analytic gradient is deliberately damaged, as a negative control.
    """
    _, grads, aux = nll_loss(model, z, tags, heads)
    dhat = aux["dhat"]
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
            lp = loss_value(model, z, tags, heads, dhat_override=dhat)
            flat[idx] = orig - eps
            lm = loss_value(model, z, tags, heads, dhat_override=dhat)
            flat[idx] = orig
            numeric = (lp - lm) / (2.0 * eps)
            analytic = gflat[idx]
            rel = abs(analytic - numeric) / max(abs(analytic),
                                                abs(numeric), 1e-4)
            worst = max(worst, rel)
    return worst
