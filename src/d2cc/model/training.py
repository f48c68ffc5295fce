"""Adam training loop over aligned (dependency tree, derivation) pairs."""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..categories import print_category
from ..errors import TrainingError
from ..trees import extract_headfirst, terminals
from ..config import TrainConfig
from .network import Model, nll_loss


def tree_targets(tree) -> Tuple[List[str], List[int]]:
    """Gold categories and head-first parents from a derivation tree."""
    tags = [print_category(leaf.category) for leaf in terminals(tree)]
    return tags, extract_headfirst(tree)


class AdamState:
    """First and second moment estimates plus the step counter."""

    def __init__(self, params: Dict[str, np.ndarray]):
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.step = 0

    def update(self, params: Dict[str, np.ndarray],
               grads: Dict[str, np.ndarray], config: TrainConfig) -> None:
        """One step in place; each element rounds as in ``p -= lr * (m /
        bias1) / (sqrt(v / bias2) + eps)`` on the updated moments."""
        self.step += 1
        b1, b2 = config.beta1, config.beta2
        bias1 = 1.0 - b1 ** self.step
        bias2 = 1.0 - b2 ** self.step
        for name in sorted(params):
            g, m, v = grads[name], self.m[name], self.v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            step = np.sqrt(v / bias2)
            step += config.eps
            np.divide(config.lr * (m / bias1), step, out=step)
            params[name] -= step


def _epoch_sample(datasets: Sequence[Tuple[list, float]],
                  rng: np.random.Generator) -> Tuple[list, List[int]]:
    """Draw one epoch's examples; fractional weights are Bernoulli draws."""
    sample = []
    drawn = []
    for pairs, weight in datasets:
        count = 0
        whole = int(weight)
        frac = weight - whole
        for pair in pairs:
            copies = whole
            if frac > 0.0 and rng.random() < frac:
                copies += 1
            count += copies
            sample.extend([pair] * copies)
        drawn.append(count)
    return sample, drawn


def train(model: Model, datasets: Sequence[Tuple[list, float]],
          config: TrainConfig) -> List[dict]:
    """Optimize ``model.params`` in place; returns per-epoch metrics.

    ``datasets`` is a list of (pairs, weight) where each pair is a
    (DepTree, derivation tree) alignment and the weight is the expected
    number of copies of each sentence drawn per epoch.  Deterministic
    for a fixed seed on a single thread.
    """
    if not datasets or not any(pairs for pairs, _ in datasets):
        raise TrainingError("no training data")
    rng = np.random.default_rng(config.seed)
    adam = AdamState(model.params)
    history: List[dict] = []
    targets = {}
    for pairs, _ in datasets:
        for pair in pairs:
            if id(pair) not in targets:
                targets[id(pair)] = tree_targets(pair[1])
    for epoch in range(1, config.epochs + 1):
        sample, drawn = _epoch_sample(datasets, rng)
        if config.shuffle and len(sample) > 1:
            order = rng.permutation(len(sample))
            sample = [sample[k] for k in order]
        total_loss = 0.0
        tag_hits = tag_total = 0
        head_hits = head_total = 0
        for start in range(0, len(sample), config.batch_size):
            batch = sample[start:start + config.batch_size]
            batch_grads = None
            for pair in batch:
                z = pair[0]
                tags, heads = targets[id(pair)]
                loss, grads, aux = nll_loss(model, z, tags, heads)
                if not np.isfinite(loss):
                    raise TrainingError(
                        "non-finite loss at epoch %d (sentence %r)"
                        % (epoch, " ".join(z.tokens)))
                total_loss += loss
                if batch_grads is None:
                    batch_grads = grads
                else:
                    for name in batch_grads:
                        batch_grads[name] += grads[name]
                tag_hits += int((aux["pred_tags"]
                                 == aux["gold_tag_ids"]).sum())
                tag_total += len(tags)
                head_hits += int((aux["dhat"]
                                  == aux["gold_head_ids"]).sum())
                head_total += len(heads)
            adam.update(model.params, batch_grads, config)
        tag_acc = tag_hits / tag_total if tag_total else 0.0
        head_acc = head_hits / head_total if head_total else 0.0
        history.append(dict(epoch=epoch, loss=total_loss,
                            tag_acc=tag_acc, head_acc=head_acc,
                            examples=len(sample), drawn=drawn))
        if (config.early_stop_acc > 0.0
                and tag_acc >= config.early_stop_acc
                and head_acc >= config.early_stop_acc):
            break
    return history
