"""Trainable scorer: tree encoder, biaffine/bilinear scoring, training."""

from ..config import (ModelConfig, TrainConfig, configs_from_dict,
                      load_config_file, parse_config_text)
from .checkpoint import load_model, save_model
from .gradcheck import grad_check
from .network import (Model, encode, encode_batch, init_model, loss_value,
                      nll_loss, param_shapes, score_dep, score_sentence,
                      score_tag)
from .training import AdamState, train, tree_targets
from .vocab import Vocabulary, build_vocab, load_ext_embeddings

__all__ = [
    "AdamState",
    "Model",
    "ModelConfig",
    "TrainConfig",
    "Vocabulary",
    "build_vocab",
    "configs_from_dict",
    "encode",
    "encode_batch",
    "grad_check",
    "init_model",
    "load_config_file",
    "load_ext_embeddings",
    "load_model",
    "loss_value",
    "nll_loss",
    "param_shapes",
    "parse_config_text",
    "save_model",
    "score_dep",
    "score_sentence",
    "score_tag",
    "train",
    "tree_targets",
]
