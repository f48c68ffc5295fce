"""Model and training configuration, and the line format of d2cc's
hand-written files: '#' starts a comment, blank lines are skipped and
errors name the line as ``origin:line``."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from importlib import resources
from pathlib import Path

from .errors import DataError


@dataclass(frozen=True)
class ModelConfig:
    """Dimensions and vocabulary settings for the tree-encoder scorer."""

    word_dim: int = 64
    pos_dim: int = 50
    label_dim: int = 50
    seq_dim: int = 300
    seq_layers: int = 2
    tree_dim: int = 300
    mlp_dim: int = 100
    unk_buckets: int = 8
    ext_embeddings: str = ""

    def __post_init__(self):
        _require(self, ["word_dim", "pos_dim", "label_dim", "seq_dim",
                        "seq_layers", "tree_dim", "mlp_dim", "unk_buckets"],
                 lambda v: v >= 1, "at least 1")
        _require(self, ["seq_dim"], lambda v: v % 2 == 0, "even")


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer and schedule settings."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.9
    eps: float = 1e-8
    epochs: int = 200
    batch_size: int = 8
    seed: int = 0
    shuffle: bool = True
    early_stop_acc: float = 0.0

    def __post_init__(self):
        _require(self, ["batch_size"], lambda v: v >= 1, "at least 1")
        _require(self, ["epochs"], lambda v: v >= 0, "at least 0")
        _require(self, ["lr", "eps"], lambda v: math.isfinite(v) and v > 0,
                 "finite and above 0")
        _require(self, ["beta1", "beta2"], lambda v: 0 <= v < 1, "in [0, 1)")


def _require(config, keys, test, rule: str) -> None:
    """Raise DataError naming the first of ``keys`` whose value fails
    ``test``."""
    for key in keys:
        value = getattr(config, key)
        if not test(value):
            raise DataError("%s must be %s, got %r" % (key, rule, value))


def content_lines(text: str):
    """``(line number, line)`` for every line of ``text`` that holds more
    than a comment, with the comment and outer white space removed."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def read_text(path) -> str:
    """The text of the UTF-8 file ``path``, newlines translated.  A file
    that cannot be opened, or bytes that are not UTF-8, raise a DataError
    naming ``path``, which the decode error itself does not."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError("cannot read %s: %s" % (path, exc))


def read_bytes(path) -> bytes:
    """The bytes of the file ``path``; a file that cannot be opened raises
    a DataError naming ``path``."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise DataError("cannot read %s: %s" % (path, exc))


def data_text(name: str) -> str:
    """The text of a file shipped in the package's ``data`` directory."""
    return resources.files("d2cc").joinpath("data").joinpath(name) \
        .read_text(encoding="utf-8")


def parse_bool(raw: str, key: str, origin: str) -> bool:
    """``raw`` as true/false, yes/no or 1/0, in any case."""
    low = raw.lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise DataError("%s: bad boolean for %s: %r" % (origin, key, raw))


def _convert(raw: str, kind: str, key: str, origin: str):
    if kind == "bool":
        return parse_bool(raw, key, origin)
    try:
        return {"int": int, "float": float, "str": str}[kind](raw)
    except ValueError:
        raise DataError("%s: bad value for %s: %r" % (origin, key, raw))


def parse_config_text(text: str, origin: str = "<string>") -> dict:
    """Parse ``key = value`` lines into a dict."""
    out = {}
    for lineno, line in content_lines(text):
        if "=" not in line:
            raise DataError("%s:%d: expected key=value" % (origin, lineno))
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def configs_from_dict(raw: dict, origin: str = "<string>"):
    """Split a raw key=value dict into (ModelConfig, TrainConfig)."""
    kwargs = {ModelConfig: {}, TrainConfig: {}}
    owner = {f.name: (cls, f.type) for cls in kwargs for f in fields(cls)}
    for key, value in raw.items():
        if key not in owner:
            raise DataError("%s: unknown configuration key %r" % (origin, key))
        cls, kind = owner[key]
        kwargs[cls][key] = _convert(value, kind, key, origin)
    try:
        return ModelConfig(**kwargs[ModelConfig]), TrainConfig(**kwargs[TrainConfig])
    except DataError as exc:
        raise DataError("%s: %s" % (origin, exc))


def load_config_file(path):
    """Read a key=value config file holding model and training settings.
    A relative ``ext_embeddings`` path is made absolute against the
    file's directory."""
    raw = parse_config_text(read_text(path), str(path))
    if raw.get("ext_embeddings"):
        raw["ext_embeddings"] = str(Path(path).absolute().parent
                                    / raw["ext_embeddings"])
    return configs_from_dict(raw, str(path))
