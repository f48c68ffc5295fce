"""Versioned binary model checkpoints.

Layout: 4 magic bytes, a little-endian uint32 format version, a
little-endian uint32 header length, a JSON header (configuration,
vocabularies and tensor shapes, keys sorted), then the raw float64
little-endian bytes of every tensor in sorted name order.  A model with
external embeddings also stores the sha256 of their file as
``ext_sha256``, and loads only while the file still has it.
"""

from __future__ import annotations

import itertools
import json
import struct
from dataclasses import asdict

import numpy as np

from ..config import ModelConfig, read_bytes
from ..errors import CheckpointError, DataError
from .network import Model, param_shapes
from .vocab import Vocabulary, load_ext_embeddings

MAGIC = b"D2CC"
VERSION = 1
_DEFAULTS = ModelConfig()


def _sha256(path) -> str:
    # imported here: hashlib loads OpenSSL, about 3.7 MB of resident
    # memory that only a model with external embeddings needs
    import hashlib
    return hashlib.sha256(read_bytes(path)).hexdigest()


def save_model(model: Model, path) -> None:
    names = sorted(model.params)
    header = {
        "config": asdict(model.config),
        "vocab": {
            "words": list(model.vocab.words),
            "pos": list(model.vocab.pos),
            "labels": list(model.vocab.labels),
            "categories": list(model.vocab.categories),
            "unk_buckets": model.vocab.unk_buckets,
        },
        "tensors": [[name, list(model.params[name].shape)]
                    for name in names],
    }
    if model.config.ext_embeddings:
        header["ext_sha256"] = _sha256(model.config.ext_embeddings)
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    try:
        with open(path, "wb") as handle:
            handle.write(MAGIC)
            handle.write(struct.pack("<II", VERSION, len(blob)))
            handle.write(blob)
            for name in names:
                arr = np.ascontiguousarray(model.params[name], dtype="<f8")
                handle.write(arr.tobytes())
    except OSError as exc:
        raise DataError("cannot write %s: %s" % (path, exc))


def _well_typed(config: dict, names, unk_buckets) -> bool:
    """JSON has no field types: True iff every config value has the type
    of its field's default (no float dimension, no numeric path), the name
    lists hold strings only and ``unk_buckets`` is an int."""
    return (all(type(value) is type(getattr(_DEFAULTS, key, None))
                for key, value in config.items())
            and all(type(part) is list and all(type(n) is str for n in part)
                    for part in names)
            and type(unk_buckets) is int)


def load_model(path) -> Model:
    """Read a checkpoint and the external embeddings it names.  A file that
    cannot be read raises DataError; a malformed checkpoint, or embeddings
    whose sha256 is not the one the checkpoint holds, CheckpointError."""
    raw = read_bytes(path)
    if len(raw) < 12 or raw[:4] != MAGIC:
        raise CheckpointError("%s: not a model checkpoint" % path)
    version, header_len = struct.unpack("<II", raw[4:12])
    if version != VERSION:
        raise CheckpointError("%s: unsupported checkpoint version %d"
                              % (path, version))
    if len(raw) < 12 + header_len:
        raise CheckpointError("%s: truncated checkpoint header" % path)
    try:
        header = json.loads(raw[12:12 + header_len].decode("utf-8"))
    except ValueError:
        raise CheckpointError("%s: corrupt checkpoint header" % path)
    try:
        raw_config, voc = header["config"], header["vocab"]
        names = {key: voc[key]
                 for key in ("words", "pos", "labels", "categories")}
        if not _well_typed(raw_config, names.values(), voc["unk_buckets"]):
            raise TypeError("mistyped header value")
        config = ModelConfig(**raw_config)
        vocab = Vocabulary(**{key: tuple(value)
                              for key, value in names.items()},
                           unk_buckets=voc["unk_buckets"])
        tensors = header["tensors"]
        digest = header.get("ext_sha256", "")
        if type(digest) is not str:
            raise TypeError("mistyped header value")
    except (KeyError, TypeError, AttributeError):
        raise CheckpointError("%s: malformed checkpoint header" % path)
    except DataError as exc:
        raise CheckpointError("%s: %s" % (path, exc))
    ext, ext_dim = None, 0
    if config.ext_embeddings:
        try:
            ext, ext_dim = load_ext_embeddings(config.ext_embeddings)
        except ValueError as exc:
            # a path no file can have (a NUL, a lone surrogate)
            raise CheckpointError("%s: cannot read embeddings %r: %s"
                                  % (path, config.ext_embeddings, exc))
        if "ext_sha256" in header \
                and _sha256(config.ext_embeddings) != digest:
            raise CheckpointError(
                "%s: embeddings %s no longer have the sha256 %s they had "
                "when the model was saved" % (path, config.ext_embeddings,
                                               digest))
    try:
        expected = sorted(param_shapes(config, vocab, ext_dim).items())
        listed = [(name, tuple(shape)) for name, shape in tensors]
    except (TypeError, ValueError):
        raise CheckpointError("%s: malformed checkpoint header" % path)
    for got, want in itertools.zip_longest(listed, expected,
                                           fillvalue=("nothing", "")):
        if got != want:
            raise CheckpointError(
                "%s: the header lists %s%s where the configuration expects "
                "%s%s" % ((path,) + got + want))
    params = {}
    offset = 12 + header_len
    for name, shape in expected:
        count = int(np.prod(shape, dtype=np.int64))
        nbytes = count * 8
        if offset + nbytes > len(raw):
            raise CheckpointError("%s: truncated tensor %s" % (path, name))
        flat = np.frombuffer(raw, dtype="<f8", count=count, offset=offset)
        if not np.isfinite(flat).all():
            raise CheckpointError("%s: tensor %s holds a non-finite value"
                                  % (path, name))
        params[name] = flat.astype(np.float64).reshape(shape)
        offset += nbytes
    if offset != len(raw):
        raise CheckpointError("%s: %d trailing bytes" % (path, len(raw) - offset))
    return Model(config=config, vocab=vocab, params=params,
                 ext=ext, ext_dim=ext_dim)
