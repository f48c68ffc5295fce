"""Symbol vocabularies with hashed fallback buckets for unknown words."""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Sequence, Tuple

import numpy as np

from ..categories import print_category
from ..errors import DataError, VocabularyError
from ..trees import terminals

UNK = "<unk>"


@dataclass(frozen=True)
class Vocabulary:
    """Maps words, POS tags, arc labels and categories to indices.

    Words missing from the closed list fall into one of ``unk_buckets``
    rows chosen by a CRC32 hash; POS tags and labels share a single
    reserved unknown row; categories are a closed inventory.
    """

    words: Tuple[str, ...]
    pos: Tuple[str, ...]
    labels: Tuple[str, ...]
    categories: Tuple[str, ...]
    unk_buckets: int = 8
    _word_ids: Dict[str, int] = field(repr=False, compare=False, default=None)
    _pos_ids: Dict[str, int] = field(repr=False, compare=False, default=None)
    _label_ids: Dict[str, int] = field(repr=False, compare=False, default=None)
    _cat_ids: Dict[str, int] = field(repr=False, compare=False, default=None)

    def __post_init__(self):
        object.__setattr__(self, "_word_ids",
                           {w: i for i, w in enumerate(self.words)})
        object.__setattr__(self, "_pos_ids",
                           {p: i for i, p in enumerate(self.pos)})
        object.__setattr__(self, "_label_ids",
                           {l: i for i, l in enumerate(self.labels)})
        object.__setattr__(self, "_cat_ids",
                           {c: i for i, c in enumerate(self.categories)})

    @property
    def word_rows(self) -> int:
        return len(self.words) + self.unk_buckets

    def word_id(self, word: str) -> int:
        idx = self._word_ids.get(word)
        if idx is not None:
            return idx
        bucket = zlib.crc32(word.encode("utf-8")) % self.unk_buckets
        return len(self.words) + bucket

    def pos_id(self, tag: str) -> int:
        return self._pos_ids.get(tag, 0)

    def label_id(self, label: str) -> int:
        return self._label_ids.get(label, 0)

    def category_id(self, category: str) -> int:
        idx = self._cat_ids.get(category)
        if idx is None:
            raise VocabularyError(
                "category %s not in the model inventory" % category)
        return idx


def build_vocab(pairs: Sequence, unk_buckets: int = 8) -> Vocabulary:
    """Collect vocabularies from aligned (DepTree, tree) training pairs."""
    words, pos, labels, cats = set(), set(), set(), set()
    for z, tree in pairs:
        words.update(z.tokens)
        pos.update(z.pos)
        labels.update(z.labels)
        for leaf in terminals(tree):
            cats.add(print_category(leaf.category))
    if len(cats) < 2:
        raise DataError("category inventory needs at least 2 entries, got %d"
                        % len(cats))
    return Vocabulary(
        words=tuple(sorted(words)),
        pos=(UNK,) + tuple(sorted(pos)),
        labels=(UNK,) + tuple(sorted(labels)),
        categories=tuple(sorted(cats)),
        unk_buckets=unk_buckets,
    )


def load_ext_embeddings(path) -> Tuple[Dict[str, np.ndarray], int]:
    """Read a ``word v1 v2 ...`` text file of fixed extra word vectors."""
    table: Dict[str, np.ndarray] = {}
    dim = None
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) == 1:
            raise DataError("%s:%d: word %r has no values"
                            % (path, lineno, parts[0]))
        try:
            vec = np.array([float(v) for v in parts[1:]], dtype=np.float64)
        except ValueError as exc:
            raise DataError("%s:%d: %s" % (path, lineno, exc))
        if not np.isfinite(vec).all():
            raise DataError("%s:%d: word %r has a non-finite value"
                            % (path, lineno, parts[0]))
        if dim is None:
            dim = vec.size
        elif vec.size != dim:
            raise DataError("%s:%d: expected %d values, got %d"
                            % (path, lineno, dim, vec.size))
        table[parts[0]] = vec
    if dim is None:
        raise DataError("%s: empty embedding file" % path)
    return table, dim
