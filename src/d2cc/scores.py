"""Per-sentence score matrices exchanged between scorer and decoder.

``tag_logp`` is N x |C| (token rows over the category inventory) and
``dep_logp`` is N x (N+1) (token rows over head candidates, column 0 = root).
Every row is a log distribution: it must log-sum-exp to 0 within 1e-6.

A score file is a JSON list of objects, one per sentence::

    {"tokens": [...], "categories": [...],
     "tag_logp": [[...]], "dep_logp": [[...]]}

``tokens`` and ``categories`` are lists of strings.  -inf is stored as the
string ``"-inf"``; a NaN or +inf entry is refused on write.  The reader
accepts any JSON layout, and reads a single object as a list of one; the
writer puts each object on a line of its own.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .categories import parse_category, print_category
from .errors import DataError


@dataclass
class ScoreMatrices:
    """``categories`` holds canonical category text (column order of
    ``tag_logp``)."""

    tokens: List[str]
    categories: List[str]
    tag_logp: np.ndarray
    dep_logp: np.ndarray

    def __len__(self) -> int:
        return len(self.tokens)


def check_normalized(m: ScoreMatrices, tol: float = 1e-6) -> Optional[str]:
    """None if every row normalizes; else a message naming the first bad row."""
    n = len(m.tokens)
    if m.tag_logp.shape != (n, len(m.categories)):
        return "tag_logp shape %s does not match %d tokens x %d categories" % (
            m.tag_logp.shape, n, len(m.categories))
    if m.dep_logp.shape != (n, n + 1):
        return "dep_logp shape %s does not match %d tokens" % (
            m.dep_logp.shape, n)
    for name, mat in (("tag_logp", m.tag_logp), ("dep_logp", m.dep_logp)):
        lse = _logsumexp_rows(mat)
        bad = np.flatnonzero(~(np.abs(lse) <= tol))  # NaN compares False
        if bad.size:
            i = bad[0]
            return "%s row %d log-sum-exps to %.3g, not 0" % (name, i + 1,
                                                              lse[i])
    return None


def _logsumexp_rows(mat: np.ndarray) -> np.ndarray:
    """Log-sum-exp of every row: -inf for an empty or all -inf row, NaN
    for a row holding NaN or +inf."""
    with np.errstate(divide="ignore", invalid="ignore"):
        hi = np.max(mat, axis=1, keepdims=True, initial=-np.inf)
        hi[hi == -np.inf] = 0.0
        return hi[:, 0] + np.log(np.sum(np.exp(mat - hi), axis=1))


def matrices_to_dict(m: ScoreMatrices) -> dict:
    """``m`` as JSON values, -inf as the string "-inf"; a NaN or +inf
    entry raises DataError naming its row."""
    return {
        "tokens": list(m.tokens),
        "categories": list(m.categories),
        "tag_logp": _rows(m.tag_logp, "tag_logp"),
        "dep_logp": _rows(m.dep_logp, "dep_logp"),
    }


def _rows(mat: np.ndarray, name: str) -> list:
    mat = np.asarray(mat, dtype=np.float64)
    neg = mat == -np.inf
    bad = ~(np.isfinite(mat) | neg)
    if bad.any():
        r = int(np.flatnonzero(bad.any(axis=1))[0])
        raise DataError("%s row %d holds %s"
                        % (name, r + 1, float(mat[r][bad[r]][0])))
    rows = mat.tolist()
    for r in np.flatnonzero(neg.any(axis=1)).tolist():
        rows[r] = ["-inf" if v == -math.inf else v for v in rows[r]]
    return rows


# the JSON values that NumPy converts as ``float`` does
_NUMBERS = frozenset((float, int, bool))


def _matrix(rows) -> np.ndarray:
    """``rows`` in one NumPy call; only a row holding a value other than a
    number goes value by value through ``_denum``."""
    return np.array([row if _NUMBERS.issuperset(map(type, row))
                     else [_denum(v) for v in row] for row in rows],
                    dtype=np.float64)


def _denum(v) -> float:
    if isinstance(v, str):
        if v in ("-inf", "-Infinity"):
            return -math.inf
        raise DataError("bad score value %r" % v)
    return float(v)


def _strings(d: dict, field: str) -> List[str]:
    values = d[field]
    if not (isinstance(values, list)
            and all(isinstance(v, str) for v in values)):
        raise DataError("score object field %s must be a list of strings"
                        % field)
    return list(values)


def matrices_from_dict(d: dict) -> ScoreMatrices:
    if not isinstance(d, dict):
        raise DataError("score object must be a JSON object, got %r" % (d,))
    try:
        tokens = _strings(d, "tokens")
        # store canonical text so lookups by printed category always match
        categories = [print_category(parse_category(c))
                      for c in _strings(d, "categories")]
        tag = _matrix(d["tag_logp"])
        dep = _matrix(d["dep_logp"])
    except KeyError as exc:
        raise DataError("score object missing field %s" % exc)
    except OverflowError:
        raise DataError("score value too large for a float")
    except (TypeError, ValueError):
        raise DataError("score matrices must be rectangular lists of numbers")
    if tag.ndim != 2 or dep.ndim != 2:
        raise DataError("score matrices must be rectangular")
    return ScoreMatrices(tokens, categories, tag, dep)


def write_score_file(batch: List[ScoreMatrices]) -> str:
    """``batch`` as a JSON list with one compact line per matrix, which
    json's C encoder writes."""
    lines = []
    for k, m in enumerate(batch, 1):
        try:
            lines.append(json.dumps(matrices_to_dict(m)))
        except DataError as exc:
            raise DataError("score matrix %d: %s" % (k, exc))
    if not lines:
        return "[]\n"
    return "[\n" + ",\n".join(lines) + "\n]\n"


def read_score_file(text: str) -> List[ScoreMatrices]:
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise DataError("score file is not valid JSON: %s" % exc)
    if isinstance(data, dict):
        data = [data]
    if not isinstance(data, list):
        raise DataError("score file must contain a list of score objects")
    return [matrices_from_dict(d) for d in data]
