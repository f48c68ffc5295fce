"""In-memory call tracing and the arithmetic of the per-layer report.

A ``Tracer`` keeps a stack of open calls.  Each call adds its duration to
its parent's child time, so a call's self time is its duration minus the
time covered by its direct children.  Calls made through ``span`` wrappers
are kept as individual spans (name, start, end, parent, sentence ordinal,
self time, extra counts); calls made through ``tally`` wrappers, which sit
on hot paths, only add to per-name totals of calls, time and self time.
Both kinds count as children of the enclosing call.

``self_times``, ``percentile`` and ``tail`` work on plain lists, so the
report can be checked on synthetic spans.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Optional, Sequence

# span record layout
NAME, START, END, PARENT, ORDINAL, SELF, EXTRA = range(7)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: List[list] = []
        # name -> [calls, time, self time]
        self.tallies: Dict[str, List[float]] = {}
        self.counters: Dict[str, int] = {}
        self.ordinal = 0
        self.top_time = 0.0
        # open calls: [name, start, child_time, span index or None]
        self._stack: List[list] = []

    def count(self, name: str) -> None:
        self.counters[name] = self.counters.get(name, 0) + 1

    def _parent_span(self) -> Optional[int]:
        for frame in reversed(self._stack):
            if frame[3] is not None:
                return frame[3]
        return None

    def open(self, name: str, keep: bool) -> list:
        start = self.clock()
        index = None
        if keep:
            index = len(self.spans)
            self.spans.append([name, start, None, self._parent_span(),
                               self.ordinal, None, None])
        frame = [name, start, 0.0, index]
        self._stack.append(frame)
        return frame

    def close(self, frame: list) -> float:
        end = self.clock()
        popped = self._stack.pop()
        assert popped is frame, "unbalanced trace stack"
        duration = end - frame[1]
        own = duration - frame[2]
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.top_time += duration
        if frame[3] is not None:
            record = self.spans[frame[3]]
            record[END] = end
            record[SELF] = own
        else:
            tally = self.tallies.setdefault(frame[0], [0, 0.0, 0.0])
            tally[0] += 1
            tally[1] += duration
            tally[2] += own
        return duration

    def span(self, name: str, fn, sentence: bool = False, on_exit=None):
        """Wrap ``fn`` so that every call is kept as a span.  A sentence
        span opened outside any other sentence span starts a new sentence
        ordinal.  ``on_exit(record, counters_before, result)`` may fill
        the extra field."""
        tracer = self

        def wrapper(*args, **kwargs):
            if sentence and not any(tracer.spans[f[3]][EXTRA] == "sentence"
                                    for f in tracer._stack
                                    if f[3] is not None):
                tracer.ordinal += 1
            frame = tracer.open(name, keep=True)
            record = tracer.spans[frame[3]]
            if sentence:
                record[EXTRA] = "sentence"
            before = dict(tracer.counters)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer.close(frame)
                if on_exit is not None:
                    on_exit(record, before, result)

        wrapper.__wrapped__ = fn
        return wrapper

    def tally(self, name: str, fn, on_exit=None):
        """Wrap ``fn`` so that calls only add to the totals of ``name``."""
        tracer = self

        def wrapper(*args, **kwargs):
            frame = tracer.open(name, keep=False)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(frame)
            if on_exit is not None:
                on_exit(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def dump(self) -> dict:
        return {"spans": self.spans, "tallies": self.tallies,
                "counters": self.counters, "top_time": self.top_time}


# ---------------------------------------------------------------------------
# arithmetic on finished spans


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Self time of every span: its duration minus the durations of the
    spans whose parent it is."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] is not None:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``pct``
    percent of the values at or below it."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(values: Sequence[float]):
    """(percentile, value) for the highest whole percentile that leaves at
    least ten samples above it; (0, 0.0) with ten samples or fewer."""
    n = len(values)
    if n <= 10:
        return 0, 0.0
    pct = math.floor(100.0 * (n - 10) / n)
    return pct, percentile(values, pct)


def ancestor(spans: Sequence[Sequence], index: int, names) -> Optional[int]:
    """Index of the nearest proper ancestor whose name is in ``names``."""
    parent = spans[index][PARENT]
    while parent is not None:
        if spans[parent][NAME] in names:
            return parent
        parent = spans[parent][PARENT]
    return None


# ---------------------------------------------------------------------------
# the per-layer report of one traced pass

SCORER = "model.score_sentence"
SEARCH = "decoder.astar_parse"
STAGES = ("model.encode", "model.score_dep", "model.score_tag")
TALLIED = ("decoder.check_constraint", "grammar.apply_binary",
           "grammar.apply_unary", "categories.print_category",
           "categories.unify_features", "categories.parse_category")
SUMMED = ("model.save_model", "model.load_model", "trees.read_conllu",
          "trees.read_auto", "trees.write_auto", "scores.read_score_file",
          "scores.check_normalized")


def _timing(out: dict, prefix: str, durations: List[float],
            wall: float) -> None:
    out[prefix + ".calls"] = len(durations)
    out[prefix + ".p50_ms"] = percentile(durations, 50) * 1e3
    out[prefix + ".tail_ms"] = tail(durations)[1] * 1e3
    out[prefix + ".share"] = sum(durations) / wall if durations else 0.0


def layer_report(commands: Sequence[tuple], untraced_wall: float) -> dict:
    """Per-layer metrics of one pass.  ``commands`` holds a (wall seconds,
    trace dump) pair for every traced command of the pass;
    ``untraced_wall`` is the wall time of the same commands untraced."""
    out: dict = {}
    durations: Dict[str, List[float]] = {}
    walls: Dict[str, float] = {}
    scorer_stages: Dict[str, List[float]] = {}
    forward, backward, pops, pushes = [], [], [], []
    tallies: Dict[str, List[float]] = {}
    counters: Dict[str, int] = {}
    other = 0.0
    for wall, trace in commands:
        spans = trace["spans"]
        seen = set()
        stage_sum: Dict[tuple, float] = {}
        fwd_sum: Dict[int, float] = {}
        for i, s in enumerate(spans):
            name, dur = s[NAME], s[END] - s[START]
            if name == SEARCH and ancestor(spans, i, (SEARCH,)) is not None:
                continue  # a nested search belongs to its sentence's search
            durations.setdefault(name, []).append(dur)
            seen.add(name)
            if name == SEARCH:
                pops.append(s[EXTRA]["pops"])
                pushes.append(s[EXTRA]["pushes"])
            elif name in STAGES:
                top = ancestor(spans, i, (SCORER,))
                if top is not None:
                    key = (name, top)
                    stage_sum[key] = stage_sum.get(key, 0.0) + dur
            elif name == "model.forward" and s[PARENT] is not None \
                    and spans[s[PARENT]][NAME] == "model.nll_loss":
                fwd_sum[s[PARENT]] = fwd_sum.get(s[PARENT], 0.0) + dur
        for (name, _), total in stage_sum.items():
            scorer_stages.setdefault(name, []).append(total)
        for i, s in enumerate(spans):
            if s[NAME] == "model.nll_loss":
                forward.append(fwd_sum.get(i, 0.0))
                backward.append(s[END] - s[START] - fwd_sum.get(i, 0.0))
        for name in seen:
            walls[name] = walls.get(name, 0.0) + wall
        for name, (calls, total, self_time) in trace["tallies"].items():
            acc = tallies.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_time
        for name, value in trace["counters"].items():
            counters[name] = counters.get(name, 0) + value
        other += wall - trace["top_time"]

    def wall_of(name):
        return walls.get(name, 0.0)

    _timing(out, SCORER, durations.get(SCORER, []), wall_of(SCORER))
    for stage in STAGES:
        out[stage + ".p50_ms"] = percentile(scorer_stages.get(stage, []),
                                            50) * 1e3
    out["model.nll_loss.calls"] = len(durations.get("model.nll_loss", []))
    out["model.nll_loss.p50_ms"] = percentile(
        durations.get("model.nll_loss", []), 50) * 1e3
    out["model.forward.p50_ms"] = percentile(forward, 50) * 1e3
    out["model.backward.p50_ms"] = percentile(backward, 50) * 1e3
    out["model.adam_update.p50_ms"] = percentile(
        durations.get("model.adam_update", []), 50) * 1e3
    trained = durations.get("model.train", [])
    out["model.train.share"] = (sum(trained) / wall_of("model.train")
                                if trained else 0.0)
    search = durations.get(SEARCH, [])
    _timing(out, SEARCH, search, wall_of(SEARCH))
    out["decoder.pops"] = percentile(pops, 50)
    out["decoder.pushes"] = percentile(pushes, 50)
    out["decoder.us_per_pop"] = (sum(search) / sum(pops) * 1e6
                                 if sum(pops) else 0.0)
    for name in TALLIED:
        calls, _, self_time = tallies.get(name, (0, 0.0, 0.0))
        out[name + ".calls"] = calls
        out[name + ".self_ms"] = self_time * 1e3
    calls = tallies.get("grammar.apply_binary", (0,))[0]
    out["grammar.apply_binary.repeat_share"] = (
        counters.get("apply_binary.repeat", 0) / calls if calls else 0.0)
    out["grammar.apply_binary.empty_share"] = (
        counters.get("apply_binary.empty", 0) / calls if calls else 0.0)
    for name in SUMMED:
        out[name + ".ms"] = sum(durations.get(name, [])) * 1e3
    out["cli.other_ms"] = other * 1e3
    traced_wall = sum(wall for wall, _ in commands)
    out["tracing.overhead_share"] = traced_wall / untraced_wall - 1.0
    return out


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith(".calls") or name in ("decoder.pops", "decoder.pushes"):
        return "count"
    if name.endswith("_ms") or name.endswith(".ms"):
        return "ms"
    if name.endswith("share"):
        return "share"
    if name == "decoder.us_per_pop":
        return "us"
    raise KeyError(name)
