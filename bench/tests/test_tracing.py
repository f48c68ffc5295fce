"""Self-time and tail-percentile arithmetic on synthetic spans."""

import pytest

from tracing import (SELF, Tracer, layer_report, percentile, self_times,
                     tail)


def test_self_time_subtracts_direct_children_only():
    # name, start, end, parent
    spans = [["a", 0.0, 10.0, None], ["b", 1.0, 4.0, 0],
             ["c", 2.0, 3.0, 1], ["d", 5.0, 9.0, 0]]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_tracer_self_times_match_the_span_arithmetic():
    # outer [0, 10] holds inner [1, 4], which holds deepest [2, 3]
    tracer = Tracer(FakeClock([0.0, 1.0, 2.0, 3.0, 4.0, 10.0]))
    deepest = tracer.span("deepest", lambda: None)
    inner = tracer.span("inner", deepest)
    tracer.span("outer", inner, sentence=True)()
    spans = tracer.spans
    assert [s[0] for s in spans] == ["outer", "inner", "deepest"]
    assert [s[SELF] for s in spans] == self_times(spans) == [7.0, 2.0, 1.0]
    assert tracer.top_time == 10.0
    assert tracer.ordinal == 1


def test_tallied_calls_count_as_children():
    # outer [0, 10] holds inner [1, 4] (which holds a tallied call [2, 3])
    # and a second tallied call [5, 9]
    tracer = Tracer(FakeClock([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0]))
    leaf = tracer.tally("leaf", lambda: None)
    inner = tracer.span("inner", leaf)

    def outer():
        inner()
        leaf()

    tracer.span("outer", outer)()
    assert [s[SELF] for s in tracer.spans] == [3.0, 2.0]
    assert tracer.tallies["leaf"] == [2, 5.0, 5.0]


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile([3.0], 50) == 3.0
    assert percentile([], 50) == 0.0


@pytest.mark.parametrize("n,pct", [(11, 9), (20, 50), (64, 84), (100, 90),
                                   (1000, 99)])
def test_tail_leaves_ten_samples_above(n, pct):
    values = [float(v) for v in range(n, 0, -1)]  # unsorted input
    got_pct, value = tail(values)
    assert got_pct == pct
    assert sum(1 for v in values if v > value) >= 10
    assert sum(1 for v in values if v > percentile(values, pct + 1)) < 10 \
        or pct == 99


def test_tail_needs_more_than_ten_samples():
    assert tail([1.0] * 10) == (0, 0.0)


def test_layer_report_on_a_synthetic_trace():
    spans = [
        ["decoder.astar_parse", 0.0, 0.5, None, 1, 0.3,
         {"pops": 10, "pushes": 30}],
        ["decoder.astar_parse", 0.1, 0.3, 0, 1, 0.2, {"pops": 4, "pushes": 5}],
        ["trees.write_auto", 0.6, 0.7, None, 1, 0.1, None],
    ]
    trace = {"spans": spans, "counters": {"apply_binary.repeat": 3},
             "tallies": {"grammar.apply_binary": [4, 0.2, 0.1]},
             "top_time": 0.6}
    report = layer_report([(1.0, trace)], untraced_wall=0.8)
    assert report["decoder.astar_parse.calls"] == 1  # nested search folded
    assert report["decoder.astar_parse.share"] == pytest.approx(0.5)
    assert report["decoder.pops"] == 10
    assert report["decoder.us_per_pop"] == pytest.approx(5e4)
    assert report["grammar.apply_binary.repeat_share"] == pytest.approx(0.75)
    assert report["grammar.apply_binary.self_ms"] == pytest.approx(100.0)
    assert report["trees.write_auto.ms"] == pytest.approx(100.0)
    assert report["cli.other_ms"] == pytest.approx(400.0)
    assert report["tracing.overhead_share"] == pytest.approx(0.25)
    assert report["model.score_sentence.calls"] == 0
