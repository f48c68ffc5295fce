"""Run one ``d2cc`` command and report its own peak RSS, traced or not.

Usage: python3 launcher.py RESULT.json trace|plain D2CC_ARGS...

Calls ``d2cc.cli.main(argv)``, the function behind the ``d2cc`` command,
and writes RESULT.json when it returns.  The peak RSS is the process's
``VmHWM``: the ``ru_maxrss`` a parent sees from ``wait4`` also counts the
parent's own memory at the time of the fork, which would mix the
benchmark's memory into small commands.

With ``trace``, the names that caller modules look up at call time (for
example ``d2cc.decoder.apply_binary`` or the decoder's ``heapq``) are
wrapped first, so the traced command runs the same code as the plain one.
Spans and tallies stay in memory and go into RESULT.json.
"""

from __future__ import annotations

import heapq
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import EXTRA, Tracer  # noqa: E402


class _CountingHeap:
    """Stands in for the decoder's ``heapq`` module and counts pushes and
    pops."""

    def __init__(self, tracer: Tracer):
        self._tracer = tracer

    def heappush(self, heap, item):
        self._tracer.count("pushes")
        heapq.heappush(heap, item)

    def heappop(self, heap):
        self._tracer.count("pops")
        return heapq.heappop(heap)


def install(tracer: Tracer) -> None:
    """Replace the looked-up names of every traced layer boundary."""
    import d2cc.cli as cli
    import d2cc.decoder as decoder
    import d2cc.grammar as grammar
    import d2cc.model as model
    import d2cc.model.network as network
    import d2cc.model.training as training
    import d2cc.scores as scores
    import d2cc.trees as trees

    def span(module, attr, name, **kw):
        setattr(module, attr, tracer.span(name, getattr(module, attr), **kw))

    def tally(module, attr, name, **kw):
        setattr(module, attr, tracer.tally(name, getattr(module, attr), **kw))

    def search_counts(record, before, result):
        """Pops and pushes made while a search span was open."""
        record[EXTRA] = {
            "pops": tracer.counters.get("pops", 0) - before.get("pops", 0),
            "pushes": (tracer.counters.get("pushes", 0)
                       - before.get("pushes", 0)),
        }

    # cli -> trees, scores, model, decoder
    span(cli, "read_conllu", "trees.read_conllu")
    span(cli, "read_auto", "trees.read_auto")
    span(cli, "write_auto", "trees.write_auto")
    span(cli, "read_score_file", "scores.read_score_file")
    span(cli, "check_normalized", "scores.check_normalized")
    span(cli, "load_model", "model.load_model")
    span(cli, "save_model", "model.save_model")
    span(cli, "train", "model.train")
    span(cli, "decoder_convert", "decoder.convert", sentence=True)
    span(cli, "astar_parse", "decoder.astar_parse", sentence=True,
         on_exit=search_counts)

    # decoder -> model, decoder internals, heapq
    span(model, "score_sentence", "model.score_sentence")
    span(decoder, "astar_parse", "decoder.astar_parse", sentence=True,
         on_exit=search_counts)
    decoder.heapq = _CountingHeap(tracer)
    tally(decoder, "check_constraint", "decoder.check_constraint")

    # training -> network, optimiser
    span(training, "nll_loss", "model.nll_loss", sentence=True)
    update = training.AdamState.update
    training.AdamState.update = tracer.span("model.adam_update", update)
    span(network, "_forward", "model.forward")
    for stage in ("_embed", "_seq_forward", "_tree_forward"):
        span(network, stage, "model.encode")
    span(network, "_dep_forward", "model.score_dep")
    span(network, "_tag_forward", "model.score_tag")

    # decoder -> grammar
    pairs = set()
    seen_ordinal = [None]

    def binary_seen(args, result):
        if seen_ordinal[0] != tracer.ordinal:
            pairs.clear()
            seen_ordinal[0] = tracer.ordinal
        key = (args[1], args[2])
        if key in pairs:
            tracer.count("apply_binary.repeat")
        else:
            pairs.add(key)
        if not result:
            tracer.count("apply_binary.empty")

    tally(decoder, "apply_binary", "grammar.apply_binary", on_exit=binary_seen)
    tally(decoder, "apply_unary", "grammar.apply_unary")

    # decoder, grammar, trees, scores, training -> categories
    for module in (decoder, trees, scores, training):
        tally(module, "print_category", "categories.print_category")
    for module in (decoder, trees, scores):
        tally(module, "parse_category", "categories.parse_category")
    for module in (decoder, grammar):
        tally(module, "unify_features", "categories.unify_features")


def peak_rss_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv) -> int:
    out, mode, args = argv[0], argv[1], argv[2:]
    tracer = Tracer() if mode == "trace" else None
    if tracer is not None:
        install(tracer)
    import d2cc.cli

    code = d2cc.cli.main(args)
    result = {"peak_rss_kb": peak_rss_kb()}
    if tracer is not None:
        result["trace"] = tracer.dump()
    Path(out).write_text(json.dumps(result), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
