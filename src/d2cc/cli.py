"""Command-line pipeline: train a converter, generate, check and score
CCG treebanks derived from dependency corpora.

``convert`` and ``decode`` decode in a pool of forked workers, one per
CPU in the affinity mask (``taskset -c 0`` runs one process), and write
in input order, so their output is the same for any number.  Where a
function this module takes from d2cc has been replaced on it (the bench's
traced launcher wraps them), they run in one process, so that the
replacement sees every call."""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import importlib
import json
import math
import os
import signal
import sys
from pathlib import Path
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from .decoder import (DEFAULT_BUDGET, apply_terminal_constraints, astar_parse,
                      convert as decoder_convert, load_constraint_file,
                      strip_dummies)
from .errors import AlignmentError, D2ccError, DataError, NoParseError
from .grammar import (Grammar, default_grammar, load_grammar_config,
                      load_roots, load_unary_table)
from .config import ModelConfig, TrainConfig, load_config_file, read_text
from .trees import (iter_conllu, iter_conllu_starts, read_auto, read_conllu,
                    terminals, validate_tree, write_auto)
from .scores import check_normalized, read_score_file

# The scorer and the PAS modules load only in the commands that use them
# (``decode`` and ``validate`` need neither).  ``_bind`` makes their names
# module globals, keeping any already set: ``d2cc.cli.load_model`` works
# before a command runs, and a substitute set on this module beforehand (a
# tracing wrapper, say) is what the commands call.
_LAZY = {
    "d2cc.model": ("build_vocab", "encode_batch", "grad_check", "init_model",
                   "load_ext_embeddings", "load_model", "save_model",
                   "train", "tree_targets"),
    "d2cc.pas": ("default_coindex_table", "evaluate", "extract_deps",
                 "load_coindex_table", "write_pas_dump"),
}


# the names this module takes from the rest of d2cc, eager and lazy
_TAKEN = {name for name, value in globals().items()
          if getattr(value, "__module__", "").startswith("d2cc.")}
_TAKEN.update(*_LAZY.values())


def _bind(module: str) -> None:
    found = importlib.import_module(module)
    for name in _LAZY[module]:
        globals().setdefault(name, getattr(found, name))


def __getattr__(name: str):
    for module, names in _LAZY.items():
        if name in names:
            _bind(module)
            return globals()[name]
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


# ``convert`` reads, encodes and decodes runs of consecutive sentences of
# at most this many tokens, one run at a time (a longer sentence runs
# alone).  With 64-wide LSTMs the batched pass peaks at about 1,100
# float64 values per token, 1.6 MB for a full run; larger runs were faster
# but cost more memory.  ``decode`` splits its score matrices into runs
# of the same size.  Each run is a worker's unit of work, so a batch of
# fewer tokens than this runs in the command's own process.
CHUNK_TOKENS = 192


@contextlib.contextmanager
def _output_stream(path: Optional[str]):
    """A text stream to ``path``, or stdout for no path or ``-``; an
    OSError while it is open is a DataError naming ``path``."""
    if path is None or path == "-":
        yield sys.stdout
        return
    try:
        with open(path, "w", encoding="utf-8") as stream:
            yield stream
    except OSError as exc:
        raise DataError("cannot write %s: %s" % (path, exc))


def _check_writable(path: Optional[str]) -> None:
    """Refuse, before any work, an output path whose directory is missing
    or cannot be written; no path and ``-`` (stdout) pass."""
    if not path or path == "-":
        return
    folder = Path(path).parent
    if not (folder.is_dir() and os.access(folder, os.W_OK)):
        raise DataError("cannot write %s: %s is not a writable directory"
                        % (path, folder))


def _resolve_grammar(args) -> Grammar:
    grammar = (load_grammar_config(args.grammar) if args.grammar
               else default_grammar())
    changes = {}
    if args.unary_table:
        changes["unary_rules"] = load_unary_table(args.unary_table)
    if args.roots:
        changes["roots"] = load_roots(args.roots)
    if args.x_absorption:
        changes["x_absorption"] = True
    return dataclasses.replace(grammar, **changes)


def _beam_value(ratio: float) -> Optional[float]:
    if not 0.0 <= ratio <= 1.0:
        raise DataError("--beam must lie in [0, 1], got %r" % ratio)
    if ratio == 0.0:
        return None
    return -math.log(ratio)


def _check_budget(budget: int) -> None:
    if budget < 1:
        raise DataError("--budget must be at least 1, got %d" % budget)


def _load_aligned(conllu_path, auto_path, grammar) -> List[tuple]:
    sentences = read_conllu(read_text(conllu_path))
    trees = read_auto(read_text(auto_path), grammar)
    if len(sentences) != len(trees):
        raise AlignmentError(
            "%s has %d sentences but %s has %d trees"
            % (conllu_path, len(sentences), auto_path, len(trees)))
    pairs = []
    for k, (z, tree) in enumerate(zip(sentences, trees), 1):
        leaves = terminals(tree)
        if len(leaves) != len(z):
            raise AlignmentError(
                "sentence %d: %d dependency tokens vs %d derivation leaves"
                % (k, len(z), len(leaves)))
        for tok, leaf in zip(z.tokens, leaves):
            if tok != leaf.word:
                raise AlignmentError(
                    "sentence %d: token %r does not match leaf %r"
                    % (k, tok, leaf.word))
        pairs.append((z, tree))
    return pairs


def _parse_mix(spec: str) -> Tuple[str, float]:
    prefix, sep, weight = spec.rpartition(":")
    if not sep:
        raise DataError("--mix expects PATH:WEIGHT, got %r" % spec)
    try:
        value = float(weight)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0.0):
        raise DataError("bad --mix weight in %r: expected a finite number "
                        "of at least 0" % spec)
    return prefix, value


def _init_model(vocab, model_cfg: ModelConfig, seed: int):
    """A fresh model with the external embeddings ``model_cfg`` names."""
    ext, ext_dim = None, 0
    if model_cfg.ext_embeddings:
        ext, ext_dim = load_ext_embeddings(model_cfg.ext_embeddings)
    return init_model(vocab, model_cfg, seed=seed, ext=ext, ext_dim=ext_dim)


def cmd_train(args) -> int:
    _bind("d2cc.model")
    for path in (args.model, args.metrics):
        _check_writable(path)
    grammar = _resolve_grammar(args)
    if args.config:
        model_cfg, train_cfg = load_config_file(args.config)
    else:
        model_cfg, train_cfg = ModelConfig(), TrainConfig()
    if args.seed is not None:
        train_cfg = dataclasses.replace(train_cfg, seed=args.seed)
    if train_cfg.epochs == 0:
        raise DataError("%s: epochs = 0 trains no epoch" % args.config)
    datasets = [(_load_aligned(args.conllu, args.auto, grammar), 1.0)]
    for spec in args.mix or []:
        prefix, weight = _parse_mix(spec)
        datasets.append((_load_aligned(prefix + ".conllu", prefix + ".auto",
                                       grammar), weight))
    all_pairs = [pair for pairs, _ in datasets for pair in pairs]
    vocab = build_vocab(all_pairs, model_cfg.unk_buckets)
    model = _init_model(vocab, model_cfg, train_cfg.seed)
    history = train(model, datasets, train_cfg)
    save_model(model, args.model)
    lines = "\n".join(json.dumps(epoch, sort_keys=True) for epoch in history)
    print(lines)
    if args.metrics:
        with _output_stream(args.metrics) as stream:
            print(lines, file=stream)
    final = history[-1]
    print("trained %d epochs on %d sentences (%d datasets), %d categories: "
          "tag_acc=%.4f head_acc=%.4f"
          % (len(history), len(all_pairs), len(datasets),
             len(vocab.categories), final["tag_acc"], final["head_acc"]),
          file=sys.stderr)
    return 0


def _load_constraints(path: Optional[str], count: int) -> dict:
    """The constraint file at ``path`` (none without a path), refused when
    it names a sentence past the ``count`` of the input."""
    constraint_map = load_constraint_file(read_text(path)) if path else {}
    beyond = [k for k in constraint_map if k > count]
    if beyond:
        raise DataError("sentence ordinal %d in constraint file is past the "
                        "input's %d sentences" % (min(beyond), count))
    return constraint_map


def _decode_each(args, units: Sequence[Iterable[Callable]]) -> int:
    """Run ``units``, each an iterable of zero-argument callables that
    return the trees of consecutive sentences (one ``_chunk_ordinals``
    run), in n forked workers, n one per CPU in the affinity mask and at
    most one per unit, or in this process where n is 1.  A function taken
    from d2cc and since replaced on this module (a tracer's wrapper, a
    test's fake) sees only the calls of its own process, so then n is 1.
    Write each tree, or print ``sentence k: <message>`` for a failure, in
    input order as soon as it is due, and return the number of trees."""
    n = 1
    if (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and all(getattr(v, "__module__", "").startswith("d2cc.")
                    for name, v in globals().items() if name in _TAKEN)):
        n = min(len(os.sched_getaffinity(0)), len(units))
    done, k = 0, 0
    outcomes = (_pooled(units, n) if n > 1 else
                (_outcomes(unit, lambda: done + 1) for unit in units))
    with contextlib.closing(outcomes), \
            _output_stream(args.output) as stream:
        for unit_outcomes in outcomes:
            for text, failure in unit_outcomes:
                k += 1
                if failure is not None:
                    print("sentence %d: %s" % (k, failure), file=sys.stderr)
                    continue
                done += 1
                if n > 1:  # a worker numbers every tree 1
                    text = "ID=%d\n%s" % (done, text.partition("\n")[2])
                stream.write(text)
    return done


def _outcomes(unit: Iterable[Callable], first: Callable[[], int]):
    """``(AUTO text, None)`` for each tree of ``unit``, its ``ID=`` line
    numbered ``first()``, or ``(None, message)`` for a failed sentence."""
    for decode_one in unit:
        try:
            outcome = write_auto([decode_one()], first()), None
        except (D2ccError, RecursionError) as exc:
            why = (" (%s)" % exc.reason
                   if isinstance(exc, NoParseError) else "")
            outcome = None, "%s%s" % (exc, why)
        yield outcome


def _pooled(units: Sequence[Iterable[Callable]], n: int):
    """The list of ``_outcomes`` of each of ``units`` in turn, every tree
    numbered 1, from ``n`` forked workers given at most 2n units ahead of
    the caller.  A worker's exception is raised here, its traceback the
    ``__cause__``; a killed worker raises BrokenProcessPool.  Closing the
    generator waits for the units the workers hold, then reaps them."""
    import concurrent.futures
    import multiprocessing
    for stream in (sys.stdout, sys.stderr):  # each worker flushes its copy
        stream.flush()
    pool = concurrent.futures.ProcessPoolExecutor(
        n, multiprocessing.get_context("fork"), _start_worker,
        (units, os.getpid()))
    try:
        futures = []
        for u in range(len(units)):
            futures.append(pool.submit(_unit_outcomes, u))
            if len(futures) == 2 * n:
                yield futures.pop(0).result()
        while futures:
            yield futures.pop(0).result()
    finally:
        pool.shutdown(cancel_futures=True)


_UNITS: Sequence = ()  # a worker's copy of the units of ``_pooled``


def _start_worker(units: Sequence, parent: int) -> None:
    """Make this worker get SIGKILL when the command's thread that forked
    it ends, or end now if the command has, and keep ``units``."""
    import ctypes
    global _UNITS
    prctl = ctypes.CDLL(None).prctl
    prctl.argtypes = ctypes.c_int, ctypes.c_ulong
    prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
    if os.getppid() != parent:
        os._exit(1)
    _UNITS = units


def _unit_outcomes(u: int) -> list:
    return list(_outcomes(_UNITS[u], lambda: 1))


def _chunk_ordinals(lengths: Sequence[int]) -> List[range]:
    """Ordinals (from 1) of runs of consecutive sentences of ``lengths``
    tokens, each closed before one would take it over ``CHUNK_TOKENS``."""
    chunks, start, tokens = [], 1, 0
    for k, n in enumerate(lengths, 1):
        if tokens + n > CHUNK_TOKENS and k > start:
            chunks.append(range(start, k))
            start, tokens = k, 0
        tokens += n
    if start <= len(lengths):
        chunks.append(range(start, len(lengths) + 1))
    return chunks


def cmd_convert(args) -> int:
    _bind("d2cc.model")
    _check_writable(args.output)
    beam = _beam_value(args.beam)
    _check_budget(args.budget)
    grammar = _resolve_grammar(args)
    model = load_model(args.model)
    text = read_text(args.conllu)
    # a first pass refuses a malformed corpus before any output and keeps
    # each sentence's length and start; each chunk reads its own slice
    starts, lengths = [], []
    for start, z in iter_conllu_starts(text):
        starts.append(start)
        lengths.append(len(z))
    starts.append(len(text))
    constraint_map = _load_constraints(args.constraints, len(lengths))

    def decode_one(k, z, hmat):
        tree = decoder_convert(model, grammar, z, constraint_map.get(k, []),
                               beam=beam, budget=args.budget, hmat=hmat)
        if args.strip_x:
            tree = strip_dummies(tree)
            if tree is None:
                raise NoParseError("all tokens were marked as dummies",
                                   reason="constraint")
        return tree

    def unit(ks):
        chunk = list(iter_conllu(text[starts[ks.start - 1]:
                                      starts[ks.stop - 1]]))
        for k, z, hmat in zip(ks, chunk, encode_batch(model, chunk)):
            yield functools.partial(decode_one, k, z, hmat)

    done = _decode_each(args, [unit(ks) for ks in _chunk_ordinals(lengths)])
    print("converted %d/%d" % (done, len(lengths)), file=sys.stderr)
    return 0


def cmd_decode(args) -> int:
    _check_writable(args.output)
    beam = _beam_value(args.beam)
    _check_budget(args.budget)
    grammar = _resolve_grammar(args)
    batch = read_score_file(read_text(args.scores))
    constraint_map = _load_constraints(args.constraints, len(batch))
    for k, m in enumerate(batch, 1):
        problem = check_normalized(m)
        if problem:
            raise DataError("score matrix %d: %s" % (k, problem))

    def decode_one(k):
        constraints = constraint_map.get(k, [])
        m = apply_terminal_constraints(batch[k - 1], constraints)
        return astar_parse(m, grammar, constraints, beam=beam,
                           budget=args.budget).tree

    done = _decode_each(args, [
        [functools.partial(decode_one, k) for k in ks]
        for ks in _chunk_ordinals([len(m.tokens) for m in batch])])
    print("decoded %d/%d" % (done, len(batch)), file=sys.stderr)
    return 0


def _metrics_dict(metrics) -> dict:
    out = dataclasses.asdict(metrics)
    out["per_category"] = [dict(score, category=cat, slot=slot)
                           for (cat, slot), score
                           in out["per_category"].items()]
    return out


def cmd_eval(args) -> int:
    _bind("d2cc.pas")
    _check_writable(args.json)
    grammar = _resolve_grammar(args)
    table = (load_coindex_table(args.coindex) if args.coindex
             else default_coindex_table())
    pred = read_auto(read_text(args.pred), grammar)
    gold = read_auto(read_text(args.gold), grammar)
    pred_deps = [extract_deps(t, table) for t in pred]
    gold_deps = [extract_deps(t, table) for t in gold]
    metrics = evaluate(pred_deps, gold_deps)
    print("            P        R       F1")
    print("unlabeled %8.2f %8.2f %8.2f" % (metrics.unlabeled.precision,
                                           metrics.unlabeled.recall,
                                           metrics.unlabeled.f1))
    print("labeled   %8.2f %8.2f %8.2f" % (metrics.labeled.precision,
                                           metrics.labeled.recall,
                                           metrics.labeled.f1))
    rows = sorted(metrics.per_category.items(),
                  key=lambda kv: (-kv[1].gold, kv[0]))
    if rows:
        print()
        print("%-40s %4s %6s %8s %8s %8s" % ("category", "slot", "gold",
                                             "P", "R", "F1"))
        for (cat, slot), score in rows:
            print("%-40s %4d %6d %8.2f %8.2f %8.2f"
                  % (cat, slot, score.gold, score.precision,
                     score.recall, score.f1))
    if args.json:
        with _output_stream(args.json) as stream:
            print(json.dumps(_metrics_dict(metrics), indent=2,
                             sort_keys=True), file=stream)
    return 0


def cmd_validate(args) -> int:
    grammar = _resolve_grammar(args)
    trees = read_auto(read_text(args.auto), grammar)
    total = 0
    for k, tree in enumerate(trees, 1):
        for problem in validate_tree(tree, grammar):
            total += 1
            print("tree %d: %s" % (k, problem))
    print("%d trees, %d problems" % (len(trees), total), file=sys.stderr)
    return 1 if total else 0


def cmd_extract_deps(args) -> int:
    _bind("d2cc.pas")
    _check_writable(args.output)
    grammar = _resolve_grammar(args)
    table = (load_coindex_table(args.coindex) if args.coindex
             else default_coindex_table())
    trees = read_auto(read_text(args.auto), grammar)
    deps = [extract_deps(t, table) for t in trees]
    with _output_stream(args.output) as stream:
        stream.write(write_pas_dump(deps))
    return 0


def cmd_grad_check(args) -> int:
    _bind("d2cc.model")
    grammar = _resolve_grammar(args)
    pairs = _load_aligned(args.conllu, args.auto, grammar)
    usable = [(z, t) for z, t in pairs if len(z) <= 5]
    if not usable:
        raise DataError("no sentence with at most 5 tokens to check")
    if args.config:
        model_cfg, _ = load_config_file(args.config)
    else:
        model_cfg = ModelConfig(word_dim=4, pos_dim=3, label_dim=3,
                                seq_dim=6, seq_layers=2, tree_dim=6,
                                mlp_dim=5, unk_buckets=2)
    vocab = build_vocab(pairs, model_cfg.unk_buckets)
    model = _init_model(vocab, model_cfg, args.seed or 0)
    z, tree = usable[0]
    tags, heads = tree_targets(tree)
    error = grad_check(model, z, tags, heads)
    print("max relative error %.3e" % error)
    return 0 if error < 1e-4 else 1


def _add_grammar_flags(sub) -> None:
    sub.add_argument("--grammar", help="grammar config file (key=value)")
    sub.add_argument("--unary-table", dest="unary_table",
                     help="unary rule table overriding the grammar's")
    sub.add_argument("--roots", help="root category list overriding the grammar's")
    sub.add_argument("--x-absorption", dest="x_absorption",
                     action="store_true",
                     help="enable dummy-category absorption rules")


def _add_decode_flags(sub) -> None:
    sub.add_argument("--constraints", help="constraint JSON file")
    sub.add_argument("--beam", type=float, default=1e-4,
                     help="per-token probability beam ratio in [0, 1]; "
                          "0 disables")
    sub.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                     help="maximum agenda pops per sentence")
    sub.add_argument("-o", "--output", help="output path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="d2cc",
        description="Convert dependency treebanks to CCG derivation banks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a converter model")
    p.add_argument("conllu", help="dependency side (CoNLL-U)")
    p.add_argument("auto", help="derivation side (AUTO), sentence-aligned")
    p.add_argument("--model", required=True, help="checkpoint output path")
    p.add_argument("--config", help="key=value model/training config file")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--metrics", help="also write per-epoch JSON lines here")
    p.add_argument("--mix", action="append", metavar="PATH:WEIGHT",
                   help="extra aligned treebank prefix (PATH.conllu + "
                        "PATH.auto) drawn at WEIGHT per epoch; repeatable")
    _add_grammar_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("convert", help="convert a CoNLL-U corpus to AUTO")
    p.add_argument("conllu")
    p.add_argument("--model", required=True, help="trained checkpoint")
    p.add_argument("--strip-x", dest="strip_x", action="store_true",
                   help="remove dummy-marked tokens from output trees")
    _add_grammar_flags(p)
    _add_decode_flags(p)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("decode", help="run the A* decoder on score matrices")
    p.add_argument("scores", help="score-matrix JSON file")
    _add_grammar_flags(p)
    _add_decode_flags(p)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("eval", help="score predicted AUTO against gold")
    p.add_argument("pred")
    p.add_argument("gold")
    p.add_argument("--coindex", help="coindexation table override")
    p.add_argument("--json", help="write machine-readable metrics here")
    _add_grammar_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("validate", help="check AUTO trees against the grammar")
    p.add_argument("auto")
    _add_grammar_flags(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("extract-deps", help="dump predicate-argument structure")
    p.add_argument("auto")
    p.add_argument("--coindex", help="coindexation table override")
    p.add_argument("-o", "--output", help="output path (default stdout)")
    _add_grammar_flags(p)
    p.set_defaults(func=cmd_extract_deps)

    p = sub.add_parser("grad-check",
                       help="finite-difference check of model gradients")
    p.add_argument("conllu")
    p.add_argument("auto")
    p.add_argument("--config", help="model config file (tiny dims by default)")
    p.add_argument("--seed", type=int, default=0)
    _add_grammar_flags(p)
    p.set_defaults(func=cmd_grad_check)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DataError, RecursionError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except D2ccError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
