"""Command-line pipeline: train a converter, generate, check and score
CCG treebanks derived from dependency corpora."""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path
from typing import List, Optional, Tuple

from .decoder import (DEFAULT_BUDGET, apply_terminal_constraints, astar_parse,
                      convert as decoder_convert, load_constraint_file,
                      strip_dummies)
from .errors import AlignmentError, D2ccError, DataError, NoParseError
from .grammar import (Grammar, default_grammar, load_grammar_config,
                      load_roots, load_unary_table)
from .model import (ModelConfig, TrainConfig, build_vocab, grad_check,
                    init_model, load_config_file, load_ext_embeddings,
                    load_model, save_model, score_sentence, train,
                    tree_targets)
from .pas import (default_coindex_table, evaluate, extract_deps,
                  load_coindex_table, write_pas_dump)
from .trees import (read_auto, read_conllu, terminals, validate_tree,
                    write_auto)
from .scores import check_normalized, read_score_file

def _load(loader, path):
    """``loader(path)``, with a file it cannot open (``path`` or one that
    ``path`` names) reported as a DataError."""
    try:
        return loader(path)
    except OSError as exc:
        raise DataError("cannot read %s: %s" % (exc.filename or path, exc))


def _read(path) -> str:
    return _load(lambda p: Path(p).read_text(encoding="utf-8"), path)


def _write_output(text: str, path: Optional[str]) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _resolve_grammar(args) -> Grammar:
    grammar = (_load(load_grammar_config, args.grammar) if args.grammar
               else default_grammar())
    if getattr(args, "unary_table", None):
        grammar = dataclasses.replace(
            grammar, unary_rules=_load(load_unary_table, args.unary_table))
    if getattr(args, "roots", None):
        grammar = grammar.with_roots(_load(load_roots, args.roots))
    if getattr(args, "x_absorption", False):
        grammar = grammar.with_x_absorption(True)
    return grammar


def _beam_value(ratio: float) -> Optional[float]:
    if ratio <= 0.0:
        return None
    return -math.log(ratio)


def _load_aligned(conllu_path, auto_path, grammar) -> List[tuple]:
    sentences = read_conllu(_read(conllu_path))
    trees = read_auto(_read(auto_path), grammar)
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
        return prefix, float(weight)
    except ValueError:
        raise DataError("bad --mix weight in %r" % spec)


def cmd_train(args) -> int:
    grammar = _resolve_grammar(args)
    if args.config:
        model_cfg, train_cfg = _load(load_config_file, args.config)
    else:
        model_cfg, train_cfg = ModelConfig(), TrainConfig()
    if args.seed is not None:
        train_cfg = dataclasses.replace(train_cfg, seed=args.seed)
    datasets = [(_load_aligned(args.conllu, args.auto, grammar), 1.0)]
    for spec in args.mix or []:
        prefix, weight = _parse_mix(spec)
        datasets.append((_load_aligned(prefix + ".conllu", prefix + ".auto",
                                       grammar), weight))
    all_pairs = [pair for pairs, _ in datasets for pair in pairs]
    vocab = build_vocab(all_pairs, model_cfg.unk_buckets)
    ext, ext_dim = None, 0
    if model_cfg.ext_embeddings:
        ext, ext_dim = _load(load_ext_embeddings, model_cfg.ext_embeddings)
    model = init_model(vocab, model_cfg, seed=train_cfg.seed,
                       ext=ext, ext_dim=ext_dim)
    history = train(model, datasets, train_cfg)
    save_model(model, args.model)
    lines = [json.dumps(epoch, sort_keys=True) for epoch in history]
    print("\n".join(lines))
    if args.metrics:
        Path(args.metrics).write_text("\n".join(lines) + "\n",
                                      encoding="utf-8")
    final = history[-1]
    print("trained %d epochs on %d sentences (%d datasets), %d categories: "
          "tag_acc=%.4f head_acc=%.4f"
          % (len(history), len(all_pairs), len(datasets),
             len(vocab.categories), final["tag_acc"], final["head_acc"]),
          file=sys.stderr)
    return 0


def _decode_each(args, count: int, decode_one, threads: int = 1) -> int:
    """Run ``decode_one(k)`` for sentences k = 1..count, serially or on a
    pool of ``threads`` workers; write the trees in order, report each
    failure on stderr as ``sentence k: <message>`` and return the number
    of trees."""

    def job(k):
        try:
            return decode_one(k), None
        except NoParseError as exc:
            return None, "%s (%s)" % (exc, exc.reason)
        except D2ccError as exc:
            return None, str(exc)

    ordinals = range(1, count + 1)
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(job, ordinals))
    else:
        results = [job(k) for k in ordinals]
    trees = [tree for tree, _ in results if tree is not None]
    _write_output(write_auto(trees), args.output)
    for k, (_, failure) in enumerate(results, 1):
        if failure is not None:
            print("sentence %d: %s" % (k, failure), file=sys.stderr)
    return len(trees)


def cmd_convert(args) -> int:
    grammar = _resolve_grammar(args)
    model = _load(load_model, args.model)
    sentences = read_conllu(_read(args.conllu))
    constraint_map = (load_constraint_file(_read(args.constraints))
                      if args.constraints else {})
    beam = _beam_value(args.beam)

    def decode_one(k):
        tree = decoder_convert(model, grammar, sentences[k - 1],
                               constraint_map.get(k, []),
                               beam=beam, budget=args.budget)
        if args.strip_x:
            tree = strip_dummies(tree)
            if tree is None:
                raise NoParseError("all tokens were marked as dummies",
                                   reason="constraint")
        return tree

    done = _decode_each(args, len(sentences), decode_one, args.threads)
    print("converted %d/%d" % (done, len(sentences)), file=sys.stderr)
    return 0


def cmd_decode(args) -> int:
    grammar = _resolve_grammar(args)
    batch = read_score_file(_read(args.scores))
    constraint_map = (load_constraint_file(_read(args.constraints))
                      if args.constraints else {})
    beam = _beam_value(args.beam)
    for k, m in enumerate(batch, 1):
        problem = check_normalized(m)
        if problem:
            raise DataError("score matrix %d: %s" % (k, problem))

    def decode_one(k):
        constraints = constraint_map.get(k, [])
        m = apply_terminal_constraints(batch[k - 1], constraints)
        return astar_parse(m, grammar, constraints, beam=beam,
                           budget=args.budget).tree

    done = _decode_each(args, len(batch), decode_one)
    print("decoded %d/%d" % (done, len(batch)), file=sys.stderr)
    return 0


def _metrics_dict(metrics) -> dict:
    out = dataclasses.asdict(metrics)
    out["per_category"] = [dict(score, category=cat, slot=slot)
                           for (cat, slot), score
                           in out["per_category"].items()]
    return out


def cmd_eval(args) -> int:
    grammar = _resolve_grammar(args)
    table = (_load(load_coindex_table, args.coindex) if args.coindex
             else default_coindex_table())
    pred = read_auto(_read(args.pred), grammar)
    gold = read_auto(_read(args.gold), grammar)
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
        Path(args.json).write_text(
            json.dumps(_metrics_dict(metrics), indent=2, sort_keys=True)
            + "\n", encoding="utf-8")
    return 0


def cmd_validate(args) -> int:
    grammar = _resolve_grammar(args)
    trees = read_auto(_read(args.auto), grammar)
    total = 0
    for k, tree in enumerate(trees, 1):
        for problem in validate_tree(tree, grammar):
            total += 1
            print("tree %d: %s" % (k, problem))
    print("%d trees, %d problems" % (len(trees), total), file=sys.stderr)
    return 1 if total else 0


def cmd_extract_deps(args) -> int:
    grammar = _resolve_grammar(args)
    table = (_load(load_coindex_table, args.coindex) if args.coindex
             else default_coindex_table())
    trees = read_auto(_read(args.auto), grammar)
    deps = [extract_deps(t, table) for t in trees]
    _write_output(write_pas_dump(deps), args.output)
    return 0


def cmd_grad_check(args) -> int:
    grammar = _resolve_grammar(args)
    pairs = _load_aligned(args.conllu, args.auto, grammar)
    usable = [(z, t) for z, t in pairs if len(z) <= 5]
    if not usable:
        raise DataError("no sentence with at most 5 tokens to check")
    if args.config:
        model_cfg, _ = _load(load_config_file, args.config)
    else:
        model_cfg = ModelConfig(word_dim=4, pos_dim=3, label_dim=3,
                                seq_dim=6, seq_layers=2, tree_dim=6,
                                mlp_dim=5, unk_buckets=2)
    vocab = build_vocab(pairs, model_cfg.unk_buckets)
    model = init_model(vocab, model_cfg, seed=args.seed or 0)
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
                     help="per-token probability beam ratio; 0 disables")
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
    p.add_argument("--threads", type=int, default=1)
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
    except DataError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except D2ccError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
