#!/usr/bin/env python3
"""The d2cc benchmark.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md in this directory; ``BENCHMARK.json`` lists the
last two, and ``mini-pipeline`` is left for runs by hand):

* ``mini-pipeline``: ``d2cc train`` on the shipped mini treebank, then
  ``d2cc convert`` on the mini corpus repeated into a longer input.
* ``flat-decode``: ``d2cc decode`` on flat random score matrices.
* ``long-pipeline``: ``d2cc train`` on a generated treebank of 15 to 40
  tokens per sentence, then ``d2cc convert`` on a held-out split with gold
  NP brackets as span constraints for every second sentence.

The inputs come from ``--seed``.  Set-up is repeated between passes and its
median reported.  The workload's commands run as child processes, one at a
time: the pipelines train once, and the inference command (``convert`` or
``decode``) repeats in passes until ``--seconds`` have elapsed; every
metric is a median over the commands of the run.  Every output is checked,
and outputs of the same input must be byte-identical across passes.  With
``--trace 1`` each pass runs every command of the workload, training too,
untraced and then traced, and the per-layer metrics are reported instead
of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 1
when an output check fails and 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import layer_report, unit_of

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 3  # at least
HARD_LIMIT_S = 170.0  # every run must end within 180 s


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                      if p])
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("D2CC_LOG", None)
    return env


class Command:
    """One finished ``d2cc`` command run under ``launcher.py``: its wall
    time, its own peak RSS, its stderr and, if traced, its trace."""

    def __init__(self, args, cwd: Path, env: dict, deadline: float, tag: str,
                 trace: bool):
        result = cwd / (tag + ".result.json")
        argv = [sys.executable, str(BENCH / "launcher.py"), str(result),
                "trace" if trace else "plain"] + list(args)
        out_path, err_path = cwd / (tag + ".stdout"), cwd / (tag + ".stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out,
                                    stderr=err)
            try:
                code = proc.wait(timeout=max(0.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise BenchError("d2cc %s ran past the %.0f s limit"
                                 % (" ".join(args), HARD_LIMIT_S))
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            self.wall = time.perf_counter() - start
        self.stderr = err_path.read_text(encoding="utf-8", errors="replace")
        if code != 0:
            raise BenchError("d2cc %s exited with %d: %s"
                             % (" ".join(args), code,
                                self.stderr.strip()[-500:]))
        report = json.loads(result.read_text(encoding="utf-8"))
        self.rss_mb = report["peak_rss_kb"] / 1024.0
        self.trace = report.get("trace")


class Runner:
    """Starts ``d2cc`` commands, plain or traced."""

    def __init__(self, deadline: float):
        self.env = child_env()
        self.deadline = deadline

    def d2cc(self, args, cwd: Path, tag: str, trace: bool = False) -> Command:
        return Command(args, cwd, self.env, self.deadline, tag, trace)


def run(args) -> int:
    from workloads import WORKLOADS  # imports d2cc

    started = time.monotonic()
    deadline = started + HARD_LIMIT_S
    workload = WORKLOADS[args.workload]()
    work = WORK / ("%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return measure(args, workload, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, workload, work: Path, deadline: float) -> int:
    import numpy

    env = {"python": sys.version.split()[0], "numpy": numpy.__version__,
           "nproc": os.cpu_count(), "PYTHONHASHSEED": "0",
           "BLAS_THREADS": 1, "seed": args.seed, "workload": args.workload,
           "seconds": args.seconds, "trace": args.trace}
    print("env " + json.dumps(env, sort_keys=True))

    start = time.perf_counter()
    inputs = workload.setup(work / "in", args.seed)
    setup_times = [time.perf_counter() - start]

    runner = Runner(deadline)
    passes, layers, problems = [], [], []
    digests = {}
    prepared = None
    attempted = failed = 0
    end_by = time.monotonic() + args.seconds
    while True:
        k = len(passes) + 1
        out = work / ("pass%d" % k)
        out.mkdir()
        todo = []
        if prepared is None or args.trace:
            todo = workload.prepare(inputs, out)
            prepared = out
        todo += workload.steps(inputs, out, prepared, k)
        results = [(role, runner.d2cc(argv, out, role)) for role, argv in todo]
        verdict = workload.check(inputs, out, prepared, dict(results), runner,
                                 k)
        problems += verdict["problems"]
        key = verdict["key"]
        if k == 1:
            print("quality " + json.dumps(verdict["quality"], sort_keys=True))
        if key not in digests:
            digests[key] = verdict["digests"]
            print("digests %s %s" % (key, json.dumps(verdict["digests"],
                                                     sort_keys=True)))
        elif verdict["digests"] != digests[key]:
            problems.append("pass %d outputs differ from the first pass on "
                            "%s: %s" % (k, key, verdict["digests"]))
        attempted += verdict["attempted"]
        failed += verdict["failed"]
        passes.append((results, verdict))
        line = " | ".join("%s %.3f s %.1f MB" % (role, c.wall, c.rss_mb)
                          for role, c in results)
        if args.trace:
            traced = []
            for role, argv in todo:
                cmd = runner.d2cc(argv, out, role + ".traced", trace=True)
                traced.append((cmd.wall, cmd.trace))
            untraced_wall = sum(c.wall for _, c in results)
            layers.append(layer_report(traced, untraced_wall))
            line += " || traced %.3f s" % sum(w for w, _ in traced)
        print("pass %d: %s" % (k, line), flush=True)
        problems += set_up_again(workload, work, args.seed, setup_times)
        if time.monotonic() >= end_by:
            break
    while len(setup_times) < SETUP_REPEATS:
        problems += set_up_again(workload, work, args.seed, setup_times)
    print("setup_s %s" % " ".join("%.4f" % t for t in setup_times))

    for problem in problems[:20]:
        print("CHECK FAILED: " + problem)
    if args.trace:
        metrics = {name: {"value": statistics.median(p[name] for p in layers),
                          "unit": unit_of(name)}
                   for name in layers[0]}
    else:
        metrics = {name: {"value": value, "unit": E2E_UNITS[name]}
                   for name, value in end_to_end(passes).items()}
        metrics["setup_s"] = {"value": statistics.median(setup_times),
                              "unit": "s"}
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    print(json.dumps(result, sort_keys=True))
    return 0 if not problems else 1


def set_up_again(workload, work: Path, seed: int, setup_times: list) -> list:
    """Time one more set-up into a scratch directory and check that it
    wrote the same bytes as the first.  Set-up repeats between passes, so
    its median, like the passes', spans the whole run."""
    again = work / "again"
    start = time.perf_counter()
    workload.setup(again, seed)
    setup_times.append(time.perf_counter() - start)
    same = _files(work / "in") == _files(again)
    shutil.rmtree(again)
    if not same:
        return ["set-up with seed %d wrote different inputs the second time"
                % seed]
    return []


def _files(d: Path) -> dict:
    return {p.relative_to(d): p.read_bytes()
            for p in sorted(d.rglob("*")) if p.is_file()}


E2E_UNITS = {"pass_s": "s", "sent_per_s": "sent/s", "tok_per_s": "tok/s",
             "infer_rss_mb": "MB", "peak_rss_mb": "MB", "ok_share": "share"}


def end_to_end(passes) -> dict:
    """The end-to-end metrics of a run from its (results, verdict) passes:
    medians over the commands of each role, so that a command the run
    makes once (``train``) and one it repeats (``infer``) both count once
    in ``pass_s`` and ``peak_rss_mb``."""
    walls, rss = {}, {}
    rates, token_rates = [], []
    attempted = failed = 0
    for results, verdict in passes:
        for role, c in results:
            walls.setdefault(role, []).append(c.wall)
            rss.setdefault(role, []).append(c.rss_mb)
        infer = dict(results)["infer"]
        rates.append(verdict["attempted"] / infer.wall)
        token_rates.append(verdict["tokens"] / infer.wall)
        attempted += verdict["attempted"]
        failed += verdict["failed"]
    median = statistics.median
    return {
        "pass_s": sum(median(w) for w in walls.values()),
        "sent_per_s": median(rates),
        "tok_per_s": median(token_rates),
        "infer_rss_mb": median(rss["infer"]),
        "peak_rss_mb": max(median(r) for r in rss.values()),
        "ok_share": (attempted - failed) / attempted,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["mini-pipeline", "flat-decode",
                                 "long-pipeline"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "d2cc" / "cli.py").is_file():
        print("error: no d2cc sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    try:
        return run(args)
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
