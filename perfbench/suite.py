"""Run every workload over several seeds, check counters, compare result sets.

    python3 perfbench/suite.py run [--first-seed N] [--seconds S] [--out FILE]
    python3 perfbench/suite.py counters [--seed 0] [--seconds S]
    python3 perfbench/suite.py compare BASE.jsonl NEW.jsonl

``run`` starts ``run.py`` once per (seed, workload), ten seeds from
``--first-seed`` on every workload, each in a fresh process, writes the run
records to one JSON-lines result set (emptied first) and prints, per
workload and end-to-end metric, the median, quartiles and spread (the
quartile distance over the median) next to the metric's bound, plus the
share of seeds that failed an output check.  ``counters`` makes two traced
runs per workload at one seed and checks that every exact counter repeats.
``compare`` prints a verdict for each workload and metric of two result
sets under BENCHMARK.json's bounds.  ``--seconds`` defaults to
BENCHMARK.json's ``run_seconds``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
RUNS = 10


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def load_records(path: str) -> List[dict]:
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def one_run(workload: str, seed: int, seconds: float, trace: int,
            record: str) -> int:
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--record", record]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    print(lines[-2] if len(lines) > 1 else f"{workload} seed={seed}: "
          f"exit {proc.returncode}", flush=True)
    return proc.returncode


def quartiles(values: List[float]):
    if len(values) < 2:
        v = values[0] if values else float("nan")
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def summarize(records: List[dict], spec: dict) -> None:
    workloads = [w["name"] for w in spec["workloads"]]
    print(f"{'workload':<14} {'metric':<13} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>7} {'bound':>6}  unit   runs")
    for w in workloads:
        recs = [r for r in records if r["workload"] == w and not r["trace"]]
        if not recs:
            continue
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in recs]
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"{w:<14} {m['name']:<13} {med:12.6g} {q1:12.6g} "
                  f"{q3:12.6g} {spread:7.4f} {m['bound']:6.3f}  "
                  f"{m['unit']:<6} {len(vals)}")
        att = sum(r["attempted"] for r in recs)
        fail = sum(r["failed"] for r in recs)
        print(f"{w:<14} {'fail_frac':<13} {fail / max(1, att):12.6g} "
              f"{'':>12} {'':>12} {'':>7} {'':>6}  ratio  "
              f"{fail}/{att} seeds")


def cmd_run(args) -> int:
    spec = load_spec()
    out = args.out or os.path.join(HERE, "out", "suite.jsonl")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    if os.path.exists(out):
        os.remove(out)
    worst = 0
    for i in range(RUNS):
        for w in (x["name"] for x in spec["workloads"]):
            worst = max(worst, one_run(w, args.first_seed + i, args.seconds,
                                       0, out))
    summarize(load_records(out), spec)
    print(f"result set: {out}")
    return worst


def cmd_counters(args) -> int:
    spec = load_spec()
    out = args.out or os.path.join(HERE, "out", "counters.jsonl")
    if os.path.exists(out):
        os.remove(out)
    bad = 0
    for w in (x["name"] for x in spec["workloads"]):
        for _ in range(2):
            bad |= one_run(w, args.seed, args.seconds, 1, out)
    by_w: Dict[str, List[dict]] = {}
    for r in load_records(out):
        by_w.setdefault(r["workload"], []).append(r["counters"])
    for w, (c1, c2) in by_w.items():
        same = c1 == c2
        bad |= not same
        print(f"{w:<14} exact counters {'repeat' if same else 'DIFFER'}: "
              + " ".join(f"{k}={v:.6g}" for k, v in sorted(c1.items())))
    return 1 if bad else 0


def verdict(base: List[float], new: List[float], bound: float,
            higher: bool) -> str:
    """Verdict for one metric under its bound.

    'unresolved' when either set's quartile spread exceeds the bound,
    unless every new run beats every base run; 'regressed' when the new
    median is worse by more than the bound; 'improved' when the new run
    wins at least nine tenths of the same-seed pairs and the medians differ
    by more than the base set's quartile distance.
    """
    sign = 1.0 if higher else -1.0
    bq1, bmed, bq3 = quartiles(base)
    nq1, nmed, nq3 = quartiles(new)
    if max((bq3 - bq1) / bmed, (nq3 - nq1) / nmed) > bound:
        beats_all = min(sign * v for v in new) > max(sign * v for v in base)
        return "improved" if beats_all else "unresolved"
    gain = sign * (nmed - bmed)
    if -gain > bound * bmed:
        return "regressed"
    pairs = list(zip(base, new))
    wins = sum(sign * n > sign * b for b, n in pairs)
    if gain > bq3 - bq1 and wins >= 0.9 * len(pairs):
        return "improved"
    return "within bound"


def cmd_compare(args) -> int:
    spec = load_spec()
    base, new = load_records(args.base), load_records(args.new)
    print(f"{'workload':<14} {'metric':<13} {'base median':>12} "
          f"{'base q1..q3':>25} {'new median':>12} {'new q1..q3':>25}  "
          f"verdict")
    regressed = False
    for w in (x["name"] for x in spec["workloads"]):
        b = sorted((r for r in base if r["workload"] == w and not r["trace"]),
                   key=lambda r: r["seed"])
        n = sorted((r for r in new if r["workload"] == w and not r["trace"]),
                   key=lambda r: r["seed"])
        if not b or not n:
            continue
        for m in spec["end_to_end"]:
            bv = [r["metrics"][m["name"]]["value"] for r in b]
            nv = [r["metrics"][m["name"]]["value"] for r in n]
            v = verdict(bv, nv, m["bound"], m["better"] == "higher")
            regressed |= v == "regressed"
            bq1, bmed, bq3 = quartiles(bv)
            nq1, nmed, nq3 = quartiles(nv)
            print(f"{w:<14} {m['name']:<13} {bmed:12.6g} "
                  f"{bq1:12.6g}..{bq3:<11.6g} {nmed:12.6g} "
                  f"{nq1:12.6g}..{nq3:<11.6g}  {v}")
    return 1 if regressed else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="every workload over ten seeds")
    p.add_argument("--first-seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--out", help="result set (JSON lines) to write")
    p = sub.add_parser("counters", help="exact counters repeat at one seed")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--out")
    p = sub.add_parser("compare", help="verdicts for two result sets")
    p.add_argument("base")
    p.add_argument("new")
    args = ap.parse_args(argv)
    if getattr(args, "seconds", 0) is None:
        args.seconds = float(load_spec()["run_seconds"])
    return {"run": cmd_run, "counters": cmd_counters,
            "compare": cmd_compare}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
