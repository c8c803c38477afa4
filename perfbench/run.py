"""One benchmark run: one workload, in this fresh process.

    python3 perfbench/run.py --workload exp4-ring --seed 0 --seconds 20 \
        --trace 0

Runs from the root of a source checkout (it imports ``src/smoothcb``).  With
``--trace 0`` it prints the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` the per-layer metrics.  The last stdout line is the result
object; the full run record (versions, thread settings, commit, per-rep
figures) is appended to ``--record``.  Exits 1 when an output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

# BLAS and OpenMP are pinned to one thread before numpy is first imported
# (by _import_package), so every workload runs single-threaded.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_PROBES = 9


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _import_package() -> None:
    if not os.path.isfile(os.path.join(SRC, "smoothcb", "__init__.py")):
        _fail(f"no smoothcb sources under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)


def load_spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        return json.load(f)


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json")) as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# set-up time: fresh processes, process start to ready
# ---------------------------------------------------------------------------


def setup_probe(workload: str) -> None:
    """Child side: import the package, build env and policy class, report."""
    _import_package()
    from workloads import WORKLOADS, build_inputs
    build_inputs(WORKLOADS[workload])
    print("ready", flush=True)


def measure_setup(workload: str, n: int = SETUP_PROBES) -> list:
    """Seconds from process start to ready, for n fresh processes."""
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             workload], stdout=subprocess.PIPE, cwd=ROOT)
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            code = proc.wait(timeout=120)
        finally:
            proc.stdout.close()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if code != 0 or line.strip() != b"ready":
            raise RuntimeError("set-up probe failed")
        times.append(t1 - t0)
    return times


# ---------------------------------------------------------------------------
# the run record
# ---------------------------------------------------------------------------


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment_record() -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "commit": git_commit(),
    }


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


def measure(w, ref, seed, seconds, trace, tally, record,
            setup_probes=SETUP_PROBES) -> dict:
    """Every metric of one run, by name: end to end, or per layer."""
    from workloads import (digest_check, seed_lists, sustained_rate,
                           timed_pass)

    os.makedirs(OUT, exist_ok=True)
    setup = measure_setup(w.name, setup_probes)
    record["setup_probes_s"] = setup
    # warm-up and the pinned-trajectory check, outside the timed region
    try:
        n, errs = digest_check(w, ref, OUT)
        tally.add(n, [errs] if n else [])
    except Exception:  # counted as a failed check, not fatal
        traceback.print_exc(file=sys.stderr)
        tally.add(1, [["digest run raised"]])
    if trace:
        from layers import traced_metrics
        return traced_metrics(w, ref, seed, seconds, tally, OUT, record)
    _, rates = timed_pass(w, ref, seed_lists(seed, w.n_seeds), seconds,
                          tally, OUT)
    record["rounds_per_s_reps"] = rates
    return {
        "setup_s": statistics.median(setup),
        "rounds_per_s": sustained_rate(rates),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def result_object(defs, values: dict, tally) -> dict:
    """The last stdout line: exactly the named metrics, each with its unit."""
    missing = [m["name"] for m in defs if m["name"] not in values]
    if missing:
        raise KeyError(f"metrics not computed: {missing}")
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {m["name"]: {"value": values[m["name"]],
                                    "unit": m["unit"]} for m in defs}}


def run(args) -> int:
    _import_package()
    from workloads import WORKLOADS, Tally

    spec = load_spec()
    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}")
    w = WORKLOADS[args.workload]
    tally = Tally()
    record = {"workload": w.name, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "T": w.T, "n_seeds": w.n_seeds,
              **environment_record()}
    values = measure(w, load_reference()[w.name], args.seed, args.seconds,
                     args.trace, tally, record)
    defs = spec["per_layer"] if args.trace else spec["end_to_end"]
    result = result_object(defs, values, tally)
    record.update(result, fail_frac=tally.fail_frac,
                  failures=tally.messages[:20])
    with open(args.record, "a") as f:
        f.write(json.dumps(record) + "\n")
    for msg in tally.messages[:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    shown = " ".join(f"{k}={v['value']:.6g} {v['unit']}"
                     for k, v in list(result["metrics"].items())[:8]
                     if k != "fail_frac")
    print(f"{w.name} seed={args.seed}: {shown} "
          f"fail_frac={tally.fail_frac:.6g} ratio")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float,
                    help="measured seconds (default: BENCHMARK.json's)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", default=os.path.join(OUT, "records.jsonl"),
                    help="JSON-lines file the run record is appended to")
    ap.add_argument("--setup-probe", metavar="WORKLOAD",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.setup_probe)
        return 0
    if not args.workload:
        _fail("--workload is required")
    if args.seconds is None:
        args.seconds = float(load_spec()["run_seconds"])
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
