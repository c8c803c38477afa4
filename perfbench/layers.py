"""The traced run: per-layer metrics from spans and the program's own records.

Pass A replays the workload untraced for half the budget; pass B installs
the wrappers and replays exactly the same seed lists, so the tracing
overhead compares like with like.  Times and calls are per experiment
(averaged over pass B's repetitions).  The exact counters come from the
first repetition alone: the epoch rows ``run_experiment`` returns and the
records ``CorralMaster.round`` returns, seen through its wrapper.
"""

from __future__ import annotations

import os
import statistics
from typing import Dict, List

from tracing import LAYERS, ROOT_SPAN, Tracer
from workloads import seed_lists, sustained_rate, timed_pass

# span-derived metrics: (span name, fields reported per experiment)
SPAN_METRICS = (
    ("cli.main", ("self_s",)),
    ("harness.run_one", ("self_s",)),
    ("harness.trace_csv_lines", ("s",)),
    ("harness.write_outputs", ("s",)),
    ("environments.smoothed_benchmark", ("calls", "s")),
    ("environments.realize_at", ("calls", "self_s")),
    ("losses.integrate_intervals", ("calls", "s")),
    ("kernels.smoothed_loss", ("calls", "s")),
    ("kernels.densities", ("calls", "s")),
    ("kernels.sample", ("calls",)),
    ("spaces.ball_intervals", ("calls",)),
    ("spaces.ball_volume", ("calls",)),
    ("policies.actions_at", ("calls",)),
    ("policies.union_ball_volume", ("calls", "s")),
    ("exp4.step", ("calls", "self_s")),
    ("exp4.update", ("self_s",)),
    ("exp4.stable_update", ("calls", "self_s")),
    ("corral.round", ("calls", "self_s")),
    ("elimination.start_epoch", ("calls", "s")),
    ("elimination.solve_variance_program", ("s",)),
    ("elimination.act", ("calls", "self_s")),
    ("elimination.run", ("self_s",)),
    ("estimators.iw_estimate", ("calls",)),
    ("estimators.median_of_means", ("calls",)),
)


class CorralRecords:
    """Counters read from the records CorralMaster.round returns."""

    def __init__(self):
        self.last_restarts: Dict[int, List[int]] = {}
        self.min_q = None

    def __call__(self, args, out) -> None:
        master, (_, rec) = args[0], out
        self.last_restarts[id(master)] = rec["restarts"]
        self.min_q = rec["q_b"] if self.min_q is None else min(self.min_q,
                                                                rec["q_b"])

    def counters(self) -> Dict[str, float]:
        finals = list(self.last_restarts.values())
        return {
            "exp4.restarts": float(sum(sum(r) for r in finals)),
            "corral.buckets": float(max((len(r) for r in finals), default=0)),
            "corral.min_q": float(self.min_q or 0.0),
        }


def epoch_counters(results) -> Dict[str, float]:
    """Elimination counters from the epoch rows of every seed."""
    rows = [(r, r.epochs) for r in results if r.epochs]
    if not rows:
        return {k: 0.0 for k in ("elimination.solver_iters",
                                 "elimination.solver_gap",
                                 "elimination.epochs_completed",
                                 "elimination.budget_used",
                                 "elimination.survivors_final")}
    all_epochs = [e for _, eps in rows for e in eps]
    played = sum(e["played"] for e in all_epochs)
    scored = sum(e["played"] for e in all_epochs if e["eliminated"])
    gaps = []
    for e in all_epochs:
        # certified optimum of the variance program: V_m / (1 - mu_m)
        target = e["V_m"] / (1.0 - min(0.5, e["r_m"]))
        gaps.append(e["solver_value"] / target - 1.0)
    n = len(rows)
    return {
        "elimination.solver_iters": statistics.mean(
            e["solver_iters"] for e in all_epochs),
        "elimination.solver_gap": max(gaps),
        "elimination.epochs_completed": sum(
            sum(e["eliminated"] for e in eps) for _, eps in rows) / n,
        "elimination.budget_used": scored / played,
        "elimination.survivors_final": sum(
            eps[-1]["survivors"] for _, eps in rows) / n,
    }


def traced_metrics(w, ref, seed, seconds, tally, out_dir, record) -> dict:
    """Every per-layer metric of one traced run, by name."""
    played, rates_a = timed_pass(w, ref, seed_lists(seed, w.n_seeds),
                                 seconds / 2.0, tally, out_dir)
    tracer = Tracer()
    corral = CorralRecords()
    csv_rows = [0]
    first = {}  # the exact counters, from the first repetition
    tracer.hooks["corral.round"] = corral
    tracer.hooks["harness.trace_csv_lines"] = (
        lambda args, out: csv_rows.__setitem__(0, csv_rows[0] + len(out) - 1))

    def keep_first(results):
        if not first:
            first.update(corral.counters(), **epoch_counters(results))

    tracer.install()
    try:
        _, rates_b = timed_pass(w, ref, iter(played), 0.0, tally, out_dir,
                                call=tracer.root, max_reps=len(played),
                                on_result=keep_first)
    finally:
        tracer.uninstall()
    tracer.save(os.path.join(out_dir, f"spans-{w.name}.npz"), w.name)

    n_exp = max(1, len(played))
    agg = tracer.aggregate()
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}
    values = {}
    for name, fields in SPAN_METRICS:
        for fld in fields:
            values[f"{name}.{fld}"] = agg.get(name, zero)[fld] / n_exp
    root = agg.get(ROOT_SPAN, zero)
    values["trace.unattributed_s"] = root["self_s"] / n_exp
    rate_a, rate_b = sustained_rate(rates_a), sustained_rate(rates_b)
    values["trace.overhead_frac"] = rate_a / rate_b - 1.0 if rate_b else 0.0
    wall = root["s"] or 1.0
    for layer in LAYERS:
        own = sum(v["self_s"] for k, v in agg.items()
                  if k.split(".")[0] == layer)
        values[f"share.{layer}"] = own / wall
    values["share.unattributed"] = root["self_s"] / wall
    write_s = agg.get("harness.write_outputs", zero)["s"]
    values["harness.csv_rows_per_s"] = (csv_rows[0] / write_s if write_s
                                        else 0.0)
    values.update(first or {**CorralRecords().counters(),
                            **epoch_counters([])})
    values["fail_frac"] = tally.fail_frac
    record["rounds_per_s_reps_untraced"] = rates_a
    record["rounds_per_s_reps_traced"] = rates_b
    record["counters"] = {k: v for k, v in values.items()
                          if k in EXACT_COUNTERS}
    return values


EXACT_COUNTERS = ("exp4.restarts", "corral.buckets", "corral.min_q",
                  "elimination.solver_iters", "elimination.solver_gap",
                  "elimination.epochs_completed", "elimination.budget_used",
                  "elimination.survivors_final")
