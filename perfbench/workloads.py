"""The benchmark's workloads, the experiment call each one times, and the
output checks run on every seed.

Each workload enters the package only through a public entry point:
``smoothcb.cli.main`` in-process (``exp4-ring``) or
``smoothcb.harness.run_experiment`` (the others).  Seeds come from the
benchmark's ``--seed``; repetition r of a run uses the r-th seed list drawn
from ``random.Random(seed)``, so one seed always yields the same inputs.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import random
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from smoothcb import cli, environments, harness
from smoothcb.harness import RegretTrace, RunConfig


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    alg: str
    env_name: str
    T: int
    n_seeds: int
    env_params: Tuple[Tuple[str, float], ...] = ()
    h: Optional[float] = None
    L: Optional[float] = None
    policies: int = 64
    via_cli: bool = False
    # horizon and seeds of the fixed-seed run whose trajectory digest is
    # pinned in reference.json; None where bit-identical runs are not
    # required.  The CLI reads a lone seed as a count, hence two seeds there.
    digest_T: Optional[int] = None
    digest_seeds: Tuple[int, ...] = (0,)

    @property
    def rounds(self) -> int:
        return self.T * self.n_seeds

    def config(self, seeds: Sequence[int],
               T: Optional[int] = None) -> RunConfig:
        return RunConfig(alg=self.alg, env_name=self.env_name,
                         env_params=dict(self.env_params),
                         T=T or self.T, h=self.h, L=self.L,
                         seeds=list(seeds), n_policies=self.policies)

    def cli_argv(self, seeds: Sequence[int], out_dir: str,
                 T: Optional[int] = None) -> List[str]:
        env = self.env_name
        if self.env_params:
            env += ":" + ",".join(f"{k}={v!r}" for k, v in self.env_params)
        argv = ["run", "--alg", self.alg, "--env", env,
                "--policies", str(self.policies), "--T", str(T or self.T),
                "--seeds", ",".join(str(s) for s in seeds), "--out", out_dir]
        if self.h is not None:
            argv += ["--h", repr(self.h)]
        if self.L is not None:
            argv += ["--L", repr(self.L)]
        return argv

    def scaled(self, T: int, n_seeds: int) -> "Workload":
        """The same workload at another size (self-tests run it tiny)."""
        return dataclasses.replace(self, T=T, n_seeds=n_seeds)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("exp4-ring", "exp4", "discontinuous", T=16384, n_seeds=2,
             h=0.1, policies=64, via_cli=True, digest_T=2048,
             digest_seeds=(0, 1)),
    Workload("corral-needle", "corral-uniform-h", "needle_h", T=8192,
             n_seeds=1, env_params=(("h", 1 / 32), ("R", 10.0),
                                    ("index", 1)),
             h=1 / 32, policies=64, digest_T=1024),
    Workload("pe-sphere", "pe-s", "linear_sphere", T=4096, n_seeds=2,
             h=0.1, policies=16),
    Workload("pe-absolute", "pe-l", "absolute", T=2 ** 18, n_seeds=3,
             L=1.0, policies=100, digest_T=2 ** 18),
)}


def seed_lists(seed: int, n_seeds: int):
    """Endless stream of fresh seed lists, determined by one seed."""
    rng = random.Random(seed)
    while True:
        yield [rng.randrange(2 ** 31) for _ in range(n_seeds)]


def build_inputs(w: Workload):
    """What a user builds before the first round: the env and policy class."""
    env = environments.make_named_instance(w.env_name, **dict(w.env_params))
    return env, harness.default_policy_class(env, w.policies)


# ---------------------------------------------------------------------------
# one experiment
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class SeedResult:
    """What the checks need from one seed of one experiment."""

    seed: int
    actions: np.ndarray
    losses: np.ndarray
    benchmark: float
    pseudo_regret: Optional[float] = None
    epochs: Optional[List[dict]] = None
    csv_lines: Optional[int] = None
    csv_cumloss: Optional[float] = None
    csv_bytes: bytes = b""


def direct_call(fn, *args):
    return fn(*args)


def experiment(w: Workload, seeds: Sequence[int], work_dir: str,
               call=direct_call, T: Optional[int] = None):
    """Run one experiment; returns (wall seconds of the call, results).

    ``call`` invokes the entry point; the traced run passes one that opens
    the root span.  Only the entry-point call is timed.
    """
    if w.via_cli:
        out_dir = tempfile.mkdtemp(prefix="run-", dir=work_dir)
        try:
            argv = w.cli_argv(seeds, out_dir, T=T)
            with contextlib.redirect_stdout(io.StringIO()):
                t0 = time.perf_counter()
                code = call(cli.main, argv)
                wall = time.perf_counter() - t0
            if code != 0:
                raise RuntimeError(f"smoothcb run exited with code {code}")
            return wall, _read_cli_outputs(out_dir, seeds)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
    config = w.config(seeds, T=T)
    t0 = time.perf_counter()
    traces = call(harness.run_experiment, config)
    wall = time.perf_counter() - t0
    return wall, [_from_trace(tr) for tr in traces]


def _from_trace(tr: RegretTrace) -> SeedResult:
    return SeedResult(seed=tr.seed, actions=np.asarray(tr.actions),
                      losses=np.asarray(tr.losses), benchmark=tr.benchmark,
                      pseudo_regret=tr.pseudo_regret, epochs=tr.epochs)


def _read_cli_outputs(out_dir: str, seeds: Sequence[int]) -> List[SeedResult]:
    with open(os.path.join(out_dir, "summary.json")) as f:
        bench = float(json.load(f)["benchmark"])
    results = []
    for s in seeds:
        with open(os.path.join(out_dir, f"run_seed{s}.csv"), "rb") as f:
            raw = f.read()
        lines = raw.decode().splitlines()
        rows = [ln.split(",") for ln in lines[1:]]
        actions = np.array([float(r[1]) for r in rows])
        losses = np.array([float(r[2]) for r in rows])
        cum = float(rows[-1][3]) if rows else math.nan
        results.append(SeedResult(seed=s, actions=actions, losses=losses,
                                  benchmark=bench, csv_lines=len(lines),
                                  csv_cumloss=cum, csv_bytes=raw))
    return results


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def check_seed(w: Workload, r: SeedResult, ref: dict,
               T: Optional[int] = None) -> List[str]:
    """Every per-seed check; returns the failures (empty when correct)."""
    T = T or w.T
    errs = []
    if not abs(r.benchmark - ref["benchmark"]) <= 1e-9:
        errs.append(f"benchmark {r.benchmark!r} != reference "
                    f"{ref['benchmark']!r}")
    a, loss = r.actions, r.losses
    if len(loss) != T or len(a) != T:
        errs.append(f"{len(loss)} rounds played, expected {T}")
    if not (np.all(np.isfinite(a)) and np.all(a >= 0.0) and np.all(a <= 1.0)):
        errs.append("an action lies outside the action space [0, 1]")
    if not (np.all(np.isfinite(loss)) and np.all(loss >= 0.0)
            and np.all(loss <= 1.0)):
        errs.append("a loss lies outside [0, 1]")
    if w.via_cli:
        if r.csv_lines != T + 1:
            errs.append(f"trace CSV has {r.csv_lines} lines, expected {T + 1}")
        total = 0.0
        for v in loss.tolist():
            total += v
        if r.csv_cumloss != total:
            errs.append(f"final cumloss {r.csv_cumloss!r} != loss sum "
                        f"{total!r}")
    band = ref.get("pseudo_regret_per_round_band")
    if band is not None and not (r.pseudo_regret is not None and
                                 band[0] <= r.pseudo_regret / T <= band[1]):
        errs.append(f"pseudo-regret per round {r.pseudo_regret!r}/{T} "
                    f"outside {band}")
    return errs


def digest(results: Sequence[SeedResult]) -> str:
    """sha256 of a seeded trajectory: CSV bytes, else actions, losses and
    epoch rows."""
    h = hashlib.sha256()
    for r in results:
        if r.csv_bytes:
            h.update(r.csv_bytes)
            continue
        h.update(np.ascontiguousarray(r.actions, dtype=np.float64).tobytes())
        h.update(np.ascontiguousarray(r.losses, dtype=np.float64).tobytes())
        if r.epochs:
            h.update(json.dumps(r.epochs, sort_keys=True).encode())
    return h.hexdigest()


def digest_check(w: Workload, ref: dict,
                 work_dir: str) -> Tuple[int, List[str]]:
    """Replay the fixed check seed and compare its digest with the
    reference; returns (seeds attempted, failures)."""
    if w.digest_T is None:
        return 0, []
    _, results = experiment(w, w.digest_seeds, work_dir, T=w.digest_T)
    errs = []
    for r in results:
        errs += check_seed(w, r, ref, T=w.digest_T)
    got = digest(results)
    if got != ref["digest"]:
        errs.append(f"trajectory digest {got} != reference {ref['digest']}")
    return len(results), errs


# ---------------------------------------------------------------------------
# timed repetitions
# ---------------------------------------------------------------------------


class Tally:
    """Seeds attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def add(self, n_seeds: int, errors_per_seed) -> None:
        self.attempted += n_seeds
        for errs in errors_per_seed:
            if errs:
                self.failed += 1
                self.messages.extend(errs[:3])

    @property
    def fail_frac(self) -> float:
        return self.failed / max(1, self.attempted)


def timed_pass(w, ref, seed_iter, budget_s, tally, work_dir,
               call=direct_call, max_reps=None, on_result=None):
    """Repeat the experiment on fresh seed lists until the budget is spent.

    A new repetition starts only if the median repetition so far still
    fits, so the measured time stays close to the budget; with
    ``max_reps`` it plays exactly that many instead.  Returns the seed
    lists played and the rounds/s of each repetition.
    """
    played, rates, walls = [], [], []
    t_begin = time.perf_counter()
    while True:
        if max_reps is not None:
            if len(played) >= max_reps:
                break
        elif played and (time.perf_counter() - t_begin
                         + statistics.median(walls) > budget_s):
            break
        seeds = next(seed_iter)
        played.append(seeds)
        t_rep = time.perf_counter()
        try:
            wall, results = experiment(w, seeds, work_dir, call=call)
        except Exception:  # a failed experiment is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            tally.add(len(seeds), [["experiment raised"]] * len(seeds))
            walls.append(time.perf_counter() - t_rep)
            continue
        walls.append(wall)
        rates.append(w.rounds / wall)
        tally.add(len(seeds), [check_seed(w, r, ref) for r in results])
        if on_result is not None:
            on_result(results)
    return played, rates


def sustained_rate(rates) -> float:
    """The median of the slower half of the repetitions' rates.

    On a shared host a core's speed jumps by up to 1.6x for tens of seconds
    at a time, when the load beside it eases.  The slower half of a run
    holds the contended speed that every run sees, so its median varies
    less from run to run than the median of all repetitions.
    """
    if not rates:
        return 0.0
    return statistics.median(sorted(rates)[:max(1, len(rates) // 2)])
