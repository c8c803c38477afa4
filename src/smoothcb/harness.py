"""Experiment orchestration: runs, regret accounting, diagnostics, output.

One root seed per run; child streams for the environment and the algorithm
are split off the root with numpy's SeedSequence spawning (documented
counter-splitting), so each component is independently reproducible.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import corral as corral_mod
from .elimination import ElimConfig, SmoothPolicyElimination
from .environments import (FiniteContexts, StochasticEnv, _real, _whole,
                           make_named_instance)
from .exp4 import Exp4State
from .kernels import BandwidthGrid
from .policies import PolicyClass, packing_number

ALGORITHMS = ("exp4", "pe-s", "pe-l", "corral-uniform-h", "corral-lipschitz")
# doubles a per-round loop draws from a generator at a time
RNG_BLOCK = 4096


def check_policy_spec(n_policies) -> None:
    """Reject a policy count that is not an integer >= 1; run (through
    RunConfig) and diagnose both check with this."""
    if not _whole(n_policies) or n_policies < 1:
        raise ValueError(
            f"n_policies must be an integer >= 1, got {n_policies!r}")


def check_bandwidth(h) -> float:
    """h as a float, or ValueError unless it is a number in (0, 1]; run
    (through RunConfig) and diagnose both check with this."""
    if not (_real(h) and 0 < h <= 1):
        raise ValueError(f"h must lie in (0, 1], got {h!r}")
    return float(h)


@dataclass
class RunConfig:
    alg: str
    env_name: str
    T: int
    env_params: Dict = field(default_factory=dict)
    h: Optional[float] = None
    L: Optional[float] = None
    beta: float = 1.0
    seeds: Sequence[int] = (0,)
    n_policies: int = 64

    def __post_init__(self):
        if self.alg not in ALGORITHMS:
            raise ValueError(f"unknown algorithm: {self.alg!r}")
        if not _whole(self.T) or self.T < 2:
            raise ValueError(f"T must be an integer >= 2, got {self.T!r}")
        check_policy_spec(self.n_policies)
        if (not isinstance(self.seeds, (list, tuple, range))
                or not self.seeds or not all(map(_whole, self.seeds))
                or min(self.seeds) < 0):
            raise ValueError(
                f"seeds must be a non-empty list of non-negative integers, "
                f"got {self.seeds!r}")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError(
                f"seeds must not repeat, got {list(self.seeds)!r}")
        if self.h is not None:
            self.h = check_bandwidth(self.h)
        if self.L is not None and not _real(self.L):
            raise ValueError(f"L must be a finite number, got {self.L!r}")
        if not (_real(self.beta) and 0 <= self.beta <= 1):
            raise ValueError(f"beta must lie in [0, 1], got {self.beta!r}")
        if self.alg in ("exp4", "pe-s") and not self.h:
            raise ValueError(f"{self.alg} needs --h")
        if self.alg == "pe-l" and not self.L:
            raise ValueError("pe-l needs --L")


@dataclass
class RegretTrace:
    seed: int
    actions: np.ndarray
    losses: np.ndarray
    benchmark: float
    benchmark_h: Optional[float]
    regret: float
    pseudo_regret: float
    walltime: float
    epochs: Optional[List[dict]] = None

    @property
    def cumloss(self) -> np.ndarray:
        return np.cumsum(self.losses)


def _rngs(seed: int):
    env_ss, alg_ss = np.random.SeedSequence(seed).spawn(2)
    return np.random.default_rng(env_ss), np.random.default_rng(alg_ss)


def default_policy_class(env: StochasticEnv, n: int) -> PolicyClass:
    """Constant class on an n-point grid of the env's space.  Another class,
    such as a ``PolicyClass.from_csv`` table, is passed to ``run_one``."""
    space = env.space
    if space.d > 1:
        side = max(2, int(round(n ** (1.0 / space.d))))
        axis = (np.arange(side) + 0.5) / side
        mesh = np.meshgrid(*([axis] * space.d))
        return PolicyClass.constant(
            space, np.stack([m.ravel() for m in mesh], axis=1))
    if space.kind == "ring":
        return PolicyClass.constant(space, np.arange(n) / n)
    return PolicyClass.constant(space, (np.arange(n) + 0.5) / n)


# ---------------------------------------------------------------------------
# single-run loops
# ---------------------------------------------------------------------------


class BlockRandom:
    """A generator's ``random()`` doubles, drawn RNG_BLOCK at a time.

    ``random()`` and ``random(shape)`` return the doubles the generator's
    own calls would, in the same order: a block of ``rng.random(n)`` holds
    the doubles of n scalar draws.  Only the generator's state after the
    last read differs, by the block's unread rest.
    """

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._it = iter(())

    def random(self, size=None):
        if size is not None:
            n = int(np.prod(size))
            return np.array([self.random() for _ in range(n)]).reshape(size)
        try:
            return next(self._it)
        except StopIteration:
            self._it = iter(self._rng.random(RNG_BLOCK).tolist())
            return next(self._it)


def _loop_rounds(env: StochasticEnv, learner, env_rng, alg_rng):
    """Play ``learner.T`` rounds of a learner with the ``round(x, loss_eval,
    rng)`` protocol (``Exp4State`` or ``CorralMaster``).

    The algorithm stream is read through a ``BlockRandom``, and so is the
    environment stream of a ``FiniteContexts`` env, which draws only
    ``random()`` doubles; a sampled context set draws normals, so its
    stream stays the generator itself.
    """
    T = learner.T
    actions = np.empty(T) if env.space.d == 1 else np.empty((T, env.space.d))
    losses = np.empty(T)
    means = np.empty(T)
    if isinstance(env.contexts, FiniteContexts):
        env_rng = BlockRandom(env_rng)
    alg_rng = BlockRandom(alg_rng)
    sample, realize_at = env.contexts.sample, env.realize_at
    play = learner.round
    for t in range(T):
        x = sample(env_rng)

        def loss_eval(a):
            losses[t], means[t] = realize_at(x, a, env_rng)
            return losses[t]

        actions[t], _ = play(x, loss_eval, alg_rng)
    return actions, losses, means


def _loop_elim(env: StochasticEnv, pc: PolicyClass, cfg: RunConfig,
               variant: str, env_rng, alg_rng):
    econf = ElimConfig(variant=variant, T=cfg.T, h=cfg.h, L=cfg.L)
    alg = SmoothPolicyElimination(env, pc, econf)
    out = alg.run(alg_rng, rng_env=env_rng)
    return out["actions"], out["losses"], out["mean_losses"], out["epochs"]


def _benchmark(config: RunConfig, env: StochasticEnv, pc: PolicyClass):
    """(bench_h, bench): the bandwidth regret is measured at, and its
    smoothed benchmark over the seed-0 context panel (NaN without one).

    The panel does not depend on the run's seed, so one value serves every
    seed of an experiment.
    """
    if config.alg in ("exp4", "pe-s"):
        bench_h = config.h
    elif config.alg == "corral-uniform-h":
        bench_h = (BandwidthGrid(env.space.d, config.T).snap(config.h)
                   if config.h else None)
    else:
        bench_h = 0.0
    if bench_h is None:
        return None, float("nan")
    if bench_h == 0.0 and env.lipschitz_constant is None:
        raise ValueError("Lipschitz regret needs an env with L metadata")
    return bench_h, env.smoothed_benchmark(pc, bench_h)[0]


def run_one(config: RunConfig, seed: int, env: Optional[StochasticEnv] = None,
            pc: Optional[PolicyClass] = None,
            benchmark: Optional[tuple] = None) -> RegretTrace:
    """One seed; ``benchmark`` is ``_benchmark``'s result when known."""
    env = env or make_named_instance(config.env_name, **config.env_params)
    pc = pc or default_policy_class(env, config.n_policies)
    bench_h, bench = benchmark or _benchmark(config, env, pc)
    env_rng, alg_rng = _rngs(seed)
    t0 = time.perf_counter()
    epochs = None
    if config.alg in ("pe-s", "pe-l"):
        variant = "s" if config.alg == "pe-s" else "l"
        actions, losses, means, epochs = _loop_elim(
            env, pc, config, variant, env_rng, alg_rng)
    else:
        if config.alg == "exp4":
            learner = Exp4State(pc, [config.h], config.T)
        else:
            learner = corral_mod.build(pc, config.T, beta=config.beta, mode=(
                corral_mod.UNIFORM_H if config.alg == "corral-uniform-h"
                else corral_mod.LIPSCHITZ_ADAPTIVE))
        actions, losses, means = _loop_rounds(env, learner, env_rng, alg_rng)
    total = float(np.sum(losses))
    regret = total - config.T * bench
    pseudo = float(np.sum(means)) - config.T * bench
    return RegretTrace(
        seed=seed, actions=actions, losses=losses, benchmark=bench,
        benchmark_h=bench_h, regret=regret, pseudo_regret=pseudo,
        walltime=time.perf_counter() - t0, epochs=epochs)


def run_inputs(config: RunConfig) -> dict:
    """The env, pc and benchmark ``run_one`` takes, built before any round;
    elimination's cell cap on the cube in d >= 2 is checked here too."""
    env = make_named_instance(config.env_name, **config.env_params)
    pc = default_policy_class(env, config.n_policies)
    if config.alg in ("pe-s", "pe-l") and env.space.d > 1:
        SmoothPolicyElimination(env, pc, ElimConfig(
            variant=config.alg[3:], T=config.T, h=config.h, L=config.L)
        ).check_cells(env.context_panel()[0])
    return {"env": env, "pc": pc, "benchmark": _benchmark(config, env, pc)}


def run_experiment(config: RunConfig, out_dir: Optional[str] = None,
                   inputs: Optional[dict] = None) -> List[RegretTrace]:
    """One trace per seed; optionally writes CSVs plus summary.json.
    ``inputs`` is ``run_inputs(config)``, built here when not given."""
    inputs = inputs or run_inputs(config)
    traces = [run_one(config, s, **inputs) for s in config.seeds]
    if out_dir:
        write_outputs(config, traces, out_dir)
    return traces


# ---------------------------------------------------------------------------
# output formats
# ---------------------------------------------------------------------------


def trace_csv_lines(trace: RegretTrace) -> List[str]:
    """The run CSV: per round t, the action (coordinates joined by ';' on
    the cube), the loss and the cumulative loss, each to 17 digits."""
    acts = np.asarray(trace.actions, dtype=float)
    losses = np.asarray(trace.losses, dtype=float)
    # cumsum adds in round order from 0.0, as a running sum does
    cum = np.cumsum(np.concatenate([[0.0], losses]))[1:]
    if acts.ndim == 1:
        a_col, row = acts.tolist(), "{},{:.17g},{:.17g},{:.17g}".format
    else:
        a_col = [";".join(map("{:.17g}".format, a)) for a in acts.tolist()]
        row = "{},{},{:.17g},{:.17g}".format
    return ["t,action,loss,cumloss",
            *map(row, range(1, len(losses) + 1), a_col, losses.tolist(),
                 cum.tolist())]


def regret_summary(traces: List[RegretTrace]) -> dict:
    """The benchmark and the regret's mean and sample std over the seeds
    (0.0 for one seed)."""
    regs = np.array([tr.regret for tr in traces])
    return {"benchmark": traces[0].benchmark,
            "regret_mean": float(regs.mean()),
            "regret_std": float(regs.std(ddof=1)) if len(regs) > 1 else 0.0}


def write_outputs(config: RunConfig, traces: List[RegretTrace],
                  out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    for tr in traces:
        path = os.path.join(out_dir, f"run_seed{tr.seed}.csv")
        with open(path, "w") as f:
            f.write("\n".join(trace_csv_lines(tr)) + "\n")
        if tr.epochs:
            epath = os.path.join(out_dir, f"epochs_seed{tr.seed}.csv")
            cols = list(tr.epochs[0].keys())
            with open(epath, "w") as f:
                f.write(",".join(cols) + "\n")
                for row in tr.epochs:
                    f.write(",".join(str(row[c]) for c in cols) + "\n")
    stats = regret_summary(traces)
    summary = {
        "config": {k: (list(v) if isinstance(v, (tuple, range)) else v)
                   for k, v in vars(config).items()},
        "benchmark": stats["benchmark"],
        "benchmark_h": traces[0].benchmark_h,
        "regret_mean": stats["regret_mean"],
        "regret_std": stats["regret_std"],
        "pseudo_regret_mean": float(
            np.mean([tr.pseudo_regret for tr in traces])),
        "runtime_total": float(sum(tr.walltime for tr in traces)),
        "seeds": [tr.seed for tr in traces],
    }
    with open(os.path.join(out_dir, "summary.json"), "w") as f:
        json.dump(summary, f, indent=2, default=str)


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------


@dataclass
class DiagnosticsReport:
    table: List[dict]
    theta_h: Optional[float]
    psi_L: Optional[float]
    z_hat: Optional[float]
    fit_residual: Optional[float]
    alpha_unif: float


def _expected_packing(pc: PolicyClass, panel, level_vals: np.ndarray,
                      eps_opt: float, delta_pack: float) -> float:
    """E_x over the panel of the packing number of the eps_opt-optimal set.

    Packing at scale delta means disjoint closed delta-balls, so centers
    must be strictly more than 2*delta apart.  Each distinct row of the
    panel's actions is packed once (a point repeated within a row lies at
    distance 0 and the greedy skips it); the weighted counts are then
    added in panel order, as a running total would add them.
    """
    mask = level_vals <= level_vals.min() + eps_opt + 1e-12
    xs, ws = panel
    acts = pc.actions_many(xs)[:, mask]
    rows, inv = np.unique(acts, axis=0, return_inverse=True)
    packs = np.array([packing_number(pc.space, r, 2.0 * delta_pack + 1e-12)
                      for r in rows])
    return np.cumsum(ws * packs[inv])[-1]


def diagnose(env: StochasticEnv, pc: PolicyClass, h: Optional[float] = None,
             L: Optional[float] = None,
             epsilon_grid: Optional[Sequence[float]] = None
             ) -> DiagnosticsReport:
    """Packing-number table and smoothing/zooming coefficients.

    For each epsilon: M_h(12 eps, h) over the 12*eps-optimal set under the
    h-smoothed losses (when h is given), and M_0(12 L eps, eps) under the
    unsmoothed losses (when L is given).  theta_h and psi_L are the suprema
    of M/eps over the grid; the zooming exponent is the log-log slope of
    M_0(12 L eps, eps) against 1/eps.
    """
    if h is not None:
        h = check_bandwidth(h)
    if L is not None and not (_real(L) and L > 0):
        raise ValueError(f"L must be a finite number > 0, got {L!r}")
    if epsilon_grid is None:
        epsilon_grid = np.geomspace(1e-3, 0.5, 16)
    eps_arr = np.asarray(epsilon_grid, dtype=float)
    if not np.all(np.isfinite(eps_arr) & (eps_arr > 0)):
        raise ValueError(f"--eps-grid values must be finite and positive, "
                         f"got {eps_arr.tolist()}")
    if L is not None and len(np.unique(eps_arr)) < 2:
        raise ValueError(f"--eps-grid needs two distinct values for the "
                         f"zooming fit, got {eps_arr.tolist()}")
    panel = env.context_panel()
    vals_h = (env.smoothed_policy_losses(pc, h, panel=panel)
              if h is not None else None)
    vals_0 = (env.smoothed_policy_losses(pc, 0.0, panel=panel)
              if L is not None else None)
    table = []
    for eps in epsilon_grid:
        row = {"eps": float(eps)}
        if vals_h is not None:
            row["M_h"] = _expected_packing(pc, panel, vals_h,
                                           12.0 * eps, h)
        if vals_0 is not None:
            row["M_0"] = _expected_packing(pc, panel, vals_0,
                                           12.0 * L * eps, eps)
        table.append(row)
    theta = (max(r["M_h"] / r["eps"] for r in table)
             if vals_h is not None else None)
    psi = (max(r["M_0"] / r["eps"] for r in table)
           if vals_0 is not None else None)
    z_hat = resid = None
    if vals_0 is not None:
        xs = np.log(1.0 / np.asarray([r["eps"] for r in table]))
        ys = np.log(np.maximum(1e-12, [r["M_0"] for r in table]))
        slope, intercept = np.polyfit(xs, ys, 1)
        z_hat = float(slope)
        resid = float(np.sqrt(np.mean((ys - (slope * xs + intercept)) ** 2)))
    hs = [x for x in (h, 2.0 ** -4) if x]
    alpha = env.space.estimate_uniformity(hs)
    return DiagnosticsReport(table=table, theta_h=theta, psi_L=psi,
                             z_hat=z_hat, fit_residual=resid,
                             alpha_unif=alpha)
