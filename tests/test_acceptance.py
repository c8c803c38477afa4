"""End-to-end acceptance checks.

Thirteen checks covering the estimator, the exploration-distribution
solver, the robust mean, the smoothing inequalities, the bandwidth grid,
the exponential-weights learner, policy elimination, the corralling
master, and the named demonstration instances.  Each check prints one
PASS/FAIL line; statistical checks use fixed seeds so reruns are exact.
"""

import math
import time

import numpy as np
import pytest
from exp4_reference import mixture_weights

from smoothcb import corral
from smoothcb.elimination import (ElimConfig, SmoothPolicyElimination,
                                  solve_variance_program)
from smoothcb.environments import (FiniteContexts, StochasticEnv,
                                   make_named_instance)
from smoothcb.estimators import median_of_means, mom_error_bound
from smoothcb.exp4 import Exp4State
from smoothcb.harness import (RegretTrace, RunConfig, _loop_elim,
                              _loop_rounds, _rngs,
                              default_policy_class, diagnose, run_one,
                              trace_csv_lines)
from smoothcb.kernels import BandwidthGrid, RectKernel
from smoothcb.losses import PiecewiseConstantLoss, PiecewiseLinearLoss
from smoothcb.policies import PolicyClass, VersionSpace, union_ball_volume
from smoothcb.spaces import ActionSpace

RING = ActionSpace.ring()


def _verdict(num: int, label: str, ok: bool, detail: str = "") -> bool:
    mark = "PASS" if ok else "FAIL"
    print(f"[{num:2d}] {label}: {mark}" + (f"  ({detail})" if detail else ""))
    return ok


def _ring_dist(a, b):
    d = np.abs(a - b)
    return np.minimum(d, 1.0 - d)


def _piecewise_env():
    loss = PiecewiseConstantLoss([0.0, 0.15, 0.3, 0.55, 0.7, 1.0],
                                 [0.6, 0.2, 0.8, 0.4, 0.5])
    return loss


def test_01_importance_weighted_estimator_unbiased():
    # mean of the kernel-density importance-weighted estimate matches the
    # smoothed policy value within 3 standard errors, for 10 policies
    t0 = time.time()
    rng = np.random.default_rng(11)
    mean = _piecewise_env()
    h = 0.1
    kern = RectKernel(RING, h)
    n = 10 ** 5
    mix_c, mix_w = 0.4, 0.15
    u = rng.random(n)
    a = np.where(u < 0.3, rng.random(n),
                 (mix_c + rng.uniform(-mix_w, mix_w, n)) % 1.0)
    q = 0.3 + 0.7 * (_ring_dist(a, mix_c) <= mix_w) / (2 * mix_w)
    loss = (rng.random(n) < mean(a)).astype(float)
    fails = 0
    for c in rng.random(10):
        dens = (_ring_dist(a, c) <= h) / (2 * h)
        est = dens * loss / q
        lam = kern.smoothed_loss(c, mean)
        if abs(est.mean() - lam) > 3 * est.std(ddof=1) / math.sqrt(n):
            fails += 1
    elapsed = time.time() - t0
    ok = fails == 0 and elapsed < 5.0
    assert _verdict(1, "estimator unbiased over mixture propensities", ok,
                    f"{fails}/10 outside 3 sigma, {elapsed:.1f}s")


def test_02_second_moment_within_volume_bound():
    # with the solver's exploration distribution, the empirical second
    # moment of the estimate stays within 1.2 * kappa * V / (1 - mu)
    t0 = time.time()
    rng = np.random.default_rng(12)
    mean = _piecewise_env()
    h, mu = 0.1, 0.25
    centers = rng.random(8)
    pc = PolicyClass.constant(RING, centers)
    vs = VersionSpace(pc)
    panel = ([None], np.array([1.0]))
    Q, _, _, _ = solve_variance_program(pc, vs, h=h, mu=mu, panel=panel)
    V = union_ball_volume(vs, None, h)
    kappa = RectKernel(RING, h).kappa()
    m = 10 ** 5
    u = rng.random(m)
    j = rng.choice(len(centers), size=m, p=Q)
    ball = (centers[j] + rng.uniform(-h, h, m)) % 1.0
    a = np.where(u < mu, rng.random(m), ball)
    dens_all = (_ring_dist(a[:, None], centers[None, :]) <= h) / (2 * h)
    q = mu + (1 - mu) * dens_all @ Q
    loss = (rng.random(m) < mean(a)).astype(float)
    worst = max(float(np.mean((dens_all[:, k] * loss / q) ** 2))
                for k in range(len(centers)))
    bound = 1.2 * kappa * V / (1 - mu)
    elapsed = time.time() - t0
    ok = worst <= bound and elapsed < 10.0
    assert _verdict(2, "estimator second moment within volume bound", ok,
                    f"worst {worst:.3f} <= {bound:.3f}, {elapsed:.1f}s")


def test_03_solver_meets_duality_certificate():
    # 50 random version spaces: solver value never exceeds the closed-form
    # certificate V / (1 - mu) by more than 0.1%
    t0 = time.time()
    rng = np.random.default_rng(13)
    bad = 0
    for _ in range(50):
        k = int(rng.integers(1, 31))
        pc = PolicyClass.constant(RING, rng.random(k))
        vs = VersionSpace(pc)
        h = float(rng.uniform(0.02, 0.25))
        mu = float(rng.uniform(0.01, 0.5))
        _, value, _, _ = solve_variance_program(
            pc, vs, h=h, mu=mu, panel=([None], np.array([1.0])))
        if value > union_ball_volume(vs, None, h) / (1 - mu) * 1.001:
            bad += 1
    elapsed = time.time() - t0
    ok = bad == 0 and elapsed < 60.0
    assert _verdict(3, "exploration solver meets duality certificate", ok,
                    f"{bad}/50 over certificate, {elapsed:.1f}s")


def test_04_median_of_means_concentration():
    # Bernoulli(1/2) samples: the stated deviation bound fails in at most
    # a 0.10 + 0.02 fraction of 2000 replications
    t0 = time.time()
    rng = np.random.default_rng(14)
    delta, k = 0.1, 15
    n = (7000 // k) * k
    bound = mom_error_bound(0.5, n, delta)
    x = (rng.random((2000, n)) < 0.5).astype(float)
    fails = sum(abs(median_of_means(row, delta=delta) - 0.5) > bound
                for row in x)
    freq = fails / 2000
    elapsed = time.time() - t0
    ok = freq <= 0.12 and elapsed < 10.0
    assert _verdict(4, "median-of-means concentration", ok,
                    f"failure freq {freq:.4f} <= 0.12, {elapsed:.1f}s")


def test_05_smoothing_bias_bounded_by_lipschitz_radius():
    # |smoothed value - pointwise value| <= L * h on 10^4 random triples
    rng = np.random.default_rng(15)
    cube = ActionSpace.cube(1)
    viol = 0
    for _ in range(10 ** 4):
        cuts = np.unique(np.concatenate(
            [[0.0], np.sort(rng.random(int(rng.integers(1, 5)))), [1.0]]))
        f = PiecewiseLinearLoss(cuts, rng.random(len(cuts)))
        L = f.lipschitz_constant()
        c = float(rng.random())
        h = float(rng.uniform(0.005, 0.3))
        if abs(RectKernel(cube, h).smoothed_loss(c, f) - f(c)) > L * h + 1e-9:
            viol += 1
    assert _verdict(5, "smoothing bias bounded by L*h", viol == 0,
                    f"{viol}/10000 violations")


def test_06_bandwidth_snapping_guarantees():
    # snapped bandwidth keeps density sup within 2x and smoothed value
    # within +1/T, on 10^3 random (h, loss, action) per horizon
    rng = np.random.default_rng(16)
    viol = 0
    for T in (16, 256, 4096):
        grid = BandwidthGrid(1, T)
        for _ in range(1000):
            h = float(rng.uniform(1.0 / T, 0.5))
            h_hat = grid.snap(h)
            if 1.0 / h_hat > 2.0 / h + 1e-12:
                viol += 1
            cuts = np.unique(np.concatenate(
                [[0.0], np.sort(rng.random(int(rng.integers(2, 6)))), [1.0]]))
            f = PiecewiseConstantLoss(cuts, rng.random(len(cuts) - 1))
            a = float(rng.random())
            v_hat = RectKernel(RING, h_hat).smoothed_loss(a, f)
            v = RectKernel(RING, h).smoothed_loss(a, f)
            if v_hat > v + 1.0 / T + 1e-12:
                viol += 1
    assert _verdict(6, "bandwidth snapping guarantees", viol == 0,
                    f"{viol}/3000 violations")


def test_07_exp4_worst_case_scaling():
    # mean smoothed regret stays under 3x sqrt(2 T kappa ln|Pi|) at each
    # bandwidth, and shrinking h from 0.2 to 0.05 costs a factor in
    # [1.3, 3.0] (the sqrt(1/h) prediction is 2.0)
    t0 = time.time()
    loss = PiecewiseConstantLoss([0.0, 0.2, 0.4, 0.6, 0.8, 1.0],
                                 [0.55, 0.45, 0.35, 0.5, 0.6])
    env = StochasticEnv(RING, FiniteContexts([None]), lambda x: loss,
                        noise="bernoulli")
    pc = default_policy_class(env, 64)
    T = 20000
    means = {}
    under_bound = True
    for h in (0.05, 0.1, 0.2):
        regs = []
        for seed in range(20):
            cfg = RunConfig(alg="exp4", env_name="custom", T=T, h=h,
                            seeds=[seed], n_policies=64)
            regs.append(run_one(cfg, seed, env=env, pc=pc).regret)
        means[h] = float(np.mean(regs))
        bound = math.sqrt(2 * T * (1 / (2 * h)) * math.log(64))
        under_bound &= means[h] <= 3 * bound
    ratio = means[0.05] / means[0.2]
    elapsed = time.time() - t0
    ok = under_bound and 1.3 <= ratio <= 3.0 and elapsed < 120.0
    assert _verdict(7, "exp-weights worst-case regret scaling", ok,
                    f"ratio {ratio:.2f} in [1.3,3.0], {elapsed:.0f}s")


def test_08_hedge_inequality_exact():
    # per-trajectory exponential-weights inequality: mixture total minus
    # best member total <= (eta/2) sum <P, est^2> + ln|Xi| / eta
    env = make_named_instance("absolute")
    pc = PolicyClass.constant(RING, np.linspace(0, 0.95, 20))
    viol = 0
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        s = Exp4State(pc, [0.1], 200)
        lhs_mix = sq = 0.0
        totals = np.zeros(s.n)
        for _ in range(200):
            x = env.contexts.sample(rng)
            a = s.step(x, rng)
            loss, _ = env.realize_at(x, a, rng)
            P = mixture_weights(s).copy()
            est = s.update(x, a, loss)
            lhs_mix += float(np.dot(P, est))
            sq += float(np.dot(P, est ** 2))
            totals += est
        rhs = s.eta / 2.0 * sq + math.log(s.n) / s.eta
        if lhs_mix - totals.min() > rhs + 1e-9:
            viol += 1
    assert _verdict(8, "exponential-weights inequality exact", viol == 0,
                    f"{viol}/10 trajectories violated")


def test_09_policy_elimination_correctness():
    # 50 seeds on the absolute-loss instance: the optimal policy is never
    # eliminated, final survivors stay within 12 r of optimal, and the
    # near-optimal action set at scales below h/2 is a single ball
    t0 = time.time()
    env = make_named_instance("absolute")
    pc = default_policy_class(env, 100)
    h, T = 0.05, 2 ** 16
    panel = env.contexts.panel(2000, np.random.default_rng(0))
    vals = env.smoothed_policy_losses(pc, h, panel=panel)
    opt_idx = int(np.argmin(vals))
    survived = 0
    gap_ok = True
    for seed in range(50):
        env_rng, alg_rng = _rngs(seed)
        alg = SmoothPolicyElimination(
            env, pc, ElimConfig(variant="s", T=T, h=h))
        out = alg.run(alg_rng, rng_env=env_rng)
        final = out["final_version_space"]
        r_final = out["epochs"][-1]["r_m"]
        if opt_idx in set(final.indices):
            survived += 1
        gaps = vals[np.asarray(final.indices)] - vals.min()
        gap_ok &= bool(np.all(gaps <= 12 * r_final + 1e-9))
    levels = np.array([0.005, 0.015, 0.025])  # all <= h/2
    rep = diagnose(env, pc, h=h, epsilon_grid=levels / 12.0)
    single_ball = all(row["M_h"] == 1 for row in rep.table)
    elapsed = time.time() - t0
    ok = (survived >= 0.95 * 50 and gap_ok and single_ball
          and elapsed < 300.0)
    assert _verdict(9, "policy elimination correctness", ok,
                    f"optimal survived {survived}/50, {elapsed:.0f}s")


def _pe_l_exact_epochs(env, pc, L, T):
    # the epochs pe-l plays to horizon T, walked as run walks them with the
    # learner's own start_epoch and _prune, each survivor scored by its
    # exact smoothed loss; one row (rounds played, expected per-round
    # pseudo-regret, survivors at the start, tilde n_m) per epoch
    panel = env.contexts.panel(2000, np.random.default_rng(0))
    lam0, _ = env.smoothed_benchmark(pc, 0.0, panel=panel)
    uniform = sum(w * env.mean_loss_of(x).integrate_intervals([(0.0, 1.0)])
                  for x, w in zip(*panel))
    alg = SmoothPolicyElimination(env, pc, ElimConfig(variant="l", T=T, L=L))
    vs, t, rows = VersionSpace(pc), 0, []
    for m in range(1, alg.max_epochs + 1):
        state = alg.start_epoch(m, vs, panel)
        lam = env.smoothed_policy_losses(
            pc, state.h_m, panel=panel)[state.vs.indices]
        gap = (state.mu_m * uniform
               + (1.0 - state.mu_m) * float(state.Q @ lam) - lam0)
        n = T - t if m == alg.max_epochs else min(state.n_m, T - t)
        rows.append((n, gap, len(state.vs), state.tilde_n_m))
        if n == state.n_m:
            vs = alg._prune(state, lam)
        t += n
        if t == T:
            break
    return rows


def _pe_l_exact_regret(env, pc, L, T):
    return sum(n * gap for n, gap, _, _ in _pe_l_exact_epochs(env, pc, L, T))


def _epoch_end_horizon(tilde_n_total, n_policies, L):
    # the T that solves sum_{j<=m} tilde n_j * delta_T(T) = T
    T = tilde_n_total
    while True:
        nxt = tilde_n_total * ElimConfig(variant="l", T=T, L=L).delta_T(
            n_policies)
        if nxt == T:
            return T
        T = nxt


def test_10_zooming_speedup_trend():
    # fitted regret growth exponent of the adaptive-radius eliminator:
    # should drop toward 0.5 on the benign instance while staying >= 0.6
    # on the dense-tent hard instance.
    #
    # The schedule's epochs are long.  On absolute with 100 policies,
    # n_1 = 320 kappa V_1 / r_1^2 * delta_T = 1280 * delta_T >= 102,400
    # rounds for every T >= 2^12, and the first prune comes at the end of
    # epoch 4, about 1.0e8 rounds in.  Before the first prune regret is
    # linear on any instance, so no horizon a run can reach shows the
    # trend.  The exponent is fitted instead at epoch-end horizons, the T
    # that solves sum_{j<=m} tilde n_j * delta_T(T) = T.  They run from the
    # end of the benign instance's last epoch over the full class through
    # the end of its last epoch that starts with more than one survivor;
    # after that the class holds only a* and regret stops growing.  The
    # rule reads the horizons off the schedule, never off the fitted
    # values, and both instances are fitted at the same horizons.
    #
    # At those horizons regret is the schedule's exact expectation: per
    # epoch, n * (mu_m * int lambda + (1 - mu_m) * Q_m . lambda_{h_m}
    # [survivors] - lambda_0*), with _prune given the exact smoothed losses
    # that the median-of-means scores concentrate on.  A sampled score
    # lies within r_m of its smoothed loss only with high probability
    # (test_04), and sampled pruning at 1e8 rounds is not simulated.
    #
    # The learner itself runs at T = 2^12..2^16, 3 seeds each: inside
    # epoch 1 on absolute, through one sampled prune on needle_L (whose
    # n_1 is 160 * delta_T).  At each T the mean pseudo-regret must match
    # the same exact expectation within 5 standard errors, taken from the
    # runs' own per-round mean losses.
    t0 = time.time()
    setups = []
    for name, params, L in (("absolute", {}, 1.0),
                            ("needle_L",
                             {"L": 4.0, "R": 10.0, "index": 1}, 4.0)):
        env = make_named_instance(name, **params)
        setups.append((name, env, default_policy_class(env, 100), L))

    # epochs 4 and 9: the benign schedule's last epoch over the full class
    # and its last epoch that starts with more than one survivor, checked
    # on the schedule's own walk (2^40 rounds reach the lone survivor a*)
    first, last = 4, 9
    _, env, pc, L = setups[0]
    rows = _pe_l_exact_epochs(env, pc, L, 2 ** 40)
    survivors = [s for _, _, s, _ in rows]
    rule_ok = (len(survivors) > last
               and survivors[first - 1] == pc.size > survivors[first]
               and survivors[last - 1] > 1 == survivors[last])
    cum_tilde_n = np.cumsum([tn for _, _, _, tn in rows])
    horizons = [_epoch_end_horizon(int(cum_tilde_n[m - 1]), pc.size, L)
                for m in range(first, last + 1)]

    exponents = {}
    worst_z = 0.0
    for name, env, pc, L in setups:
        regs = [_pe_l_exact_regret(env, pc, L, T) for T in horizons]
        exponents[name] = float(np.polyfit(
            np.log(horizons), np.log(np.maximum(regs, 1e-9)), 1)[0])
        lam0, _ = env.smoothed_benchmark(
            pc, 0.0, panel=env.contexts.panel(2000, np.random.default_rng(0)))
        for T in [2 ** k for k in range(12, 17)]:
            cfg = RunConfig(alg="pe-l", env_name=name, T=T, L=L,
                            n_policies=100)
            pseudo, var = [], 0.0
            for seed in range(3):
                _, _, means, _ = _loop_elim(env, pc, cfg, "l", *_rngs(seed))
                pseudo.append(float(np.sum(means)) - T * lam0)
                var += T * float(np.var(means, ddof=1))
            se = math.sqrt(var) / 3.0
            z = abs(np.mean(pseudo) - _pe_l_exact_regret(env, pc, L, T)) / se
            worst_z = max(worst_z, z)
    elapsed = time.time() - t0
    ok = (rule_ok and exponents["absolute"] <= 0.62
          and exponents["needle_L"] >= 0.6 and worst_z <= 5.0
          and elapsed < 600.0)
    assert _verdict(
        10, "adaptive-radius speedup trend", ok,
        f"survivors {survivors[first - 1]}..{survivors[last - 1]} at "
        f"horizons 2^{math.log2(horizons[0]):.1f}.."
        f"2^{math.log2(horizons[-1]):.1f}, "
        f"benign {exponents['absolute']:.2f} <= 0.62, "
        f"hard {exponents['needle_L']:.2f} >= 0.6, "
        f"runs within {worst_z:.2f} <= 5 se, {elapsed:.0f}s")


def test_11_corral_single_learner_degeneracy():
    # a master with one sub-learner must reproduce the standalone
    # exp-weights trajectory exactly, down to the CSV bytes
    env = make_named_instance("absolute")
    pc = default_policy_class(env, 16)
    T, h = 300, 0.1

    env_rng, alg_rng = _rngs(0)
    a1, l1, _ = _loop_rounds(env, Exp4State(pc, [h], T), env_rng, alg_rng)
    env_rng, alg_rng = _rngs(0)
    master = corral.CorralMaster(pc, [h], T, eta=T ** -0.5)
    a2, l2, _ = _loop_rounds(env, master, env_rng, alg_rng)

    def lines(actions, losses):
        tr = RegretTrace(seed=0, actions=actions, losses=losses,
                         benchmark=0.0, benchmark_h=h, regret=0.0,
                         pseudo_regret=0.0, walltime=0.0)
        return trace_csv_lines(tr)

    ok = lines(a1, l1) == lines(a2, l2)
    assert _verdict(11, "corral single-learner degeneracy", ok,
                    "trajectories byte-identical" if ok else "CSVs differ")


def test_12_price_of_adaptivity():
    # on the hidden-pocket instance the bandwidth-uniform master pays a
    # larger normalized regret than exp-weights tuned to the pocket width,
    # in at least 80% of seeds; the flat twin of the instance is run too
    t0 = time.time()
    T, h = 2 ** 14, 1.0 / 32.0
    scale = math.sqrt(T / h)
    wins = 0
    flat_ratios = {"corral-uniform-h": [], "exp4": []}
    for seed in range(20):
        ratios = {}
        for alg in ("corral-uniform-h", "exp4"):
            cfg = RunConfig(alg=alg, env_name="needle_h",
                            env_params={"h": h, "R": 10.0, "index": 1},
                            T=T, h=h, seeds=[seed], n_policies=64)
            ratios[alg] = run_one(cfg, seed).pseudo_regret / scale
            if seed < 3:  # flat twin, for the record
                cfg0 = RunConfig(alg=alg, env_name="needle_h",
                                 env_params={"h": h, "R": 10.0, "index": 0},
                                 T=T, h=h, seeds=[seed], n_policies=64)
                flat_ratios[alg].append(
                    run_one(cfg0, seed).pseudo_regret / scale)
        if ratios["corral-uniform-h"] > ratios["exp4"]:
            wins += 1
    elapsed = time.time() - t0
    ok = wins >= 16 and elapsed < 300.0
    assert _verdict(12, "price of bandwidth adaptivity", ok,
                    f"adaptive worse in {wins}/20 seeds, {elapsed:.0f}s")


def test_13_discontinuous_instance_sanity():
    # the learner concentrates near the step at 1/2 despite the pointwise
    # spike there, and the smoothed benchmark has its closed form
    t0 = time.time()
    T, h = 20000, 0.1
    env = make_named_instance("discontinuous")
    pc = default_policy_class(env, 64)
    close = total = 0
    bench_ok = True
    for seed in range(20):
        cfg = RunConfig(alg="exp4", env_name="discontinuous", T=T, h=h,
                        seeds=[seed], n_policies=64)
        tr = run_one(cfg, seed, env=env, pc=pc)
        bench_ok &= abs(tr.benchmark - (0.25 + 0.75 * h)) <= 1e-9
        tail = tr.actions[3 * T // 4:]
        close += int(np.sum(_ring_dist(tail, 0.5) <= 2 * h))
        total += tail.size
    frac = close / total
    elapsed = time.time() - t0
    ok = frac >= 0.6 and bench_ok
    assert _verdict(13, "discontinuous instance sanity", ok,
                    f"tail fraction {frac:.3f} >= 0.6, {elapsed:.0f}s")
