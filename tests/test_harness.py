import hashlib
import json
import os
import time

import numpy as np
import pytest
from by_context import ByContext
from packing_reference import expected_packing

from smoothcb import environments, harness
from smoothcb.cli import parse_env_spec
from smoothcb.environments import (FiniteContexts, StochasticEnv,
                                   make_named_instance)
from smoothcb.harness import (RNG_BLOCK, BlockRandom, RegretTrace, RunConfig,
                              default_policy_class, diagnose, run_experiment,
                              run_inputs, run_one, trace_csv_lines,
                              write_outputs)
from smoothcb.losses import PiecewiseConstantLoss, PiecewiseLinearLoss
from smoothcb.policies import PolicyClass
from smoothcb.spaces import ActionSpace


def _constant_env(c=0.3):
    space = ActionSpace.ring()
    mean = PiecewiseConstantLoss.constant(c)
    return StochasticEnv(space, FiniteContexts([None]), lambda x: mean,
                         noise="deterministic")


class TestRunConfig:
    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            RunConfig(alg="foo", env_name="absolute", T=10)

    def test_missing_bandwidth(self):
        with pytest.raises(ValueError):
            RunConfig(alg="exp4", env_name="absolute", T=10)

    def test_missing_lipschitz(self):
        with pytest.raises(ValueError):
            RunConfig(alg="pe-l", env_name="absolute", T=10)

    @pytest.mark.parametrize("field,value", [
        ("T", 1), ("T", "100"), ("T", 100.0), ("h", 0.0), ("h", 1.5),
        ("h", float("nan")), ("h", "0.1"), ("n_policies", 0),
        ("seeds", []), ("seeds", 3), ("seeds", [0.5]), ("n_policies", 2.5),
        ("L", float("inf")), ("beta", 2.0), ("L", "1"),
        ("seeds", [0, 0]), ("seeds", [0, -1])])
    def test_rejects_bad_values(self, field, value):
        kwargs = {"alg": "exp4", "env_name": "absolute", "T": 10, "h": 0.1}
        kwargs[field] = value
        with pytest.raises(ValueError, match=field):
            RunConfig(**kwargs)


class TestPolicyCsv:
    """A CSV table is a tabular class whose rows are the env's integer
    contexts; a run plays it when it is passed to run_one."""

    def test_integer_contexts(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("0.1,0.5\n0.3,0.7\n")
        env = StochasticEnv(ActionSpace.ring(), FiniteContexts([1, 0]),
                            lambda xs: PiecewiseConstantLoss.constant(0.3))
        pc = PolicyClass.from_csv(env.space, str(path))
        assert np.array_equal(pc.actions_many(env.contexts.values),
                              [[0.3, 0.7], [0.1, 0.5]])
        cfg = RunConfig(alg="exp4", env_name="custom", T=50, h=0.1)
        tr = run_one(cfg, 0, env=env, pc=pc)
        assert len(tr.losses) == 50 and np.all(tr.losses == 0.3)
        assert tr.benchmark == 0.3


class TestBenchmarkOncePerExperiment:
    def test_one_benchmark_for_all_seeds(self, monkeypatch):
        calls = []
        original = StochasticEnv.smoothed_benchmark

        def counted(self, *args, **kwargs):
            calls.append(args)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(StochasticEnv, "smoothed_benchmark", counted)
        cfg = RunConfig(alg="exp4", env_name="absolute", T=20, h=0.1,
                        seeds=[0, 1, 2], n_policies=4)
        traces = run_experiment(cfg)
        assert len(calls) == 1
        assert len({tr.benchmark for tr in traces}) == 1
        alone = run_one(cfg, 1)
        assert len(calls) == 2
        assert alone.benchmark == traces[1].benchmark
        assert np.array_equal(alone.losses, traces[1].losses)
        # inputs built ahead are used as they are
        inputs = run_inputs(cfg)
        assert len(calls) == 3
        again = run_experiment(cfg, inputs=inputs)
        assert len(calls) == 3
        assert [tr.losses.tobytes() for tr in again] == [
            tr.losses.tobytes() for tr in traces]


class TestDeterminism:
    def test_identical_seed_identical_csv(self, tmp_path):
        cfg = RunConfig(alg="exp4", env_name="absolute", T=100, h=0.1,
                        seeds=[3], n_policies=8)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        run_experiment(cfg, out_dir=str(d1))
        run_experiment(cfg, out_dir=str(d2))
        b1 = (d1 / "run_seed3.csv").read_bytes()
        b2 = (d2 / "run_seed3.csv").read_bytes()
        assert b1 == b2

    def test_different_seeds_differ(self):
        cfg = RunConfig(alg="exp4", env_name="absolute", T=100, h=0.1,
                        seeds=[0, 1], n_policies=8)
        t0, t1 = run_experiment(cfg)
        assert not np.array_equal(t0.actions, t1.actions)


def _digest(traces):
    digest = hashlib.sha256()
    for tr in traces:
        digest.update(np.asarray(tr.actions, dtype=np.float64).tobytes())
        digest.update(np.asarray(tr.losses, dtype=np.float64).tobytes())
    return digest.hexdigest()


class TestSeededLearnerTrajectories:
    # sha256 of actions and losses of seeded exp4 and corral runs; the
    # uniform-h master's kappa = 1 bucket holds h = 1/2 and h = 1, and the
    # Lipschitz master's buckets hold two bandwidths each.  On linear_sphere
    # the environment stream draws normal contexts between its Bernoulli
    # doubles.
    DIGESTS = {
        ("exp4", "discontinuous"): "117ac57f78b96c879c6c009016e73828"
                                   "66a5dbd43f39c265c6d2f13478013af6",
        ("exp4", "linear_sphere"): "b46affcd64f1e67152198567bb54a550"
                                   "66f1704ced3826cd68c15e3b70fb4873",
        ("exp4", "needle_h:d=2"):
            "3742ff9af2d582968f58ff01618cbb9f9cb0dc90ee1c72146348b32fdf62b724",
        ("corral-uniform-h", "absolute"): "7c526661e3353551116b2da511274574"
                                          "82b2a7bb4f2dc8ca10872dac16236d0a",
        ("corral-uniform-h", "needle_h"):
            "87ad26781ea87cdea17276fb4c7752921a389d20f9eebff01d1710a55c75830c",
        ("corral-lipschitz", "absolute"): "34c42fbe0305cce940edd28326e6b0ff"
                                          "3659c95b95c6d25ffebd5741358f47a7",
    }

    @pytest.mark.parametrize("alg,env_spec", sorted(DIGESTS))
    def test_trajectory_digest(self, alg, env_spec):
        extra = {"h": 0.1} if alg == "exp4" else {}
        env_name, params = parse_env_spec(env_spec)
        cfg = RunConfig(alg=alg, env_name=env_name, env_params=params,
                        T=2048, seeds=[0, 1], n_policies=16, **extra)
        assert _digest(run_experiment(cfg)) == self.DIGESTS[(alg, env_spec)]

    def test_weighted_contexts_digest(self):
        # three weighted contexts and Bernoulli noise: each round's context
        # pick and its noise double come from one environment stream
        space = ActionSpace.ring()
        losses = [PiecewiseLinearLoss([0.0, x, 1.0], [x, 0.0, 1.0 - x])
                  for x in (0.2, 0.5, 0.9)]
        env = StochasticEnv(space, FiniteContexts([0, 1, 2], [0.5, 0.3, 0.2]),
                            lambda xs: ByContext(losses, xs),
                            noise="bernoulli")
        pc = PolicyClass.tabular(space, np.array(
            [[0.05, 0.2, 0.3, 0.6, 0.8], [0.1, 0.45, 0.5, 0.55, 0.97],
             [0.0, 0.35, 0.7, 0.9, 0.95]]))
        cfg = RunConfig(alg="exp4", env_name="custom", T=2048, h=0.1,
                        seeds=[0, 1])
        traces = [run_one(cfg, s, env=env, pc=pc) for s in cfg.seeds]
        assert _digest(traces) == ("07cc464bd164b841ba2aadd36d20c85f"
                                   "27917cbe0a96054db9b33d55f90b2278")


class TestRegretAccounting:
    def test_constant_loss_zero_regret(self):
        env = _constant_env(0.3)
        for alg, kw in (("exp4", {"h": 0.1}),
                        ("corral-uniform-h", {"h": 0.25}),
                        ("pe-s", {"h": 0.1})):
            cfg = RunConfig(alg=alg, env_name="custom", T=64, seeds=[0],
                            n_policies=6, **kw)
            tr = run_one(cfg, 0, env=env,
                         pc=default_policy_class(env, 6))
            assert tr.regret == pytest.approx(0.0, abs=1e-9)
            assert tr.pseudo_regret == pytest.approx(0.0, abs=1e-9)

    def test_cumulative_loss_additive(self):
        cfg = RunConfig(alg="exp4", env_name="absolute", T=50, h=0.1,
                        seeds=[0], n_policies=8)
        tr = run_one(cfg, 0)
        assert np.allclose(tr.cumloss, np.cumsum(tr.losses))
        assert tr.cumloss[-1] == pytest.approx(tr.losses.sum())

    def test_walltime_ignores_a_clock_step(self, monkeypatch):
        # the wall clock steps back an hour once the run has started
        real, calls = time.time, []

        def stepping():
            calls.append(None)
            return real() - (3600.0 if len(calls) > 1 else 0.0)

        monkeypatch.setattr(time, "time", stepping)
        cfg = RunConfig(alg="exp4", env_name="absolute", T=50, h=0.1,
                        seeds=[0], n_policies=8)
        assert run_one(cfg, 0).walltime >= 0.0

    def test_benchmark_smoothing_cost(self):
        # on an L-Lipschitz instance the smoothed optimum exceeds the
        # unsmoothed optimum by at most L * h
        env = make_named_instance("absolute")
        pc = default_policy_class(env, 64)
        L = env.lipschitz_constant
        base, _ = env.smoothed_benchmark(pc, 0.0)
        for h in (0.02, 0.05, 0.1, 0.2):
            val, _ = env.smoothed_benchmark(pc, h)
            assert val <= base + L * h + 1e-9


def _fmt(v):
    return f"{v:.17g}"


def _csv_lines_loop(trace):
    """The run CSV row by row with a running sum: the formatter's reference."""
    lines = ["t,action,loss,cumloss"]
    cum = 0.0
    for t in range(len(trace.losses)):
        a = trace.actions[t]
        a_txt = (_fmt(float(a)) if np.ndim(a) == 0
                 else ";".join(_fmt(float(v)) for v in a))
        cum += float(trace.losses[t])
        lines.append(
            f"{t + 1},{a_txt},{_fmt(float(trace.losses[t]))},{_fmt(cum)}")
    return lines


class TestOutputs:
    @pytest.mark.parametrize("d", [1, 2])
    def test_csv_lines_match_loop(self, d):
        rng = np.random.default_rng(0)
        n = 1000
        actions = rng.random((n, d) if d > 1 else n)
        losses = rng.random(n)
        special = [1e-17, 0.1, 1.0, 0.0, 0.3, 1.0 - 1e-16, 5e-324]
        losses[:len(special)] = special
        actions.flat[:len(special)] = special
        # long runs of tiny and unit losses, where rounding the sum shows
        losses[100:400:2] = 1e-17
        losses[400:600] = 1.0
        tr = RegretTrace(seed=0, actions=actions, losses=losses,
                         benchmark=0.0, benchmark_h=None, regret=0.0,
                         pseudo_regret=0.0, walltime=0.0)
        assert trace_csv_lines(tr) == _csv_lines_loop(tr)

    def test_csv_format(self):
        cfg = RunConfig(alg="exp4", env_name="absolute", T=20, h=0.1,
                        seeds=[0], n_policies=4)
        tr = run_one(cfg, 0)
        lines = trace_csv_lines(tr)
        assert lines[0] == "t,action,loss,cumloss"
        assert len(lines) == 21
        t, a, l, c = lines[1].split(",")
        assert t == "1"
        # 17 significant digits round-trip exactly
        assert float(a) == tr.actions[0]
        assert float(c) == tr.losses[0]

    def test_summary_json(self, tmp_path):
        cfg = RunConfig(alg="exp4", env_name="absolute", T=30, h=0.1,
                        seeds=[0, 1], n_policies=4)
        traces = run_experiment(cfg, out_dir=str(tmp_path))
        with open(tmp_path / "summary.json") as f:
            summary = json.load(f)
        regs = [tr.regret for tr in traces]
        assert summary["regret_mean"] == pytest.approx(np.mean(regs))
        assert summary["seeds"] == [0, 1]

    def test_epoch_log_written(self, tmp_path):
        cfg = RunConfig(alg="pe-s", env_name="absolute", T=64, h=0.2,
                        seeds=[0], n_policies=4)
        run_experiment(cfg, out_dir=str(tmp_path))
        path = tmp_path / "epochs_seed0.csv"
        assert path.exists()
        header = path.read_text().splitlines()[0].split(",")
        for col in ("m", "h_m", "r_m", "V_m", "survivors", "n_m",
                    "solver_value", "solver_iters"):
            assert col in header


class TestDiagnostics:
    def test_near_optimal_set_collapses_at_small_scale(self):
        env = make_named_instance("absolute")
        pc = default_policy_class(env, 100)
        h = 0.1
        eps = np.array([0.002, 0.004, 0.008, 0.016, 0.03, 0.05]) / 12.0
        rep = diagnose(env, pc, h=h, L=1.0, epsilon_grid=eps)
        for row in rep.table:
            assert row["M_h"] == 1  # 12*eps <= h/2 throughout

    def test_linear_growth_at_large_scale(self):
        env = make_named_instance("absolute")
        pc = default_policy_class(env, 100)
        h = 0.1
        eps = np.array([0.06, 0.1, 0.2, 0.3]) / 12.0
        rep = diagnose(env, pc, h=h, epsilon_grid=eps)
        for row in rep.table:
            assert row["M_h"] <= 4.0 * (12.0 * row["eps"]) / h + 1e-9

    def test_smoothing_coefficient_worst_case(self):
        env = make_named_instance("absolute")
        pc = default_policy_class(env, 50)
        h = 0.1
        eps = np.geomspace(0.01, 0.3, 8)
        rep = diagnose(env, pc, h=h, epsilon_grid=eps)
        assert rep.theta_h <= 1.0 / (h * eps.min()) + 1e-9

    def test_zooming_fit_reported(self):
        env = make_named_instance("absolute")
        pc = default_policy_class(env, 100)
        rep = diagnose(env, pc, L=1.0,
                       epsilon_grid=np.geomspace(0.003, 0.05, 8))
        assert rep.z_hat is not None
        assert rep.fit_residual is not None
        assert rep.alpha_unif >= 1.0


def _diagnose_both(monkeypatch, env, pc, n_ctx=2000):
    """diagnose's report over an n_ctx-context panel, then the same report
    with every packing number taken one context at a time by the
    reference."""
    L = env.lipschitz_constant or 1.0
    monkeypatch.setattr(environments, "N_CTX", n_ctx)
    got = diagnose(env, pc, h=0.1, L=L)
    monkeypatch.setattr(harness, "_expected_packing", expected_packing)
    return got, diagnose(env, pc, h=0.1, L=L)


class TestDiagnosticsReference:
    """The M_h and M_0 tables and every coefficient derived from them equal
    the per-context reference exactly, on the default eps grid."""

    @pytest.mark.parametrize("name,params,n_policies,n_ctx", [
        ("discontinuous", {}, 64, 2000), ("absolute", {}, 64, 2000),
        ("linear_sphere", {}, 16, 100), ("needle_h", {"index": 1}, 64, 2000),
        ("needle_h", {"d": 2, "index": 1}, 64, 2000),
        ("needle_L", {"index": 1}, 64, 2000)])
    def test_named_instances(self, monkeypatch, name, params, n_policies,
                             n_ctx):
        env = make_named_instance(name, **params)
        pc = default_policy_class(env, n_policies)
        got, want = _diagnose_both(monkeypatch, env, pc, n_ctx)
        assert got == want

    def test_linear_policies_on_the_sphere(self, monkeypatch):
        # every context projects the class to its own row of actions
        env = make_named_instance("linear_sphere")
        w = np.random.default_rng(3).normal(size=(8, 2))
        pc = PolicyClass.linear_sphere(
            env.space, w / np.linalg.norm(w, axis=1)[:, None])
        got, want = _diagnose_both(monkeypatch, env, pc, n_ctx=100)
        assert got == want

    def test_repeated_contexts_and_shared_rows(self, monkeypatch):
        # contexts 1 and 2 repeat in the panel and rows 0 and 2 of the
        # table agree, so rows are packed once but weighted in panel order
        rng = np.random.default_rng(5)
        table = rng.random((3, 6))
        table[2] = table[0]
        values = [0, 1, 2, 1, 0, 2, 2]
        weights = rng.random(len(values))
        losses = [PiecewiseLinearLoss([0.0, 0.5, 1.0], rng.random(3))
                  for _ in range(3)]
        contexts = FiniteContexts(values, weights / weights.sum())
        env = StochasticEnv(ActionSpace.ring(), contexts,
                            lambda xs: ByContext(losses, xs),
                            noise="deterministic")
        pc = PolicyClass.tabular(env.space, table)
        got, want = _diagnose_both(monkeypatch, env, pc)
        assert got == want


def _bits(v):
    return np.asarray(v, dtype=float).tobytes()


class TestBlockRandom:
    """The block reader serves the generator's own random() doubles, in
    the order its scalar and shaped calls would draw them."""

    @staticmethod
    def _pair(seed):
        return (BlockRandom(np.random.default_rng(seed)),
                np.random.default_rng(seed))

    def test_scalar_draws(self):
        block, ref = self._pair(1)
        n = 2 * RNG_BLOCK + 5
        got = [block.random() for _ in range(n)]
        assert all(type(v) is float for v in got)
        assert _bits(got) == _bits([ref.random() for _ in range(n)])

    @pytest.mark.parametrize("d", [2, 3])
    def test_shaped_draws(self, d):
        # (1, d) draws, as sample_ball takes on the cube, between scalars
        block, ref = self._pair(d)
        for _ in range(3000):
            got, want = block.random((1, d)), ref.random((1, d))
            assert got.shape == want.shape and got.dtype == want.dtype
            assert _bits(got) == _bits(want)
            assert _bits(block.random()) == _bits(ref.random())

    def test_draw_across_a_block_boundary(self):
        block, ref = self._pair(3)
        for _ in range(RNG_BLOCK - 2):
            block.random()
            ref.random()
        assert _bits(block.random((1, 5))) == _bits(ref.random((1, 5)))
        assert _bits(block.random()) == _bits(ref.random())

    def test_state_after_whole_blocks(self):
        gen, ref = np.random.default_rng(4), np.random.default_rng(4)
        block = BlockRandom(gen)
        for _ in range(1000):
            block.random((1, 3))
        for _ in range(2 * RNG_BLOCK - 3000):
            block.random()
        for _ in range(2 * RNG_BLOCK):
            ref.random()
        assert gen.bit_generator.state == ref.bit_generator.state


class TestSeedStreams:
    def test_env_and_algorithm_streams_independent(self):
        # the environment child stream is fixed by the seed, so two
        # algorithms see the same context/noise sequence
        cfg1 = RunConfig(alg="exp4", env_name="absolute", T=40, h=0.1,
                         seeds=[5], n_policies=8)
        tr_a = run_one(cfg1, 5)
        tr_b = run_one(cfg1, 5)
        assert np.array_equal(tr_a.actions, tr_b.actions)
        assert np.array_equal(tr_a.losses, tr_b.losses)
