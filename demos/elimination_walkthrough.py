"""One policy-elimination run, epoch by epoch.

Shows the epoch schedule (shrinking radius), the exploration
distribution's optimized variance value against its closed-form
certificate V/(1-mu), and which policies survive each epoch. The
elimination threshold is min + 3*r_m with r_m halving per epoch, and
epoch budgets grow like 320*kappa/r_m^2, so a gap only becomes visible
once the horizon is long enough to finish the epoch whose radius drops
below a third of it: the instance here has a loss-0 valley against
loss-1 plateaus (gap 1, crossed in epoch 2).
"""

import numpy as np

from smoothcb import (ElimConfig, FiniteContexts, PiecewiseConstantLoss,
                      PolicyClass, SmoothPolicyElimination, StochasticEnv)
from smoothcb.spaces import ActionSpace

space = ActionSpace.ring()
valley = PiecewiseConstantLoss([0.0, 0.4, 0.6, 1.0], [1.0, 0.0, 1.0])
env = StochasticEnv(space, FiniteContexts([None]), lambda xs: valley,
                    noise="bernoulli")
pc = PolicyClass.constant(space, [0.1, 0.3, 0.5, 0.7, 0.9])

cfg = ElimConfig(variant="s", T=2 ** 22, h=0.1)
alg = SmoothPolicyElimination(env, pc, cfg)
out = alg.run(np.random.default_rng(0), rng_env=np.random.default_rng(1))

print(f"{'m':>2} {'h_m':>6} {'r_m':>8} {'V_m':>6} {'n_m':>9} "
      f"{'value':>8} {'survive':>7}")
for row in out["epochs"]:
    print(f"{row['m']:>2} {row['h_m']:>6.3f} {row['r_m']:>8.4f} "
          f"{row['V_m']:>6.3f} {row['n_m']:>9} "
          f"{row['solver_value']:>8.4f} {row['survivors']:>7}")

final = out["final_version_space"]
acts = pc.actions[np.asarray(final.indices)]
print(f"\nfinal survivors ({len(final)}): actions "
      f"{np.array2string(np.sort(acts), precision=2)}")
print(f"mean loss over the whole run: {out['losses'].mean():.3f} "
      "(early epochs explore the plateaus, later ones sit in the valley)")
