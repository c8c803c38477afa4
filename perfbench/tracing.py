"""Span recorder installed around smoothcb's public functions at run time.

Nothing here edits the package: ``Tracer.install`` swaps each listed public
function or method for a timing wrapper (in every smoothcb module namespace
that holds it) and ``Tracer.uninstall`` puts the originals back.  Private
helpers stay unwrapped, so their time lands in their public caller's self
time.

Spans (name, start, end, parent span, seed id) are kept in flat arrays in
memory and written out once, at the end, by ``save``.  ``aggregate`` derives
per-name calls, total time and self time from those arrays; self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from typing import Callable, Dict, List, Tuple

import numpy as np

# layer (module) -> qualified names of its wrapped public callables.
# "Class.method" entries are patched on the class that defines them.
WRAPPED: Dict[str, Tuple[str, ...]] = {
    "cli": ("main",),
    "harness": ("run_experiment", "run_one", "trace_csv_lines",
                "write_outputs", "default_policy_class"),
    "environments": ("make_named_instance", "StochasticEnv.realize_at",
                     "StochasticEnv.context_panel",
                     "StochasticEnv.smoothed_policy_losses",
                     "StochasticEnv.smoothed_benchmark",
                     "FiniteContexts.sample", "SamplerContexts.sample"),
    "exp4": ("Exp4State.step", "Exp4State.update",
             "Exp4State.density_vector", "StableExp4.stable_update"),
    "corral": ("CorralMaster.round", "build"),
    "elimination": ("solve_variance_program", "SmoothPolicyElimination.run",
                    "SmoothPolicyElimination.start_epoch",
                    "SmoothPolicyElimination.act",
                    "SmoothPolicyElimination.propensity",
                    "SmoothPolicyElimination.end_epoch"),
    "estimators": ("iw_estimate", "median_of_means", "mom_batch_count",
                   "mom_error_bound"),
    "kernels": ("RectKernel.densities", "RectKernel.density",
                "RectKernel.sample", "RectKernel.smoothed_loss",
                "RectKernel.kappa", "BandwidthGrid.snap"),
    "losses": ("LossFunction.integrate_intervals",),
    "policies": ("PolicyClass.act", "PolicyClass.actions_at",
                 "union_ball_volume", "projected_actions", "packing_number"),
    "spaces": ("ActionSpace.ball_intervals", "ActionSpace.ball_volume",
               "ActionSpace.ball_volumes", "ActionSpace.distances",
               "ActionSpace.distance", "ActionSpace.sample_ball",
               "ActionSpace.sample_uniform"),
}

LAYERS = tuple(WRAPPED)
ROOT_SPAN = "bench.experiment"


def span_name(module: str, qualname: str) -> str:
    """Metric-style span name: layer plus method name, e.g. exp4.step."""
    return f"{module}.{qualname.rsplit('.', 1)[-1]}"


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.seed = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = [-1]
        self.current_seed = -1
        self._patches: List[Tuple[object, str, object]] = []
        # span name -> hook(args, result), called after a wrapped call returns
        self.hooks: Dict[str, Callable] = {}

    # -- span recording -------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._id(name)
        hook = self.hooks.get(name)
        stack, parent, seed = self._stack, self.parent, self.seed
        start, end, name_id = self.start, self.end, self.name_id
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            seed.append(tracer.current_seed)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if hook is not None:
                hook(args, out)
            return out

        return wrapper

    def root(self, fn, *args, **kwargs):
        """Call fn inside the root span of one experiment."""
        self.current_seed = -1
        return self.wrap(ROOT_SPAN, fn)(*args, **kwargs)

    # -- installing wrappers --------------------------------------------

    def install(self) -> None:
        importlib.import_module("smoothcb")
        modules = [m for k, m in sys.modules.items()
                   if k == "smoothcb" or k.startswith("smoothcb.")]
        for layer, qualnames in WRAPPED.items():
            mod = sys.modules[f"smoothcb.{layer}"]
            for qualname in qualnames:
                name = span_name(layer, qualname)
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    cls = getattr(mod, cls_name)
                    self._patch(cls, attr, self.wrap(name, cls.__dict__[attr]))
                    continue
                original = getattr(mod, qualname)
                wrapped = self.wrap(name, original)
                if name == "harness.run_one":
                    wrapped = self._seed_setter(wrapped)
                for m in modules:
                    for key, val in list(vars(m).items()):
                        if val is original:
                            self._patch(m, key, wrapped)

    def _seed_setter(self, run_one):
        tracer = self

        @functools.wraps(run_one)
        def inner(config, seed, *args, **kwargs):
            tracer.current_seed = int(seed)
            return run_one(config, seed, *args, **kwargs)

        return inner

    def _patch(self, owner, attr, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def arrays(self):
        return (np.frombuffer(self.name_id, dtype=np.int32).copy(),
                np.frombuffer(self.parent, dtype=np.int32).copy(),
                np.frombuffer(self.seed, dtype=np.int64).copy(),
                np.frombuffer(self.start, dtype=np.float64).copy(),
                np.frombuffer(self.end, dtype=np.float64).copy())

    def aggregate(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        name_id, parent, _, start, end = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_t = dur - child
        k = len(self.names)
        calls = np.bincount(name_id, minlength=k)
        total = np.bincount(name_id, weights=dur, minlength=k)
        selft = np.bincount(name_id, weights=self_t, minlength=k)
        return {n: {"calls": int(calls[i]), "s": float(total[i]),
                    "self_s": float(selft[i])}
                for i, n in enumerate(self.names)}

    def save(self, path: str, workload: str) -> None:
        name_id, parent, seed, start, end = self.arrays()
        np.savez(path, workload=np.array(workload),
                 names=np.array(self.names), name_id=name_id, parent=parent,
                 seed=seed, start=start, end=end)
