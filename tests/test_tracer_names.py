"""perfbench's tracer wraps smoothcb's public callables by name; every name it
lists must still resolve the way ``Tracer.install`` looks it up, or a traced
benchmark run breaks although no other test fails."""

import importlib
import importlib.util
import os
import pkgutil

import numpy as np

import smoothcb
from smoothcb import corral
from smoothcb.policies import PolicyClass
from smoothcb.spaces import ActionSpace

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                       "tracing.py")


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_wrapped_name_resolves():
    tracing = _tracing()
    missing = []
    for layer, qualnames in tracing.WRAPPED.items():
        mod = importlib.import_module(f"smoothcb.{layer}")
        for qualname in qualnames:
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                found = attr in vars(getattr(mod, cls_name, object))
            else:
                found = callable(getattr(mod, qualname, None))
            if not found:
                missing.append(f"{layer}.{qualname}")
    assert not missing, f"perfbench WRAPPED names not found: {missing}"


def test_no_subclass_overrides_a_wrapped_method():
    # the tracer patches a method on the class that defines it, so an
    # override in a subclass would run unwrapped and go uncounted
    tracing = _tracing()
    classes = set()
    for info in pkgutil.iter_modules(smoothcb.__path__):
        if info.name == "__main__":
            continue
        mod = importlib.import_module(f"smoothcb.{info.name}")
        classes.update(v for v in vars(mod).values() if isinstance(v, type)
                       and v.__module__.startswith("smoothcb."))
    overrides = []
    for layer, qualnames in tracing.WRAPPED.items():
        mod = importlib.import_module(f"smoothcb.{layer}")
        for qualname in qualnames:
            if "." not in qualname:
                continue
            cls_name, attr = qualname.split(".")
            base = getattr(mod, cls_name)
            for sub in classes:
                if sub is base or not issubclass(sub, base):
                    continue
                below = sub.__mro__[:sub.__mro__.index(base)]
                if any(attr in vars(k) for k in below):
                    overrides.append(f"{sub.__name__}.{attr}")
    assert not overrides, f"subclasses override wrapped methods: {overrides}"


def test_corral_learners_count_under_exp4_step():
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        pc = PolicyClass.constant(ActionSpace.ring(),
                                  np.linspace(0.05, 0.95, 8))
        master = corral.build(pc, 64, mode=corral.UNIFORM_H)
        rng = np.random.default_rng(0)
        for _ in range(64):
            master.round(None, lambda a: 0.5, rng)
    finally:
        tracer.uninstall()
    assert tracer.aggregate()["exp4.step"]["calls"] == 64
