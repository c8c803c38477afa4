"""perfbench's tracer wraps smoothcb's public callables by name; every name it
lists must still resolve the way ``Tracer.install`` looks it up, or a traced
benchmark run breaks although no other test fails."""

import importlib
import importlib.util
import os

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                       "tracing.py")


def test_every_wrapped_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
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
