"""Self-tests of the benchmark at a tiny size.

    python3 -m pytest -q perfbench/test_perfbench.py

They check the metric definitions in BENCHMARK.json, that a run emits every
named metric with its unit, that a corrupted reference is reported as a
failure, that the exact counters repeat at one seed, and that the benchmark
refuses to run without the package sources.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

import run  # noqa: E402  (pins BLAS threads, then imports the package)

run._import_package()

from layers import EXACT_COUNTERS  # noqa: E402
from workloads import WORKLOADS, Tally  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

# tiny sizes, except pe-sphere's; digests stay at their pinned horizons
# except pe-absolute's
TINY = {
    "exp4-ring": WORKLOADS["exp4-ring"].scaled(T=256, n_seeds=2),
    "corral-needle": WORKLOADS["corral-needle"].scaled(T=256, n_seeds=1),
    # the horizon its pseudo-regret band was measured at
    "pe-sphere": WORKLOADS["pe-sphere"].scaled(T=4096, n_seeds=1),
    "pe-absolute": dataclasses.replace(
        WORKLOADS["pe-absolute"].scaled(T=2048, n_seeds=1), digest_T=None),
}


def spec():
    return run.load_spec()


def tiny_run(name, trace, ref=None, seed=3):
    tally = Tally()
    record = {}
    ref = ref if ref is not None else run.load_reference()[name]
    values = run.measure(TINY[name], ref, seed, 0.0, trace, tally, record,
                         setup_probes=1)
    defs = spec()["per_layer" if trace else "end_to_end"]
    return run.result_object(defs, values, tally), record


def test_metric_names_and_units_are_well_formed():
    s = spec()
    names = [m["name"] for k in ("end_to_end", "per_layer") for m in s[k]]
    names += [w["name"] for w in s["workloads"]]
    assert len(names) == len(set(names))
    for n in names:
        assert NAME.fullmatch(n), n
    for k in ("end_to_end", "per_layer"):
        for m in s[k]:
            assert UNIT.fullmatch(m["unit"]), m
            assert m["better"] in ("higher", "lower"), m
    assert {w["name"] for w in s["workloads"]} == set(WORKLOADS)
    setup = [m for m in s["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(
        m["bound"] for m in s["end_to_end"])


def test_every_metric_is_emitted_with_its_unit():
    s = spec()
    for name in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, _ = tiny_run(name, trace)
            assert result["correct"], (name, trace)
            assert result["attempted"] >= 1 and result["failed"] == 0
            assert list(result["metrics"]) == [m["name"] for m in s[key]]
            for m in s[key]:
                got = result["metrics"][m["name"]]
                assert got["unit"] == m["unit"]
                assert isinstance(got["value"], (int, float))


def test_corrupted_reference_is_caught():
    good = run.load_reference()
    cases = [
        ("exp4-ring", "benchmark", good["exp4-ring"]["benchmark"] + 1e-6),
        ("corral-needle", "digest", "0" * 64),
        ("exp4-ring", "digest", "f" * 64),
        ("pe-sphere", "pseudo_regret_per_round_band", [-2.0, -1.0]),
    ]
    for name, key, bad in cases:
        ref = copy.deepcopy(good[name])
        ref[key] = bad
        result, _ = tiny_run(name, 0, ref=ref)
        assert not result["correct"], (name, key)
        assert result["failed"] >= 1


def test_exact_counters_repeat_at_one_seed():
    for name in ("corral-needle", "pe-absolute"):
        _, first = tiny_run(name, 1, seed=5)
        _, second = tiny_run(name, 1, seed=5)
        assert set(first["counters"]) == set(EXACT_COUNTERS)
        assert first["counters"] == second["counters"], name
    assert first["counters"]["elimination.solver_iters"] >= 1


def test_refuses_to_run_without_package_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    cmd = json.load(open(tmp_path / "BENCHMARK.json"))["command"]
    proc = subprocess.run(
        [sys.executable] + cmd[1:] + ["--workload", "exp4-ring", "--seed",
                                      "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
