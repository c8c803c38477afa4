"""Command line front end.

Subcommands:

* run: one algorithm on one environment over several seeds; writes per-seed
  trace CSVs, epoch CSVs for elimination runs, and summary.json.
* sweep: the same run repeated over a list of bandwidths or horizons.
* diagnose: packing-number table and smoothing/zooming coefficients for an
  environment and policy class.
* lowerbound: paired runs on a needle field with and without the hidden
  cell, reporting both regrets.

Exit codes: 0 success, 2 configuration error, 3 exploration solver failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import Dict, List, Optional

from .elimination import SolverFailure
from .environments import make_named_instance
from .harness import (ALGORITHMS, RunConfig, check_policy_spec,
                      default_policy_class, diagnose, regret_summary,
                      run_experiment)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
# lowerbound's needle fields: "h" is needle_h and "L" is needle_L
KINDS = ("h", "L")


def _parse_value(text):
    if not isinstance(text, str):
        return text
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    if "/" in text:
        try:
            num, den = text.split("/")
            return float(num) / float(den)
        except (ValueError, ZeroDivisionError):
            pass
    return text


def parse_env_spec(spec: Optional[str]):
    """'name:key=val,key=val' -> (name, params dict)."""
    if not spec or not isinstance(spec, str):
        raise ValueError(
            f"an environment spec string is required (--env), got {spec!r}")
    name, _, rest = spec.partition(":")
    params: Dict = {}
    if rest:
        for item in rest.split(","):
            if "=" not in item:
                raise ValueError(f"bad env parameter {item!r}")
            k, v = item.split("=", 1)
            params[k.strip()] = _parse_value(v.strip())
    return name.strip(), params


def _parse_seeds(value):
    """A seed count or a comma list; a --config file may give either as
    JSON.  Anything else is passed on for RunConfig to reject."""
    if isinstance(value, str):
        value = ([int(s) for s in value.split(",")] if "," in value
                 else int(value))
    return list(range(value)) if isinstance(value, int) else value


def _floats(text) -> List[float]:
    # str(): a --config file may give a comma list as a JSON number or list
    return [float(_parse_value(s)) for s in str(text).split(",")]


def _add_common(p: argparse.ArgumentParser, env: bool = True,
                play: bool = True) -> None:
    """The flags every subcommand shares; ``env`` adds --env (lowerbound
    builds its own) and ``play`` the flags only a run of rounds reads."""
    if env:
        # not enforced by argparse so a --config file may supply it
        p.add_argument("--env", default=None,
                       help="instance spec, e.g. absolute:astar=0.3")
    p.add_argument("--h", type=str, default=None,
                   help="bandwidth (float or fraction like 1/32)")
    p.add_argument("--L", type=float, default=None)
    if play:
        p.add_argument("--T", type=int, default=1024)
        p.add_argument("--beta", type=float, default=1.0)
        p.add_argument("--seeds", type=str, default="1",
                       help="seed count, or explicit comma list")
    p.add_argument("--policies", type=int, default=64,
                   help="grid size of the default constant policy class")
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--config", type=str, default=None,
                   help="JSON file of flag values; explicit flags win")


class _Parser(argparse.ArgumentParser):
    """Refuses abbreviated flags, so the --config merge sees each flag given,
    and ends a usage error in one line; subcommand parsers share it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="smoothcb")
    sub = ap.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one algorithm configuration")
    p_run.add_argument("--alg", required=True, choices=ALGORITHMS)
    _add_common(p_run)

    p_sweep = sub.add_parser("sweep", help="repeat a run over h or T values")
    p_sweep.add_argument("--alg", required=True, choices=ALGORITHMS)
    p_sweep.add_argument("--h-list", type=str, default=None)
    p_sweep.add_argument("--T-list", type=str, default=None)
    _add_common(p_sweep)

    p_diag = sub.add_parser("diagnose", help="structure diagnostics")
    _add_common(p_diag, play=False)
    p_diag.add_argument("--eps-grid", type=str, default=None)

    p_lb = sub.add_parser("lowerbound",
                          help="paired needle-field stress runs")
    p_lb.add_argument("--alg", required=True, choices=ALGORITHMS)
    p_lb.add_argument("--kind", choices=KINDS, default="h")
    p_lb.add_argument("--index", type=int, default=1,
                      help="hidden cell index for the loaded instance")
    p_lb.add_argument("--R", type=float, default=10.0)
    _add_common(p_lb, env=False)
    return ap


def _config_from(args, env_name, env_params, T=None, h=None) -> RunConfig:
    return RunConfig(
        alg=args.alg, env_name=env_name, env_params=env_params,
        T=T if T is not None else args.T,
        h=h if h is not None else
        (_parse_value(args.h) if args.h else None),
        L=args.L, beta=args.beta, seeds=_parse_seeds(args.seeds),
        n_policies=args.policies)


def _cmd_run(args) -> int:
    env_name, env_params = parse_env_spec(args.env)
    config = _config_from(args, env_name, env_params)
    stats = regret_summary(run_experiment(config, out_dir=args.out))
    print(f"alg={config.alg} env={env_name} T={config.T} "
          f"seeds={len(config.seeds)} benchmark={stats['benchmark']:.6g} "
          f"regret mean={stats['regret_mean']:.6g} "
          f"std={stats['regret_std']:.6g}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    env_name, env_params = parse_env_spec(args.env)
    hs = _floats(args.h_list) if args.h_list else [None]
    # a T that is not a whole number is passed on for RunConfig to reject
    Ts = ([int(t) if t.is_integer() else t for t in _floats(args.T_list)]
          if args.T_list else [None])
    # every configuration is checked before any of them plays a round
    configs = [_config_from(args, env_name, env_params, T=T, h=h)
               for T in Ts for h in hs]
    rows = []
    for config in configs:
        sub_out = (os.path.join(args.out, f"T{config.T}_h{config.h}")
                   if args.out else None)
        stats = regret_summary(run_experiment(config, out_dir=sub_out))
        rows.append({"T": config.T, "h": config.h, **stats})
        print(f"T={config.T} h={config.h} "
              f"regret mean={stats['regret_mean']:.6g} "
              f"std={stats['regret_std']:.6g}")
    if args.out:
        with open(os.path.join(args.out, "sweep.json"), "w") as f:
            json.dump(rows, f, indent=2)
    return EXIT_OK


def _cmd_diagnose(args) -> int:
    env_name, env_params = parse_env_spec(args.env)
    check_policy_spec(args.policies)
    env = make_named_instance(env_name, **env_params)
    pc = default_policy_class(env, args.policies)
    h = _parse_value(args.h) if args.h else None
    L = args.L if args.L is not None else env.lipschitz_constant
    eps = _floats(args.eps_grid) if args.eps_grid else None
    report = diagnose(env, pc, h=h, L=L, epsilon_grid=eps)
    for row in report.table:
        parts = [f"eps={row['eps']:.6g}"]
        if "M_h" in row:
            parts.append(f"M_h={row['M_h']:.6g}")
        if "M_0" in row:
            parts.append(f"M_0={row['M_0']:.6g}")
        print(" ".join(parts))
    print(f"theta_h={report.theta_h} psi_L={report.psi_L} "
          f"z_hat={report.z_hat} fit_residual={report.fit_residual} "
          f"alpha_unif={report.alpha_unif:.6g}")
    if args.out:
        with open(os.path.join(args.out, "diagnostics.json"), "w") as f:
            json.dump(dataclasses.asdict(report), f, indent=2)
    return EXIT_OK


def _cmd_lowerbound(args) -> int:
    if args.kind not in KINDS:  # a --config file skips argparse's choices
        raise ValueError(f"lowerbound --kind must be h or L, got "
                         f"{args.kind!r}")
    env_name = "needle_h" if args.kind == "h" else "needle_L"
    base: Dict = {"R": args.R}
    if args.kind == "h":
        if not args.h:
            raise ValueError("lowerbound --kind h needs --h")
        base["h"] = _parse_value(args.h)
    else:
        if not args.L:
            raise ValueError("lowerbound --kind L needs --L")
        base["L"] = args.L
    results = {}
    for label, index in (("plain", 0), ("hidden", args.index)):
        config = _config_from(args, env_name, {**base, "index": index})
        sub_out = os.path.join(args.out, label) if args.out else None
        stats = regret_summary(run_experiment(config, out_dir=sub_out))
        results[label] = {k: stats[k] for k in
                          ("regret_mean", "regret_std", "benchmark")}
        print(f"{label}: regret mean={stats['regret_mean']:.6g} "
              f"std={stats['regret_std']:.6g} "
              f"benchmark={stats['benchmark']:.6g}")
    if args.out:
        with open(os.path.join(args.out, "lowerbound.json"), "w") as f:
            json.dump(results, f, indent=2)
    return EXIT_OK


def _make_out_dir(path: Optional[str]) -> None:
    """Create the --out directory before any round is played, so a path
    that cannot hold output fails at once and not after the whole run."""
    if not path:
        return
    if not isinstance(path, str):
        raise ValueError(f"--out must be a directory path, got {path!r}")
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as e:
        message = f"cannot create --out {path!r}: {e.strerror or e}"
        raise ValueError(message) from None
    if not os.access(path, os.W_OK | os.X_OK):
        raise ValueError(f"cannot write to --out {path!r}")


def _apply_config_file(args, argv) -> None:
    """Fill in values from the JSON config; explicit flags take precedence."""
    with open(args.config) as f:
        loaded = json.load(f)
    if not isinstance(loaded, dict):
        raise ValueError(f"--config {args.config!r} is not a JSON object")
    given = {a.lstrip("-").split("=")[0].replace("-", "_")
             for a in (argv if argv is not None else sys.argv[1:])
             if a.startswith("--")}
    for key, val in loaded.items():
        attr = key.replace("-", "_")
        if hasattr(args, attr) and attr not in given:
            setattr(args, attr, val)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_CONFIG if e.code not in (0, None) else EXIT_OK
    if getattr(args, "config", None):
        try:
            _apply_config_file(args, argv)
        except (OSError, ValueError) as e:
            print(f"configuration error: {e}", file=sys.stderr)
            return EXIT_CONFIG
    try:
        _make_out_dir(args.out)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "diagnose":
            return _cmd_diagnose(args)
        return _cmd_lowerbound(args)
    except SolverFailure as e:
        print(f"solver failure: {e}", file=sys.stderr)
        return EXIT_SOLVER
    except MemoryError:
        T = getattr(args, "T_list", None) or getattr(args, "T", None)
        where = (f"at T = {T} with {args.policies} policies; a run holds its "
                 "actions and losses for all T rounds" if T else
                 f"with {args.policies} policies")
        print(f"configuration error: out of memory {where}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, KeyError, FileNotFoundError) as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
