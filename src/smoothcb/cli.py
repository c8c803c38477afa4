"""Command line front end.

Subcommands:

* run: one algorithm on one environment over several seeds; writes per-seed
  trace CSVs, epoch CSVs for elimination runs, and summary.json.
* sweep: the same run repeated over a list of bandwidths or horizons.
* diagnose: packing-number table and smoothing/zooming coefficients for an
  environment and policy class.
* lowerbound: paired runs on a needle field with and without the hidden
  cell, reporting both regrets.

A ``--config`` JSON object's key names a flag (``_`` read as ``-``), and its
value is read as that flag's text on the command line: a list is a comma
list, and true, null and objects are refused.  Explicit flags win, a key
that names no flag is ignored, and ``--alg`` and ``--env`` may come from it.

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
                      run_experiment, run_inputs)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3


def _parse_value(text: str):
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


def parse_env_spec(spec: str):
    """'name:key=val,key=val' -> (name, params dict)."""
    name, _, rest = spec.partition(":")
    params: Dict = {}
    if rest:
        for item in rest.split(","):
            if "=" not in item:
                raise ValueError(f"bad env parameter {item!r}")
            k, v = item.split("=", 1)
            params[k.strip()] = _parse_value(v.strip())
    return name.strip(), params


def seed_list(text: str) -> List[int]:
    """A seed count n >= 1 (seeds 0 to n - 1) or an explicit comma list."""
    seeds = ([int(s) for s in text.split(",")] if "," in text
             else list(range(int(text))))
    if not seeds:
        raise ValueError(text)
    return seeds


def float_list(text: str) -> List[float]:
    return [float(_parse_value(s)) for s in text.split(",")]


def _add_common(p: argparse.ArgumentParser, env: bool = True,
                play: bool = True) -> None:
    """The flags every subcommand shares; ``env`` adds --env (lowerbound
    builds its own) and ``play`` the flags only a run of rounds reads."""
    if env:
        p.add_argument("--env", required=True,
                       help="instance spec, e.g. absolute:astar=0.3")
    p.add_argument("--h", type=_parse_value, default=None,
                   help="bandwidth (float or fraction like 1/32)")
    p.add_argument("--L", type=float, default=None)
    if play:
        p.add_argument("--T", type=int, default=1024)
        p.add_argument("--beta", type=float, default=1.0)
        p.add_argument("--seeds", type=seed_list, default="1",
                       help="seed count, or explicit comma list")
    p.add_argument("--policies", type=int, default=64,
                   help="grid size of the default constant policy class")
    p.add_argument("--out", default=None)
    p.add_argument("--config", default=None,
                   help="JSON object of flag values; explicit flags win")


class _Parser(argparse.ArgumentParser):
    """Ends a usage error in one line and refuses abbreviated flags: a flag
    is named in full, so ``--se`` is not read as ``--seeds`` and a config
    key that is only the start of a flag's name names no flag."""

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
    p_sweep.add_argument("--h-list", type=float_list, default=None)
    p_sweep.add_argument("--T-list", type=float_list, default=None)
    _add_common(p_sweep)

    p_diag = sub.add_parser("diagnose", help="structure diagnostics")
    _add_common(p_diag, play=False)
    p_diag.add_argument("--eps-grid", type=float_list, default=None)

    p_lb = sub.add_parser("lowerbound",
                          help="paired needle-field stress runs")
    p_lb.add_argument("--alg", required=True, choices=ALGORITHMS)
    # the needle field: "h" is needle_h and "L" is needle_L
    p_lb.add_argument("--kind", choices=("h", "L"), default="h")
    p_lb.add_argument("--index", type=int, default=1,
                      help="hidden cell index for the loaded instance")
    p_lb.add_argument("--R", type=float, default=10.0)
    _add_common(p_lb, env=False)
    return ap


def _config_from(args, env_name, env_params, T=None, h=None) -> RunConfig:
    return RunConfig(
        alg=args.alg, env_name=env_name, env_params=env_params,
        T=T if T is not None else args.T,
        h=h if h is not None else args.h,
        L=args.L, beta=args.beta, seeds=args.seeds, n_policies=args.policies)


def _cmd_run(args) -> int:
    env_name, env_params = parse_env_spec(args.env)
    config = _config_from(args, env_name, env_params)
    stats = regret_summary(run_experiment(config, out_dir=args.out))
    print(f"alg={config.alg} env={env_name} T={config.T} "
          f"seeds={len(config.seeds)} benchmark={stats['benchmark']:.6g} "
          f"regret mean={stats['regret_mean']:.6g} "
          f"std={stats['regret_std']:.6g}")
    return EXIT_OK


def _play(runs, out: Optional[str]):
    """(label, config, regret stats) for each (label, config) in turn; every
    instance, policy class and benchmark is built before the first round."""
    built = [(label, config, run_inputs(config)) for label, config in runs]
    for label, config, inputs in built:
        yield label, config, regret_summary(run_experiment(
            config, out_dir=out and os.path.join(out, label), inputs=inputs))


def _cmd_sweep(args) -> int:
    env_name, env_params = parse_env_spec(args.env)
    # a T that is not a whole number is passed on for RunConfig to reject
    Ts = ([int(t) if t.is_integer() else t for t in args.T_list]
          if args.T_list else [None])
    configs = [_config_from(args, env_name, env_params, T=T, h=h)
               for T in Ts for h in args.h_list or [None]]
    rows = []
    for _, config, stats in _play(
            [(f"T{c.T}_h{c.h}", c) for c in configs], args.out):
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
    L = args.L if args.L is not None else env.lipschitz_constant
    report = diagnose(env, pc, h=args.h, L=L, epsilon_grid=args.eps_grid)
    for row in report.table:
        print(" ".join(f"{k}={v:.6g}" for k, v in row.items()))
    print(f"theta_h={report.theta_h} psi_L={report.psi_L} "
          f"z_hat={report.z_hat} fit_residual={report.fit_residual} "
          f"alpha_unif={report.alpha_unif:.6g}")
    if args.out:
        with open(os.path.join(args.out, "diagnostics.json"), "w") as f:
            json.dump(dataclasses.asdict(report), f, indent=2)
    return EXIT_OK


def _cmd_lowerbound(args) -> int:
    # --kind names both the needle field and the parameter that sizes it
    value = args.h if args.kind == "h" else args.L
    if value is None:
        raise ValueError(f"lowerbound --kind {args.kind} needs --{args.kind}")
    results = {}
    for label, config, stats in _play(
            [(label, _config_from(args, "needle_" + args.kind, {
                "R": args.R, args.kind: value, "index": index}))
             for label, index in (("plain", 0), ("hidden", args.index))],
            args.out):
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
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as e:
        message = f"cannot create --out {path!r}: {e.strerror or e}"
        raise ValueError(message) from None
    if not os.access(path, os.W_OK | os.X_OK):
        raise ValueError(f"cannot write to --out {path!r}")


def _file_flags(path: str) -> List[str]:
    """The --config file's keys as ``--key=value`` tokens; the ``=`` keeps
    a value that starts with ``-`` from being read as a flag."""
    with open(path) as f:
        try:
            loaded = json.load(f)
        except ValueError as e:  # not JSON, or not UTF-8 text
            raise ValueError(f"--config {path!r} is not JSON: {e}") from None
    if not isinstance(loaded, dict):
        raise ValueError(f"--config {path!r} is not a JSON object")
    tokens = []
    for key, value in loaded.items():
        items = value if isinstance(value, list) else [value]
        if any(v is None or isinstance(v, (bool, dict, list)) for v in items):
            raise ValueError(f"--config key {key!r}: {json.dumps(value)} "
                             "is not the text of a flag")
        tokens.append(f"--{key.replace('_', '-')}="
                      + ",".join(map(str, items)))
    return tokens


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    pre = _Parser(prog="smoothcb", add_help=False)
    pre.add_argument("--config")
    parser = build_parser()
    try:
        path = pre.parse_known_args(argv)[0].config
        tokens = _file_flags(path) if path else []
        # one parse; the command line comes last, so its flags win
        args, extras = parser.parse_known_args(argv[:1] + tokens + argv[1:])
        for token in tokens:  # a file key that names no flag is ignored
            if token in extras:
                extras.remove(token)
        if extras:
            parser.error(f"unrecognized arguments: {' '.join(extras)}")
    except SystemExit as e:
        return EXIT_CONFIG if e.code not in (0, None) else EXIT_OK
    except (OSError, ValueError) as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    commands = {"run": _cmd_run, "sweep": _cmd_sweep,
                "diagnose": _cmd_diagnose, "lowerbound": _cmd_lowerbound}
    try:
        _make_out_dir(args.out)
        return commands[args.command](args)
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
