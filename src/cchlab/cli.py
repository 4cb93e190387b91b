"""Command-line interface.

Verbs:
    run <config>                         execute one scenario
    peakons --m1 --n1 --q0 --r0 ...      quick single-pair peakon run
    sweep <config> --vary key=a:b:n      fan a scenario across parameter values
    check <config>                       validate a config without running

Every verb's config passes the checks of check; sweep rejects an invalid
point, or points sharing an output file, before it runs any.

Exit codes are listed in the README and in ``cchlab.runner``; a config that
cannot be read or parsed exits 1.  The environment variable CCCH_THREADS, an
integer, caps sweep parallelism.  sweep cannot vary ``out``: each point
writes to a name derived from the base config's out and the varied value.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .config import _KEY_TYPES, ScenarioConfig, _check_keys_apply, parse_config
from .errors import ConfigurationError
from .runner import check_outputs, execute, run_scenario

__all__ = ["main"]


def _load_config(path: str) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as err:
        raise ConfigurationError(f"cannot read config {path!r}: {err}") from None
    except UnicodeDecodeError as err:
        raise ConfigurationError(f"config {path!r} is not UTF-8 text: {err}") from None
    return parse_config(text)


def _cmd_run(args) -> int:
    cfg = _load_config(args.config)
    if args.out is not None:
        cfg = replace(cfg, out=args.out)
    return run_scenario(cfg)


def _cmd_check(args) -> int:
    cfg = _load_config(args.config)
    check_outputs(cfg)
    print(f"config OK: kind={cfg.kind}, out={cfg.out}")
    return 0


def _cmd_peakons(args) -> int:
    cfg = ScenarioConfig(
        kind="peakon",
        q=repr(args.q0), m_amps=repr(args.m1),
        r=repr(args.r0), n_amps=repr(args.n1),
        t_end=args.t_end, dt=args.dt, out=args.out,
    )
    return run_scenario(cfg)


def _parse_vary(spec: str) -> tuple[str, list[float]]:
    try:
        key, rng = spec.split("=", 1)
        lo_s, hi_s, count_s = rng.split(":")
        lo, hi, count = float(lo_s), float(hi_s), int(count_s)
    except ValueError:
        raise ConfigurationError(
            f"--vary expects key=start:stop:count, got {spec!r}"
        ) from None
    if count < 1:
        raise ConfigurationError(f"--vary count must be >= 1, got {count}")
    if count == 1:
        return key, [lo]
    step = (hi - lo) / (count - 1)
    return key, [lo + i * step for i in range(count)]


def _vary_config(base: ScenarioConfig, key: str, value: float) -> ScenarioConfig:
    kind = _KEY_TYPES.get(key)
    if kind is None:
        raise ConfigurationError(f"--vary key '{key}' is not a config key")
    if key == "out":
        raise ConfigurationError("--vary key 'out' cannot be varied: each point "
                                 "names its own output after the varied value")
    _check_keys_apply(base.kind, [key])  # a value at its default is still a foreign key
    root, ext = os.path.splitext(base.out)
    out = f"{root}_{key}{value:g}{ext or '.csv'}"
    if kind == "int" and value.is_integer():
        value = int(value)  # a fractional value stays a float, which the config rejects
    elif kind not in ("int", "float"):
        value = repr(value)  # list-valued keys (e.g. r) take one number
    return replace(base, **{key: value, "out": out})


def _sweep_worker(cfg: ScenarioConfig) -> tuple[int, list[str]]:
    result = execute(cfg)
    return result.status, result.summary


def _cmd_sweep(args) -> int:
    base = _load_config(args.config)
    key, values = _parse_vary(args.vary)
    configs = [_vary_config(base, key, v) for v in values]
    writers: dict[str, int] = {}
    for i, cfg in enumerate(configs):
        first = writers.setdefault(cfg.out, i)
        if first != i:
            raise ConfigurationError(f"--vary values {values[first]!r} and {values[i]!r} "
                                     f"both write {cfg.out!r}")
    cap = os.environ.get("CCCH_THREADS")
    try:
        workers = max(1, int(cap)) if cap else (os.cpu_count() or 1)
    except ValueError:
        raise ConfigurationError(f"CCCH_THREADS must be an integer, got {cap!r}") from None
    workers = min(workers, len(configs))
    if workers == 1:
        outcomes = [_sweep_worker(cfg) for cfg in configs]
    else:
        # Imported here: the pool pulls in multiprocessing, socket and
        # logging, which every other verb would otherwise load for nothing.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_sweep_worker, configs))
    worst = 0
    for value, cfg, (status, summary) in zip(values, configs, outcomes):
        print(f"--- {key} = {value:g}  (status {status}, out {cfg.out})")
        for line in summary:
            print(f"    {line}")
        worst = max(worst, status)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cchlab",
        description="Numerical laboratory for a cross-coupled pair of "
                    "Camassa-Holm-type equations",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="execute one scenario config")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None, help="override the output CSV path")
    p_run.set_defaults(func=_cmd_run)

    p_peak = sub.add_parser("peakons", help="quick single-pair peakon run")
    p_peak.add_argument("--m1", type=float, default=10.0)
    p_peak.add_argument("--n1", type=float, default=1.0)
    p_peak.add_argument("--q0", type=float, default=0.0)
    p_peak.add_argument("--r0", type=float, default=5.0)
    p_peak.add_argument("--t-end", dest="t_end", type=float, default=20.0)
    p_peak.add_argument("--dt", type=float, default=1e-3)
    p_peak.add_argument("--out", default="peakons.csv")
    p_peak.set_defaults(func=_cmd_peakons)

    p_sweep = sub.add_parser("sweep", help="run a scenario across parameter values")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--vary", required=True, metavar="key=start:stop:count")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_check = sub.add_parser("check", help="validate a config without running")
    p_check.add_argument("config")
    p_check.set_defaults(func=_cmd_check)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
