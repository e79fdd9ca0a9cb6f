"""Command-line front end: simulate, fit, summarize, validate.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical error.
Configuration precedence for `fit` is CLI flags over config file over
built-in defaults; config files are flat JSON objects or key=value lines
mirroring the documented keys.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .data import TimeGridDataset
from .errors import DataError, NumericalError, UsageError
from .estimation import gelman_rubin, summarize
from .gibbs import SamplerConfig, run_chain
from .measure import StickConfig
from .mixture import CenteringMeasure, simulate_toy
from .store import PosteriorDraws
from .validate import FULL_CHECKS, QUICK_CHECKS, run_validation

_BOOL_WORDS = {**dict.fromkeys(("1", "true", "yes", "on"), True),
               **dict.fromkeys(("0", "false", "no", "off"), False)}
_STICK_WORDS = {word: word for word in ("dp", "pitman-yor", "pitman_yor")}


def _switch(text: str) -> bool:
    return _BOOL_WORDS[text.lower()]


def _count(text: str) -> int:
    if (n := int(text)) < 1:
        raise ValueError(text)
    return n


# comma-separated float flags: dest -> (metavar, the settings they fill)
_FLOAT_LISTS = {
    "theta_prior": ("SHAPE,RATE", ("theta_prior_shape", "theta_prior_rate")),
    "c_prior": ("SHAPE,RATE", ("c_prior_shape", "c_prior_rate")),
    "centering": ("MEAN0,PSCALE,SHAPE,RATE",
                  ("centering_mean0", "centering_precision_scale",
                   "centering_shape", "centering_rate")),
}

# every fit setting: config key -> (its own flag, or None for the keys
# the _FLOAT_LISTS flags fill; the one parser of its text; flag help)
SETTINGS = {
    "burn_in": ("--burn-in", int, None),
    "iters": ("--iters", int, None),
    "thin": ("--thin", int, None),
    "seed": ("--seed", int, None),
    "chains": ("--chains", _count, "independent chains, at least 1"),
    "slice_eta": ("--eta", float, "membership slice decay rate in (0,1)"),
    "trans_slice_eta": ("--trans-eta", float,
                        "transition slice decay rate in (0,1)"),
    "fix_theta": ("--fix-theta", float, None),
    "fix_c": ("--fix-c", float, None),
    "tie_c_to_theta": ("--tie-c", _switch,
                       "enforce c = theta / 2 instead of sampling c"),
    "m_cap": ("--m-cap", int, None),
    "stick_kind": ("--stick", _STICK_WORDS.__getitem__,
                   "stick law: " + ", ".join(_STICK_WORDS)),
    "sigma": ("--sigma", float, "Pitman-Yor discount in [0,1)"),
    **{key: (None, float, None)
       for _, keys in _FLOAT_LISTS.values() for key in keys},
}


def _parse(source, key: str, value, parse):
    """value's text read by parse, or a UsageError naming the value."""
    try:
        return parse(str(value))
    except (KeyError, ValueError) as exc:
        raise UsageError(f"{source}: bad value for {key}: {value!r}") from exc


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reports usage problems via UsageError."""

    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="diffmix",
                     description="Time-varying density estimation with "
                                 "diffusing stick-breaking mixtures")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="write a synthetic dataset CSV")
    sim.add_argument("--times", type=int, default=100,
                     help="number of equally spaced observation times")
    sim.add_argument("--per-time", type=int, default=1,
                     help="observations per time")
    sim.add_argument("--t-max", type=float, default=10.0)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", required=True)

    fit = sub.add_parser("fit", help="run the Gibbs sampler on a dataset")
    fit.add_argument("data", help="input CSV with columns time,value")
    fit.add_argument("--out", required=True, help="draws archive path")
    fit.add_argument("--config", help="JSON or key=value config file")
    for key, (flag, parse, help_) in SETTINGS.items():
        if flag is not None:  # a switch stands for the text "on"
            switch = {"action": "store_const", "const": "on"} \
                if parse is _switch else {}
            fit.add_argument(flag, dest=key, help=help_, **switch)
    fit.add_argument("--workers", default=1,
                     help="process workers for multi-chain runs, at least 1")
    fit.add_argument("--theta-prior", metavar=_FLOAT_LISTS["theta_prior"][0])
    fit.add_argument("--c-prior", metavar=_FLOAT_LISTS["c_prior"][0])
    fit.add_argument("--centering", metavar=_FLOAT_LISTS["centering"][0],
                     help="normal-gamma atom prior parameters")
    fit.add_argument("--date-column",
                     help="parse this CSV column as ISO dates mapped to days")
    fit.add_argument("--telemetry", help="per-sweep key=value log file")
    fit.add_argument("--checkpoint", help="checkpoint archive path")
    fit.add_argument("--checkpoint-every", type=int)
    fit.add_argument("--resume", help="resume from a checkpoint archive")
    fit.add_argument("--quiet", action="store_true")

    summ = sub.add_parser("summarize", help="reduce draws to surface exports")
    summ.add_argument("draws", help="draws archive from fit")
    summ.add_argument("--out-prefix", required=True)
    summ.add_argument("--y-grid", metavar="LO:HI:COUNT",
                      help="evaluation grid; default derives from the draws")
    summ.add_argument("--data", help="dataset CSV, used for the default grid")
    summ.add_argument("--date-column",
                      help="read --data with this CSV column as ISO dates, "
                      "as fit does")

    val = sub.add_parser("validate", help="run the analytic-identity battery")
    val.add_argument("--quick", action="store_true",
                     help="fast subset, a few seconds")
    val.add_argument("--checks", help="comma-separated subset of checks: "
                     + ", ".join(FULL_CHECKS))
    val.add_argument("--seed", type=int, default=0)
    val.add_argument("--report", help="also write the report to this file")
    return parser


def _load_config_file(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    text = text.strip()
    raw: dict = {}
    if text.startswith("{"):
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise UsageError(f"{path}: invalid JSON: {exc}") from exc
    else:
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            raw[key.strip()] = value.strip()
    if unknown := raw.keys() - SETTINGS.keys():
        raise UsageError(f"{path}: unknown config key {min(unknown)!r}")
    return {key: _parse(path, key, value, SETTINGS[key][1])
            for key, value in raw.items()}


def _resolve_settings(args) -> dict:
    settings = _load_config_file(args.config) if args.config else {}
    for key, (flag, parse, _) in SETTINGS.items():
        text = getattr(args, key, None)
        if text is not None:
            settings[key] = _parse(flag, key, text, parse)
    for dest, (metavar, keys) in _FLOAT_LISTS.items():
        flag, text = "--" + dest.replace("_", "-"), getattr(args, dest)
        if text is None:
            continue
        if len(parts := text.split(",")) != len(keys):
            raise UsageError(f"{flag} expects {metavar}")
        try:
            settings.update((key, SETTINGS[key][1](part))
                            for key, part in zip(keys, parts))
        except ValueError as exc:
            raise UsageError(f"{flag}: cannot parse {text!r}") from exc
    return settings


def _with_settings(obj, settings: dict, prefix: str = ""):
    """obj with each field whose prefixed name is in settings replaced."""
    return replace(obj, **{f.name: settings[prefix + f.name]
                           for f in fields(obj) if prefix + f.name in settings})


def _sampler_config(settings: dict) -> SamplerConfig:
    # the chain samples or fixes theta and c; the stick law gives its kind
    dp = settings.get("stick_kind", "dp") == "dp"
    sigma = settings.get("sigma", 0.0)
    if dp and sigma != 0:
        raise UsageError(f"sigma {sigma:g} needs --stick pitman-yor")
    try:
        stick = StickConfig.dp(1.0, c=1.0) if dp else \
            StickConfig.pitman_yor(1.0, sigma, c=1.0)
        cfg = _with_settings(
            SamplerConfig(stick=stick, centering=CenteringMeasure()), settings)
        return replace(cfg, **{part: _with_settings(getattr(cfg, part),
                                                    settings, part + "_")
                               for part in ("centering", "theta_prior",
                                            "c_prior")})
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _chain_path(base: str, chain: int, chains: int) -> str:
    if not base or chains == 1:
        return base
    p = Path(base)
    return str(p.with_name(f"{p.stem}.chain{chain}{p.suffix}"))


def _fit_one(payload):
    data, cfg, out_path, telemetry_path, checkpoint, every, resume = payload
    telemetry = open(telemetry_path, "w", encoding="utf-8") \
        if telemetry_path else None
    try:
        draws = run_chain(data, cfg, telemetry=telemetry,
                          checkpoint_path=checkpoint,
                          checkpoint_every=every, resume_from=resume)
    finally:
        if telemetry is not None:
            telemetry.close()
    draws.save(out_path)
    return out_path, draws.theta


def cmd_simulate(args) -> int:
    if args.seed < 0:
        raise UsageError(f"seed must be non-negative, got {args.seed}")
    rng = np.random.default_rng(args.seed)
    try:
        dataset = simulate_toy(args.times, args.per_time, args.t_max, rng)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    dataset.to_csv(args.out)
    print(f"wrote {dataset.n_obs} observations at {dataset.n_times} times "
          f"to {args.out}")
    return 0


def cmd_fit(args) -> int:
    if (args.checkpoint is None) != (args.checkpoint_every is None):
        raise UsageError("--checkpoint and --checkpoint-every go together: "
                         "give both or neither")
    if args.checkpoint_every is not None and args.checkpoint_every < 1:
        raise UsageError("--checkpoint-every must be at least 1")
    settings = _resolve_settings(args)
    cfg = _sampler_config(settings)
    data = TimeGridDataset.from_csv(args.data, date_column=args.date_column)
    chains = settings.get("chains", 1)
    workers = _parse("--workers", "workers", args.workers, _count)
    if args.resume and chains != 1:
        raise UsageError("--resume supports a single chain")
    jobs = []
    for chain in range(chains):
        chain_cfg = replace(cfg, seed=cfg.seed + chain)
        out_path = _chain_path(args.out, chain, chains)
        telemetry = _chain_path(args.telemetry, chain, chains)
        checkpoint = _chain_path(args.checkpoint, chain, chains)
        jobs.append((data, chain_cfg, out_path, telemetry, checkpoint,
                     args.checkpoint_every, args.resume))
    if workers > 1 and chains > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_fit_one, jobs))
    else:
        results = [_fit_one(job) for job in jobs]
    theta_traces = []
    for out_path, theta in results:
        if not args.quiet:
            print(f"wrote {out_path} ({len(theta)} draws)")
        theta_traces.append(theta)
    if chains >= 2 and cfg.fix_theta is None and len(theta_traces[0]) >= 10:
        psrf = gelman_rubin(theta_traces)
        if not args.quiet:
            print(f"psrf_theta={psrf:.4f}")
    return 0


def _default_grid(draws: PosteriorDraws, data_path, date_column=None):
    if data_path:
        data = TimeGridDataset.from_csv(data_path, date_column=date_column)
        y, _ = data.flat
        lo, hi = float(y.min()), float(y.max())
        pad = 0.2 * (hi - lo) + 1e-6
    else:
        lo = float(np.nanmin(draws.atom_mean))
        hi = float(np.nanmax(draws.atom_mean))
        pad = 0.1 * (hi - lo) + 1.0
    return np.linspace(lo - pad, hi + pad, 128)


def cmd_summarize(args) -> int:
    draws = PosteriorDraws.load(args.draws)
    if args.y_grid:
        parts = args.y_grid.split(":")
        if len(parts) != 3:
            raise UsageError("--y-grid expects LO:HI:COUNT")
        try:
            lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as exc:
            raise UsageError(f"--y-grid: cannot parse {args.y_grid!r}") from exc
        if count < 2 or not hi > lo:
            raise UsageError("--y-grid needs HI > LO and COUNT >= 2")
        if not all(np.isfinite([lo, hi, hi - lo])):
            raise UsageError("--y-grid needs finite LO, HI and HI - LO")
        grid = np.linspace(lo, hi, count)
    else:
        grid = _default_grid(draws, args.data, args.date_column)
    surface = summarize(draws, grid)
    prefix = args.out_prefix
    surface.to_density_csv(f"{prefix}.density.csv")
    surface.to_mean_csv(f"{prefix}.mean.csv")
    surface.to_json(f"{prefix}.json")
    print(f"wrote {prefix}.density.csv, {prefix}.mean.csv, {prefix}.json")
    return 0


def cmd_validate(args) -> int:
    names = QUICK_CHECKS if args.quick else None
    if args.checks is not None:
        names = tuple(s.strip() for s in args.checks.split(",") if s.strip())
    try:
        results = run_validation(names=names, seed=args.seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    lines = [res.line() for res in results]
    n_fail = sum(not res.passed for res in results)
    lines.append(f"summary checks={len(results)} failures={n_fail}")
    report = "\n".join(lines)
    print(report)
    if args.report:
        Path(args.report).write_text(report + "\n", encoding="utf-8")
    if n_fail:
        raise NumericalError(f"{n_fail} validation check(s) failed")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {
            "simulate": cmd_simulate,
            "fit": cmd_fit,
            "summarize": cmd_summarize,
            "validate": cmd_validate,
        }[args.command]
        return handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
