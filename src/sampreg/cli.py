"""Command-line entry point.

Five subcommands: phantom (generate test volumes), register (run one
registration), train (learn per-level mixing weights), sweep (batch
trials to CSV), mask (export one sampling draw as a volume).

Settings resolve as defaults <- --config JSON file <- explicit flags, and
a --config key must name a field of ``RunConfig`` or ``OptimizerConfig``.  The
resolved settings plus seed are embedded in every JSON/CSV output (a
sidecar .provenance.json accompanies binary volume outputs, whose header
format is fixed).  Exit codes: 0 success, 1 runtime failure (a ValueError
or OSError from the engine or the file system, reported in one line), 2
usage or validation error naming the offending flag.  Any other exception
is a bug and propagates with its traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
import typing
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from sampreg import bench, optimizer, sampler, training, transform
from sampreg.optimizer import OptimizerConfig
from sampreg.training import PsoConfig, TrainingPair
from sampreg.volume import Volume, gradient_magnitude, load_volume, resample_isotropic, save_volume


class UsageError(Exception):
    """Bad flag or config value; exits with status 2."""


@dataclass(frozen=True)
class RunConfig:
    """Resolved engine settings shared by the registration-driven commands.

    The ``--config`` keys and flags name the run fields and the fields of
    ``optimizer`` alike, so ``to_dict`` flattens them back into one dict.
    """

    sampler: str = "mixed"
    rate: float = 0.01
    seed: int = 0
    num_levels: int = 4
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)

    def to_dict(self) -> dict:
        flat = asdict(self)
        flat.update(flat.pop("optimizer"))
        return flat


# The JSON values a --config key accepts, by the annotated type of its field.
_JSON_TYPES = {int: (int,), float: (int, float), str: (str,), type(None): (type(None),)}


def _check_config_types(loaded: dict) -> None:
    """Reject a --config value whose JSON type its field does not take."""
    hints = {**typing.get_type_hints(RunConfig), **typing.get_type_hints(OptimizerConfig)}
    for key, value in loaded.items():
        hint = hints[key]
        allowed = tuple(t for h in typing.get_args(hint) or (hint,) for t in _JSON_TYPES[h])
        if isinstance(value, bool) or not isinstance(value, allowed):
            name = getattr(hint, "__name__", str(hint))
            raise UsageError(f"--config: {key} must be {name}, got {value!r}")


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """defaults <- config file <- flags, validating names, types and bounds."""
    run_keys = {f.name for f in fields(RunConfig)} - {"optimizer"}
    known = run_keys | {f.name for f in fields(OptimizerConfig)}
    values: dict = {}
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            with open(config_path) as f:
                loaded = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            raise UsageError(f"--config: cannot read {config_path}: {e}") from e
        if not isinstance(loaded, dict):
            raise UsageError(f"--config: {config_path} must hold a JSON object")
        unknown = sorted(set(loaded) - known)
        if unknown:
            raise UsageError(f"--config: unknown keys {unknown}")
        _check_config_types(loaded)
        values.update(loaded)
    for name in known:
        flag = getattr(args, name, None)
        if flag is not None:
            values[name] = flag
    cfg = RunConfig(**{k: v for k, v in values.items() if k in run_keys})
    opt = {k: v for k, v in values.items() if k not in run_keys}
    if cfg.sampler not in sampler.KINDS:
        raise UsageError(f"--sampler: unknown kind {cfg.sampler!r}")
    if not 0.0 < cfg.rate <= 1.0:
        raise UsageError(f"--rate: must be in (0, 1], got {cfg.rate}")
    if cfg.num_levels < 1:
        raise UsageError("--levels: must be at least 1")
    if cfg.seed < 0:
        raise UsageError(f"--seed: must be non-negative, got {cfg.seed}")
    try:
        return replace(cfg, optimizer=OptimizerConfig(**opt))
    except ValueError as e:
        raise UsageError(f"optimizer settings: {e}") from e


def _load_1mm(path, flag: str) -> Volume:
    try:
        v = load_volume(path)
    except OSError as e:
        raise UsageError(f"{flag}: cannot read {path}: {e}") from e
    if not np.allclose(v.spacing, 1.0, atol=1e-6):
        v = resample_isotropic(v, 1.0)
    return v


def _parse_params(text: str) -> list:
    parts = text.split(",")
    if len(parts) != 6:
        raise UsageError(
            f"--params: expected 6 comma-separated numbers tx,ty,tz,rx,ry,rz, got {text!r}"
        )
    try:
        values = [float(p) for p in parts]
    except ValueError as e:
        raise UsageError(f"--params: {e}") from e
    return values


def _write_json(path, doc: dict) -> None:
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def _write_provenance_sidecar(volume_path, config: dict) -> None:
    _write_json(Path(str(volume_path) + ".provenance.json"), {"config": config})


def _load_betas_flag(path, levels, flag: str = "--betas") -> dict:
    """A mixed run's --betas weights, with one for each of ``levels``; a level
    without one is reported under ``flag``."""
    if not path:
        raise UsageError("--betas: required for the mixed sampler")
    try:
        betas = sampler.load_betas(path)
    except OSError as e:
        raise UsageError(f"--betas: cannot read {path}: {e}") from e
    except (KeyError, ValueError, TypeError) as e:
        raise UsageError(f"--betas: malformed file {path}: {e}") from e
    missing = [r for r in levels if r not in betas]
    if missing:
        raise UsageError(f"{flag}: no mixing weight for levels {missing}")
    return betas


def cmd_phantom(args) -> int:
    if args.size < 32:
        raise UsageError("--size: must be at least 32")
    if args.seed < 0:
        raise UsageError(f"--seed: must be non-negative, got {args.seed}")
    if not args.gamma > 0:
        raise UsageError(f"--gamma: must be positive, got {args.gamma}")
    if not args.noise >= 0:
        raise UsageError(f"--noise: must be non-negative, got {args.noise}")
    if not args.make_moving and (args.params or args.gold):
        raise UsageError("--params/--gold: only meaningful with --make-moving")
    if args.make_moving and args.params is None:
        raise UsageError("--make-moving: requires --params")
    provenance = {
        "command": "phantom",
        "size": args.size,
        "seed": args.seed,
        "gamma": args.gamma,
        "noise": args.noise,
        "params": args.params,
    }
    fixed = bench.make_phantom(args.size, args.seed)
    if args.make_moving:  # compute both volumes before writing either
        values = _parse_params(args.params)
        gold = transform.RigidParams(
            t=values[:3], r=values[3:], center=fixed.center_mm
        )
        try:
            moving, gold = bench.make_moving(
                fixed, gold, gamma=args.gamma, noise_sd=args.noise, seed=args.seed
            )
        except ValueError as e:
            raise UsageError(f"--params: {e}") from e
    save_volume(fixed, args.out)
    _write_provenance_sidecar(args.out, provenance)
    if args.make_moving:
        save_volume(moving, args.make_moving)
        _write_provenance_sidecar(args.make_moving, provenance)
        if args.gold:
            _write_json(args.gold, {"transform": gold.to_dict(), "config": provenance})
    return 0


def cmd_register(args) -> int:
    cfg = resolve_config(args)
    betas = (_load_betas_flag(args.betas, range(1, cfg.num_levels + 1))
             if cfg.sampler == "mixed" else None)
    fixed = _load_1mm(args.fixed, "--fixed")
    moving = _load_1mm(args.moving, "--moving")
    result = optimizer.register(
        fixed, moving,
        sampler_kind=cfg.sampler, betas=betas, rate=cfg.rate,
        cfg=cfg.optimizer, seed=cfg.seed, num_levels=cfg.num_levels,
    )
    _write_json(args.out, {"config": cfg.to_dict(), "result": result.to_dict()})
    return 0


def _load_manifest(path) -> list:
    """Training pairs from a JSON list of {fixed, moving, gold} entries.

    gold is either a transform object or a path to a JSON file holding one
    (optionally under a "transform" key); relative paths resolve against
    the manifest's directory.
    """
    try:
        with open(path) as f:
            entries = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise UsageError(f"--pairs: cannot read {path}: {e}") from e
    if not isinstance(entries, list) or not entries:
        raise UsageError("--pairs: manifest must be a nonempty JSON list")
    base = Path(path).parent
    pairs = []
    for i, entry in enumerate(entries):
        try:
            fixed = _load_1mm(base / entry["fixed"], f"--pairs[{i}].fixed")
            moving = _load_1mm(base / entry["moving"], f"--pairs[{i}].moving")
            gold = entry["gold"]
            if isinstance(gold, str):
                with open(base / gold) as f:
                    gold = json.load(f)
                gold = gold.get("transform", gold)
            pairs.append(TrainingPair(
                fixed=fixed, moving=moving,
                gold=transform.RigidParams.from_dict(gold),
            ))
        except UsageError:
            raise
        except (KeyError, TypeError, ValueError, OSError) as e:
            raise UsageError(f"--pairs: entry {i}: {e}") from e
    return pairs


def cmd_train(args) -> int:
    cfg = resolve_config(args)
    if args.mc < 1:
        raise UsageError("--mc: must be at least 1")
    try:
        pso_cfg = PsoConfig(particles=args.particles, iterations=args.iters)
    except ValueError as e:
        raise UsageError(f"--particles/--iters: {e}") from e
    pairs = _load_manifest(args.pairs)
    betas, report = training.train_cascade(
        pairs, args.mc, pso_cfg, cfg.optimizer,
        cfg.rate, cfg.seed, num_levels=cfg.num_levels,
    )
    provenance = dict(cfg.to_dict(), mc=args.mc,
                      particles=args.particles, iters=args.iters)
    sampler.save_betas(betas, args.out, extra={"config": provenance})
    if args.report:
        _write_json(args.report, {"config": provenance, "report": report})
    return 0


def cmd_sweep(args) -> int:
    cfg = resolve_config(args)
    kinds = [k.strip() for k in args.samplers.split(",") if k.strip()]
    for kind in kinds:
        if kind not in sampler.KINDS:
            raise UsageError(f"--samplers: unknown kind {kind!r}")
    if not kinds:
        raise UsageError("--samplers: need at least one sampler kind")
    try:
        rates = [float(r) for r in args.rates.split(",")] if args.rates else list(bench.DEFAULT_RATES)
    except ValueError as e:
        raise UsageError(f"--rates: {e}") from e
    for rate in rates:
        if not 0.0 < rate <= 1.0:
            raise UsageError(f"--rates: {rate} outside (0, 1]")
    if args.trials < 1:
        raise UsageError("--trials: must be at least 1")
    if not args.threshold > 0:
        raise UsageError(f"--threshold: must be positive, got {args.threshold}")
    betas = (_load_betas_flag(args.betas, range(1, cfg.num_levels + 1))
             if "mixed" in kinds else None)
    pairs = _load_manifest(args.pairs)
    named = [(f"pair{i}", p) for i, p in enumerate(pairs)]
    report = bench.sweep(
        named, kinds, rates, args.trials,
        cfg=cfg.optimizer, seed=cfg.seed, betas=betas,
        threshold_mm=args.threshold, num_levels=cfg.num_levels,
    )
    provenance = dict(
        cfg.to_dict(), samplers=kinds, rates=rates,
        trials=args.trials, threshold_mm=args.threshold,
    )
    bench.write_cases_csv(
        report["outcomes"], args.out, cfg.num_levels, betas, config=provenance
    )
    if args.aggregate:
        bench.write_aggregate_csv(report["aggregates"], args.aggregate,
                                  config=provenance)
    return 0


def cmd_mask(args) -> int:
    cfg = resolve_config(args)
    beta = (_load_betas_flag(args.betas, [args.level], "--level")[args.level]
            if cfg.sampler == "mixed" else None)
    volume = _load_1mm(args.volume, "--volume")
    # The volume's own gradient drives gms and mixed: there is no second image.
    gradient = None if cfg.sampler == "urs" else gradient_magnitude(volume)
    dist, fallback = sampler.build(
        cfg.sampler, volume.num_voxels, sampler.budget(cfg.rate, volume.num_voxels),
        gradient, beta, level=args.level,
    )
    if fallback:
        print(f"sampreg mask: {fallback}; a {cfg.sampler} mask has no uniform fallback",
              file=sys.stderr)
        return 1
    bench.export_mask(volume, dist, cfg.seed, args.out)
    _write_provenance_sidecar(
        args.out,
        dict(cfg.to_dict(), command="mask", level=args.level),
    )
    return 0


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file of RunConfig overrides")
    p.add_argument("--rate", type=float, help="sampled fraction of full-res voxels")
    p.add_argument("--seed", type=int, help="root seed for all randomness")
    p.add_argument("--levels", dest="num_levels", type=int, help="pyramid depth")
    p.add_argument("--bins", dest="num_bins", type=int, help="histogram bins per side")
    p.add_argument("--kernel-radius", dest="kernel_radius", type=int,
                   help="spread-kernel radius in voxels (1-3)")
    p.add_argument("--max-iters", dest="max_iters", type=int)
    p.add_argument("--initial-radius", dest="initial_radius", type=float)
    p.add_argument("--min-radius", dest="min_radius", type=float)
    p.add_argument("--damping", type=float)
    p.add_argument("--rotation-scale", dest="rotation_scale", type=float,
                   help="mm per radian in the trust region (default: half diagonal)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sampreg",
        description="Rigid 3D registration with learned mixed pixel sampling",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phantom", help="generate a synthetic test volume")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--make-moving", dest="make_moving",
                   help="also write a transformed copy to this path")
    p.add_argument("--params",
                   help="gold transform tx,ty,tz,rx,ry,rz (mm, rad); a value "
                        "starting with '-' takes the form --params=-1.5,1,0.5,-0.02,0.01,0.02")
    p.add_argument("--noise", type=float, default=0.02,
                   help="additive noise sd as a fraction of the intensity span")
    p.add_argument("--gamma", type=float, default=0.7,
                   help="monotone intensity-curve exponent for the moving copy")
    p.add_argument("--gold", help="write the gold transform JSON here")
    p.set_defaults(func=cmd_phantom)

    p = sub.add_parser("register", help="register a moving volume to a fixed one")
    p.add_argument("--fixed", required=True)
    p.add_argument("--moving", required=True)
    p.add_argument("--sampler", choices=sampler.KINDS)
    p.add_argument("--betas", help="mixing-weight JSON (required for mixed)")
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_register)

    p = sub.add_parser("train", help="learn per-level mixing weights")
    p.add_argument("--pairs", required=True, help="manifest JSON of training pairs")
    p.add_argument("--mc", type=int, default=3, help="Monte-Carlo trials per pair")
    p.add_argument("--particles", type=int, default=10)
    p.add_argument("--iters", type=int, default=20)
    p.add_argument("--out", required=True, help="output mixing-weight JSON")
    p.add_argument("--report", help="optional training-report JSON")
    _add_config_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sweep", help="batch registrations over samplers and rates")
    p.add_argument("--pairs", required=True, help="manifest JSON of evaluation pairs")
    p.add_argument("--samplers", default="urs,gms,mixed")
    p.add_argument("--betas", help="mixing-weight JSON for the mixed sampler")
    p.add_argument("--rates", help="comma-separated fractions "
                   f"(default {','.join(str(r) for r in bench.DEFAULT_RATES)})")
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--threshold", type=float, default=bench.FAILURE_THRESHOLD_MM,
                   help="per-probe failure threshold in mm")
    p.add_argument("--out", required=True, help="per-case CSV path")
    p.add_argument("--aggregate", help="per-(sampler, rate) summary CSV path")
    _add_config_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("mask", help="export one sampling draw as a 0/1 volume")
    p.add_argument("--volume", required=True)
    p.add_argument("--sampler", choices=sampler.KINDS)
    p.add_argument("--betas", help="mixing-weight JSON (for mixed)")
    p.add_argument("--level", type=int, default=1,
                   help="pyramid level whose mixing weight applies")
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_mask)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as e:
        print(f"sampreg {args.command}: {e}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as e:  # engine and file errors: report, exit 1
        print(f"sampreg {args.command}: error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
