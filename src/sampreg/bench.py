"""Synthetic benchmark harness: phantoms with known-good transforms,
failure/accuracy metrics, sampling-rate sweeps, and selection-mask export.

Phantoms mix ellipsoids and cuboids of distinct intensities over a
smoothed-noise background and add a bright outer shell, so gradient-driven
sampling has both the strong edges it favors and the low-contrast interior
it tends to starve at low rates.  A moving image is the phantom pulled
back through the inverse of a known transform, passed through a monotone
intensity curve and noise to emulate a second modality.

A case fails when any probe point lands more than the threshold (default
10mm) from where the known-good transform puts it; summary accuracy is the
mean TRE over non-failed cases only.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from sampreg import optimizer, sampler, training, transform
from sampreg.rng import derive_seed, make_rng
from sampreg.sampler import SamplingDistribution
from sampreg.transform import RigidParams
from sampreg.volume import Volume, save_volume, trilinear_many

FAILURE_THRESHOLD_MM = 10.0
# Sweep default rates, as fractions of the full-resolution voxel count.
DEFAULT_RATES = (0.0002, 0.0004, 0.00065, 0.001, 0.005, 0.01)

# Derivation-path tags under a bench root seed.
_PHANTOM_STREAM = 31
_MOVING_STREAM = 32
_MASK_STREAM = 33
_CASE_STREAM = 34


def make_phantom(size: int, seed: int) -> Volume:
    """Seeded 1mm-spacing test volume of shapes, texture and a shell."""
    if size < 32:
        raise ValueError(f"phantom size must be at least 32, got {size}")
    rng = make_rng(seed, _PHANTOM_STREAM)
    data = np.zeros((size, size, size))
    x, y, z = np.ogrid[:size, :size, :size]

    num_shapes = int(rng.integers(8, 13))
    intensities = np.linspace(200.0, 900.0, num_shapes)
    rng.shuffle(intensities)
    for value in intensities:
        center = rng.uniform(0.25 * size, 0.75 * size, size=3)
        semi = rng.uniform(0.06 * size, 0.2 * size, size=3)
        if rng.random() < 0.5:
            inside = (
                (np.abs(x - center[0]) <= semi[0])
                & (np.abs(y - center[1]) <= semi[1])
                & (np.abs(z - center[2]) <= semi[2])
            )
        else:
            inside = (
                ((x - center[0]) / semi[0]) ** 2
                + ((y - center[1]) / semi[1]) ** 2
                + ((z - center[2]) / semi[2]) ** 2
            ) <= 1.0
        data[inside] = value

    mid = (size - 1) / 2.0
    radius = np.sqrt((x - mid) ** 2 + (y - mid) ** 2 + (z - mid) ** 2)
    shell_r = 0.47 * size
    data[np.abs(radius - shell_r) <= 1.5] = 1000.0

    texture = ndimage.gaussian_filter(rng.standard_normal(data.shape), sigma=2.0)
    texture *= 0.05 * 1000.0 / texture.std()
    data += texture
    return Volume(data, spacing=(1.0, 1.0, 1.0), origin=(0.0, 0.0, 0.0))


def random_rigid(
    v: Volume,
    rng: np.random.Generator,
    max_translation_mm: float = 10.0,
    max_rotation_rad: float = 0.1,
) -> RigidParams:
    """Random transform about the volume center with bounded magnitude.

    Translation components are drawn so the vector norm stays within the
    bound; rotation components are bounded individually.
    """
    t = rng.uniform(-1.0, 1.0, size=3) * max_translation_mm / math.sqrt(3.0)
    r = rng.uniform(-1.0, 1.0, size=3) * max_rotation_rad
    return RigidParams(t=t, r=r, center=v.center_mm)


def make_moving(
    v: Volume,
    params_star: RigidParams,
    gamma: float = 0.7,
    noise_sd: float = 0.0,
    seed: int = 0,
):
    """Pull a phantom back through a known transform; returns (moving, gold).

    The result satisfies moving(apply(gold, p)) ~ fixed(p) at interior
    points.  ``gamma`` is the exponent of the monotone intensity curve
    (1.0 leaves intensities untouched); ``noise_sd`` is the additive
    Gaussian sd as a fraction of the intensity span.
    """
    if np.any(np.abs(params_star.t) > 20.0) or np.any(np.abs(params_star.r) > 0.3):
        raise ValueError(
            "transform too large for phantom overlap "
            "(|t| <= 20mm, |r| <= 0.3rad per component)"
        )
    inv = transform.invert(params_star)
    pts = v.points_of_flat(np.arange(v.num_voxels))
    vals, inside = trilinear_many(v, transform.apply_many(inv, pts))
    overlap = float(inside.mean())
    if overlap < 0.5:
        raise ValueError(f"transform leaves only {overlap:.0%} overlap (< 50%)")

    lo, hi = v.intensity_range
    span = hi - lo
    if gamma != 1.0:
        if gamma <= 0:
            raise ValueError("gamma exponent must be positive")
        unit = np.clip((vals - lo) / span, 0.0, 1.0) if span > 0 else vals * 0.0
        vals = lo + span * unit**gamma
    if noise_sd:
        rng = make_rng(seed, _MOVING_STREAM)
        vals = vals + noise_sd * span * rng.standard_normal(vals.shape)
    data = vals.reshape(v.dims, order="F")
    return Volume(data, spacing=v.spacing, origin=v.origin), params_star


@dataclass(frozen=True)
class CaseOutcome:
    """One registration trial scored against its known-good transform."""

    pair_id: str
    sampler_kind: str
    rate: float
    trial_seed: int
    tre_per_point: tuple
    failed: bool
    elapsed_s: float
    error: str | None = None  # "ErrorClass: message" when registration raised

    @property
    def max_tre(self) -> float:
        return max(self.tre_per_point)

    @property
    def mean_tre(self) -> float:
        return float(np.mean(self.tre_per_point))


def evaluate_case(
    est: RigidParams,
    gold: RigidParams,
    probe_points,
    pair_id: str = "",
    sampler_kind: str = "",
    rate: float = 0.0,
    trial_seed: int = 0,
    elapsed_s: float = 0.0,
    threshold_mm: float = FAILURE_THRESHOLD_MM,
) -> CaseOutcome:
    """Score an estimate by probe-point displacement from the gold mapping."""
    pts = np.atleast_2d(np.asarray(probe_points, dtype=np.float64))
    d = transform.apply_many(est, pts) - transform.apply_many(gold, pts)
    tre = np.sqrt(np.sum(d * d, axis=1))
    return CaseOutcome(
        pair_id=pair_id,
        sampler_kind=sampler_kind,
        rate=rate,
        trial_seed=trial_seed,
        tre_per_point=tuple(float(t) for t in tre),
        failed=bool(np.max(tre) > threshold_mm),
        elapsed_s=elapsed_s,
    )


def trimmed_mtre(outcomes) -> float | None:
    """Mean of mean-TRE over non-failed outcomes; None when all failed."""
    kept = [o.mean_tre for o in outcomes if not o.failed]
    if not kept:
        return None
    return float(np.mean(kept))


def sweep(
    pairs,
    sampler_kinds,
    rates,
    trials: int,
    cfg: optimizer.OptimizerConfig | None = None,
    seed: int = 0,
    betas: dict | None = None,
    threshold_mm: float = FAILURE_THRESHOLD_MM,
    num_levels: int = 4,
) -> dict:
    """Registrations for every (pair, sampler, rate, trial) combination.

    ``pairs`` is a sequence of (pair_id, TrainingPair).  Trial seeds derive
    from (seed, pair, trial) only, so every sampler and rate is scored on
    the same draw sequence.  Each pair is prepared once, at ``num_levels``,
    and the cases run as one batch of ``training.Registrations``: on a
    process pool with one worker per usable CPU, or in-process on one CPU or
    while other threads run.  A case depends only on its own arguments and
    outcomes keep case order, so they are bit for bit the same whatever the
    CPU count; only ``elapsed_s``, each case's wall time, differs.  A case
    whose registration fails (``optimizer.REGISTRATION_FAILURES``) becomes a
    failed outcome that records the error; any other exception, such as an
    unknown sampler or a rate outside (0, 1], propagates.  Returns
    {"outcomes", "aggregates"}, aggregates in the given sampler then rate order.
    """
    pairs = list(pairs)
    if trials < 1:
        raise ValueError("need at least one trial")
    if "mixed" in sampler_kinds:
        missing = [r for r in range(1, num_levels + 1) if r not in (betas or {})]
        if missing:
            raise ValueError(f"mixed sampler in a sweep needs betas for levels {missing}")
    runs = [
        (i, dict(sampler_kind=kind, betas=betas if kind == "mixed" else None, rate=rate,
                 seed=derive_seed(seed, _CASE_STREAM, i, trial), num_levels=num_levels))
        for i in range(len(pairs)) for kind in sampler_kinds for rate in rates
        for trial in range(trials)
    ]
    with training.Registrations([pair for _, pair in pairs], num_levels,
                                cfg, len(runs)) as run_all:
        results = run_all(runs)
    outcomes = []
    for (i, case), (est, elapsed_s) in zip(runs, results):
        pair_id, pair = pairs[i]
        scored = dict(pair_id=pair_id, sampler_kind=case["sampler_kind"], rate=case["rate"],
                      trial_seed=case["seed"], elapsed_s=elapsed_s)
        if isinstance(est, Exception):  # registration failed: infinite error
            outcomes.append(CaseOutcome(
                tre_per_point=(math.inf,) * len(pair.probe_points), failed=True,
                error=f"{type(est).__name__}: {est}", **scored))
        else:
            outcomes.append(evaluate_case(est, pair.gold, pair.probe_points,
                                          threshold_mm=threshold_mm, **scored))
    aggregates = aggregate(outcomes, sampler_kinds, rates)
    return {"outcomes": outcomes, "aggregates": aggregates}


def aggregate(outcomes, sampler_kinds, rates) -> list:
    """Failure rate, trimmed mTRE and median time per (sampler, rate)."""
    rows = []
    for kind in sampler_kinds:
        for rate in rates:
            group = [
                o for o in outcomes
                if o.sampler_kind == kind and o.rate == rate
            ]
            if not group:
                continue
            rows.append({
                "sampler": kind,
                "rate": rate,
                "failure_rate": sum(o.failed for o in group) / len(group),
                "trimmed_mtre_mm": trimmed_mtre(group),
                "median_time_ms": float(np.median([o.elapsed_s for o in group])) * 1e3,
            })
    return rows


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_cases_csv(outcomes, path, num_levels: int, betas: dict | None,
                    config: dict | None = None) -> None:
    """One row per case; mixing weights filled only on mixed-sampler rows.

    A single leading '#'-comment line carries the resolved run settings;
    the header row is the first non-comment line.
    """
    columns = (
        ["pair_id", "sampler"]
        + [f"beta_level{r}" for r in range(1, num_levels + 1)]
        + ["rate", "trial_seed", "success", "mtre_mm", "max_tre_mm", "time_ms"]
    )
    with open(path, "w", newline="") as f:
        if config is not None:
            f.write("# config: " + json.dumps(config, sort_keys=True) + "\n")
        writer = csv.writer(f)
        writer.writerow(columns)
        for o in outcomes:
            row = [o.pair_id, o.sampler_kind]
            for r in range(1, num_levels + 1):
                use_beta = o.sampler_kind == "mixed" and betas is not None
                row.append(_format_cell(float(betas[r]) if use_beta else None))
            row += [
                _format_cell(o.rate),
                str(o.trial_seed),
                "0" if o.failed else "1",
                "" if o.failed else _format_cell(o.mean_tre),
                _format_cell(o.max_tre),
                _format_cell(o.elapsed_s * 1e3),
            ]
            writer.writerow(row)


def write_aggregate_csv(aggregates, path, config: dict | None = None) -> None:
    """Per-(sampler, rate) summary table; empty mTRE cell when all failed."""
    columns = ["sampler", "rate", "failure_rate", "trimmed_mtre_mm", "median_time_ms"]
    with open(path, "w", newline="") as f:
        if config is not None:
            f.write("# config: " + json.dumps(config, sort_keys=True) + "\n")
        writer = csv.writer(f)
        writer.writerow(columns)
        for row in aggregates:
            writer.writerow([_format_cell(row[c]) for c in columns])


def export_mask(v: Volume, dist: SamplingDistribution, seed: int, path) -> None:
    """Write a 0/1 volume marking one draw from a sampling distribution."""
    if dist.num_voxels != v.num_voxels:
        raise ValueError(
            f"distribution covers {dist.num_voxels} voxels, volume has {v.num_voxels}"
        )
    idx = sampler.draw(dist, make_rng(seed, _MASK_STREAM))
    mask = np.zeros(v.num_voxels, dtype=np.float32)
    mask[idx] = 1.0
    save_volume(
        Volume(mask.reshape(v.dims, order="F"), spacing=v.spacing, origin=v.origin),
        path,
    )

