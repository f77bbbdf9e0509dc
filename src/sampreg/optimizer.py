"""Rigid registration: trust-region Gauss-Newton over sampled NMI, per level
and across a coarse-to-fine pyramid.

Each level iteration draws a fresh Bernoulli pixel subset, evaluates the
negated metric with its analytic gradient and curvature surrogate on that
subset, takes a damped dogleg step inside a trust region, and judges the
step by the acceptance ratio computed on the SAME frozen draw (comparing
values from different draws would make the ratio meaningless).  Rotations
and translations share one trust region through a mm-per-radian scale.

The cascade runs levels coarse to fine, each level initialized with the
previous estimate; the coarsest level starts from the caller's estimate
(zero parameters by default).  The pixel budget M is a fraction of the
FULL-resolution voxel count and is the same at every level.

Each level builds its distribution when it starts and draws in line from
its own stream, which depends on the seed and level alone.  A draw costs
O(M) (see ``sampler``), and runs that differ only in their sampling
weights (training's candidates) draw the same proposals and thin them to
their own weights.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from sampreg import sampler, similarity, transform
from sampreg.rng import RNG_ALGORITHM, make_rng
from sampreg.sampler import SamplingDistribution
from sampreg.transform import RigidParams
from sampreg.volume import Pyramid, Volume, build_pyramid, gradient_magnitude, trilinear_many

# Derivation-path tag for per-level draw streams (recorded in results).
_LEVEL_STREAM = 11

# Iterations a level must wander without drift before it counts as
# stationary (see ``_stationary``).  Shorter windows also stop levels that
# still drift slowly toward gold at the lowest rates.
_STALL_WINDOW = 15

# Draws an iteration makes before it gives up on an empty subset.
_EMPTY_DRAWS = 101

# Trust-region update (see ``OptimizerConfig``): acceptance-ratio thresholds, radius factors.
_ACCEPT_LOW, _ACCEPT_HIGH = 0.25, 0.75
_SHRINK, _EXPAND = 0.25, 2.0


class InitializationOutsideOverlapError(ValueError):
    """The starting transform leaves no sampled voxel inside the moving volume."""


class EmptyDrawError(ValueError):
    """Every draw an iteration tried selected no voxel."""


# How a registration itself fails, as opposed to a caller error: batches of
# runs charge these to the run that meets them (see ``training.Registrations``).
REGISTRATION_FAILURES = (InitializationOutsideOverlapError, EmptyDrawError)


@dataclass(frozen=True)
class OptimizerConfig:
    """Metric and trust-region settings for one level's inner optimization.

    ``num_bins`` and ``kernel_radius`` size the sampled NMI's joint
    histogram and its spread kernel (see ``similarity.evaluate``).

    Radii live in scaled parameter units: translations in mm, rotations in
    radians times half the full-resolution fixed volume's diagonal (mm per
    radian), so a radian costs a comparable boundary displacement.

    A level stops when the radius falls below ``min_radius``, after
    ``max_iters`` iterations, or once it is stationary (see ``_stationary``).
    The radius update itself is fixed: ratios below 0.25 shrink it by 4x,
    ratios above 0.75 on a boundary step double it.
    """

    num_bins: int = similarity.DEFAULT_NUM_BINS
    kernel_radius: int = 2
    max_iters: int = 50
    initial_radius: float = 1.0
    min_radius: float = 1e-3
    damping: float = 1e-8

    def __post_init__(self):
        if self.num_bins < 8:
            raise ValueError(f"num_bins must be at least 8, got {self.num_bins}")
        if self.kernel_radius not in (1, 2, 3):
            raise ValueError(f"kernel_radius must be 1, 2 or 3, got {self.kernel_radius}")
        if not self.initial_radius < np.inf:
            raise ValueError(f"initial_radius must be finite, got {self.initial_radius}")
        if not 0 < self.min_radius < self.initial_radius:
            raise ValueError("need 0 < min_radius < initial_radius")
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")
        if not 0 <= self.damping < np.inf:
            raise ValueError(f"damping must be finite and nonnegative, got {self.damping}")


@dataclass(frozen=True)
class RegistrationResult:
    """Final estimate plus everything needed to audit or replay the run."""

    final_params: RigidParams
    levels: tuple
    elapsed_s: float
    sampler_kind: str
    rate: float
    betas: dict | None
    seed: int
    escaped_fraction_mean: float
    escaped_fraction_max: float
    notes: tuple = ()

    def to_dict(self) -> dict:
        return {
            "final": self.final_params.to_dict(),
            "levels": list(self.levels),
            "elapsed_s": self.elapsed_s,
            "sampler": {
                "kind": self.sampler_kind,
                "rate": self.rate,
                "betas": (
                    None if self.betas is None
                    else {str(r): b for r, b in sorted(self.betas.items())}
                ),
            },
            "seed": self.seed,
            "escaped_fraction": {
                "mean": self.escaped_fraction_mean,
                "max": self.escaped_fraction_max,
            },
            "rng_algorithm": RNG_ALGORITHM,
            "notes": list(self.notes),
        }


def _dogleg_step(g: np.ndarray, b: np.ndarray, radius: float) -> np.ndarray:
    """Approximate argmin of g.x + x.B.x/2 subject to |x| <= radius, for finite g and B."""
    try:
        newton = -np.linalg.solve(b, g)
    except np.linalg.LinAlgError:
        newton = -np.linalg.lstsq(b, g, rcond=None)[0]
    if np.linalg.norm(newton) <= radius:
        return newton
    gnorm = np.linalg.norm(g)
    gbg = g @ b @ g
    if gbg <= 0.0:
        return -(radius / gnorm) * g
    cauchy = -((g @ g) / gbg) * g
    if np.linalg.norm(cauchy) >= radius:
        return -(radius / gnorm) * g
    # walk from the Cauchy point toward the Newton point to the boundary
    d = newton - cauchy
    a = d @ d
    bb = 2.0 * (cauchy @ d)
    c = cauchy @ cauchy - radius * radius
    tau = (-bb + np.sqrt(max(bb * bb - 4.0 * a * c, 0.0))) / (2.0 * a)
    return cauchy + tau * d


def _stationary(moves: list, interior: list) -> bool:
    """True when the last ``_STALL_WINDOW`` iterations wander on draw noise.

    ``moves`` holds each iteration's scaled displacement (zero when the
    step was rejected) and ``interior`` whether it ended inside the trust
    region.  Every step must be interior, so the draw's own optimum was in
    reach, and the net displacement must satisfy |sum s|^2 < sum |s|^2,
    the expected value for independent zero-mean steps.  A level still
    drifting toward the optimum has aligned steps and a net displacement
    near their summed length, so it fails the test.
    """
    window = _STALL_WINDOW
    if len(moves) < window or not all(interior[-window:]):
        return False
    recent = np.array(moves[-window:])
    net = recent.sum(axis=0)
    return bool(net @ net < np.sum(recent * recent))


def optimize_level(
    fixed: Volume,
    moving: Volume,
    dist: SamplingDistribution,
    params0: RigidParams,
    cfg: OptimizerConfig,
    rng: np.random.Generator,
    full=None,
):
    """Maximize sampled NMI from params0; returns (params, trace).

    ``full`` is the full-resolution (fixed, moving) pair of this level
    (default: the level's own volumes).  Bins span its intensity ranges at
    every level, and a radian costs half its fixed volume's diagonal in mm.

    The trace dict has "termination" ("radius", "stationary" or "budget";
    see ``OptimizerConfig``) and "rows", one
    per iteration, each recording incumbent and trial metric values on the
    shared draw, the acceptance ratio, the radius used, and the draw size.
    An empty draw (possible at tiny budgets) is redrawn from the same
    stream, keeping runs seed-deterministic; after ``_EMPTY_DRAWS`` empty
    draws in a row the level raises ``EmptyDrawError``.  A metric gradient
    or curvature that is not finite raises ``ValueError``.
    """
    full_fixed, full_moving = full or (fixed, moving)
    lo, hi = full_fixed.bounds
    scale = np.array([1.0, 1.0, 1.0] + [0.5 * float(np.linalg.norm(hi - lo))] * 3)
    inv_scale = 1.0 / scale

    level = similarity.Level(fixed, moving, cfg.num_bins, cfg.kernel_radius,
                             full_fixed.intensity_range, full_moving.intensity_range)
    params = params0
    radius = cfg.initial_radius
    moves = []
    interior = []
    rows = []
    termination = "budget"
    for iteration in range(cfg.max_iters):
        idx = sampler.draw(dist, rng)
        draws = 1
        while not idx.size:
            if draws == _EMPTY_DRAWS:
                raise EmptyDrawError(
                    f"iteration {iteration}: {draws} draws in a row selected no voxel "
                    f"(expected count {dist.expected_count:.3g} a draw)"
                )
            idx = sampler.draw(dist, rng)
            draws += 1
        side = similarity.FixedSide(level, idx)
        try:
            ev = similarity.evaluate(fixed, moving, params, side, cfg.num_bins,
                                     cfg.kernel_radius)
        except similarity.DegenerateHistogramError as e:
            raise InitializationOutsideOverlapError(
                f"iteration {iteration}: {e}"
            ) from e
        for name, x in (("gradient", ev.gradient), ("curvature", ev.curvature)):
            if not np.all(np.isfinite(x)):
                raise ValueError(f"iteration {iteration}: the metric's {name} is not finite")
        f_cur = -ev.value
        g = -ev.gradient * inv_scale
        b = ev.curvature * np.outer(inv_scale, inv_scale)
        b = b + cfg.damping * np.eye(6)

        step_scaled = _dogleg_step(g, b, radius)
        predicted = -(g @ step_scaled + 0.5 * step_scaled @ b @ step_scaled)
        trial = params.with_vector(params.as_vector() + step_scaled * inv_scale)
        try:
            trial_value = similarity.metric_value(fixed, moving, trial, side, cfg.num_bins,
                                                  cfg.kernel_radius)
        except similarity.DegenerateHistogramError:
            trial_value = -np.inf
        f_trial = -trial_value

        if predicted > 1e-18 and np.isfinite(f_trial):
            rho = (f_cur - f_trial) / predicted
        else:
            rho = -np.inf
        accepted = rho > 0.0
        at_boundary = np.linalg.norm(step_scaled) >= 0.99 * radius
        rows.append({
            "iter": iteration,
            "value": ev.value,
            "trial_value": trial_value if np.isfinite(trial_value) else None,
            "rho": rho if np.isfinite(rho) else None,
            "radius": radius,
            "step_norm_scaled": float(np.linalg.norm(step_scaled)),
            "accepted": bool(accepted),
            "sample_size": ev.sample_size,
            "escaped": ev.escaped,
        })
        moves.append(step_scaled if accepted else np.zeros_like(step_scaled))
        interior.append(not (accepted and at_boundary))
        if accepted:
            params = trial
        if rho < _ACCEPT_LOW:
            radius *= _SHRINK
        elif rho > _ACCEPT_HIGH and at_boundary:
            radius *= _EXPAND
        if radius < cfg.min_radius:
            termination = "radius"
            break
        if _stationary(moves, interior):
            termination = "stationary"
            break
    return params, {"termination": termination, "rows": rows}


@dataclass(frozen=True, eq=False)
class PreparedPair:
    """The O(N) work on one pair, done once and reused across runs.

    Level 1 of each pyramid is the input volume itself, so the full
    resolution's intensity ranges, centre and bounds are read from the
    volumes, not stored here.  ``gradient_sources`` holds the moving
    image's gradient magnitude expressed on each level's FIXED grid
    (sampling probabilities index fixed voxels, while the gradient belongs
    to the moving image), so grids that already coincide reuse the array
    and others get a trilinear pullback with zero outside.
    """

    fixed_pyramid: Pyramid
    moving_pyramid: Pyramid
    gradient_sources: tuple

    @property
    def num_levels(self) -> int:
        return self.fixed_pyramid.num_levels


def _require_1mm(v: Volume, name: str) -> None:
    if not np.allclose(v.spacing, 1.0, atol=1e-6):
        raise ValueError(
            f"{name} volume must be resampled to 1mm isotropic spacing first "
            f"(got {tuple(v.spacing)})"
        )


def prepare(fixed: Volume, moving: Volume, num_levels: int = 4) -> PreparedPair:
    """Build both pyramids and the per-level gradient sources once.

    Everything else a run needs (intensity ranges, centre, rotation scale)
    is cheap and is read from the volumes when the run needs it.
    """
    _require_1mm(fixed, "fixed")
    _require_1mm(moving, "moving")
    fixed_pyr = build_pyramid(fixed, num_levels)
    moving_pyr = build_pyramid(moving, num_levels)
    sources = []
    for r in range(1, num_levels + 1):
        flevel = fixed_pyr.level(r)
        gmag = gradient_magnitude(moving_pyr.level(r))
        if gmag.same_grid(flevel):
            sources.append(gmag)
        else:
            pts = flevel.points_of_flat(np.arange(flevel.num_voxels))
            vals, _ = trilinear_many(gmag, pts)
            sources.append(Volume(
                vals.reshape(flevel.dims, order="F"),
                flevel.spacing, flevel.origin,
            ))
    return PreparedPair(fixed_pyr, moving_pyr, tuple(sources))


def register(
    fixed: Volume,
    moving: Volume,
    sampler_kind: str = "mixed",
    betas: dict | None = None,
    rate: float = 0.01,
    cfg: OptimizerConfig | None = None,
    seed: int = 0,
    num_levels: int = 4,
    stop_level: int = 1,
    prepared: PreparedPair | None = None,
    init: RigidParams | None = None,
) -> RegistrationResult:
    """Run the coarse-to-fine cascade and return the audited estimate.

    ``rate`` is the sampled fraction of the FULL-resolution voxel count;
    the resulting pixel budget is reused unchanged at every level.
    ``betas`` maps level -> mixing weight and is required for the mixed
    sampler (levels num_levels..stop_level).  Levels num_levels down to
    ``stop_level`` run, starting from ``init`` (None: the identity about
    the fixed volume's center).  Passing ``prepared`` skips pyramid
    construction (it must be ``prepare`` of these very volume objects), and
    ``num_levels`` then picks the coarsest level of THAT pyramid: on a
    4-level pair, ``num_levels=3`` runs its levels 3..1, whose level 3 has
    a 2.52 mm spacing, not the 4 mm of a fresh 3-level pyramid.  Each level
    draws from its own stream, so ``num_levels=r, stop_level=r, init=x``
    reproduces level r of any cascade whose level r+1 ended at x.
    """
    if not 1 <= stop_level <= num_levels:
        raise ValueError("need 1 <= stop_level <= num_levels")
    if prepared is not None and (prepared.fixed_pyramid.level(1) is not fixed
                                 or prepared.moving_pyramid.level(1) is not moving):
        raise ValueError("prepared was not built from this fixed/moving pair")
    if prepared is not None and num_levels > prepared.num_levels:
        raise ValueError(f"num_levels={num_levels} exceeds the prepared pair's "
                         f"{prepared.num_levels} levels")
    if sampler_kind == "mixed":
        missing = [r for r in range(stop_level, num_levels + 1)
                   if not 0.0 <= (betas or {}).get(r, -1.0) <= 1.0]
        if missing:
            raise ValueError(f"mixed sampler needs a beta in [0, 1] for levels {missing}")
    cfg = cfg or OptimizerConfig()
    m = sampler.budget(rate, fixed.num_voxels)

    start = time.perf_counter()
    if prepared is None:
        prepared = prepare(fixed, moving, num_levels)

    notes: list = []
    params = RigidParams.identity(fixed.center_mm) if init is None else init
    level_reports = []
    escaped_fractions = []
    for r in range(num_levels, stop_level - 1, -1):
        dist, fallback = sampler.build(
            sampler_kind, prepared.fixed_pyramid.level(r).num_voxels, m,
            prepared.gradient_sources[r - 1], (betas or {}).get(r), level=r,
        )
        if fallback:
            notes.append(f"level {r}: {fallback}, uniform fallback")
        try:
            params, trace = optimize_level(
                prepared.fixed_pyramid.level(r),
                prepared.moving_pyramid.level(r),
                dist, params, cfg, make_rng(seed, _LEVEL_STREAM, r), (fixed, moving),
            )
        except REGISTRATION_FAILURES as e:
            raise type(e)(f"level {r}: {e}") from e
        for row in trace["rows"]:
            escaped_fractions.append(row["escaped"] / max(row["sample_size"], 1))
        level_reports.append({
            "level": r,
            "params": params.to_dict(),
            "iterations": len(trace["rows"]),
            "termination": trace["termination"],
            "trace": trace["rows"],
            "seed_path": [seed, _LEVEL_STREAM, r],
            "sampler_kind": dist.kind,
            "expected_count": dist.expected_count,
        })
    elapsed = time.perf_counter() - start

    return RegistrationResult(
        final_params=params,
        levels=tuple(level_reports),
        elapsed_s=elapsed,
        sampler_kind=sampler_kind,
        rate=rate,
        betas=None if betas is None else dict(betas),
        seed=seed,
        escaped_fraction_mean=float(np.mean(escaped_fractions)) if escaped_fractions else 0.0,
        escaped_fraction_max=float(np.max(escaped_fractions)) if escaped_fractions else 0.0,
        notes=tuple(notes),
    )
