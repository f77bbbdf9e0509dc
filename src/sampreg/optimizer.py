"""Rigid registration: trust-region Gauss-Newton over sampled NMI, per level
and across a coarse-to-fine pyramid.

Each level iteration draws a fresh Bernoulli pixel subset, evaluates the
negated metric with its analytic gradient and curvature surrogate on that
subset, takes a damped dogleg step inside a trust region, and judges the
step by the acceptance ratio computed on the SAME frozen draw (comparing
values from different draws would make the ratio meaningless).  Rotations
and translations share one trust region through a mm-per-radian scale.

The cascade runs levels coarse to fine, each level initialized with the
previous estimate; the coarsest level starts from zero parameters.  The
pixel budget M is a fraction of the FULL-resolution voxel count and is the
same at every level.

No draw depends on the optimizer's state, so ``register`` has one
background thread draw ahead: when it starts, it queues every level's
draws, coarse to fine, on a single worker, at most ``max_iters`` a level
(fewer when they would hold more than ``_AHEAD_INDICES`` indices).  Each
level still consumes its own stream in order, so the outputs are bit for
bit those of drawing in line; the draws a level leaves unused come from a
generator that is thrown away.  The draw's uniform fill, comparison and
selection release the GIL, so the finest level's O(N) draws run during
the coarser levels' similarity passes; the gain needs a second core.
"""

from __future__ import annotations

import copy
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

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

# Expected indices a level's queued draws may hold together (2 MB of
# int64), so dense rates on large volumes queue fewer than ``max_iters``.
_AHEAD_INDICES = 1 << 18


class InitializationOutsideOverlapError(ValueError):
    """The starting transform leaves no sampled voxel inside the moving volume."""


@dataclass(frozen=True)
class OptimizerConfig:
    """Metric and trust-region settings for one level's inner optimization.

    ``num_bins`` and ``kernel_radius`` size the sampled NMI's joint
    histogram and its spread kernel (see ``similarity.evaluate``).

    Radii live in scaled parameter units: translations in mm, rotations in
    radians times ``rotation_scale`` (mm per radian).  ``rotation_scale``
    left as None means half the fixed volume's diagonal, so a radian costs
    a comparable boundary displacement.

    A level stops when the radius falls below ``min_radius``, after
    ``max_iters`` iterations, or once it is stationary (see ``_stationary``).
    """

    num_bins: int = similarity.DEFAULT_NUM_BINS
    kernel_radius: int = 2
    max_iters: int = 50
    initial_radius: float = 1.0
    min_radius: float = 1e-3
    expand: float = 2.0
    shrink: float = 0.25
    accept_low: float = 0.25
    accept_high: float = 0.75
    damping: float = 1e-8
    rotation_scale: float | None = None

    def __post_init__(self):
        if not 0 < self.min_radius < self.initial_radius:
            raise ValueError("need 0 < min_radius < initial_radius")
        if not 0 < self.shrink < 1 < self.expand:
            raise ValueError("need 0 < shrink < 1 < expand")
        if not 0 < self.accept_low < self.accept_high < 1:
            raise ValueError("need 0 < accept_low < accept_high < 1")
        if self.max_iters < 0 or self.damping < 0:
            raise ValueError("max_iters and damping must be nonnegative")


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
    """Approximate argmin of g.x + x.B.x/2 subject to |x| <= radius."""
    try:
        newton = -np.linalg.solve(b, g)
    except np.linalg.LinAlgError:
        newton = -np.linalg.lstsq(b, g, rcond=None)[0]
    if np.linalg.norm(newton) <= radius:
        return newton
    gnorm = np.linalg.norm(g)
    if gnorm == 0.0:
        return np.zeros_like(g)
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
    fixed_range=None,
    moving_range=None,
    drawn=(),
):
    """Maximize sampled NMI from params0; returns (params, trace).

    The trace dict has "termination" ("radius", "stationary" or "budget";
    see ``OptimizerConfig``) and "rows", one
    per iteration, each recording incumbent and trial metric values on the
    shared draw, the acceptance ratio, the radius used, and the draw size.
    An empty draw (possible at tiny budgets) is redrawn from the same
    stream, keeping runs seed-deterministic.

    ``drawn`` holds futures of the first draws from ``rng``, made ahead
    in order (see ``register``).  They are taken one per draw; once they
    are used up, the level draws from ``rng`` itself.
    """
    if cfg.rotation_scale is None:
        raise ValueError("rotation_scale must be resolved before optimize_level")
    scale = np.array([1.0, 1.0, 1.0] + [cfg.rotation_scale] * 3)
    inv_scale = 1.0 / scale

    bin_table = similarity.bin_index_table(moving, moving_range, cfg.num_bins)
    params = params0
    radius = cfg.initial_radius
    moves = []
    interior = []
    rows = []
    termination = "budget"
    ahead = iter(drawn)

    def next_draw():
        future = next(ahead, None)
        return sampler.draw(dist, rng) if future is None else future.result()

    for iteration in range(cfg.max_iters):
        idx = next_draw()
        for _ in range(100):
            if idx.size:
                break
            idx = next_draw()
        try:
            ev = similarity.evaluate(
                fixed, moving, params, idx, cfg.num_bins, cfg.kernel_radius,
                fixed_range, moving_range, bin_table,
            )
        except similarity.DegenerateHistogramError as e:
            raise InitializationOutsideOverlapError(
                f"iteration {iteration}: {e}"
            ) from e
        f_cur = -ev.value
        g = -ev.gradient * inv_scale
        b = ev.curvature * np.outer(inv_scale, inv_scale)
        b = b + cfg.damping * np.eye(6)

        step_scaled = _dogleg_step(g, b, radius)
        predicted = -(g @ step_scaled + 0.5 * step_scaled @ b @ step_scaled)
        trial = params.with_vector(params.as_vector() + step_scaled * inv_scale)
        try:
            trial_value = similarity.metric_value(
                fixed, moving, trial, idx, cfg.num_bins, cfg.kernel_radius,
                fixed_range, moving_range, bin_table,
            )
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
        if rho < cfg.accept_low:
            radius *= cfg.shrink
        elif rho > cfg.accept_high and at_boundary:
            radius *= cfg.expand
        if radius < cfg.min_radius:
            termination = "radius"
            break
        if _stationary(moves, interior):
            termination = "stationary"
            break
    return params, {"termination": termination, "rows": rows}


@dataclass(frozen=True)
class PreparedPair:
    """Pyramids and per-level sampling inputs, reusable across runs.

    ``gradient_sources`` holds the moving image's gradient magnitude
    expressed on each level's FIXED grid (sampling probabilities index
    fixed voxels, while the gradient belongs to the moving image), so
    grids that already coincide reuse the array and others get a
    trilinear pullback with zero outside.
    """

    fixed_pyramid: Pyramid
    moving_pyramid: Pyramid
    gradient_sources: tuple
    fixed_range: tuple
    moving_range: tuple
    center: np.ndarray = field(repr=False)
    rotation_scale: float

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
    """Build both pyramids and the per-level gradient sources once."""
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
    lo, hi = fixed.bounds
    return PreparedPair(
        fixed_pyramid=fixed_pyr,
        moving_pyramid=moving_pyr,
        gradient_sources=tuple(sources),
        fixed_range=fixed.intensity_range,
        moving_range=moving.intensity_range,
        center=fixed.center_mm,
        rotation_scale=0.5 * float(np.linalg.norm(hi - lo)),
    )


def _level_distribution(kind, prepared, r, m, betas, notes):
    """Sampling distribution for level r, with uniform fallback notes."""
    n = prepared.fixed_pyramid.level(r).num_voxels
    urs = sampler.build_urs(n, m, level=r)
    if kind == "urs":
        return urs
    try:
        gms = sampler.build_gms(prepared.gradient_sources[r - 1], m, level=r)
    except sampler.DegenerateGradientError:
        notes.append(f"level {r}: gradient degenerate, uniform fallback")
        return urs
    if not np.isclose(gms.expected_count, urs.expected_count, rtol=1e-6):
        # not enough gradient-positive voxels to meet the budget
        notes.append(f"level {r}: gradient support below budget, uniform fallback")
        return urs
    if kind == "gms":
        return gms
    return sampler.build_mixed(urs, gms, betas[r])


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
    level_cache: dict | None = None,
) -> RegistrationResult:
    """Run the coarse-to-fine cascade and return the audited estimate.

    ``rate`` is the sampled fraction of the FULL-resolution voxel count;
    the resulting pixel budget is reused unchanged at every level.
    ``betas`` maps level -> mixing weight and is required for the mixed
    sampler (levels num_levels..stop_level).  ``stop_level`` > 1 truncates
    the cascade after that level (used when training coarser levels).
    Passing ``prepared`` skips pyramid construction (it must describe the
    same fixed/moving pair).

    A level's outcome depends only on its start estimate, distribution,
    settings and seed.  A caller that runs the same coarser levels again
    on one pair may pass a dict as ``level_cache``: the outcomes of levels
    above ``stop_level`` are stored there and reused when the same level
    is asked for again.  The dict belongs to that one pair and to the
    caller, which decides how long it lives; without it nothing is kept
    between calls.
    """
    if sampler_kind not in sampler.KINDS:
        raise ValueError(f"unknown sampler kind {sampler_kind!r}, expected {sampler.KINDS}")
    if not 0.0 < rate <= 1.0:
        raise ValueError(f"rate must be in (0, 1], got {rate}")
    if not 1 <= stop_level <= num_levels:
        raise ValueError("need 1 <= stop_level <= num_levels")
    if sampler_kind == "mixed":
        missing = [r for r in range(stop_level, num_levels + 1)
                   if betas is None or r not in betas]
        if missing:
            raise ValueError(f"mixed sampler needs a beta for levels {missing}")
    cfg = cfg or OptimizerConfig()

    start = time.perf_counter()
    if prepared is None:
        prepared = prepare(fixed, moving, num_levels)
    if cfg.rotation_scale is None:
        cfg = replace(cfg, rotation_scale=prepared.rotation_scale)

    n_full = prepared.fixed_pyramid.level(1).num_voxels
    m = max(1.0, round(rate * n_full))

    notes: list = []
    params = RigidParams.identity(prepared.center)
    level_reports = []
    escaped_fractions = []
    pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="sampreg-draw")
    try:
        plan = {}
        for r in range(num_levels, stop_level - 1, -1):
            dist = _level_distribution(sampler_kind, prepared, r, m, betas, notes)
            rng = make_rng(seed, _LEVEL_STREAM, r)
            count = min(cfg.max_iters, max(1, int(_AHEAD_INDICES // dist.expected_count)))
            plan[r] = dist, rng, [pool.submit(sampler.draw, dist, rng) for _ in range(count)]
        for r in list(plan):
            dist, rng, drawn = plan.pop(r)  # a finished level's draws are freed
            key = (r, dist.kind, dist.beta, m, cfg, seed,
                   params.t.tobytes(), params.r.tobytes(), params.center.tobytes())
            if level_cache is not None and key in level_cache:
                params, trace = level_cache[key]
                trace = copy.deepcopy(trace)
            else:
                try:
                    params, trace = optimize_level(
                        prepared.fixed_pyramid.level(r),
                        prepared.moving_pyramid.level(r),
                        dist, params, cfg, rng,
                        prepared.fixed_range, prepared.moving_range, drawn,
                    )
                except InitializationOutsideOverlapError as e:
                    raise InitializationOutsideOverlapError(f"level {r}: {e}") from e
                if level_cache is not None and r > stop_level:
                    level_cache[key] = (params, copy.deepcopy(trace))
            for future in drawn:
                future.cancel()
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
    finally:
        pool.shutdown(cancel_futures=True)
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
