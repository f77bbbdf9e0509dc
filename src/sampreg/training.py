"""Per-level learning of the sampling mixture weight.

The objective for a candidate weight at level r is the empirical target
registration error: run level r with the candidate weight, compare its
estimate against the pair's gold transform at a set of probe points, and
average the squared probe displacement over pairs and Monte-Carlo trials.
Particle swarm minimizes that average on [0, 1].

Trial seeds derive from (root seed, pair index, trial index) only, never
from the candidate weight, so every candidate is scored on the same draws
(common random numbers); a noisy objective would otherwise swamp the
swarm.  Once a level's weight is frozen, its estimate for each (pair,
trial) is therefore fixed too: ``train_cascade`` runs the frozen level once
per (pair, trial) from the estimate carried down from the level above, and
every candidate at the next finer level starts from that result.  Failed
registrations keep their large error: fragile extremes are exactly what
the penalty should push away from, and a (pair, trial) that fails at a
frozen level is charged the identity's error at every finer level without
running again.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from itertools import product

import numpy as np

from sampreg import optimizer, transform
from sampreg.rng import RNG_ALGORITHM, derive_seed, make_rng
from sampreg.transform import RigidParams
from sampreg.volume import Volume

# Derivation-path tags under the training root seed.
_PSO_STREAM = 21
_TRIAL_STREAM = 22


def default_probe_points(v: Volume) -> np.ndarray:
    """The 8 bounding-box corners plus the center of a volume, in mm."""
    lo, hi = v.bounds
    pts = [np.array([x, y, z]) for x, y, z in product(*zip(lo, hi))]
    pts.append(v.center_mm)
    return np.array(pts)


@dataclass(frozen=True)
class TrainingPair:
    """One fixed/moving pair with its known-good transform."""

    fixed: Volume
    moving: Volume
    gold: RigidParams
    probe_points: np.ndarray | None = None

    def __post_init__(self):
        pts = self.probe_points
        if pts is None:
            pts = default_probe_points(self.fixed)
        pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
        if pts.size == 0 or pts.shape[1] != 3:
            raise ValueError("probe_points must be a nonempty (n, 3) array")
        lo, hi = self.fixed.bounds
        if np.any(pts < lo - 1e-9) or np.any(pts > hi + 1e-9):
            raise ValueError("probe points must lie inside the fixed volume bounds")
        object.__setattr__(self, "probe_points", pts)

    @cached_property
    def prepared(self) -> optimizer.PreparedPair:
        return optimizer.prepare(self.fixed, self.moving)


@dataclass(frozen=True)
class PsoConfig:
    """Global-best particle swarm settings on the unit interval."""

    particles: int = 10
    iterations: int = 20
    inertia: float = 0.7
    cognitive: float = 1.5
    social: float = 1.5
    bounds: tuple = (0.0, 1.0)
    velocity_clamp: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.particles < 2:
            raise ValueError("need at least 2 particles")
        if self.iterations < 1:
            raise ValueError("need at least 1 iteration")
        if not self.bounds[0] < self.bounds[1]:
            raise ValueError("bounds must satisfy lo < hi")


def etre_term(gold: RigidParams, est: RigidParams, pts) -> float:
    """Mean squared probe-point displacement between two transforms, mm^2.

    Mean rather than sum, so values are comparable across probe counts.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
    if pts.size == 0:
        raise ValueError("need at least one probe point")
    d = transform.apply_many(gold, pts) - transform.apply_many(est, pts)
    return float(np.mean(np.sum(d * d, axis=1)))


def _level_estimates(level, betas, pairs, u_trials, opt_cfg, rate, seed, num_levels, starts):
    """Level-``level`` estimates [pair][trial], None where a run failed.

    Without ``starts`` each run is the cascade num_levels..level from the
    identity; with them, level ``level`` alone from ``starts[pair][trial]``,
    and a None start stays None without a run.
    """
    estimates = []
    for i, pair in enumerate(pairs):
        try:
            prepared = pair.prepared
        except Exception as e:
            raise type(e)(f"pair {i}: {e}") from e
        row = []
        for trial in range(u_trials):
            init = None if starts is None else starts[i][trial]
            est = None  # stays None for a run that fails or has failed above
            if starts is None or init is not None:
                try:
                    est = optimizer.register(
                        pair.fixed, pair.moving, sampler_kind="mixed", betas=betas,
                        rate=rate, cfg=opt_cfg, seed=derive_seed(seed, _TRIAL_STREAM, i, trial),
                        num_levels=num_levels if starts is None else level,
                        stop_level=level, prepared=prepared, init=init,
                    ).final_params
                except optimizer.InitializationOutsideOverlapError:
                    pass
            row.append(est)
        estimates.append(row)
    return estimates


def objective_Q(
    level: int,
    beta: float,
    pairs,
    u_trials: int,
    frozen_betas: dict,
    opt_cfg: optimizer.OptimizerConfig,
    rate: float,
    seed: int,
    num_levels: int = 4,
    starts: list | None = None,
) -> float:
    """Mean ETRE of the level-r estimate over pairs and Monte-Carlo trials.

    frozen_betas must cover levels num_levels..level+1; the candidate beta
    is used at ``level`` itself and the cascade stops there.  Given
    ``starts``, the frozen level-(level+1) estimates per pair and trial
    (None where that run failed), level ``level`` runs alone from them.
    """
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must be in [0, 1], got {beta}")
    if u_trials < 1:
        raise ValueError("need at least one Monte-Carlo trial")
    missing = [r for r in range(level + 1, num_levels + 1) if r not in frozen_betas]
    if missing:
        raise ValueError(f"frozen_betas missing levels {missing}")
    betas = {r: frozen_betas[r] for r in range(level + 1, num_levels + 1)}
    betas[level] = float(beta)

    pairs = list(pairs)
    estimates = _level_estimates(
        level, betas, pairs, u_trials, opt_cfg, rate, seed, num_levels, starts)
    # a failed run is charged the full initialization error
    return float(np.mean([
        etre_term(pair.gold, RigidParams.identity(pair.prepared.center) if est is None else est,
                  pair.probe_points)
        for pair, row in zip(pairs, estimates) for est in row
    ]))


def pso_minimize(f, cfg: PsoConfig):
    """Global-best PSO on a scalar interval; returns (best_x, best_value, history).

    Initial positions are uniform over the bounds and count as the first
    iteration's evaluations, so f is called exactly particles*iterations
    times.  Deterministic under cfg.seed.
    """
    lo, hi = cfg.bounds
    rng = make_rng(cfg.seed, _PSO_STREAM)
    x = lo + (hi - lo) * rng.random(cfg.particles)
    v = np.zeros(cfg.particles)
    pbest_x = x.copy()
    pbest_val = np.full(cfg.particles, np.inf)
    gbest_x = float(x[0])
    gbest_val = np.inf

    history = []
    for iteration in range(cfg.iterations):
        if iteration > 0:
            r1 = rng.random(cfg.particles)
            r2 = rng.random(cfg.particles)
            v = (cfg.inertia * v
                 + cfg.cognitive * r1 * (pbest_x - x)
                 + cfg.social * r2 * (gbest_x - x))
            v = np.clip(v, -cfg.velocity_clamp, cfg.velocity_clamp)
            x = np.clip(x + v, lo, hi)
        for p in range(cfg.particles):
            val = float(f(float(x[p])))
            if val < pbest_val[p]:
                pbest_val[p] = val
                pbest_x[p] = x[p]
            if val < gbest_val:
                gbest_val = val
                gbest_x = float(x[p])
        history.append({
            "iteration": iteration,
            "best_x": gbest_x,
            "best_value": gbest_val,
        })
    return gbest_x, gbest_val, history


def train_cascade(
    pairs,
    u_trials: int,
    pso_cfg: PsoConfig,
    opt_cfg: optimizer.OptimizerConfig,
    rate: float,
    seed: int,
    num_levels: int = 4,
):
    """Learn one mixture weight per level, coarsest first.

    Returns (betas, report): betas maps level -> learned weight; the report
    carries per-level swarm histories and best objective values, plus the
    settings needed to reproduce the run.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("need at least one training pair")
    betas: dict = {}
    report_levels = []
    starts = None
    for r in range(num_levels, 0, -1):
        frozen = dict(betas)

        def objective(beta, _level=r, _frozen=frozen, _starts=starts):
            return objective_Q(
                _level, beta, pairs, u_trials, _frozen,
                opt_cfg, rate, seed, num_levels, _starts,
            )

        level_cfg = replace(pso_cfg, seed=derive_seed(seed, _PSO_STREAM, r))
        best_beta, best_q, history = pso_minimize(objective, level_cfg)
        betas[r] = float(best_beta)
        report_levels.append({
            "level": r,
            "beta": betas[r],
            "best_q_mm2": best_q,
            "history": history,
        })
        if r > 1:  # level r is frozen: run it once, and start level r-1 from it
            starts = _level_estimates(r, betas, pairs, u_trials, opt_cfg, rate, seed,
                                      num_levels, starts)
    report = {
        "levels": report_levels,
        "rate": rate,
        "u_trials": u_trials,
        "num_pairs": len(pairs),
        "num_levels": num_levels,
        "seed": seed,
        "pso": {
            "particles": pso_cfg.particles,
            "iterations": pso_cfg.iterations,
            "inertia": pso_cfg.inertia,
            "cognitive": pso_cfg.cognitive,
            "social": pso_cfg.social,
        },
        "rng_algorithm": RNG_ALGORITHM,
    }
    return betas, report
