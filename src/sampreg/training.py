"""Per-level learning of the sampling mixture weight.

The objective for a candidate weight at level r is the empirical target
registration error: run level r with the candidate weight, compare its
estimate against the pair's gold transform at a set of probe points, and
average the squared probe displacement over pairs and Monte-Carlo trials.
Particle swarm, with fixed coefficients, minimizes that average on [0, 1].

Trial seeds derive from (root seed, pair index, trial index) only, never
from the candidate weight, so every candidate is scored on the same draws
(common random numbers); a noisy objective would otherwise swamp the
swarm.  Within a level the start estimates and the frozen coarser weights
are fixed as well, so a run depends on its candidate weight alone:
``train_cascade`` keeps each weight's estimates per (pair, trial) until the
level ends, and a weight the swarm scores again (the global best at rest,
or particles clipped to the same bound) is not run again.  The swarm's
best weight is frozen with the runs that scored it, and their estimates
are where every candidate at the next finer level starts.  Failed
registrations keep their large error: fragile extremes are exactly what
the penalty should push away from, and a (pair, trial) that fails at a
frozen level is charged the identity's error at every finer level without
running again.

A run's draws come from its (pair, trial) seed and its level, never from
its weight, and every weight's distribution on a level thins the same
proposals (see ``sampler``), so the candidates' runs of one (pair, trial)
are coupled as well: a voxel one weight selects is selected by every
weight that gives it at least the same probability.  Each run draws its
own stream, in line.

Once a swarm iteration's positions are fixed its particles are independent,
so ``pso_minimize`` scores them as one batch (the synchronous parallel PSO
of Schutte et al., 2004).  ``Registrations`` runs such batches, for
``train_cascade``, ``objective_Q`` and ``bench.sweep`` alike.  It prepares
each pair once, at the depth the run was given, so a level-r run registers
on the grids ``register`` uses at that depth.  It then forks a process pool
with one worker per CPU this process may run on, at most one per run of a
batch; forking lets the workers share the prepared pyramids instead of
unpickling a copy each.  Results come back in submission order and each run
depends only on its own arguments, so outputs are bit for bit those of
running in-process, which is what happens on one CPU or while other threads
run.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
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

# Swarm inertia, cognitive and social weights, and the velocity clamp.
_INERTIA, _COGNITIVE, _SOCIAL = 0.7, 1.5, 1.5
_VELOCITY_CLAMP = 0.5


def default_probe_points(v: Volume) -> np.ndarray:
    """The 8 bounding-box corners plus the center of a volume, in mm."""
    lo, hi = v.bounds
    pts = [np.array([x, y, z]) for x, y, z in product(*zip(lo, hi))]
    pts.append(v.center_mm)
    return np.array(pts)


@dataclass(frozen=True, eq=False)
class TrainingPair:
    """One fixed/moving pair with its known-good transform; its error is
    measured at ``default_probe_points`` of the fixed volume."""

    fixed: Volume
    moving: Volume
    gold: RigidParams

    @cached_property
    def probe_points(self) -> np.ndarray:
        return default_probe_points(self.fixed)


@dataclass(frozen=True)
class PsoConfig:
    """Particle and iteration counts of a global-best swarm on [0, 1]."""

    particles: int = 10
    iterations: int = 20

    def __post_init__(self):
        if self.particles < 2:
            raise ValueError("need at least 2 particles")
        if self.iterations < 1:
            raise ValueError("need at least 1 iteration")


def etre_term(gold: RigidParams, est: RigidParams, pts) -> float:
    """Mean squared probe-point displacement between two transforms, mm^2.

    Mean rather than sum, so values are comparable across probe counts.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
    if pts.size == 0:
        raise ValueError("need at least one probe point")
    d = transform.apply_many(gold, pts) - transform.apply_many(est, pts)
    return float(np.mean(np.sum(d * d, axis=1)))


def _trial_seed(seed: int, i: int, trial: int) -> int:
    """Seed of every run of pair i, trial ``trial``, whatever its weights."""
    return derive_seed(seed, _TRIAL_STREAM, i, trial)


def _run(pairs, prepared, cfg, run):
    """One run of a ``Registrations`` batch."""
    i, kwargs = run
    start = time.perf_counter()
    try:
        out = optimizer.register(pairs[i].fixed, pairs[i].moving, cfg=cfg,
                                 prepared=prepared[i], **kwargs).final_params
    except optimizer.REGISTRATION_FAILURES as e:
        out = e
    return out, time.perf_counter() - start


# (pairs, prepared, cfg) in a pool worker, set by _start_worker; None elsewhere.
_worker_args = None


def _start_worker(*args):
    global _worker_args
    _worker_args = args


def _in_worker(run):
    return _run(*_worker_args, run)


def _pool_workers(batch: int) -> int:
    """Workers for batches of up to ``batch`` runs: one per CPU this process
    may run on, at most one per run.

    1, meaning in-process, where the platform cannot say, or while other
    threads run: a forked worker would inherit any lock they hold.
    """
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is None or threading.active_count() > 1:
        return 1
    return min(len(affinity(0)), batch)


class Registrations:
    """Batches of ``register`` calls on pairs prepared once, in order.

    Each pair is prepared at ``num_levels`` first, and a pair whose volumes
    ``prepare`` rejects (a ``ValueError``) is named by its index; any other
    error there, such as running out of memory, propagates as raised.  A run is (pair index, keyword arguments of
    ``register`` other than ``cfg`` and ``prepared``); a batch returns one
    (final params, seconds) per run, with the error in place of the params
    where registration failed (``optimizer.REGISTRATION_FAILURES``).  Any
    other error propagates from the run that meets it.  With batches of up
    to ``batch`` runs, ``_pool_workers`` decides whether the runs go to a
    fork-started process pool, whose workers inherit the prepared pairs, or
    run here.  Use it as a context manager, which shuts the pool down.
    """

    def __init__(self, pairs, num_levels: int, cfg, batch: int = 1):
        prepared = []
        for i, pair in enumerate(pairs):
            try:
                prepared.append(optimizer.prepare(pair.fixed, pair.moving, num_levels))
            except ValueError as e:
                raise ValueError(f"pair {i}: {e}") from e
        self._args = (pairs, prepared, cfg)
        workers = _pool_workers(batch)
        self._pool = None if workers <= 1 else ProcessPoolExecutor(
            workers, mp_context=multiprocessing.get_context("fork"),
            initializer=_start_worker, initargs=self._args,
        )

    def __call__(self, runs: list) -> list:
        if self._pool is None:
            return [_run(*self._args, run) for run in runs]
        return list(self._pool.map(_in_worker, runs))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self._pool is not None:
            self._pool.shutdown(cancel_futures=True)


def _cells(num_pairs: int, u_trials: int, starts) -> list:
    """The (pair, trial) cells that run: those with a start, or all without starts."""
    return [(i, trial) for i in range(num_pairs) for trial in range(u_trials)
            if starts is None or starts[i][trial] is not None]


def _candidate_q(run_all, memo, level, candidates, pairs, u_trials, frozen_betas, rate,
                 seed, num_levels, starts) -> list:
    """Mean ETRE of each candidate weight at ``level`` (see ``objective_Q``).

    ``memo`` maps each weight already run at this level, from these frozen
    weights and starts, to its estimates [pair][trial], None where a run
    failed or had no start.  Only the weights not in it are run, once each,
    as one batch to ``run_all``: weight-major in first-seen order, then pair,
    then trial.  Without ``starts`` each run is the cascade num_levels..level
    from the identity; with them, level ``level`` alone from
    ``starts[pair][trial]``, and a None start stays None without a run.
    """
    for beta in candidates:
        if not 0.0 <= beta <= 1.0:
            raise ValueError(f"beta must be in [0, 1], got {beta}")
    if u_trials < 1:
        raise ValueError("need at least one Monte-Carlo trial")
    missing = [r for r in range(level + 1, num_levels + 1) if r not in frozen_betas]
    if missing:
        raise ValueError(f"frozen_betas missing levels {missing}")
    frozen = {r: frozen_betas[r] for r in range(level + 1, num_levels + 1)}
    cells = _cells(len(pairs), u_trials, starts)
    fresh = [beta for beta in dict.fromkeys(map(float, candidates)) if beta not in memo]
    runs = [
        (i, dict(sampler_kind="mixed", betas={**frozen, level: beta}, rate=rate,
                 seed=_trial_seed(seed, i, trial),
                 num_levels=num_levels if starts is None else level, stop_level=level,
                 init=None if starts is None else starts[i][trial]))
        for beta in fresh for i, trial in cells
    ]
    results = iter(run_all(runs))
    for beta in fresh:
        memo[beta] = [[None] * u_trials for _ in pairs]
        for i, trial in cells:
            est, _ = next(results)
            memo[beta][i][trial] = None if isinstance(est, Exception) else est
    # a failed run is charged the full initialization error
    return [float(np.mean([
        etre_term(pair.gold, RigidParams.identity(pair.fixed.center_mm) if est is None else est,
                  pair.probe_points)
        for pair, row in zip(pairs, memo[float(beta)]) for est in row
    ])) for beta in candidates]


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
    Each call prepares the pairs at ``num_levels`` and makes its runs in
    this process, afresh: the reference that ``train_cascade`` must match.
    """
    pairs = list(pairs)
    with Registrations(pairs, num_levels, opt_cfg) as run_all:
        return _candidate_q(run_all, {}, level, [beta], pairs, u_trials, frozen_betas,
                            rate, seed, num_levels, starts)[0]


def pso_minimize(f, cfg: PsoConfig, seed: int):
    """Global-best PSO on [0, 1]; returns (best_x, best_value, history).

    ``f`` takes one iteration's positions, an array of ``particles``
    values, and returns one objective value per position; personal and
    global bests are then updated in particle order.  Initial positions are
    uniform on [0, 1] and count as the first iteration's evaluations, so f
    is called once per iteration and evaluates exactly
    particles*iterations positions.  Deterministic under ``seed``; the
    configuration holds no seed, and ``train_cascade`` derives one per level.
    """
    rng = make_rng(seed, _PSO_STREAM)
    x = rng.random(cfg.particles)
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
            v = (_INERTIA * v
                 + _COGNITIVE * r1 * (pbest_x - x)
                 + _SOCIAL * r2 * (gbest_x - x))
            v = np.clip(v, -_VELOCITY_CLAMP, _VELOCITY_CLAMP)
            x = np.clip(x + v, 0.0, 1.0)
        values = np.asarray(f(x.copy()), dtype=np.float64)
        if values.shape != x.shape:
            raise ValueError(f"objective returned shape {values.shape} "
                             f"for {cfg.particles} positions")
        for p in range(cfg.particles):
            val = float(values[p])
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
    carries per-level swarm histories and best objective values, the
    distinct level runs made (``runs``), how many of them were charged the
    identity's error (``failed``), how many (candidate, pair, trial)
    scorings a run already made at that level answered (``reused``) and
    the level's wall time (``elapsed_s``), plus the settings needed to
    reproduce the run.  The pairs are prepared once, at ``num_levels``, and
    level runs go to a process pool with one worker per usable CPU, at most
    one per run of a swarm iteration (see the module notes).

    Each level's swarm is seeded from ``seed`` and the level.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("need at least one training pair")
    betas: dict = {}
    report_levels = []
    starts = None
    with Registrations(pairs, num_levels, opt_cfg,
                       pso_cfg.particles * len(pairs) * u_trials) as run_all:
        for r in range(num_levels, 0, -1):
            start = time.perf_counter()
            memo = {}

            # pso_minimize returns before r, starts, memo or betas change
            def objective(positions):
                return _candidate_q(run_all, memo, r, positions, pairs, u_trials,
                                    betas, rate, seed, num_levels, starts)

            best_beta, best_q, history = pso_minimize(
                objective, pso_cfg, derive_seed(seed, _PSO_STREAM, r))
            cells = _cells(len(pairs), u_trials, starts)
            runs = len(memo) * len(cells)
            betas[r] = float(best_beta)
            # level r is frozen: the next finer level starts from the winner's runs
            if betas[r] not in memo:
                raise RuntimeError(f"level {r}: the swarm's best weight {betas[r]!r} "
                                   "was never scored")
            starts = memo[betas[r]]
            report_levels.append({
                "level": r,
                "beta": betas[r],
                "best_q_mm2": best_q,
                "history": history,
                "runs": runs,
                "failed": sum(row[i][trial] is None for row in memo.values() for i, trial in cells),
                "reused": pso_cfg.particles * pso_cfg.iterations * len(cells) - runs,
                "elapsed_s": time.perf_counter() - start,
            })
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
            "inertia": _INERTIA,
            "cognitive": _COGNITIVE,
            "social": _SOCIAL,
        },
        "rng_algorithm": RNG_ALGORITHM,
    }
    return betas, report
