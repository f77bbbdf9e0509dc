"""Mixture-weight training tests: ETRE terms, PSO search, cascade wiring.

Registration is stubbed out wherever arithmetic is under test, so the
objective values can be computed by hand and call budgets counted exactly.
A stub's call log only sees runs made in the test's own process, so tests
that read one pin ``train_cascade`` to a single CPU with ``use_cpus``.
"""

import multiprocessing
import os
import threading

import numpy as np
import pytest

from sampreg import optimizer, sampler, similarity, training
from sampreg.rng import derive_seed, make_rng
from sampreg.training import PsoConfig, TrainingPair
from sampreg.transform import RigidParams
from sampreg.volume import Volume


def tiny_pair(seed=0, gold_t=(1.0, 0.0, 0.0)):
    rng = make_rng(seed, 99)
    fixed = Volume(data=rng.random((12, 12, 12)) * 100, spacing=(1, 1, 1))
    moving = Volume(data=rng.random((12, 12, 12)) * 100, spacing=(1, 1, 1))
    gold = RigidParams(t=gold_t, center=fixed.center_mm)
    return TrainingPair(fixed=fixed, moving=moving, gold=gold)


class StubResult:
    def __init__(self, params):
        self.final_params = params


def use_cpus(monkeypatch, n):
    """Make this process look as if it may run on n CPUs, as under taskset.

    ``train_cascade`` sizes its pool from that count and makes its level
    runs in this process when it is 1.
    """
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def untimed(report):
    """A training report with every key but its levels' wall times."""
    return {**report, "levels": [
        {k: v for k, v in lv.items() if k != "elapsed_s"} for lv in report["levels"]
    ]}


def install_register_stub(monkeypatch, calls, est_factory):
    def stub(fixed, moving, sampler_kind="mixed", betas=None, rate=0.01,
             cfg=None, seed=0, num_levels=4, stop_level=1, prepared=None,
             init=None):
        calls.append({
            "betas": dict(betas), "seed": seed, "num_levels": num_levels,
            "stop_level": stop_level, "init": init,
            "rate": rate, "sampler_kind": sampler_kind,
            "num_bins": cfg.num_bins, "kernel_radius": cfg.kernel_radius,
        })
        return StubResult(est_factory(seed))

    use_cpus(monkeypatch, 1)
    monkeypatch.setattr(optimizer, "register", stub)


# ---------------------------------------------------------------------------
# Probe points and pairs
# ---------------------------------------------------------------------------


def test_default_probe_points_are_corners_plus_center():
    v = Volume(data=np.zeros((5, 5, 5)), spacing=(2, 2, 2), origin=(1, 1, 1))
    pts = training.default_probe_points(v)
    assert pts.shape == (9, 3)
    lo, hi = v.bounds
    corners = {tuple(p) for p in pts[:8]}
    assert corners == {
        (x, y, z) for x in (lo[0], hi[0]) for y in (lo[1], hi[1])
        for z in (lo[2], hi[2])
    }
    np.testing.assert_allclose(pts[8], v.center_mm)


def test_training_pair_defaults_and_validation():
    pair = tiny_pair()
    assert pair.probe_points.shape == (9, 3)
    np.testing.assert_array_equal(pair.probe_points, training.default_probe_points(pair.fixed))


def test_pso_config_validation():
    with pytest.raises(ValueError):
        PsoConfig(particles=1)
    with pytest.raises(ValueError):
        PsoConfig(iterations=0)
    cfg = PsoConfig()
    assert (cfg.particles, cfg.iterations) == (10, 20)
    with pytest.raises(TypeError):
        PsoConfig(seed=0)  # the seed is pso_minimize's argument
    assert (training._INERTIA, training._COGNITIVE, training._SOCIAL) == (0.7, 1.5, 1.5)
    assert training._VELOCITY_CLAMP == 0.5


# ---------------------------------------------------------------------------
# ETRE terms
# ---------------------------------------------------------------------------


def test_etre_term_zero_for_identical_transforms():
    pts = np.array([[0.0, 0, 0], [1, 2, 3], [5, 5, 5]])
    a = RigidParams(t=(1, 2, 3), r=(0.1, 0, 0))
    assert training.etre_term(a, a, pts) == 0.0


def test_etre_term_three_mm_offset_gives_nine():
    pts = training.default_probe_points(
        Volume(data=np.zeros((4, 4, 4)), spacing=(1, 1, 1))
    )
    gold = RigidParams(t=(3.0, 0, 0))
    est = RigidParams()
    assert training.etre_term(gold, est, pts) == pytest.approx(9.0, abs=1e-12)


def test_etre_term_mean_of_squared_displacements():
    pts = np.array([[0.0, 0, 0], [1, 1, 0]])
    gold = RigidParams(t=(1.0, 1.0, 0.0))
    est = RigidParams()
    # every probe displaced by (1,1,0): squared norm 2, mean 2
    assert training.etre_term(gold, est, pts) == pytest.approx(2.0, abs=1e-12)


def test_etre_term_rotation_hand_case():
    center = np.array([10.0, 10.0, 10.0])
    gold = RigidParams(r=(0, 0, np.pi / 2), center=center)
    est = RigidParams(center=center)
    pts = center + np.array([[1.0, 0.0, 0.0]])
    # quarter turn about z moves the probe from c+(1,0,0) to c+(0,1,0)
    assert training.etre_term(gold, est, pts) == pytest.approx(2.0, abs=1e-12)


def test_etre_term_requires_probes():
    with pytest.raises(ValueError):
        training.etre_term(RigidParams(), RigidParams(), np.zeros((0, 3)))


# ---------------------------------------------------------------------------
# objective_Q
# ---------------------------------------------------------------------------


def test_objective_validates_inputs():
    pair = tiny_pair()
    cfg = optimizer.OptimizerConfig()
    with pytest.raises(ValueError):
        training.objective_Q(1, 1.5, [pair], 1, {2: 0, 3: 0, 4: 0}, cfg, 0.01, 0)
    with pytest.raises(ValueError):
        training.objective_Q(1, 0.5, [pair], 0, {2: 0, 3: 0, 4: 0}, cfg, 0.01, 0)
    with pytest.raises(ValueError, match="frozen"):
        training.objective_Q(1, 0.5, [pair], 1, {4: 0.1}, cfg, 0.01, 0)


def test_objective_is_hand_computable_mean(monkeypatch):
    pairs = [tiny_pair(0, (1.0, 0, 0)), tiny_pair(1, (0.0, 2.0, 0))]
    calls = []
    install_register_stub(
        monkeypatch, calls,
        lambda seed: RigidParams.identity(pairs[0].fixed.center_mm),
    )
    q = training.objective_Q(
        level=2, beta=0.4, pairs=pairs, u_trials=3,
        frozen_betas={3: 0.1, 4: 0.2}, opt_cfg=optimizer.OptimizerConfig(),
        rate=0.01, seed=7,
    )
    # pair 1 misses gold by 1mm (term 1.0), pair 2 by 2mm (term 4.0)
    assert q == pytest.approx((1.0 * 3 + 4.0 * 3) / 6, abs=1e-12)
    assert len(calls) == 6  # V * U registrations
    for call in calls:
        assert call["stop_level"] == 2
        assert call["sampler_kind"] == "mixed"
        assert call["betas"] == {2: 0.4, 3: 0.1, 4: 0.2}
        assert call["num_bins"] == similarity.DEFAULT_NUM_BINS
        assert call["kernel_radius"] == 2


def test_objective_trial_seeds_ignore_beta(monkeypatch):
    pairs = [tiny_pair(2), tiny_pair(3)]
    seen = []
    for beta in (0.1, 0.9):
        calls = []
        install_register_stub(
            monkeypatch, calls, lambda seed: RigidParams.identity((6, 6, 6))
        )
        training.objective_Q(
            level=4, beta=beta, pairs=pairs, u_trials=2, frozen_betas={},
            opt_cfg=optimizer.OptimizerConfig(), rate=0.01, seed=11,
        )
        seen.append([c["seed"] for c in calls])
    assert seen[0] == seen[1]  # common random numbers across candidates
    assert len(set(seen[0])) == len(seen[0])  # distinct per (pair, trial)


def test_objective_charges_initialization_error_on_overlap_failure(
    monkeypatch,
):
    pair = tiny_pair(4, (0.0, 0.0, 3.0))

    def stub(*args, **kwargs):
        raise optimizer.InitializationOutsideOverlapError("no overlap")

    monkeypatch.setattr(optimizer, "register", stub)
    q = training.objective_Q(
        level=4, beta=0.5, pairs=[pair], u_trials=2, frozen_betas={},
        opt_cfg=optimizer.OptimizerConfig(), rate=0.01, seed=0,
    )
    # estimate falls back to the identity, 3mm from gold at every probe
    assert q == pytest.approx(9.0, abs=1e-9)


def test_objective_charges_initialization_error_on_empty_draws(monkeypatch):
    pair = tiny_pair(4, (0.0, 0.0, 3.0))

    def stub(*args, **kwargs):
        raise optimizer.EmptyDrawError("level 4: iteration 0: 101 draws in a row")

    monkeypatch.setattr(optimizer, "register", stub)
    q = training.objective_Q(
        level=4, beta=0.5, pairs=[pair], u_trials=2, frozen_betas={},
        opt_cfg=optimizer.OptimizerConfig(), rate=0.01, seed=0,
    )
    assert q == pytest.approx(9.0, abs=1e-9)


# ---------------------------------------------------------------------------
# PSO
# ---------------------------------------------------------------------------


def test_pso_finds_quadratic_minimum():
    best_x, best_val, history = training.pso_minimize(
        lambda b: (b - 0.3) ** 2, PsoConfig(particles=10, iterations=20), 1
    )
    assert abs(best_x - 0.3) <= 0.01
    assert best_val <= 1e-4
    values = [h["best_value"] for h in history]
    assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))
    assert len(history) == 20


def test_pso_evaluation_budget_is_exact():
    count = [0]

    def f(b):
        count[0] += len(b)
        return b * b

    training.pso_minimize(f, PsoConfig(particles=7, iterations=9), 2)
    assert count[0] == 7 * 9


def test_pso_respects_bounds():
    best_x, _, history = training.pso_minimize(
        lambda b: -b, PsoConfig(particles=8, iterations=15), 3
    )
    assert 0.0 <= best_x <= 1.0
    assert best_x >= 0.99  # minimum of -b sits at the upper bound


def test_pso_is_seed_deterministic():
    f = lambda b: np.sin(13 * b) + b * b
    a = training.pso_minimize(f, PsoConfig(particles=6, iterations=10), 4)
    b = training.pso_minimize(f, PsoConfig(particles=6, iterations=10), 4)
    assert a == b
    c = training.pso_minimize(f, PsoConfig(particles=6, iterations=10), 5)
    assert c[0] != a[0] or c[1] != a[1]


def test_pso_handles_constant_objective():
    best_x, best_val, history = training.pso_minimize(
        lambda b: np.ones_like(b), PsoConfig(particles=4, iterations=5), 6
    )
    assert best_val == 1.0
    assert 0.0 <= best_x <= 1.0


def test_pso_scores_each_iteration_as_one_batch():
    batches = []

    def f(b):
        batches.append(b)
        return b * b

    training.pso_minimize(f, PsoConfig(particles=3, iterations=4), 7)
    assert [b.shape for b in batches] == [(3,)] * 4
    with pytest.raises(ValueError, match="shape"):
        training.pso_minimize(lambda b: 1.0, PsoConfig(particles=3, iterations=1), 0)


# ---------------------------------------------------------------------------
# Cascade
# ---------------------------------------------------------------------------


def test_train_cascade_budget_and_freezing(monkeypatch):
    pairs = [tiny_pair(5), tiny_pair(6, (0, 1, 0))]
    calls = []
    level2_runs = {}  # (weight, seed) -> estimate of each level-2 run

    def est_factory(seed):
        est = RigidParams(t=(len(calls), 0, 0), center=(6, 6, 6))
        if calls[-1]["stop_level"] == 2:
            level2_runs[calls[-1]["betas"][2], seed] = est
        return est

    install_register_stub(monkeypatch, calls, est_factory)
    pso_cfg = PsoConfig(particles=3, iterations=2)
    betas, report = training.train_cascade(
        pairs, u_trials=2, pso_cfg=pso_cfg,
        opt_cfg=optimizer.OptimizerConfig(num_bins=24, kernel_radius=3),
        rate=0.01, seed=9, num_levels=2,
    )
    # 3 particles * 2 iterations positions a level, each scored on 2 pairs *
    # 2 trials; in the second iteration the global best stays where it was,
    # so its 4 scorings reuse runs already made
    assert [(lv["level"], lv["runs"], lv["reused"]) for lv in report["levels"]] == [
        (2, 5 * 4, 4), (1, 5 * 4, 4)]
    assert len(calls) == 5 * 4 * 2
    assert all(c["num_bins"] == 24 and c["kernel_radius"] == 3 for c in calls)
    assert set(betas) == {1, 2}
    assert all(0.0 <= b <= 1.0 for b in betas.values())
    level2, level1 = calls[:20], calls[20:]
    assert all(c["stop_level"] == 2 and c["init"] is None for c in level2)
    assert len(level2_runs) == 20
    # level-1 candidates run level 1 alone, each from the winning level-2
    # candidate's estimate for its (pair, trial)
    assert all(c["num_levels"] == c["stop_level"] == 1 for c in level1)
    assert all(c["init"] is level2_runs[betas[2], c["seed"]] for c in level1)

    assert [lv["level"] for lv in report["levels"]] == [2, 1]
    for lv in report["levels"]:
        assert lv["beta"] == betas[lv["level"]]
        vals = [h["best_value"] for h in lv["history"]]
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))
    assert report["num_pairs"] == 2
    assert report["pso"]["particles"] == 3


def test_train_cascade_charges_a_failed_frozen_level_at_finer_levels(monkeypatch):
    pairs = [tiny_pair(8), tiny_pair(9, (0, 2, 0))]
    calls = []
    # every level-3 run of (pair 1, trial 1) fails, the winning candidate's too
    failed_seed = derive_seed(1, training._TRIAL_STREAM, 1, 1)

    def stub(fixed, moving, seed=0, stop_level=1, **kwargs):
        calls.append((seed, stop_level))
        if stop_level == 3 and seed == failed_seed:
            raise optimizer.InitializationOutsideOverlapError("no overlap")
        pair = pairs[0] if fixed is pairs[0].fixed else pairs[1]
        return StubResult(pair.gold)

    use_cpus(monkeypatch, 1)
    monkeypatch.setattr(optimizer, "register", stub)
    _, report = training.train_cascade(
        pairs, u_trials=2, pso_cfg=PsoConfig(particles=2, iterations=2),
        opt_cfg=optimizer.OptimizerConfig(), rate=0.01, seed=1, num_levels=3,
    )
    # each level scores 2 particles * 2 iterations positions, 3 of them
    # distinct (the global best stays put in the second iteration); level 3
    # runs them on 2 pairs * 2 trials, and that (pair, trial) runs at no
    # finer level ...
    assert [level for seed, level in calls if seed == failed_seed] == [3] * 3
    assert [(lv["level"], lv["runs"], lv["failed"], lv["reused"])
            for lv in report["levels"]] == [(3, 3 * 4, 3, 4), (2, 3 * 3, 0, 3), (1, 3 * 3, 0, 3)]
    assert len(calls) == 3 * 4 + 3 * 3 + 3 * 3
    # ... and is charged the identity's error there, 2 mm at every probe;
    # the other three (pair, trial)s land on gold
    q = [lv["best_q_mm2"] for lv in report["levels"]]
    assert q == [pytest.approx(4.0 / 4)] * 3


def test_train_cascade_never_reruns_a_failed_winner(monkeypatch):
    pairs = [tiny_pair(16, (0, 0, 2.0))]
    calls, made = [], set()

    def stub(fixed, moving, betas=None, seed=0, stop_level=1, **kwargs):
        calls.append((stop_level, seed))
        run = (stop_level, betas[stop_level], seed)
        first = run not in made
        made.add(run)
        # trial 0's level-2 runs fail the first time they are made
        if stop_level == 2 and seed == calls[0][1] and first:
            raise optimizer.EmptyDrawError("level 2: iteration 0: 101 draws in a row")
        return StubResult(pairs[0].gold)

    use_cpus(monkeypatch, 1)
    monkeypatch.setattr(optimizer, "register", stub)
    _, report = training.train_cascade(
        pairs, u_trials=2, pso_cfg=PsoConfig(particles=2, iterations=1),
        opt_cfg=optimizer.OptimizerConfig(), rate=0.01, seed=7, num_levels=2,
    )
    # the winning candidate's failed run is not made again, so trial 0
    # starts no level-1 run and is charged the identity's error, 2 mm at
    # every probe
    assert [level for level, seed in calls if seed == calls[0][1]] == [2, 2]
    assert [(lv["runs"], lv["failed"], lv["reused"]) for lv in report["levels"]] == [
        (2 * 2, 2, 0), (2, 0, 0)]
    assert [lv["best_q_mm2"] for lv in report["levels"]] == [pytest.approx(4.0 / 2)] * 2


def test_train_cascade_answers_repeated_positions_from_its_runs(monkeypatch):
    pairs = [tiny_pair(17), tiny_pair(18, (0, 1, 0))]
    calls, batches = [], []

    def stub(fixed, moving, betas=None, seed=0, stop_level=1, **kwargs):
        calls.append((stop_level, betas[stop_level], seed))
        gold = pairs[0].gold if fixed is pairs[0].fixed else pairs[1].gold
        # the larger the weight, the nearer gold: the swarm piles up on 1
        return StubResult(RigidParams(t=gold.t + (1.0 - betas[stop_level]), center=gold.center))

    real_pso = training.pso_minimize

    def recording_pso(f, cfg, seed):
        def recorded(positions):
            batches.append(positions.tolist())
            return f(positions)
        return real_pso(recorded, cfg, seed)

    use_cpus(monkeypatch, 1)
    monkeypatch.setattr(optimizer, "register", stub)
    monkeypatch.setattr(training, "pso_minimize", recording_pso)
    _, report = training.train_cascade(
        pairs, u_trials=2, pso_cfg=PsoConfig(particles=3, iterations=3),
        opt_cfg=optimizer.OptimizerConfig(), rate=0.01, seed=7, num_levels=2,
    )
    # no (level, weight, pair, trial) is run twice ...
    assert len(set(calls)) == len(calls)
    # ... though the swarm scores both kinds of repeat at each level: the
    # global best at rest on its last position, and two particles clipped to
    # the upper bound in one iteration
    for level_batches in (batches[:3], batches[3:]):
        assert any(now[p] == before[p] for before, now in zip(level_batches, level_batches[1:])
                   for p in range(3))
        assert any(b.count(1.0) == 2 for b in level_batches)
    # each repeat is answered from the run already made, for 2 pairs * 2 trials
    for lv, level_batches in zip(report["levels"], (batches[:3], batches[3:])):
        positions = [x for b in level_batches for x in b]
        assert lv["runs"] == len(set(positions)) * 4
        assert lv["reused"] == (len(positions) - len(set(positions))) * 4
    assert [(lv["runs"], lv["reused"]) for lv in report["levels"]] == [(7 * 4, 2 * 4), (6 * 4, 3 * 4)]
    assert sum(lv["runs"] for lv in report["levels"]) == len(calls)


def test_train_cascade_best_q_matches_the_uncached_objective(pair32, monkeypatch):
    fixed, moving, gold = pair32
    pairs = [TrainingPair(fixed=fixed, moving=moving, gold=gold)]
    runs = []
    real = optimizer.register

    def logging_register(*args, betas, seed, stop_level, **kwargs):
        result = real(*args, betas=betas, seed=seed, stop_level=stop_level, **kwargs)
        runs.append(((stop_level, betas[stop_level], seed), result.final_params))
        return result

    use_cpus(monkeypatch, 1)
    monkeypatch.setattr(optimizer, "register", logging_register)
    settings = dict(
        u_trials=2, opt_cfg=optimizer.OptimizerConfig(max_iters=2), rate=0.01, seed=5,
        num_levels=3,
    )
    betas, report = training.train_cascade(
        pairs, pso_cfg=PsoConfig(particles=2, iterations=2), **settings)
    made = dict(runs)
    assert len(made) == len(runs)  # no level run is made twice
    trial_seeds = [seed for (_, _, seed), _ in runs[:2]]  # the first candidate's trials
    monkeypatch.setattr(optimizer, "register", real)
    starts = None
    for lv in report["levels"]:
        r = lv["level"]
        frozen = {k: betas[k] for k in range(r + 1, 4)}
        assert lv["best_q_mm2"] == training.objective_Q(
            r, betas[r], pairs, frozen_betas=frozen, starts=starts, **settings)
        starts = [[made[r, betas[r], s] for s in trial_seeds]]


def test_train_cascade_makes_each_level_run_once_per_call(pair32, monkeypatch):
    fixed, moving, gold = pair32
    pairs = [TrainingPair(fixed=fixed, moving=moving, gold=gold)]
    runs = []
    real = optimizer.optimize_level

    def counting(fixed_r, *args, **kwargs):
        runs.append(fixed_r.dims)
        return real(fixed_r, *args, **kwargs)

    use_cpus(monkeypatch, 1)
    monkeypatch.setattr(optimizer, "optimize_level", counting)
    settings = dict(
        u_trials=2, pso_cfg=PsoConfig(particles=2, iterations=2),
        opt_cfg=optimizer.OptimizerConfig(max_iters=2), rate=0.01, seed=3,
        num_levels=3,
    )
    first = training.train_cascade(pairs, **settings)
    dims = {r: optimizer.prepare(fixed, moving, 3).fixed_pyramid.level(r).dims
            for r in (1, 2, 3)}
    # each level runs its distinct positions once per trial: 2 particles * 2
    # iterations, less the global best at rest in the second; a frozen level
    # runs no more, and finer levels start from its winner's runs
    assert [runs.count(dims[r]) for r in (3, 2, 1)] == [3 * 2, 3 * 2, 3 * 2]
    runs.clear()
    second = training.train_cascade(pairs, **settings)
    assert len(runs) == 3 * 2 * 3  # nothing is kept between calls
    assert first[0] == second[0] and untimed(first[1]) == untimed(second[1])


def test_training_runs_on_the_pyramid_of_its_own_depth(pair32, monkeypatch):
    fixed, moving, gold = pair32
    pairs = [TrainingPair(fixed=fixed, moving=moving, gold=gold)]
    spacings = []
    real = optimizer.optimize_level

    def recording(fixed_r, *args, **kwargs):
        spacings.append(float(fixed_r.spacing[0]))
        return real(fixed_r, *args, **kwargs)

    use_cpus(monkeypatch, 1)
    monkeypatch.setattr(optimizer, "optimize_level", recording)
    cfg = optimizer.OptimizerConfig(max_iters=2)
    training.train_cascade(pairs, u_trials=1, pso_cfg=PsoConfig(particles=2, iterations=1),
                           opt_cfg=cfg, rate=0.01, seed=1, num_levels=3)
    # the grids `register --levels 3` runs on, not levels 3..1 of a deeper pyramid
    pyramid = optimizer.prepare(fixed, moving, 3).fixed_pyramid
    grids = [float(pyramid.level(r).spacing[0]) for r in (3, 2, 1)]
    assert grids == [4.0, 2.0, 1.0]
    assert sorted(set(spacings), reverse=True) == grids
    spacings.clear()
    training.objective_Q(2, 0.5, pairs, 1, {3: 0.4}, cfg, 0.01, 1, num_levels=3)
    assert spacings == [4.0, 2.0]


def test_train_cascade_names_a_pair_it_cannot_prepare():
    coarse = Volume(data=np.zeros((12, 12, 12)), spacing=(2, 2, 2))
    pairs = [tiny_pair(19), TrainingPair(fixed=coarse, moving=coarse, gold=RigidParams())]
    with pytest.raises(ValueError, match="^pair 1: fixed volume must be resampled"):
        training.train_cascade(
            pairs, u_trials=1, pso_cfg=PsoConfig(particles=2, iterations=1),
            opt_cfg=optimizer.OptimizerConfig(), rate=0.01, seed=0,
        )


def test_train_cascade_rejects_empty_pairs():
    with pytest.raises(ValueError):
        training.train_cascade(
            [], u_trials=1, pso_cfg=PsoConfig(),
            opt_cfg=optimizer.OptimizerConfig(), rate=0.01, seed=0,
        )


def test_train_cascade_is_seed_deterministic(monkeypatch):
    pairs = [tiny_pair(7)]

    def est_factory(seed):
        rng = make_rng(seed)
        return RigidParams(t=rng.uniform(-1, 1, 3), center=(5.5, 5.5, 5.5))

    results = []
    for _ in range(2):
        calls = []
        install_register_stub(monkeypatch, calls, est_factory)
        results.append(
            training.train_cascade(
                pairs, u_trials=1, pso_cfg=PsoConfig(particles=3, iterations=3),
                opt_cfg=optimizer.OptimizerConfig(), rate=0.01, seed=13,
                num_levels=2,
            )
        )
    assert results[0][0] == results[1][0]
    assert untimed(results[0][1]) == untimed(results[1][1])


def test_train_cascade_report_counts_runs_and_failures(monkeypatch):
    pairs = [tiny_pair(10), tiny_pair(11, (0, 1, 0))]
    calls = []

    def stub(fixed, moving, **kwargs):
        calls.append(kwargs["stop_level"])
        if len(calls) == 2:  # the second level-2 candidate run
            raise optimizer.InitializationOutsideOverlapError("no overlap")
        return StubResult(pairs[0].gold if fixed is pairs[0].fixed else pairs[1].gold)

    use_cpus(monkeypatch, 1)
    monkeypatch.setattr(optimizer, "register", stub)
    _, report = training.train_cascade(
        pairs, u_trials=1, pso_cfg=PsoConfig(particles=2, iterations=2),
        opt_cfg=optimizer.OptimizerConfig(), rate=0.01, seed=2, num_levels=2,
    )
    # each level: 2 particles * 2 iterations positions on 2 pairs, the
    # global best at rest in the second iteration answered by its runs from
    # the first; the frozen level 2 is not run again
    assert [(lv["level"], lv["runs"], lv["failed"], lv["reused"])
            for lv in report["levels"]] == [(2, 3 * 2, 1, 2), (1, 3 * 2, 0, 2)]
    assert len(calls) == 3 * 2 + 3 * 2
    assert all(lv["elapsed_s"] >= 0.0 for lv in report["levels"])


@pytest.mark.parametrize("cpus", [1, 2], ids=["in_process", "pool"])
def test_train_cascade_charges_empty_draws(monkeypatch, cpus):
    pairs = [tiny_pair(12, (0, 0, 2.0)), tiny_pair(13)]

    def stub(fixed, moving, **kwargs):
        if fixed is pairs[0].fixed:  # every run of pair 0 draws nothing
            raise optimizer.EmptyDrawError("level 2: iteration 0: 101 draws in a row")
        return StubResult(pairs[1].gold)

    use_cpus(monkeypatch, cpus)
    monkeypatch.setattr(optimizer, "register", stub)
    _, report = training.train_cascade(
        pairs, u_trials=1, pso_cfg=PsoConfig(particles=2, iterations=1),
        opt_cfg=optimizer.OptimizerConfig(), rate=0.01, seed=3, num_levels=2,
    )
    # pair 0 is charged the identity's error, 2 mm at every probe; the
    # winning candidate's level-2 run of it failed, so it is not run at level 1
    assert [lv["best_q_mm2"] for lv in report["levels"]] == [
        pytest.approx(4.0 / 2), pytest.approx(4.0 / 2)]
    assert [(lv["runs"], lv["failed"], lv["reused"]) for lv in report["levels"]] == [
        (2 * 2, 2, 0), (2, 0, 0)]


def test_pool_matches_in_process_bit_for_bit(pair32, monkeypatch, tmp_path):
    fixed, moving, gold = pair32
    log = tmp_path / "pids"
    real = optimizer.register

    def logging_register(*args, **kwargs):  # notes which process made each run
        with open(log, "a") as f:
            f.write(f"{os.getpid()}\n")
        return real(*args, **kwargs)

    monkeypatch.setattr(optimizer, "register", logging_register)
    settings = dict(
        u_trials=2, pso_cfg=PsoConfig(particles=2, iterations=2),
        opt_cfg=optimizer.OptimizerConfig(max_iters=3), rate=0.01, seed=4,
        num_levels=3,
    )
    out, pids = {}, {}
    for cpus in (1, 2):
        use_cpus(monkeypatch, cpus)
        pairs = [TrainingPair(fixed=fixed, moving=moving, gold=gold)]
        betas, report = training.train_cascade(pairs, **settings)
        out[cpus] = betas, untimed(report)
        pids[cpus] = set(log.read_text().split())
        log.unlink()
    me = str(os.getpid())
    assert pids[1] == {me}
    assert pids[2] and me not in pids[2] and len(pids[2]) <= 2
    assert out[1] == out[2]
    # 3 distinct positions a level (the global best rests in the second
    # iteration) * 2 trials
    assert [(lv["runs"], lv["reused"]) for lv in out[2][1]["levels"]] == [(3 * 2, 2)] * 3


def test_train_cascade_stays_in_process_while_another_thread_runs(monkeypatch):
    pairs = [tiny_pair(15)]
    calls = []

    def stub(fixed, moving, **kwargs):
        calls.append(kwargs["seed"])  # lost if the run is made in a worker
        return StubResult(pairs[0].gold)

    use_cpus(monkeypatch, 2)
    monkeypatch.setattr(optimizer, "register", stub)
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(60,))
    other.start()
    try:
        training.train_cascade(
            pairs, u_trials=2, pso_cfg=PsoConfig(particles=2, iterations=1),
            opt_cfg=optimizer.OptimizerConfig(), rate=0.01, seed=6, num_levels=2,
        )
    finally:
        release.set()
        other.join(timeout=60)
    assert not other.is_alive()
    assert len(calls) == 2 * 2 + 2 * 2  # 2 particles * 2 trials a level


def test_worker_error_propagates_and_leaves_no_process(monkeypatch):
    pairs = [tiny_pair(14)]

    def stub(*args, **kwargs):
        raise RuntimeError("not an engine error")

    use_cpus(monkeypatch, 2)
    monkeypatch.setattr(optimizer, "register", stub)
    threads = set(threading.enumerate())
    with pytest.raises(RuntimeError, match="not an engine error"):
        training.train_cascade(
            pairs, u_trials=2, pso_cfg=PsoConfig(particles=2, iterations=2),
            opt_cfg=optimizer.OptimizerConfig(), rate=0.01, seed=5, num_levels=2,
        )
    assert multiprocessing.active_children() == []
    assert set(threading.enumerate()) == threads


# ---------------------------------------------------------------------------
# Level streams
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("cpus", [1, 2], ids=["in_process", "pool"])
def test_train_cascade_runs_draw_their_own_streams(pair32, monkeypatch, tmp_path, cpus):
    fixed, moving, gold = pair32
    log = tmp_path / "log"
    real_draw, real_register = sampler.draw, optimizer.register

    def logging_draw(d, rng):
        with open(log, "a") as f:
            f.write(f"draw {os.getpid()}\n")
        return real_draw(d, rng)

    def logging_register(*args, **kwargs):
        with open(log, "a") as f:
            f.write(f"run {os.getpid()}\n")
        return real_register(*args, **kwargs)

    use_cpus(monkeypatch, cpus)
    monkeypatch.setattr(sampler, "draw", logging_draw)
    monkeypatch.setattr(optimizer, "register", logging_register)
    pairs = [TrainingPair(fixed=fixed, moving=moving, gold=gold) for _ in range(2)]
    _, report = training.train_cascade(
        pairs, u_trials=2, pso_cfg=PsoConfig(particles=2, iterations=2),
        opt_cfg=optimizer.OptimizerConfig(max_iters=2), rate=0.01, seed=9, num_levels=3,
    )
    lines = [line.split() for line in log.read_text().splitlines()]
    runs = [pid for kind, pid in lines if kind == "run"]
    draws = [pid for kind, pid in lines if kind == "draw"]
    # 3 positions a level on each (pair, trial), each run drawing in its own process
    assert len(runs) == 3 * 2 * 2 * 3
    assert len(draws) >= len(runs) and set(draws) == set(runs)
    assert (set(runs) == {str(os.getpid())}) == (cpus == 1)
    assert all("streams" not in lv for lv in report["levels"])


def test_every_level_draws_from_its_cover_on_the_calling_thread(pair32, monkeypatch):
    """Every draw of a registration comes from its level's cover, on the
    calling thread, and no other thread is running while it is made."""
    fixed, moving, _ = pair32
    before = threading.active_count()
    seen = []
    real = sampler.draw

    def watching(dist, rng):
        seen.append((dist.level, dist.cover is not None,
                     threading.current_thread() is threading.main_thread(),
                     threading.active_count()))
        return real(dist, rng)

    monkeypatch.setattr(sampler, "draw", watching)
    result = optimizer.register(
        fixed, moving, sampler_kind="mixed", betas={r: 0.5 for r in range(1, 5)}, rate=0.01,
        cfg=optimizer.OptimizerConfig(max_iters=4), seed=4, num_levels=3, stop_level=2,
    )
    assert [level for level, *_ in seen] == [3] * 4 + [2] * 4
    assert [lv["iterations"] for lv in result.levels] == [4, 4]
    assert all(covered and main and count == before for _, covered, main, count in seen)
