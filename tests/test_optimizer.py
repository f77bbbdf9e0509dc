"""Trust-region level optimizer and multi-resolution cascade tests."""

import copy
import threading
from dataclasses import replace

import numpy as np
import pytest

from sampreg import bench, optimizer, sampler, similarity, training, transform
from sampreg.optimizer import (
    EmptyDrawError,
    InitializationOutsideOverlapError,
    OptimizerConfig,
    RegistrationResult,
)
from sampreg.rng import make_rng
from sampreg.volume import Volume

SUITE_CFG = OptimizerConfig(max_iters=120, initial_radius=2.0, min_radius=0.1)


def manifest64_pair(i):
    """Pair i of the 64-cube manifest the acceptance suite trains on."""
    fixed = bench.make_phantom(64, seed=100 + i)
    gold = bench.random_rigid(fixed, make_rng(600, i))
    moving, gold = bench.make_moving(fixed, gold, noise_sd=0.02, seed=700 + i)
    return training.TrainingPair(fixed=fixed, moving=moving, gold=gold)


def test_config_defaults():
    cfg = OptimizerConfig()
    assert cfg.max_iters == 50
    assert cfg.initial_radius == 1.0
    assert cfg.min_radius == 1e-3
    assert cfg.damping == 1e-8
    assert (optimizer._EXPAND, optimizer._SHRINK) == (2.0, 0.25)
    assert (optimizer._ACCEPT_LOW, optimizer._ACCEPT_HIGH) == (0.25, 0.75)


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(min_radius=2.0, initial_radius=1.0)
    with pytest.raises(ValueError):
        OptimizerConfig(max_iters=-1)


@pytest.mark.parametrize("settings, field", [
    ({"damping": np.nan}, "damping"),
    ({"damping": np.inf}, "damping"),
    ({"initial_radius": np.inf}, "initial_radius"),
])
def test_config_rejects_non_finite_trust_region_settings(settings, field):
    with pytest.raises(ValueError, match=field):
        OptimizerConfig(**settings)


def test_config_rejects_histogram_settings_the_metric_cannot_use():
    with pytest.raises(ValueError, match="num_bins"):
        OptimizerConfig(num_bins=4)
    with pytest.raises(ValueError, match="kernel_radius"):
        OptimizerConfig(kernel_radius=4)


def test_dogleg_falls_back_to_least_squares_on_a_singular_curvature():
    # no Newton solve exists; the minimum-norm least-squares step stands in
    b = np.diag([2.0, 1.0, 0.0, 0.0, 0.0, 0.0])
    g = np.array([1.0, 1.0, 0.0, 0.0, 0.0, 0.0])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(b, g)
    step = optimizer._dogleg_step(g, b, radius=2.0)
    np.testing.assert_allclose(step, [-0.5, -1.0, 0.0, 0.0, 0.0, 0.0])


def test_dogleg_takes_a_steepest_descent_step_on_non_positive_curvature():
    # the Newton point lies outside the region and g.B.g < 0
    b = np.diag([1.0, -1.0, 1.0, 1.0, 1.0, 1.0])
    g = np.array([1.0, 3.0, 0.0, 0.0, 0.0, 0.0])
    assert g @ b @ g < 0 and np.linalg.norm(np.linalg.solve(b, g)) > 1.0
    step = optimizer._dogleg_step(g, b, radius=1.0)
    np.testing.assert_allclose(step, -g / np.linalg.norm(g))


@pytest.mark.parametrize("b", [np.eye(6), np.diag([1.0, -1.0, 0.0, 1.0, 1.0, 1.0])])
def test_dogleg_steps_nowhere_on_a_zero_gradient(b):
    step = optimizer._dogleg_step(np.zeros(6), b, radius=1.0)
    np.testing.assert_array_equal(step, np.zeros(6))


def test_stationary_needs_a_full_window_of_interior_steps(monkeypatch):
    monkeypatch.setattr(optimizer, "_STALL_WINDOW", 8)
    rng = make_rng(12)
    noise = list(rng.normal(size=(8, 6)))
    # each step undone by the next: no net displacement at all
    wander = [s * (-1) ** k for s in noise[:4] for k in range(2)]
    assert optimizer._stationary(wander, [True] * 8)
    assert not optimizer._stationary(wander[1:], [True] * 7)
    assert not optimizer._stationary(wander, [True] * 7 + [False])
    # steps sharing a direction are a drift, however noisy each one is
    drift = [s + 3.0 for s in noise]
    assert not optimizer._stationary(drift, [True] * 8)
    assert not optimizer._stationary([np.zeros(6)] * 8, [True] * 8)


def level_setup(pair32, rate=0.05):
    fixed, moving, gold = pair32
    dist = sampler.build_urs(fixed.num_voxels, rate * fixed.num_voxels, level=1)
    return fixed, moving, gold, dist


def test_zero_iterations_returns_start(pair32):
    fixed, moving, gold, dist = level_setup(pair32)
    start = transform.RigidParams(t=(1, 1, 1), center=fixed.center_mm)
    cfg = OptimizerConfig(num_bins=16, max_iters=0)
    params, trace = optimizer.optimize_level(
        fixed, moving, dist, start, cfg, make_rng(0)
    )
    assert params is start
    assert trace["rows"] == []
    assert trace["termination"] == "budget"


def test_level_optimization_improves_alignment(pair32):
    fixed, moving, gold, dist = level_setup(pair32)
    start = gold  # exact start, then nudge 1.5mm off
    start = transform.RigidParams(
        t=gold.t + np.array([1.5, 0, 0]), r=gold.r, center=gold.center
    )
    cfg = OptimizerConfig(
        num_bins=32, max_iters=60, min_radius=0.02
    )
    params, trace = optimizer.optimize_level(
        fixed, moving, dist, start, cfg, make_rng(1)
    )
    err0 = np.linalg.norm(start.as_vector() - gold.as_vector())
    err1 = np.linalg.norm(params.as_vector() - gold.as_vector())
    assert err1 < 0.4 * err0


def test_accepted_steps_improve_the_shared_draw_value(pair32):
    fixed, moving, gold, dist = level_setup(pair32)
    start = transform.RigidParams(t=(2, -1, 1), center=fixed.center_mm)
    cfg = OptimizerConfig(num_bins=16, max_iters=25)
    _, trace = optimizer.optimize_level(
        fixed, moving, dist, start, cfg, make_rng(2)
    )
    accepted = [row for row in trace["rows"] if row["accepted"]]
    assert accepted, "expected at least one accepted step"
    for row in accepted:
        assert row["trial_value"] > row["value"]
        assert row["rho"] > 0


def test_trace_rows_record_draw_and_radius(pair32):
    fixed, moving, gold, dist = level_setup(pair32)
    start = transform.RigidParams(t=(1, 0, 0), center=fixed.center_mm)
    cfg = OptimizerConfig(num_bins=16, max_iters=5)
    _, trace = optimizer.optimize_level(
        fixed, moving, dist, start, cfg, make_rng(3)
    )
    assert len(trace["rows"]) == 5
    for row in trace["rows"]:
        assert row["radius"] > 0
        assert row["sample_size"] > 0
        assert 0 <= row["escaped"] <= row["sample_size"]


def test_radius_collapse_terminates(pair32):
    fixed, moving, gold, dist = level_setup(pair32)
    # at the optimum most proposals fail, so the radius shrinks immediately
    cfg = OptimizerConfig(
        num_bins=16, max_iters=500, initial_radius=1.0, min_radius=0.5,
    )
    _, trace = optimizer.optimize_level(
        fixed, moving, dist, gold, cfg, make_rng(4)
    )
    assert trace["termination"] == "radius"
    assert len(trace["rows"]) < 500


def test_optimize_level_is_seed_deterministic(pair32):
    fixed, moving, gold, dist = level_setup(pair32)
    start = transform.RigidParams(t=(1.5, -1, 0.5), center=fixed.center_mm)
    cfg = OptimizerConfig(num_bins=16, max_iters=15)
    p1, t1 = optimizer.optimize_level(
        fixed, moving, dist, start, cfg, make_rng(9, 1)
    )
    p2, t2 = optimizer.optimize_level(
        fixed, moving, dist, start, cfg, make_rng(9, 1)
    )
    np.testing.assert_array_equal(p1.as_vector(), p2.as_vector())
    assert t1 == t2


def test_a_level_runs_on_a_singular_curvature(pair32, monkeypatch):
    # one retained sample and no damping leave the curvature singular
    fixed, moving, gold, dist = level_setup(pair32)
    centre = np.array([16 + 32 * (16 + 32 * 16)])
    monkeypatch.setattr(sampler, "draw", lambda d, rng: centre)
    fallbacks = []
    lstsq = np.linalg.lstsq

    def counted(*args, **kwargs):
        fallbacks.append(args)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counted)
    cfg = OptimizerConfig(num_bins=16, max_iters=3, damping=0.0)
    _, trace = optimizer.optimize_level(fixed, moving, dist, gold, cfg, make_rng(5))
    assert len(fallbacks) == len(trace["rows"]) == 3
    assert all(row["sample_size"] - row["escaped"] == 1 for row in trace["rows"])


def test_a_trial_whose_samples_all_escape_is_rejected_and_cuts_the_radius(pair32, monkeypatch):
    fixed, moving, gold, dist = level_setup(pair32)
    metric_value = similarity.metric_value

    def far_trial(fixed, moving, params, *args):
        # the trial lands 500 mm away, so every one of its samples escapes
        far = params.with_vector(params.as_vector() + [500.0, 0, 0, 0, 0, 0])
        return metric_value(fixed, moving, far, *args)

    monkeypatch.setattr(similarity, "metric_value", far_trial)
    cfg = OptimizerConfig(num_bins=16, max_iters=3)
    params, trace = optimizer.optimize_level(fixed, moving, dist, gold, cfg, make_rng(3))
    assert params is gold
    rows = trace["rows"]
    assert [row["radius"] for row in rows] == [1.0, 0.25, 0.0625]
    for row in rows:
        assert (row["trial_value"], row["rho"], row["accepted"]) == (None, None, False)
        assert np.isfinite(row["value"])


@pytest.mark.parametrize("which, fields", [
    # a zero gradient with a NaN curvature once made a silent zero step
    ("curvature", {"gradient": np.zeros(6), "curvature": np.full((6, 6), np.nan)}),
    ("curvature", {"curvature": np.full((6, 6), np.nan)}),
    ("gradient", {"gradient": np.array([0.0, 0.0, np.inf, 0.0, 0.0, 0.0])}),
])
def test_a_non_finite_metric_derivative_raises_naming_the_iteration(pair32, monkeypatch,
                                                                     which, fields):
    fixed, moving, gold, dist = level_setup(pair32)
    evaluate = similarity.evaluate
    calls = []

    def spoiled(*args):
        calls.append(evaluate(*args))
        return calls[-1] if len(calls) < 3 else replace(calls[-1], **fields)

    monkeypatch.setattr(similarity, "evaluate", spoiled)
    cfg = OptimizerConfig(num_bins=16, max_iters=5)
    with pytest.raises(ValueError, match=f"iteration 2: the metric's {which} is not finite"):
        optimizer.optimize_level(fixed, moving, dist, gold, cfg, make_rng(3))


def test_a_radian_costs_half_the_full_resolution_fixed_diagonal(pair32):
    # a step's scaled norm weighs its rotation by the full pair's half diagonal,
    # which is the level's own pair unless ``full`` names another
    fixed, moving, gold, dist = level_setup(pair32)
    wide = Volume(fixed.data, spacing=(3.0, 2.0, 1.0), origin=(-5.0, 0.0, 5.0))
    start = transform.RigidParams(t=gold.t + 1.0, r=gold.r + 0.03, center=gold.center)
    cfg = OptimizerConfig(max_iters=1)
    for full, scaled_by in ((None, fixed), ((fixed, moving), fixed), ((wide, moving), wide)):
        params, trace = optimizer.optimize_level(fixed, moving, dist, start, cfg,
                                                 make_rng(7), full)
        lo, hi = scaled_by.bounds
        step = params.as_vector() - start.as_vector()
        step[3:] *= 0.5 * np.linalg.norm(hi - lo)
        assert trace["rows"][0]["accepted"]
        assert np.linalg.norm(step) == pytest.approx(trace["rows"][0]["step_norm_scaled"])


# ---------------------------------------------------------------------------
# prepare
# ---------------------------------------------------------------------------


def test_prepare_builds_matched_pyramids(pair32):
    fixed, moving, gold = pair32
    prepared = optimizer.prepare(fixed, moving, num_levels=4)
    assert prepared.fixed_pyramid.num_levels == 4
    assert prepared.moving_pyramid.num_levels == 4
    assert len(prepared.gradient_sources) == 4
    for r in range(1, 5):
        g = prepared.gradient_sources[r - 1]
        assert g.dims == prepared.fixed_pyramid.level(r).dims
    assert prepared.fixed_pyramid.level(1) is fixed
    assert prepared.moving_pyramid.level(1) is moving


def test_prepare_rejects_non_isotropic_input():
    v = Volume(data=np.zeros((8, 8, 8)), spacing=(2, 2, 2))
    w = Volume(data=np.zeros((8, 8, 8)), spacing=(1, 1, 1))
    with pytest.raises(ValueError):
        optimizer.prepare(v, w)


# ---------------------------------------------------------------------------
# register
# ---------------------------------------------------------------------------


def test_register_validates_arguments(pair32):
    fixed, moving, _ = pair32
    with pytest.raises(ValueError):
        optimizer.register(fixed, moving, sampler_kind="fancy")
    with pytest.raises(ValueError):
        optimizer.register(fixed, moving, sampler_kind="urs", rate=0.0)
    with pytest.raises(ValueError):
        optimizer.register(fixed, moving, sampler_kind="urs", stop_level=9)
    with pytest.raises(ValueError, match="beta"):
        optimizer.register(fixed, moving, sampler_kind="mixed", betas={4: 0.2})
    prepared = optimizer.prepare(fixed, moving)
    with pytest.raises(ValueError, match="num_levels=5 exceeds the prepared pair's 4 levels"):
        optimizer.register(fixed, moving, sampler_kind="urs", num_levels=5,
                           prepared=prepared)


def test_register_resolves_rotation_scale_and_start_from_the_fixed_volume(pair32, monkeypatch):
    fixed, moving, _ = pair32
    handed = []
    real = optimizer.optimize_level

    def spy(fixed_r, moving_r, dist, params0, cfg, rng, full):
        handed.append((params0, full))
        return real(fixed_r, moving_r, dist, params0, cfg, rng, full)

    monkeypatch.setattr(optimizer, "optimize_level", spy)
    optimizer.register(fixed, moving, sampler_kind="urs", rate=0.01,
                       cfg=OptimizerConfig(max_iters=1))
    np.testing.assert_array_equal(handed[0][0].center, fixed.center_mm)
    # every level takes its bin ranges and rotation scale from the full-resolution pair
    assert len(handed) == 4
    assert all(full[0] is fixed and full[1] is moving for _, full in handed)


def test_register_refuses_a_pair_other_than_the_prepared_one(pair32):
    # a copy holds the same voxels but is not the volume the pyramids hold
    fixed, moving, _ = pair32
    prepared = optimizer.prepare(fixed, moving)
    for volumes in ((copy.copy(fixed), moving), (fixed, copy.copy(moving))):
        with pytest.raises(ValueError, match="not built from this fixed/moving pair"):
            optimizer.register(*volumes, sampler_kind="urs", prepared=prepared)


def test_register_recovers_translation(pair32):
    fixed, _, _ = pair32
    gold = transform.RigidParams(t=(4.0, 0, 0), center=fixed.center_mm)
    moving, gold = bench.make_moving(fixed, gold, seed=11)
    prepared = optimizer.prepare(fixed, moving)
    result = optimizer.register(
        fixed, moving, sampler_kind="urs", rate=0.02,
        cfg=SUITE_CFG, seed=5, prepared=prepared,
    )
    probes = training.default_probe_points(fixed)
    tre = np.linalg.norm(
        transform.apply_many(result.final_params, probes)
        - transform.apply_many(gold, probes),
        axis=1,
    )
    assert tre.max() <= 1.0


def test_register_self_is_stable(phantom32):
    result = optimizer.register(
        phantom32, phantom32, sampler_kind="urs", rate=0.02,
        cfg=SUITE_CFG, seed=6,
    )
    gold = transform.RigidParams.identity(phantom32.center_mm)
    probes = training.default_probe_points(phantom32)
    tre = np.linalg.norm(
        transform.apply_many(result.final_params, probes)
        - transform.apply_many(gold, probes),
        axis=1,
    )
    assert tre.max() <= 0.5


def test_register_runs_levels_coarse_to_fine(pair32):
    fixed, moving, _ = pair32
    result = optimizer.register(
        fixed, moving, sampler_kind="urs", rate=0.01,
        cfg=OptimizerConfig(max_iters=3), seed=0,
    )
    assert [lv["level"] for lv in result.levels] == [4, 3, 2, 1]
    for lv in result.levels:
        assert lv["iterations"] == 3
        assert lv["seed_path"] == [0, 11, lv["level"]]


def test_register_stop_level_truncates_cascade(pair32):
    fixed, moving, _ = pair32
    result = optimizer.register(
        fixed, moving, sampler_kind="urs", rate=0.01,
        cfg=OptimizerConfig(max_iters=2), seed=0, stop_level=3,
    )
    assert [lv["level"] for lv in result.levels] == [4, 3]


def test_register_mixed_uses_betas_and_reports(pair32):
    fixed, moving, _ = pair32
    betas = {1: 0.1, 2: 0.2, 3: 0.3, 4: 0.4}
    result = optimizer.register(
        fixed, moving, sampler_kind="mixed", betas=betas, rate=0.01,
        cfg=OptimizerConfig(max_iters=2), seed=1,
    )
    assert result.betas == betas
    assert result.sampler_kind == "mixed"
    doc = result.to_dict()
    assert doc["rng_algorithm"] == "numpy.random.Philox"
    assert doc["final"]["t_mm"] is not None
    assert "elapsed_s" in doc


@pytest.mark.parametrize("betas", [
    {4: 0.5, 3: 0.5, 2: 0.5, 1: 1.5},
    {4: -0.1, 3: 0.5, 2: 0.5, 1: 0.5},
    {4: 0.5, 3: float("nan"), 2: 0.5, 1: 0.5},
])
def test_register_checks_every_mixed_weight_before_running_a_level(pair32, monkeypatch, betas):
    fixed, moving, _ = pair32

    def spy(*args, **kwargs):
        raise AssertionError("a level ran")

    monkeypatch.setattr(optimizer, "optimize_level", spy)
    bad = [r for r, beta in betas.items() if not 0.0 <= beta <= 1.0]
    with pytest.raises(ValueError, match=rf"needs a beta in \[0, 1\] for levels \{bad}"):
        optimizer.register(fixed, moving, sampler_kind="mixed", betas=betas, rate=0.01)


def test_register_seed_determinism(pair32):
    fixed, moving, _ = pair32
    kwargs = dict(
        sampler_kind="urs", rate=0.01, cfg=OptimizerConfig(max_iters=4), seed=3
    )
    a = optimizer.register(fixed, moving, **kwargs)
    b = optimizer.register(fixed, moving, **kwargs)
    np.testing.assert_array_equal(
        a.final_params.as_vector(), b.final_params.as_vector()
    )
    assert [lv["trace"] for lv in a.levels] == [lv["trace"] for lv in b.levels]


def test_register_gms_falls_back_on_flat_gradient(phantom32):
    flat = Volume(
        data=np.full(phantom32.dims, 5.0),
        spacing=phantom32.spacing,
        origin=phantom32.origin,
    )
    result = optimizer.register(
        phantom32, flat, sampler_kind="gms", rate=0.01,
        cfg=OptimizerConfig(max_iters=1), seed=0,
    )
    assert any("uniform fallback" in note for note in result.notes)
    assert all(lv["sampler_kind"] == "urs" for lv in result.levels)


def dot_volume(like):
    """One bright voxel on a flat grid: gradient-positive on a few voxels only."""
    data = np.zeros(like.dims)
    data[16, 16, 16] = 100.0
    return Volume(data=data, spacing=like.spacing, origin=like.origin)


@pytest.mark.parametrize("kind", ["gms", "mixed"])
def test_register_falls_back_where_gradient_support_is_below_budget(phantom32, kind):
    # rate 0.01 of 32^3 asks for 328 samples; level 1's gradient covers 6 voxels
    result = optimizer.register(
        phantom32, dot_volume(phantom32), sampler_kind=kind,
        betas={r: 0.5 for r in range(1, 5)}, rate=0.01,
        cfg=OptimizerConfig(max_iters=1), seed=0,
    )
    assert "level 1: gradient support below budget, uniform fallback" in result.notes
    for lv in result.levels:
        noted = f"level {lv['level']}: gradient support below budget, uniform fallback"
        assert lv["sampler_kind"] == ("urs" if noted in result.notes else kind)


def test_register_raises_outside_overlap(phantom32):
    far = Volume(
        data=phantom32.data,
        spacing=phantom32.spacing,
        origin=phantom32.origin + 500.0,
    )
    with pytest.raises(InitializationOutsideOverlapError):
        optimizer.register(
            phantom32, far, sampler_kind="urs", rate=0.01,
            cfg=OptimizerConfig(max_iters=2), seed=0,
        )


def test_failed_register_starts_no_thread(phantom32):
    """A registration runs on the calling thread alone, and a failed one
    leaves no thread behind."""
    far = Volume(
        data=phantom32.data,
        spacing=phantom32.spacing,
        origin=phantom32.origin + 500.0,
    )
    before = threading.active_count()
    with pytest.raises(InitializationOutsideOverlapError, match="level 4"):
        optimizer.register(
            phantom32, far, sampler_kind="mixed", betas={r: 0.5 for r in range(1, 5)},
            rate=0.01, cfg=OptimizerConfig(max_iters=50), seed=0,
        )
    assert threading.active_count() == before


def in_line_cascade(fixed, moving, kind, rate, cfg, seed, betas=None):
    """The cascade run level by level through optimize_level, drawing in line."""
    prepared = optimizer.prepare(fixed, moving)
    m = sampler.budget(rate, fixed.num_voxels)
    params = transform.RigidParams.identity(fixed.center_mm)
    levels = []
    for r in range(prepared.num_levels, 0, -1):
        dist, _ = sampler.build(
            kind, prepared.fixed_pyramid.level(r).num_voxels, m,
            prepared.gradient_sources[r - 1], (betas or {}).get(r), level=r,
        )
        params, trace = optimizer.optimize_level(
            prepared.fixed_pyramid.level(r), prepared.moving_pyramid.level(r),
            dist, params, cfg, make_rng(seed, optimizer._LEVEL_STREAM, r), (fixed, moving),
        )
        levels.append((params.to_dict(), trace))
    return levels


def assert_same_levels(result, reference):
    assert [(lv["params"], {"termination": lv["termination"], "rows": lv["trace"]})
            for lv in result.levels] == reference


# A short budget with a high radius floor, so levels stop before their budget.
EARLY_STOP_CFG = OptimizerConfig(max_iters=6, initial_radius=1.0, min_radius=0.3)


@pytest.mark.parametrize("kind", sampler.KINDS)
def test_register_is_the_level_by_level_cascade(pair32, kind):
    fixed, moving, _ = pair32
    betas = {r: 0.3 for r in range(1, 5)}
    reference = in_line_cascade(fixed, moving, kind, 0.01, EARLY_STOP_CFG, 6, betas)
    assert any(trace["termination"] != "budget" for _, trace in reference)
    result = optimizer.register(
        fixed, moving, sampler_kind=kind, betas=betas, rate=0.01,
        cfg=EARLY_STOP_CFG, seed=6,
    )
    assert_same_levels(result, reference)


@pytest.mark.parametrize("kind", sampler.KINDS)
def test_a_levels_generator_feeds_its_draws_and_nothing_else(pair32, monkeypatch, kind):
    """Nothing but a level's draws reads its generator: making all of the
    level's draws before its first iteration changes no bit of the result."""
    fixed, moving, _ = pair32
    betas = {r: 0.3 for r in range(1, 5)}
    reference = in_line_cascade(fixed, moving, kind, 0.01, EARLY_STOP_CFG, 6, betas)
    real = sampler.draw
    queued = {}

    def ahead(dist, rng):
        if dist.level not in queued:  # the level's first draw: make all of them
            queued[dist.level] = [real(dist, rng) for _ in range(EARLY_STOP_CFG.max_iters)]
        # past the queue (only after an empty draw), draw in line
        return queued[dist.level].pop(0) if queued[dist.level] else real(dist, rng)

    monkeypatch.setattr(sampler, "draw", ahead)
    result = optimizer.register(
        fixed, moving, sampler_kind=kind, betas=betas, rate=0.01,
        cfg=EARLY_STOP_CFG, seed=6,
    )
    assert sorted(queued) == [1, 2, 3, 4]
    assert_same_levels(result, reference)


@pytest.mark.parametrize("kind", sampler.KINDS)
def test_a_level_resumed_from_its_start_keeps_the_in_line_draws(pair32, kind):
    fixed, moving, _ = pair32
    betas = {r: 0.3 for r in range(1, 5)}
    run = dict(sampler_kind=kind, betas=betas, rate=0.01, cfg=EARLY_STOP_CFG, seed=8)
    reference = in_line_cascade(fixed, moving, kind, 0.01, EARLY_STOP_CFG, 8, betas)
    prepared = optimizer.prepare(fixed, moving)
    coarse = optimizer.register(fixed, moving, stop_level=2, prepared=prepared, **run)
    assert_same_levels(coarse, reference[:-1])
    finest = optimizer.register(
        fixed, moving, num_levels=1, stop_level=1, prepared=prepared,
        init=coarse.final_params, **run,
    )
    assert [lv["level"] for lv in finest.levels] == [1]
    assert_same_levels(finest, reference[-1:])


def test_register_escape_fractions_are_consistent(pair32):
    fixed, moving, _ = pair32
    result = optimizer.register(
        fixed, moving, sampler_kind="urs", rate=0.01,
        cfg=OptimizerConfig(max_iters=3), seed=2,
    )
    fracs = [
        row["escaped"] / row["sample_size"]
        for lv in result.levels
        for row in lv["trace"]
    ]
    assert result.escaped_fraction_mean == pytest.approx(np.mean(fracs))
    assert result.escaped_fraction_max == pytest.approx(np.max(fracs))
    assert isinstance(result, RegistrationResult)


def test_register_converges_at_low_rate_with_defaults():
    # 0.05% of a 64-cube is ~131 samples per draw; the default histogram
    # must be coarse enough for that budget to carry an alignment signal
    pair = manifest64_pair(2)
    identity = transform.RigidParams.identity(pair.fixed.center_mm)
    start = bench.evaluate_case(identity, pair.gold, pair.probe_points).max_tre
    assert start == pytest.approx(8.86, abs=0.01)
    prepared = optimizer.prepare(pair.fixed, pair.moving)
    for kind in ("urs", "gms", "mixed"):
        betas = {r: 0.5 for r in range(1, 5)} if kind == "mixed" else None
        tres = []
        for seed in range(5):
            result = optimizer.register(
                pair.fixed, pair.moving, sampler_kind=kind, betas=betas,
                rate=0.0005, seed=seed, prepared=prepared,
            )
            tres.append(bench.evaluate_case(
                result.final_params, pair.gold, pair.probe_points
            ).max_tre)
        assert np.median(tres) < 0.5 * start, (kind, tres)


def test_converged_finest_level_stops_as_stationary():
    # at 1% the finest level converges within a few iterations and then
    # accepts nearly every noise step, so its radius never reaches the floor
    pair = manifest64_pair(0)
    result = optimizer.register(
        pair.fixed, pair.moving, sampler_kind="urs", rate=0.01,
        cfg=SUITE_CFG, seed=1, prepared=optimizer.prepare(pair.fixed, pair.moving),
    )
    finest = result.levels[-1]
    assert finest["termination"] == "stationary"
    assert finest["iterations"] < SUITE_CFG.max_iters // 2
    assert all(lv["termination"] != "budget" for lv in result.levels)
    tre = bench.evaluate_case(result.final_params, pair.gold, pair.probe_points).max_tre
    assert tre <= 1.0


def test_empty_draws_raise_empty_draw_error_naming_the_cause(phantom32, monkeypatch):
    draws = []

    def empty(dist, rng):
        draws.append(dist.expected_count)
        return np.empty(0, dtype=np.int64)

    monkeypatch.setattr(sampler, "draw", empty)
    with pytest.raises(EmptyDrawError) as exc:
        optimizer.register(
            phantom32, phantom32, sampler_kind="urs", rate=0.01,
            cfg=OptimizerConfig(max_iters=5), seed=0,
        )
    # the coarsest level gives up on its first iteration, after 101 draws
    assert len(draws) >= 101 and draws[0] == round(0.01 * phantom32.num_voxels)
    assert str(exc.value) == (
        f"level 4: iteration 0: 101 draws in a row selected no voxel "
        f"(expected count {draws[0]:.3g} a draw)"
    )
    assert not isinstance(exc.value, InitializationOutsideOverlapError)


def array_records():
    """One of each frozen record that holds numpy arrays."""
    fixed = Volume(make_rng(3).random((8, 8, 8)), spacing=(1, 1, 1))
    prepared = optimizer.prepare(fixed, fixed, num_levels=2)
    params, idx = transform.RigidParams(center=fixed.center_mm), np.arange(0, 512, 7)
    return {
        "Volume": fixed,
        "Pyramid": prepared.fixed_pyramid,
        "SamplingDistribution": sampler.build_urs(fixed.num_voxels, 10.0),
        "JointHistogram": similarity.accumulate(fixed, fixed, params, idx, 8, 1),
        "MetricEvaluation": similarity.evaluate(fixed, fixed, params, idx, 8, 1),
        "RigidParams": transform.RigidParams(t=(1.0, 2.0, 3.0)),
        "PreparedPair": prepared,
        "TrainingPair": training.TrainingPair(fixed, fixed, transform.RigidParams()),
    }


@pytest.mark.parametrize("name", list(array_records()))
def test_array_holding_records_compare_without_raising(name):
    x = array_records()[name]
    assert x == x
    assert isinstance(x == copy.deepcopy(x), bool)
