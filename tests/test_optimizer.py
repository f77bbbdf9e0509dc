"""Trust-region level optimizer and multi-resolution cascade tests."""

import threading
from dataclasses import replace

import numpy as np
import pytest

from sampreg import bench, optimizer, sampler, training, transform
from sampreg.optimizer import (
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
    assert cfg.expand == 2.0
    assert cfg.shrink == 0.25
    assert (cfg.accept_low, cfg.accept_high) == (0.25, 0.75)
    assert cfg.damping == 1e-8
    assert cfg.rotation_scale is None


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(min_radius=2.0, initial_radius=1.0)
    with pytest.raises(ValueError):
        OptimizerConfig(shrink=1.5)
    with pytest.raises(ValueError):
        OptimizerConfig(accept_low=0.8, accept_high=0.2)
    with pytest.raises(ValueError):
        OptimizerConfig(max_iters=-1)


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
    lo, hi = fixed.bounds
    rs = 0.5 * float(np.linalg.norm(hi - lo))
    return fixed, moving, gold, dist, rs


def test_zero_iterations_returns_start(pair32):
    fixed, moving, gold, dist, rs = level_setup(pair32)
    start = transform.RigidParams(t=(1, 1, 1), center=fixed.center_mm)
    cfg = OptimizerConfig(num_bins=16, max_iters=0, rotation_scale=rs)
    params, trace = optimizer.optimize_level(
        fixed, moving, dist, start, cfg, make_rng(0)
    )
    assert params is start
    assert trace["rows"] == []
    assert trace["termination"] == "budget"


def test_level_optimization_improves_alignment(pair32):
    fixed, moving, gold, dist, rs = level_setup(pair32)
    start = gold  # exact start, then nudge 1.5mm off
    start = transform.RigidParams(
        t=gold.t + np.array([1.5, 0, 0]), r=gold.r, center=gold.center
    )
    cfg = OptimizerConfig(
        num_bins=32, max_iters=60, rotation_scale=rs, min_radius=0.02
    )
    params, trace = optimizer.optimize_level(
        fixed, moving, dist, start, cfg, make_rng(1)
    )
    err0 = np.linalg.norm(start.as_vector() - gold.as_vector())
    err1 = np.linalg.norm(params.as_vector() - gold.as_vector())
    assert err1 < 0.4 * err0


def test_accepted_steps_improve_the_shared_draw_value(pair32):
    fixed, moving, gold, dist, rs = level_setup(pair32)
    start = transform.RigidParams(t=(2, -1, 1), center=fixed.center_mm)
    cfg = OptimizerConfig(num_bins=16, max_iters=25, rotation_scale=rs)
    _, trace = optimizer.optimize_level(
        fixed, moving, dist, start, cfg, make_rng(2)
    )
    accepted = [row for row in trace["rows"] if row["accepted"]]
    assert accepted, "expected at least one accepted step"
    for row in accepted:
        assert row["trial_value"] > row["value"]
        assert row["rho"] > 0


def test_trace_rows_record_draw_and_radius(pair32):
    fixed, moving, gold, dist, rs = level_setup(pair32)
    start = transform.RigidParams(t=(1, 0, 0), center=fixed.center_mm)
    cfg = OptimizerConfig(num_bins=16, max_iters=5, rotation_scale=rs)
    _, trace = optimizer.optimize_level(
        fixed, moving, dist, start, cfg, make_rng(3)
    )
    assert len(trace["rows"]) == 5
    for row in trace["rows"]:
        assert row["radius"] > 0
        assert row["sample_size"] > 0
        assert 0 <= row["escaped"] <= row["sample_size"]


def test_radius_collapse_terminates(pair32):
    fixed, moving, gold, dist, rs = level_setup(pair32)
    # at the optimum most proposals fail, so the radius shrinks immediately
    cfg = OptimizerConfig(
        num_bins=16, max_iters=500, initial_radius=1.0, min_radius=0.5,
        rotation_scale=rs,
    )
    _, trace = optimizer.optimize_level(
        fixed, moving, dist, gold, cfg, make_rng(4)
    )
    assert trace["termination"] == "radius"
    assert len(trace["rows"]) < 500


def test_optimize_level_is_seed_deterministic(pair32):
    fixed, moving, gold, dist, rs = level_setup(pair32)
    start = transform.RigidParams(t=(1.5, -1, 0.5), center=fixed.center_mm)
    cfg = OptimizerConfig(num_bins=16, max_iters=15, rotation_scale=rs)
    p1, t1 = optimizer.optimize_level(
        fixed, moving, dist, start, cfg, make_rng(9, 1)
    )
    p2, t2 = optimizer.optimize_level(
        fixed, moving, dist, start, cfg, make_rng(9, 1)
    )
    np.testing.assert_array_equal(p1.as_vector(), p2.as_vector())
    assert t1 == t2


def test_optimize_level_requires_resolved_rotation_scale(pair32):
    fixed, moving, gold, dist, rs = level_setup(pair32)
    with pytest.raises(ValueError):
        optimizer.optimize_level(
            fixed, moving, dist, gold, OptimizerConfig(), make_rng(0)
        )


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
    lo, hi = fixed.bounds
    assert prepared.rotation_scale == pytest.approx(
        0.5 * np.linalg.norm(hi - lo)
    )
    assert prepared.fixed_range == fixed.intensity_range
    assert prepared.moving_range == moving.intensity_range


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


def test_failed_register_leaves_no_draw_worker(phantom32):
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
    assert not [t for t in threading.enumerate() if t.name.startswith("sampreg-draw")]


def in_line_cascade(fixed, moving, kind, rate, cfg, seed, betas=None):
    """The cascade run level by level through optimize_level, drawing in line."""
    prepared = optimizer.prepare(fixed, moving)
    cfg = replace(cfg, rotation_scale=prepared.rotation_scale)
    m = max(1.0, round(rate * prepared.fixed_pyramid.level(1).num_voxels))
    params = transform.RigidParams.identity(prepared.center)
    levels = []
    for r in range(prepared.num_levels, 0, -1):
        dist = optimizer._level_distribution(kind, prepared, r, m, betas, [])
        params, trace = optimizer.optimize_level(
            prepared.fixed_pyramid.level(r), prepared.moving_pyramid.level(r),
            dist, params, cfg, make_rng(seed, optimizer._LEVEL_STREAM, r),
            prepared.fixed_range, prepared.moving_range,
        )
        levels.append((params.to_dict(), trace))
    return levels


def assert_same_levels(result, reference):
    assert [(lv["params"], {"termination": lv["termination"], "rows": lv["trace"]})
            for lv in result.levels] == reference


# A short budget with a high radius floor, so levels stop before their budget
# and leave queued draws unused.
EARLY_STOP_CFG = OptimizerConfig(max_iters=6, initial_radius=1.0, min_radius=0.3)


@pytest.mark.parametrize("kind", sampler.KINDS)
def test_drawing_ahead_is_bit_identical_to_drawing_in_line(pair32, kind):
    fixed, moving, _ = pair32
    betas = {r: 0.3 for r in range(1, 5)}
    reference = in_line_cascade(fixed, moving, kind, 0.01, EARLY_STOP_CFG, 6, betas)
    assert any(trace["termination"] != "budget" for _, trace in reference)
    result = optimizer.register(
        fixed, moving, sampler_kind=kind, betas=betas, rate=0.01,
        cfg=EARLY_STOP_CFG, seed=6,
    )
    assert_same_levels(result, reference)


@pytest.fixture
def draw_threads(monkeypatch):
    """(level, thread name) of every sampler.draw call, in call order."""
    made = []
    real = sampler.draw

    def recording(dist, rng):
        made.append((dist.level, threading.current_thread().name))
        return real(dist, rng)

    monkeypatch.setattr(sampler, "draw", recording)
    return made


def test_levels_draw_in_line_once_the_queued_draws_are_used(pair32, monkeypatch, draw_threads):
    fixed, moving, _ = pair32
    reference = in_line_cascade(fixed, moving, "urs", 0.01, EARLY_STOP_CFG, 7)
    draw_threads.clear()
    monkeypatch.setattr(optimizer, "_AHEAD_INDICES", 1)  # one draw ahead a level
    result = optimizer.register(
        fixed, moving, sampler_kind="urs", rate=0.01, cfg=EARLY_STOP_CFG, seed=7,
    )
    assert_same_levels(result, reference)
    for lv in result.levels:
        made = [name for level, name in draw_threads if level == lv["level"]]
        assert made[0].startswith("sampreg-draw")
        assert made[1:] == ["MainThread"] * (lv["iterations"] - 1)


def test_draws_are_made_ahead_on_one_worker(pair32, draw_threads):
    fixed, moving, _ = pair32
    cfg = OptimizerConfig(max_iters=4)
    result = optimizer.register(fixed, moving, sampler_kind="urs", rate=0.01, cfg=cfg, seed=2)
    assert len({name for _, name in draw_threads}) == 1
    assert draw_threads[0][1].startswith("sampreg-draw")
    for lv in result.levels:
        made = sum(level == lv["level"] for level, _ in draw_threads)
        assert lv["iterations"] <= made <= cfg.max_iters


def test_reused_levels_keep_the_in_line_draws(pair32):
    fixed, moving, _ = pair32
    run = dict(sampler_kind="gms", rate=0.01, cfg=EARLY_STOP_CFG, seed=8)
    reference = in_line_cascade(fixed, moving, "gms", 0.01, EARLY_STOP_CFG, 8)
    prepared = optimizer.prepare(fixed, moving)
    cache = {}
    optimizer.register(fixed, moving, stop_level=2, prepared=prepared, level_cache=cache, **run)
    assert len(cache) == 2
    result = optimizer.register(fixed, moving, prepared=prepared, level_cache=cache, **run)
    assert_same_levels(result, reference)


def test_register_reuses_intermediate_levels(pair32, monkeypatch):
    fixed, moving, _ = pair32
    run = dict(sampler_kind="urs", rate=0.01, cfg=OptimizerConfig(max_iters=3), seed=4)
    fresh = optimizer.register(fixed, moving, **run)
    prepared = optimizer.prepare(fixed, moving)
    cache = {}
    optimizer.register(fixed, moving, stop_level=2, prepared=prepared, level_cache=cache, **run)
    assert len(cache) == 2  # levels 4 and 3; level 2 was the last
    levels_run = []
    real = optimizer.optimize_level

    def counting(fixed_r, *args, **kwargs):
        levels_run.append(fixed_r.dims)
        return real(fixed_r, *args, **kwargs)

    monkeypatch.setattr(optimizer, "optimize_level", counting)
    reused = optimizer.register(fixed, moving, prepared=prepared, level_cache=cache, **run)
    assert levels_run == [prepared.fixed_pyramid.level(r).dims for r in (2, 1)]
    np.testing.assert_array_equal(
        reused.final_params.as_vector(), fresh.final_params.as_vector()
    )
    assert [lv["trace"] for lv in reused.levels] == [lv["trace"] for lv in fresh.levels]
    # a reused trace is the caller's own copy
    reused.levels[0]["trace"].clear()
    again = optimizer.register(fixed, moving, prepared=prepared, level_cache=cache, **run)
    assert again.levels[0]["trace"] == fresh.levels[0]["trace"]
    # another seed draws differently, so nothing is reused
    levels_run.clear()
    optimizer.register(fixed, moving, prepared=prepared, level_cache=cache, **dict(run, seed=5))
    assert len(levels_run) == 4
    # without a cache every call runs every level, on the same prepared pair too
    levels_run.clear()
    optimizer.register(fixed, moving, prepared=prepared, **run)
    optimizer.register(fixed, moving, prepared=prepared, **run)
    assert len(levels_run) == 8


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
    prepared = pair.prepared
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
        cfg=SUITE_CFG, seed=1, prepared=pair.prepared,
    )
    finest = result.levels[-1]
    assert finest["termination"] == "stationary"
    assert finest["iterations"] < SUITE_CFG.max_iters // 2
    assert all(lv["termination"] != "budget" for lv in result.levels)
    tre = bench.evaluate_case(result.final_params, pair.gold, pair.probe_points).max_tre
    assert tre <= 1.0
