"""Phantom generation, case scoring, sweep bookkeeping and CSV contracts.

A stub's call log only sees runs made in the test's own process, so sweep
tests that read one pin a single CPU with ``use_cpus``.
"""

import csv
import dataclasses
import json
import math
import multiprocessing
import os

import numpy as np
import pytest

from test_training import use_cpus

from sampreg import bench, optimizer, sampler, volume
from sampreg.rng import make_rng
from sampreg.training import TrainingPair
from sampreg.transform import RigidParams
from sampreg.volume import Volume


# ---------------------------------------------------------------------------
# Phantom
# ---------------------------------------------------------------------------


def test_phantom_shape_and_spacing(phantom32):
    assert phantom32.dims == (32, 32, 32)
    np.testing.assert_array_equal(phantom32.spacing, [1, 1, 1])
    np.testing.assert_array_equal(phantom32.origin, [0, 0, 0])


def test_phantom_is_seed_deterministic():
    a = bench.make_phantom(32, seed=5)
    b = bench.make_phantom(32, seed=5)
    np.testing.assert_array_equal(a.data, b.data)
    c = bench.make_phantom(32, seed=6)
    assert not np.array_equal(a.data, c.data)


def test_phantom_has_shapes_shell_and_texture(phantom32):
    # bright boundary shell plus several distinct interior intensities
    assert phantom32.intensity_range[1] > 900
    rounded = np.round(phantom32.data / 50) * 50
    assert len(np.unique(rounded)) > 6
    # smoothed noise: voxels within one structure are not all identical
    assert np.std(phantom32.data) > 1.0


def test_phantom_rejects_small_sizes():
    with pytest.raises(ValueError):
        bench.make_phantom(16, seed=0)


def test_random_rigid_respects_bounds(phantom32):
    for k in range(50):
        params = bench.random_rigid(
            phantom32, make_rng(81, k), max_translation_mm=10.0,
            max_rotation_rad=0.1,
        )
        assert np.linalg.norm(params.t) <= 10.0 + 1e-12
        assert np.all(np.abs(params.r) <= 0.1 + 1e-12)
        np.testing.assert_allclose(params.center, phantom32.center_mm)


# ---------------------------------------------------------------------------
# Moving image synthesis
# ---------------------------------------------------------------------------


def test_make_moving_identity_is_exact_copy(phantom32):
    ident = RigidParams.identity(phantom32.center_mm)
    moving, gold = bench.make_moving(phantom32, ident, gamma=1.0)
    np.testing.assert_allclose(moving.data, phantom32.data, atol=1e-4)
    assert gold is ident


def test_make_moving_integer_translation_shifts_grid(phantom32):
    star = RigidParams(t=(2.0, 0, 0), center=phantom32.center_mm)
    moving, _ = bench.make_moving(phantom32, star, gamma=1.0)
    # moving(x) = fixed(x - 2): interior voxels shift right by two
    np.testing.assert_allclose(
        moving.data[4:28, 4:28, 4:28],
        phantom32.data[2:26, 4:28, 4:28],
        atol=1e-3,
    )


def test_make_moving_gamma_keeps_range_and_order(phantom32):
    star = RigidParams(t=(1.0, 0, 0), center=phantom32.center_mm)
    plain, _ = bench.make_moving(phantom32, star, gamma=1.0)
    curved, _ = bench.make_moving(phantom32, star, gamma=0.7)
    lo, hi = phantom32.intensity_range
    assert curved.data.min() >= lo - 1e-6
    assert curved.data.max() <= hi + 1e-6
    # the curve is monotone: ordering of two probe voxels is preserved
    flat_p = plain.flat_values()
    flat_c = curved.flat_values()
    a, b = 20000, 22000
    if flat_p[a] != flat_p[b]:
        assert (flat_p[a] < flat_p[b]) == (flat_c[a] < flat_c[b])


def test_make_moving_noise_is_calibrated_and_seeded(phantom32):
    star = RigidParams(t=(1.0, 0, 0), center=phantom32.center_mm)
    clean, _ = bench.make_moving(phantom32, star, gamma=1.0)
    noisy, _ = bench.make_moving(
        phantom32, star, gamma=1.0, noise_sd=0.05, seed=4
    )
    span = phantom32.intensity_range[1] - phantom32.intensity_range[0]
    resid = noisy.data.astype(np.float64) - clean.data
    assert abs(resid.std() - 0.05 * span) <= 0.005 * span
    again, _ = bench.make_moving(
        phantom32, star, gamma=1.0, noise_sd=0.05, seed=4
    )
    np.testing.assert_array_equal(noisy.data, again.data)


def test_make_moving_rejects_oversized_transforms(phantom32):
    with pytest.raises(ValueError):
        bench.make_moving(
            phantom32, RigidParams(t=(25.0, 0, 0), center=phantom32.center_mm)
        )
    with pytest.raises(ValueError, match="overlap"):
        bench.make_moving(
            phantom32, RigidParams(t=(18.0, 0, 0), center=phantom32.center_mm)
        )


# ---------------------------------------------------------------------------
# Case scoring
# ---------------------------------------------------------------------------


def probe_square():
    return np.array([[0.0, 0, 0], [10, 0, 0], [0, 10, 0], [0, 0, 10]])


def test_evaluate_case_exact_match_has_zero_tre():
    gold = RigidParams(t=(1, 2, 3))
    out = bench.evaluate_case(gold, gold, probe_square(), pair_id="p")
    assert out.tre_per_point == (0.0, 0.0, 0.0, 0.0)
    assert not out.failed
    assert out.max_tre == 0.0


def test_evaluate_case_translation_offset():
    gold = RigidParams()
    est = RigidParams(t=(3.0, 0, 0))
    out = bench.evaluate_case(est, gold, probe_square())
    assert out.mean_tre == pytest.approx(3.0)
    assert out.max_tre == pytest.approx(3.0)
    assert not out.failed


def test_evaluate_case_failure_threshold_is_strict():
    gold = RigidParams()
    at = bench.evaluate_case(RigidParams(t=(10.0, 0, 0)), gold, probe_square())
    assert not at.failed  # exactly at the threshold is not a failure
    over = bench.evaluate_case(RigidParams(t=(10.1, 0, 0)), gold, probe_square())
    assert over.failed
    custom = bench.evaluate_case(
        RigidParams(t=(3.0, 0, 0)), gold, probe_square(), threshold_mm=2.0
    )
    assert custom.failed


def test_trimmed_mtre_ignores_failures():
    gold = RigidParams()
    good1 = bench.evaluate_case(RigidParams(t=(1.0, 0, 0)), gold, probe_square())
    good2 = bench.evaluate_case(RigidParams(t=(2.0, 0, 0)), gold, probe_square())
    bad = bench.evaluate_case(RigidParams(t=(12.0, 0, 0)), gold, probe_square())
    assert bench.trimmed_mtre([good1, good2, bad]) == pytest.approx(1.5)
    assert bench.trimmed_mtre([bad]) is None


# ---------------------------------------------------------------------------
# Sweep
# ---------------------------------------------------------------------------


def stub_pairs():
    rng = make_rng(90)
    fixed = Volume(data=rng.random((12, 12, 12)) * 100, spacing=(1, 1, 1))
    moving = Volume(data=rng.random((12, 12, 12)) * 100, spacing=(1, 1, 1))
    gold = RigidParams(t=(1.0, 0, 0), center=fixed.center_mm)
    return [
        ("pair0", TrainingPair(fixed=fixed, moving=moving, gold=gold)),
        ("pair1", TrainingPair(fixed=fixed, moving=moving, gold=gold)),
    ]


class StubResult:
    def __init__(self, params):
        self.final_params = params


def test_sweep_counts_and_common_seeds(monkeypatch):
    pairs = stub_pairs()
    center = pairs[0][1].fixed.center_mm
    calls = []
    histograms = set()

    def stub(fixed, moving, sampler_kind="urs", betas=None, rate=0.01,
             cfg=None, seed=0, num_levels=4, stop_level=1, prepared=None):
        calls.append((sampler_kind, rate, seed))
        histograms.add((cfg.num_bins, cfg.kernel_radius))
        return StubResult(RigidParams(t=(1.0, 0, 0), center=center))

    use_cpus(monkeypatch, 1)
    monkeypatch.setattr(optimizer, "register", stub)
    out = bench.sweep(
        pairs, ["urs", "gms"], [0.001, 0.01], trials=3, seed=5,
        cfg=optimizer.OptimizerConfig(num_bins=24, kernel_radius=3),
    )
    assert histograms == {(24, 3)}
    assert len(out["outcomes"]) == 2 * 2 * 2 * 3
    assert len(out["aggregates"]) == 2 * 2
    # common random numbers: same trial seeds for every sampler and rate
    seeds_by_group = {}
    for kind, rate, seed in calls:
        seeds_by_group.setdefault((kind, rate), []).append(seed)
    groups = list(seeds_by_group.values())
    assert all(g == groups[0] for g in groups)
    assert all(not o.failed for o in out["outcomes"])
    assert all(o.mean_tre == pytest.approx(0.0) for o in out["outcomes"])


def test_sweep_records_raised_cases_as_failures(monkeypatch):
    pairs = stub_pairs()

    def stub(*args, **kwargs):
        raise optimizer.InitializationOutsideOverlapError("boom")

    use_cpus(monkeypatch, 1)
    monkeypatch.setattr(optimizer, "register", stub)
    out = bench.sweep(pairs, ["urs"], [0.001], trials=2, seed=1)
    assert len(out["outcomes"]) == 2 * 1 * 1 * 2
    assert all(o.failed for o in out["outcomes"])
    assert all(math.isinf(o.max_tre) for o in out["outcomes"])
    assert all(o.error == "InitializationOutsideOverlapError: boom"
               for o in out["outcomes"])
    assert out["aggregates"][0]["failure_rate"] == 1.0
    assert out["aggregates"][0]["trimmed_mtre_mm"] is None


def test_sweep_propagates_programming_errors(monkeypatch):
    def stub(*args, **kwargs):
        raise TypeError("register() got an unexpected keyword argument")

    use_cpus(monkeypatch, 1)
    monkeypatch.setattr(optimizer, "register", stub)
    with pytest.raises(TypeError, match="unexpected keyword"):
        bench.sweep(stub_pairs(), ["urs"], [0.001], trials=1, seed=1)


@pytest.mark.parametrize("kind, rate, betas, match", [
    ("foo", 0.01, None, "unknown sampler kind 'foo'"),
    ("urs", 0.0, None, "rate must be in"),
    ("urs", 2.0, None, "rate must be in"),
    ("mixed", 0.01, {1: 1.5, 2: 0.5, 3: 0.5, 4: 0.5}, r"beta in \[0, 1\] for levels \[1\]"),
])
def test_sweep_raises_caller_errors_instead_of_scoring_failures(kind, rate, betas, match):
    with pytest.raises(ValueError, match=match):
        bench.sweep(stub_pairs(), [kind], [rate], trials=1, betas=betas)


@pytest.mark.parametrize("cpus", [1, 2])
def test_sweep_propagates_a_plain_value_error(monkeypatch, cpus):
    def stub(*args, **kwargs):
        raise ValueError("a caller error, not a failed registration")

    use_cpus(monkeypatch, cpus)
    monkeypatch.setattr(optimizer, "register", stub)
    with pytest.raises(ValueError, match="a caller error"):
        bench.sweep(stub_pairs(), ["urs"], [0.001], trials=2, seed=1)
    assert multiprocessing.active_children() == []


def test_sweep_validates_inputs():
    pairs = stub_pairs()
    with pytest.raises(ValueError):
        bench.sweep(pairs, ["urs"], [0.01], trials=0)
    with pytest.raises(ValueError, match="betas"):
        bench.sweep(pairs, ["mixed"], [0.01], trials=1)


def untimed(outcomes):
    return [dataclasses.replace(o, elapsed_s=0.0) for o in outcomes]


def logging_register(monkeypatch, log):
    """Wrap registration to note which process made each run."""
    real = optimizer.register

    def logged(*args, **kwargs):
        with open(log, "a") as f:
            f.write(f"{os.getpid()}\n")
        return real(*args, **kwargs)

    monkeypatch.setattr(optimizer, "register", logged)


def test_sweep_pool_matches_in_process_bit_for_bit(pair32, monkeypatch, tmp_path):
    fixed, moving, gold = pair32
    log = tmp_path / "pids"
    logging_register(monkeypatch, log)
    out, pids = {}, {}
    for cpus in (1, 2):
        use_cpus(monkeypatch, cpus)
        pairs = [(f"pair{i}", TrainingPair(fixed=fixed, moving=moving, gold=gold))
                 for i in range(2)]
        out[cpus] = bench.sweep(
            pairs, ["urs", "mixed"], [0.005, 0.02], trials=2, seed=3,
            cfg=optimizer.OptimizerConfig(max_iters=3), betas={1: 0.3, 2: 0.6, 3: 0.8},
            num_levels=3,
        )
        pids[cpus] = log.read_text().split()
        log.unlink()
    me = str(os.getpid())
    assert pids[1] == [me] * 2 * 2 * 2 * 2
    assert len(pids[2]) == 2 * 2 * 2 * 2
    assert me not in pids[2] and len(set(pids[2])) <= 2
    assert untimed(out[1]["outcomes"]) == untimed(out[2]["outcomes"])
    assert all(o.error is None for o in out[2]["outcomes"])
    drop = lambda rows: [{k: v for k, v in row.items() if k != "median_time_ms"} for row in rows]
    assert drop(out[1]["aggregates"]) == drop(out[2]["aggregates"])


def test_sweep_records_a_worker_engine_error_as_in_process(pair32, monkeypatch, tmp_path):
    fixed, moving, gold = pair32
    # moved 500 mm away, the moving volume leaves no sampled voxel in overlap
    far = Volume(moving.data, spacing=moving.spacing, origin=moving.origin + 500.0)
    log = tmp_path / "pids"
    logging_register(monkeypatch, log)
    errors = {}
    for cpus in (1, 2):
        use_cpus(monkeypatch, cpus)
        pairs = [("pair0", TrainingPair(fixed=fixed, moving=far, gold=gold))]
        out = bench.sweep(pairs, ["urs"], [0.01], trials=2, seed=1, num_levels=2)
        errors[cpus] = [o.error for o in out["outcomes"]]
        assert all(o.failed and math.isinf(o.max_tre) for o in out["outcomes"])
        assert (set(log.read_text().split()) == {str(os.getpid())}) == (cpus == 1)
        log.unlink()
    assert errors[1] == errors[2]
    assert all(e.startswith("InitializationOutsideOverlapError: level 2: iteration 0: ")
               for e in errors[1])


def test_sweep_names_missing_betas_before_preparing_a_pair(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a pair was prepared")

    monkeypatch.setattr(optimizer, "prepare", refuse)
    betas = {1: 0.2, 2: 0.4, 3: 0.6}
    with pytest.raises(ValueError, match=r"needs betas for levels \[4\]"):
        bench.sweep(stub_pairs(), ["urs", "mixed"], [0.01], trials=1, betas=betas)
    with pytest.raises(ValueError, match=r"needs betas for levels \[1, 2\]"):
        bench.sweep(stub_pairs(), ["mixed"], [0.01], trials=1, betas={3: 0.5},
                    num_levels=3)


def test_sweep_worker_error_propagates_and_leaves_no_process(monkeypatch):
    def stub(*args, **kwargs):
        raise RuntimeError("not an engine error")

    use_cpus(monkeypatch, 2)
    monkeypatch.setattr(optimizer, "register", stub)
    with pytest.raises(RuntimeError, match="not an engine error"):
        bench.sweep(stub_pairs(), ["urs"], [0.001], trials=2, seed=1)
    assert multiprocessing.active_children() == []


def test_sweep_prepares_pairs_at_its_own_depth(pair32):
    fixed, moving, gold = pair32
    out = bench.sweep([("pair0", TrainingPair(fixed=fixed, moving=moving, gold=gold))],
                      ["urs"], [0.01], trials=2, seed=2,
                      cfg=optimizer.OptimizerConfig(max_iters=2), num_levels=5)
    # a 4-level pair would refuse num_levels=5 in every case
    assert [o.error for o in out["outcomes"]] == [None, None]


def test_sweep_names_a_pair_it_cannot_prepare():
    pairs = stub_pairs()
    coarse = Volume(data=pairs[1][1].fixed.data, spacing=(2, 2, 2))
    pairs[1] = ("pair1", TrainingPair(fixed=coarse, moving=coarse, gold=pairs[1][1].gold))
    with pytest.raises(ValueError, match="^pair 1: fixed volume must be resampled"):
        bench.sweep(pairs, ["urs"], [0.01], trials=1)


def test_aggregate_arithmetic():
    gold = RigidParams()
    outs = [
        bench.evaluate_case(
            RigidParams(t=(d, 0, 0)), gold, probe_square(),
            sampler_kind="urs", rate=0.01, elapsed_s=t,
        )
        for d, t in [(1.0, 0.010), (2.0, 0.030), (12.0, 0.020)]
    ]
    rows = bench.aggregate(outs, ["urs"], [0.01])
    assert len(rows) == 1
    row = rows[0]
    assert row["failure_rate"] == pytest.approx(1 / 3)
    assert row["trimmed_mtre_mm"] == pytest.approx(1.5)
    assert row["median_time_ms"] == pytest.approx(20.0)


# ---------------------------------------------------------------------------
# CSV contracts
# ---------------------------------------------------------------------------


def sample_outcomes():
    gold = RigidParams()
    ok = bench.evaluate_case(
        RigidParams(t=(0.5, 0, 0)), gold, probe_square(),
        pair_id="p0", sampler_kind="mixed", rate=0.001, trial_seed=11,
        elapsed_s=0.5,
    )
    bad = bench.evaluate_case(
        RigidParams(t=(11.0, 0, 0)), gold, probe_square(),
        pair_id="p0", sampler_kind="urs", rate=0.001, trial_seed=11,
        elapsed_s=0.25,
    )
    return [ok, bad]


def test_cases_csv_layout(tmp_path):
    path = tmp_path / "cases.csv"
    betas = {1: 0.1, 2: 0.2, 3: 0.3, 4: 0.4}
    bench.write_cases_csv(
        sample_outcomes(), path, num_levels=4, betas=betas,
        config={"seed": 3, "rate": 0.001},
    )
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config: ")
    assert json.loads(lines[0][len("# config: "):]) == {"seed": 3, "rate": 0.001}
    rows = list(csv.reader(lines[1:]))
    assert rows[0] == [
        "pair_id", "sampler",
        "beta_level1", "beta_level2", "beta_level3", "beta_level4",
        "rate", "trial_seed", "success", "mtre_mm", "max_tre_mm", "time_ms",
    ]
    mixed_row = dict(zip(rows[0], rows[1]))
    assert mixed_row["sampler"] == "mixed"
    assert float(mixed_row["beta_level2"]) == 0.2
    assert mixed_row["success"] == "1"
    assert float(mixed_row["mtre_mm"]) == pytest.approx(0.5)
    assert float(mixed_row["time_ms"]) == pytest.approx(500.0)

    urs_row = dict(zip(rows[0], rows[2]))
    assert urs_row["beta_level1"] == ""  # no mixing weight for pure samplers
    assert urs_row["success"] == "0"
    assert urs_row["mtre_mm"] == ""  # failed case carries no trimmed error
    assert float(urs_row["max_tre_mm"]) == pytest.approx(11.0)


def test_aggregate_csv_layout(tmp_path):
    rows = bench.aggregate(sample_outcomes(), ["mixed", "urs"], [0.001])
    path = tmp_path / "agg.csv"
    bench.write_aggregate_csv(rows, path, config={"trials": 1})
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config: ")
    table = list(csv.reader(lines[1:]))
    assert table[0] == [
        "sampler", "rate", "failure_rate", "trimmed_mtre_mm", "median_time_ms"
    ]
    assert len(table) == 3
    urs = dict(zip(table[0], table[2]))
    assert urs["failure_rate"] == "1.0"
    assert urs["trimmed_mtre_mm"] == ""  # every case failed


def test_csv_float_cells_round_trip(tmp_path):
    path = tmp_path / "cases.csv"
    bench.write_cases_csv(
        sample_outcomes(), path, num_levels=4,
        betas={1: 0.1, 2: 0.2, 3: 0.3, 4: 0.4},
    )
    lines = path.read_text().splitlines()
    rows = list(csv.reader(lines))
    header, mixed = rows[0], dict(zip(rows[0], rows[1]))
    assert float(mixed["rate"]) == 0.001  # repr round-trips exactly


# ---------------------------------------------------------------------------
# Masks
# ---------------------------------------------------------------------------


def test_export_mask_writes_binary_volume(tmp_path, phantom32):
    d, _ = sampler.build("urs", phantom32.num_voxels, sampler.budget(0.01, phantom32.num_voxels))
    path = tmp_path / "mask.rvol"
    bench.export_mask(phantom32, d, seed=3, path=path)
    mask = volume.load_volume(path)
    assert mask.dims == phantom32.dims
    vals = np.unique(mask.flat_values())
    assert set(vals.tolist()) <= {0.0, 1.0}
    n_set = int(mask.flat_values().sum())
    expect = 0.01 * phantom32.num_voxels
    assert abs(n_set - expect) <= 4 * np.sqrt(expect)

    again = tmp_path / "mask2.rvol"
    bench.export_mask(phantom32, d, seed=3, path=again)
    np.testing.assert_array_equal(
        volume.load_volume(again).data, mask.data
    )


def test_export_mask_validates_grid(tmp_path, phantom32):
    d = sampler.build_urs(100, 5)
    with pytest.raises(ValueError):
        bench.export_mask(phantom32, d, seed=0, path=tmp_path / "m.rvol")
