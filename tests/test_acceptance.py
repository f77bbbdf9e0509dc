"""Acceptance suite: eleven numbered end-to-end checks, one line printed each.

Every test computes its verdict, records a summary line through the
``criterion`` fixture (shown after the run even under capture), then
asserts.  The 96-cube recovery suite and the 64-cube training manifest are
session fixtures shared by the expensive tests.
"""

import csv
import json
import statistics
import time

import numpy as np
import pytest

from test_optimizer import SUITE_CFG, manifest64_pair
from test_sampler import FREQ_DRAWS, FREQ_FWER, draw_hits, frequency_failures, frequency_grid
from test_similarity import filtered_draw, make_hist, scaled_fd_gradient
from test_training import install_register_stub

from sampreg import bench, cli, optimizer, sampler, similarity, training, transform, volume
from sampreg.rng import make_rng
from sampreg.training import PsoConfig, TrainingPair
from sampreg.volume import Volume, gradient_magnitude

N_TRIALS = 20
BETA_02 = {1: 0.2, 2: 0.2, 3: 0.2, 4: 0.2}


def record(criterion, num, name, ok, detail):
    criterion(f"{num:>2}. {name:<24} {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="session")
def suite96():
    """20 perturbed copies of a 96-cube phantom with bounded gold transforms."""
    t0 = time.perf_counter()
    fixed = bench.make_phantom(96, seed=11)
    corners = training.default_probe_points(fixed)[:8]
    cases = []
    for i in range(N_TRIALS):
        gold = bench.random_rigid(fixed, make_rng(500, i))
        moving, gold = bench.make_moving(fixed, gold, noise_sd=0.02, seed=900 + i)
        cases.append((gold, moving))
    return fixed, corners, cases, time.perf_counter() - t0


@pytest.fixture(scope="session")
def manifest64():
    return [manifest64_pair(i) for i in range(3)]


@pytest.fixture(scope="session")
def trained64(manifest64):
    """Mixture weights learned on the 64-cube manifest at the 0.05% rate."""
    t0 = time.perf_counter()
    pso = PsoConfig(particles=5, iterations=4)
    betas, report = training.train_cascade(manifest64, 2, pso, SUITE_CFG, 0.0005, 0)
    return betas, report, time.perf_counter() - t0


def test_01_gradient_fidelity(criterion, pair32):
    t0 = time.perf_counter()
    fixed, moving, _ = pair32
    lo, hi = fixed.bounds
    rs = 0.5 * float(np.linalg.norm(hi - lo))
    scale = np.array([1.0, 1.0, 1.0, rs, rs, rs])
    rng = make_rng(77)
    passed = checked = attempts = 0
    worst = 0.0
    while checked < 20 and attempts < 200:
        attempts += 1
        params = transform.RigidParams(
            t=rng.uniform(-2, 2, 3), r=rng.uniform(-0.05, 0.05, 3),
            center=fixed.center_mm,
        )
        idx = filtered_draw(fixed, moving, params, rng)
        if idx.size < 50:
            continue
        checked += 1
        # 8 bins keep every histogram cell populated, so the pinned 1e-3
        # step never straddles the probability floor's kink
        ev = similarity.evaluate(fixed, moving, params, idx, num_bins=8)
        fd = scaled_fd_gradient(fixed, moving, params, idx, scale, num_bins=8)
        g = ev.gradient / scale
        config_ok = True
        for k in range(6):
            if abs(g[k]) > 1e-8:
                rel = abs(g[k] - fd[k]) / abs(g[k])
                worst = max(worst, rel)
                config_ok &= rel <= 1e-3
            else:
                config_ok &= abs(g[k] - fd[k]) <= 1e-6
        passed += config_ok
    dt = time.perf_counter() - t0
    ok = checked == 20 and passed == 20 and dt < 60
    record(criterion, 1, "gradient fidelity", ok,
           f"{passed}/{checked} configs within tolerance, worst rel err {worst:.1e}, {dt:.1f}s")


def test_02_sampling_algebra(criterion, phantom32):
    t0 = time.perf_counter()
    g = gradient_magnitude(phantom32)
    n = phantom32.num_voxels
    sums_ok = True
    for rate in (0.0005, 0.01, 0.2, 0.9):
        m = rate * n
        u = sampler.build_urs(n, m)
        q = sampler.build_gms(g, m)
        for d in (u, q, sampler.build_mixed(u, q, 0.3)):
            sums_ok &= abs(d.probs.sum() - min(m, n)) <= 1e-6 * min(m, n)
    m = 0.01 * n
    u = sampler.build_urs(n, m)
    q = sampler.build_gms(g, m)
    endpoints_ok = np.array_equal(
        sampler.build_mixed(u, q, 0.0).probs, q.probs
    ) and np.array_equal(sampler.build_mixed(u, q, 1.0).probs, u.probs)
    # Draw frequencies on a 12-cube: per-voxel exact binomial tails and
    # per-distribution quantile-cell chi-squares, each test at family-wise
    # false-alarm rate FREQ_FWER (see ``frequency_failures``).  With the
    # draw seed 10 replaced by each of 0-29 it flagged none of the sound
    # families, and all 30 of each defective one that
    # ``test_frequency_check_flags_each_defect`` injects.
    us, qs = frequency_grid()
    rng = make_rng(10)
    family = (us, qs, sampler.build_mixed(us, qs, 0.3))
    failures = frequency_failures(
        [(d.probs, draw_hits(d, FREQ_DRAWS, rng)) for d in family], FREQ_DRAWS
    )
    dt = time.perf_counter() - t0
    ok = sums_ok and endpoints_ok and not failures and dt < 60
    record(criterion, 2, "sampling algebra", ok,
           f"endpoints exact, sums within 1e-6, {FREQ_DRAWS} draws each match their "
           f"probabilities at family-wise rate {FREQ_FWER:g} per test, {dt:.1f}s"
           + "".join(f"; {f}" for f in failures))


def test_03_histogram_identities(criterion):
    t0 = time.perf_counter()
    rng = make_rng(31)
    diag = similarity.nmi(make_hist(np.diag(rng.random(16) + 0.05)))
    pf = rng.random(16) + 0.05
    pm = rng.random(16) + 0.05
    prod = similarity.nmi(make_hist(np.outer(pf / pf.sum(), pm / pm.sum()) * 11.0))
    mass_ok = True
    for _ in range(100):
        fixed = Volume(data=rng.random((12, 12, 12)) * 50, spacing=(1, 1, 1))
        moving = Volume(data=rng.random((12, 12, 12)) * 50, spacing=(1, 1, 1))
        params = transform.RigidParams(
            t=rng.uniform(-4, 4, 3), r=rng.uniform(-0.2, 0.2, 3),
            center=fixed.center_mm,
        )
        idx = rng.integers(0, fixed.num_voxels, 300)
        h = similarity.accumulate(fixed, moving, params, idx, num_bins=16)
        mass_ok &= abs(h.total_weight + h.escaped - idx.size) <= 1e-9
    dt = time.perf_counter() - t0
    ok = abs(diag - 2.0) <= 1e-6 and abs(prod - 1.0) <= 1e-6 and mass_ok and dt < 60
    record(criterion, 3, "histogram identities", ok,
           f"diag {diag:.8f}, product {prod:.8f}, mass exact on 100 configs, {dt:.1f}s")


def test_04_recovery_oracle(criterion, suite96):
    fixed, corners, cases, build_s = suite96
    t0 = time.perf_counter()
    max_tres = []
    for i, (gold, moving) in enumerate(cases):
        prepared = optimizer.prepare(fixed, moving)
        res = optimizer.register(
            fixed, moving, sampler_kind="mixed", betas=BETA_02, rate=0.01,
            cfg=SUITE_CFG, seed=4000 + i, prepared=prepared,
        )
        max_tres.append(bench.evaluate_case(res.final_params, gold, corners).max_tre)
    hits = sum(t <= 1.0 for t in max_tres)
    over = sum(t > 10.0 for t in max_tres)
    dt = build_s + time.perf_counter() - t0
    ok = hits >= 18 and over == 0 and dt < 1800
    record(criterion, 4, "recovery oracle", ok,
           f"{hits}/20 within 1mm, {over} failures, worst {max(max_tres):.2f}mm, {dt:.0f}s")


def test_05_low_rate_trend(criterion, suite96, trained64):
    fixed, corners, cases, build_s = suite96
    betas = trained64[0]
    t0 = time.perf_counter()
    fails = {"urs": 0, "gms": 0, "mixed": 0}
    for i, (gold, moving) in enumerate(cases):
        prepared = optimizer.prepare(fixed, moving)
        for kind in fails:
            res = optimizer.register(
                fixed, moving, sampler_kind=kind,
                betas=betas if kind == "mixed" else None,
                rate=0.0005, cfg=SUITE_CFG, seed=4000 + i, prepared=prepared,
            )
            outcome = bench.evaluate_case(res.final_params, gold, corners)
            fails[kind] += outcome.failed
    dt = build_s + time.perf_counter() - t0
    ok = fails["mixed"] <= fails["gms"] and fails["mixed"] <= fails["urs"] and dt < 3600
    record(criterion, 5, "low-rate trend", ok,
           f"failures/20: mixed {fails['mixed']}, gms {fails['gms']}, urs {fails['urs']}, {dt:.0f}s")


def test_06_speed_scaling(criterion, suite96):
    fixed, corners, cases, build_s = suite96
    t0 = time.perf_counter()
    times = {0.01: [], 0.001: []}
    for i, (gold, moving) in enumerate(cases):
        prepared = optimizer.prepare(fixed, moving)
        for rate in times:
            res = optimizer.register(
                fixed, moving, sampler_kind="mixed", betas=BETA_02, rate=rate,
                cfg=SUITE_CFG, seed=4000 + i, prepared=prepared,
            )
            times[rate].append(res.elapsed_s)
    ratio = statistics.median(times[0.001]) / statistics.median(times[0.01])
    dt = build_s + time.perf_counter() - t0
    ok = ratio <= 0.4 and dt < 1800
    record(criterion, 6, "speed scaling", ok,
           f"median {statistics.median(times[0.001]) * 1e3:.0f}ms at 0.1% vs "
           f"{statistics.median(times[0.01]) * 1e3:.0f}ms at 1%, ratio {ratio:.2f}, {dt:.0f}s")


def test_07_pso_quadratic(criterion):
    t0 = time.perf_counter()
    best_x, _, history = training.pso_minimize(lambda b: (b - 0.3) ** 2, PsoConfig(10, 20), 0)
    vals = [row["best_value"] for row in history]
    mono = all(b <= a for a, b in zip(vals, vals[1:]))
    dt = time.perf_counter() - t0
    ok = abs(best_x - 0.3) <= 0.01 and mono and dt < 1
    record(criterion, 7, "pso quadratic", ok,
           f"best_x {best_x:.4f}, gbest non-increasing over {len(vals)} iterations, {dt:.2f}s")


def test_08_etre_arithmetic(criterion, monkeypatch):
    t0 = time.perf_counter()
    rng = make_rng(8)
    pairs = []
    for tx in (1.0, 3.0):
        fixed = Volume(data=rng.random((12, 12, 12)) * 30, spacing=(1, 1, 1))
        moving = Volume(data=rng.random((12, 12, 12)) * 30, spacing=(1, 1, 1))
        gold = transform.RigidParams(t=(tx, 0, 0), r=(0, 0, 0), center=fixed.center_mm)
        pairs.append(TrainingPair(fixed=fixed, moving=moving, gold=gold))
    pts = pairs[0].probe_points
    identity = transform.RigidParams.identity((0.0, 0.0, 0.0))
    zero_exact = training.etre_term(identity, identity, pts) == 0.0
    nine_exact = training.etre_term(pairs[1].gold, identity, pts) == 9.0
    calls = []
    install_register_stub(monkeypatch, calls, lambda seed: identity)
    q = training.objective_Q(4, 0.2, pairs, 3, {}, SUITE_CFG, 0.001, 0, 4)
    # identity estimates leave each probe displaced by the gold translation
    mean_exact = q == (3 * 1.0 + 3 * 9.0) / 6
    dt = time.perf_counter() - t0
    ok = zero_exact and nine_exact and mean_exact and len(calls) == 6 and dt < 1
    record(criterion, 8, "etre arithmetic", ok,
           f"terms 0.0 and 9.0 exact, stubbed mean {q} == 5.0 over 6 calls, {dt:.2f}s")


def test_09_training_end_to_end(criterion, manifest64, trained64):
    betas, report, train_s = trained64
    t0 = time.perf_counter()
    bounds_ok = sorted(betas) == [1, 2, 3, 4] and all(
        0.0 <= b <= 1.0 for b in betas.values()
    )
    named = [(f"pair{i}", p) for i, p in enumerate(manifest64)]
    sw = bench.sweep(named, ["gms", "mixed"], [0.0005], 5,
                     cfg=SUITE_CFG, seed=321, betas=betas)
    fail = {a["sampler"]: a["failure_rate"] for a in sw["aggregates"]}
    dt = train_s + time.perf_counter() - t0
    ok = bounds_ok and fail["mixed"] <= fail["gms"] and dt < 7200
    shown = ",".join(f"{betas[r]:.2f}" for r in sorted(betas))
    record(criterion, 9, "training end-to-end", ok,
           f"betas [{shown}], failure mixed {fail['mixed']:.2f} vs gms {fail['gms']:.2f}, {dt:.0f}s")


def _scrub(obj):
    if isinstance(obj, dict):
        return {k: _scrub(v) for k, v in obj.items() if k != "elapsed_s"}
    if isinstance(obj, list):
        return [_scrub(v) for v in obj]
    return obj


def _canonical_dir(root):
    out = {}
    for p in sorted(root.iterdir()):
        if p.suffix == ".rvol":
            out[p.name] = p.read_bytes()
        elif p.suffix == ".csv":
            lines = p.read_text().splitlines()
            head = [ln for ln in lines if ln.startswith("#")]
            rows = list(csv.DictReader(ln for ln in lines if not ln.startswith("#")))
            for row in rows:
                row.pop("time_ms", None)
                row.pop("median_time_ms", None)
            out[p.name] = (head, rows)
        else:
            out[p.name] = _scrub(json.loads(p.read_text()))
    return out


def _run_cli_suite(root):
    root.mkdir()
    fixed, moving = root / "fixed.rvol", root / "moving.rvol"
    assert cli.main([
        "phantom", "--size", "32", "--seed", "5", "--out", str(fixed),
        "--make-moving", str(moving), "--params", "2,-1,0.5,0.02,0,-0.01",
        "--gold", str(root / "gold.json"),
    ]) == 0
    manifest = root / "manifest.json"
    manifest.write_text(json.dumps(
        [{"fixed": "fixed.rvol", "moving": "moving.rvol", "gold": "gold.json"}]
    ))
    common = ["--levels", "2", "--max-iters", "2", "--rate", "0.01", "--seed", "5"]
    assert cli.main([
        "register", "--fixed", str(fixed), "--moving", str(moving),
        "--sampler", "urs", "--out", str(root / "result.json"), *common,
    ]) == 0
    assert cli.main([
        "train", "--pairs", str(manifest), "--out", str(root / "betas.json"),
        "--report", str(root / "report.json"),
        "--mc", "1", "--particles", "2", "--iters", "1", *common,
    ]) == 0
    assert cli.main([
        "sweep", "--pairs", str(manifest), "--samplers", "urs,mixed",
        "--betas", str(root / "betas.json"), "--rates", "0.01", "--trials", "2",
        "--out", str(root / "cases.csv"), "--aggregate", str(root / "agg.csv"),
        *common,
    ]) == 0
    assert cli.main([
        "mask", "--volume", str(fixed), "--sampler", "gms",
        "--rate", "0.01", "--seed", "5", "--out", str(root / "mask.rvol"),
    ]) == 0


def test_10_reproducibility(criterion, tmp_path):
    t0 = time.perf_counter()
    _run_cli_suite(tmp_path / "a")
    _run_cli_suite(tmp_path / "b")
    a = _canonical_dir(tmp_path / "a")
    b = _canonical_dir(tmp_path / "b")
    dt = time.perf_counter() - t0
    ok = a == b and dt < 600
    record(criterion, 10, "reproducibility", ok,
           f"{len(a)} output files identical after dropping timing fields, {dt:.1f}s")


def test_11_pyramid_anchors(criterion, phantom32):
    t0 = time.perf_counter()
    pyr = volume.build_pyramid(phantom32, 4)
    s1, s4 = pyr.level(1).spacing, pyr.level(4).spacing
    dt = time.perf_counter() - t0
    ok = (np.allclose(s1, 1.0, atol=1e-3) and np.allclose(s4, 4.0, atol=1e-3)
          and dt < 1)
    record(criterion, 11, "pyramid anchors", ok,
           f"level-1 spacing {s1[0]:.4f}mm, level-4 spacing {s4[0]:.4f}mm, {dt:.2f}s")
