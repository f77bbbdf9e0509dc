"""Sampling distribution construction and Bernoulli draw tests."""

import numpy as np
import pytest

from sampreg import sampler
from sampreg.rng import make_rng
from sampreg.sampler import DegenerateGradientError
from sampreg.volume import Volume


def gradient_volume(values):
    """2x2x2 volume whose flat (x-fastest) gradient values start with `values`.

    Remaining voxels are zero, which keeps their GMS probability at 0 and
    leaves the normalization arithmetic identical to a bare vector.
    """
    flat = np.zeros(8)
    flat[: len(values)] = values
    return Volume(data=flat.reshape(2, 2, 2, order="F"), spacing=(1, 1, 1))


# ---------------------------------------------------------------------------
# URS
# ---------------------------------------------------------------------------


def test_urs_equal_probability():
    d = sampler.build_urs(1000, 10)
    np.testing.assert_array_equal(d.probs, 0.01)
    assert d.expected_count == pytest.approx(10.0)
    assert d.kind == "urs"


def test_urs_saturates_at_one():
    d = sampler.build_urs(10, 20)
    np.testing.assert_array_equal(d.probs, 1.0)
    assert d.expected_count == pytest.approx(10.0)


def test_urs_boundary_m_equals_n():
    d = sampler.build_urs(4, 4)
    np.testing.assert_array_equal(d.probs, 1.0)
    assert d.probs.sum() == pytest.approx(4.0)


def test_urs_rejects_bad_counts():
    with pytest.raises(ValueError):
        sampler.build_urs(0, 5)
    with pytest.raises(ValueError):
        sampler.build_urs(10, 0)


# ---------------------------------------------------------------------------
# GMS
# ---------------------------------------------------------------------------


def test_gms_simple_normalization():
    # alpha*1 + alpha*1 + alpha*2 = 2  ->  alpha = 0.5
    d = sampler.build_gms(gradient_volume([1, 1, 2]), 2)
    np.testing.assert_allclose(d.probs[:3], [0.5, 0.5, 1.0], atol=1e-12)
    np.testing.assert_array_equal(d.probs[3:], 0.0)
    assert d.expected_count == pytest.approx(2.0)
    assert d.kind == "gms"


def test_gms_uniform_gradients_reduce_to_urs():
    d = sampler.build_gms(gradient_volume([1, 1, 1, 1]), 2)
    np.testing.assert_allclose(d.probs[:4], 0.5, atol=1e-12)


def test_gms_clipping_resolves_iteratively():
    # 5*alpha clips at 1; remaining mass 1.5 over gradients (1, 1) -> 0.75
    d = sampler.build_gms(gradient_volume([5, 1, 1]), 2.5)
    np.testing.assert_allclose(d.probs[:3], [1.0, 0.75, 0.75], atol=1e-12)
    assert d.expected_count == pytest.approx(2.5)


def test_gms_zero_gradient_voxels_unreachable():
    d = sampler.build_gms(gradient_volume([1, 0, 3]), 1)
    assert d.probs[1] == 0.0
    assert d.probs[0] > 0 and d.probs[2] > 0


def test_gms_all_zero_field_is_degenerate():
    with pytest.raises(DegenerateGradientError):
        sampler.build_gms(gradient_volume([]), 2)


def test_gms_proportionality_where_unclipped():
    rng = make_rng(31)
    g = Volume(data=rng.random((6, 6, 6)) + 0.1, spacing=(1, 1, 1))
    d = sampler.build_gms(g, 20)
    flat = g.flat_values().astype(np.float64)
    free = d.probs < 1.0
    ratio = d.probs[free] / flat[free]
    np.testing.assert_allclose(ratio, ratio[0], rtol=1e-9)


def test_gms_sum_invariant_under_heavy_clipping():
    rng = make_rng(32)
    vals = rng.random(27 * 8).reshape(6, 6, 6)[:4, :4, :4] ** 4 + 1e-3
    g = Volume(data=vals, spacing=(1, 1, 1))
    for m in (1, 7, 31, 60, 64, 100):
        d = sampler.build_gms(g, m)
        want = min(m, g.num_voxels)
        assert abs(d.probs.sum() - want) <= 1e-6 * want
        assert d.probs.min() >= 0.0 and d.probs.max() <= 1.0


# ---------------------------------------------------------------------------
# Mixture
# ---------------------------------------------------------------------------


def mixture_pair(m=20.0):
    rng = make_rng(33)
    g = Volume(data=rng.random((5, 5, 5)) + 0.05, spacing=(1, 1, 1))
    q = sampler.build_gms(g, m, level=2)
    u = sampler.build_urs(g.num_voxels, m, level=2)
    return u, q


def test_mixed_beta_zero_is_gms():
    u, q = mixture_pair()
    d = sampler.build_mixed(u, q, 0.0)
    np.testing.assert_array_equal(d.probs, q.probs)


def test_mixed_beta_one_is_urs():
    u, q = mixture_pair()
    d = sampler.build_mixed(u, q, 1.0)
    np.testing.assert_array_equal(d.probs, u.probs)


def test_mixed_hand_value():
    u = sampler.SamplingDistribution(
        probs=np.array([0.5, 0.5]), expected_count=1.0, kind="urs", level=1
    )
    q = sampler.SamplingDistribution(
        probs=np.array([0.9, 0.1]), expected_count=1.0, kind="gms", level=1
    )
    d = sampler.build_mixed(u, q, 0.2)
    np.testing.assert_allclose(d.probs, [0.82, 0.18], atol=1e-12)
    assert d.beta == 0.2


def test_mixed_is_linear_in_beta():
    u, q = mixture_pair()
    lo = sampler.build_mixed(u, q, 0.0).probs
    hi = sampler.build_mixed(u, q, 1.0).probs
    for beta in (0.25, 0.5, 0.7):
        mid = sampler.build_mixed(u, q, beta).probs
        np.testing.assert_allclose(mid, (1 - beta) * lo + beta * hi, atol=1e-12)


def test_mixed_monotone_toward_urs_level():
    u, q = mixture_pair()
    below = q.probs < u.probs
    above = q.probs > u.probs
    prev = q.probs
    for beta in (0.2, 0.5, 0.9):
        cur = sampler.build_mixed(u, q, beta).probs
        assert np.all(cur[below] >= prev[below] - 1e-15)
        assert np.all(cur[above] <= prev[above] + 1e-15)
        prev = cur


def test_mixed_preserves_expected_count():
    u, q = mixture_pair()
    d = sampler.build_mixed(u, q, 0.37)
    assert d.expected_count == pytest.approx(u.expected_count, rel=1e-9)


def test_mixed_validates_inputs():
    u, q = mixture_pair()
    with pytest.raises(ValueError):
        sampler.build_mixed(q, u, 0.5)  # swapped kinds
    with pytest.raises(ValueError):
        sampler.build_mixed(u, q, 1.5)
    other = sampler.build_urs(10, 2.0, level=2)
    with pytest.raises(ValueError):
        sampler.build_mixed(other, q, 0.5)


# ---------------------------------------------------------------------------
# Draws
# ---------------------------------------------------------------------------


def test_draw_all_ones_selects_everything():
    d = sampler.build_urs(10, 20)
    idx = sampler.draw(d, make_rng(0))
    np.testing.assert_array_equal(idx, np.arange(10))


def test_draw_single_certain_index():
    probs = np.zeros(8)
    probs[3] = 1.0
    d = sampler.SamplingDistribution(probs=probs, expected_count=1.0, kind="urs")
    np.testing.assert_array_equal(sampler.draw(d, make_rng(1)), [3])


def test_draw_same_seed_is_reproducible():
    d = sampler.build_urs(5000, 80)
    a = sampler.draw(d, make_rng(42, 1, 2))
    b = sampler.draw(d, make_rng(42, 1, 2))
    np.testing.assert_array_equal(a, b)
    c = sampler.draw(d, make_rng(43, 1, 2))
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("n", [
    sampler._DRAW_BLOCK - 1, sampler._DRAW_BLOCK, sampler._DRAW_BLOCK + 1, 96 ** 3,
])
def test_blockwise_draw_keeps_the_whole_level_stream(n):
    probs = np.linspace(0.0, 0.01, n)
    d = sampler.SamplingDistribution(probs=probs, expected_count=probs.sum(), kind="gms")
    blockwise, whole = make_rng(9, n), make_rng(9, n)
    for _ in range(2):  # the second draw checks where the stream was left
        expected = np.flatnonzero(whole.random(n) < probs)
        got = sampler.draw(d, blockwise)
        assert got.dtype == expected.dtype
        np.testing.assert_array_equal(got, expected)


def test_draw_returns_sorted_unique_indices():
    d = sampler.build_urs(2000, 100)
    idx = sampler.draw(d, make_rng(5))
    assert np.all(np.diff(idx) > 0)


def test_draw_cardinality_concentrates():
    d = sampler.build_urs(10000, 100)
    counts = [len(sampler.draw(d, make_rng(60, k))) for k in range(200)]
    assert abs(np.mean(counts) - 100) <= 3 * np.sqrt(100)


def test_draw_frequencies_match_probs():
    rng = make_rng(34)
    g = Volume(data=rng.random((4, 4, 4)) + 0.02, spacing=(1, 1, 1))
    q = sampler.build_gms(g, 12, level=1)
    u = sampler.build_urs(g.num_voxels, 12, level=1)
    d = sampler.build_mixed(u, q, 0.3)
    hits = np.zeros(d.num_voxels)
    n_draws = 1000
    for k in range(n_draws):
        hits[sampler.draw(d, make_rng(70, k))] += 1
    freq = hits / n_draws
    se = np.sqrt(d.probs * (1 - d.probs) / n_draws)
    assert np.all(np.abs(freq - d.probs) <= 4 * se + 1e-12)


# ---------------------------------------------------------------------------
# Mixing-weight files
# ---------------------------------------------------------------------------


def test_betas_round_trip(tmp_path):
    betas = {4: 0.35, 3: 0.2, 2: 0.1, 1: 0.05}
    path = tmp_path / "betas.json"
    sampler.save_betas(betas, path)
    assert sampler.load_betas(path) == betas


def test_betas_file_layout(tmp_path):
    import json

    path = tmp_path / "betas.json"
    sampler.save_betas({1: 0.5, 2: 0.25}, path, extra={"note": "x"})
    doc = json.loads(path.read_text())
    assert {"r": 1, "beta": 0.5} in doc["levels"]
    assert doc["note"] == "x"


def test_betas_extra_cannot_shadow_levels(tmp_path):
    with pytest.raises(ValueError):
        sampler.save_betas({1: 0.5}, tmp_path / "x.json", extra={"levels": []})


def test_load_betas_rejects_out_of_range(tmp_path):
    import json

    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"levels": [{"r": 1, "beta": 1.5}]}))
    with pytest.raises(ValueError):
        sampler.load_betas(path)
