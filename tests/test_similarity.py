"""NMI metric tests: kernel values, histogram identities, derivative oracles.

The finite-difference gradient checks perturb the parameters in the scaled
units the optimizer steps in (1 unit = 1mm translation, or a rotation whose
lever arm at the volume's half-diagonal moves points 1mm).  Draws are
restricted to samples whose kernel stencil stays strictly inside the moving
volume with a one-voxel slack and whose fractional offsets keep a 0.01
margin from voxel boundaries, because crossing either boundary within the
stencil introduces higher-derivative seams that dominate the difference
quotient while leaving the analytic first derivative exact.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sampreg import bench, optimizer, similarity, transform
from sampreg.rng import make_rng
from sampreg.similarity import DegenerateHistogramError, JointHistogram
from sampreg.volume import Volume


def interior_indices(v, margin=4):
    flat = np.arange(v.num_voxels)
    coords = v.coords_of_flat(flat)
    dims = np.array(v.dims)
    keep = np.all((coords >= margin) & (coords <= dims - 1 - margin), axis=1)
    return flat[keep]


def symmetric_volume(n=24):
    """Pattern even under reflection about the grid center on every axis."""
    c = (n - 1) / 2.0
    x, y, z = np.meshgrid(*[np.arange(n)] * 3, indexing="ij")
    r2 = (x - c) ** 2 + (y - c) ** 2 + (z - c) ** 2
    data = 100.0 * np.exp(-r2 / 50.0) + 10.0 * np.cos(
        2 * np.pi * (x - c) / n
    ) * np.cos(2 * np.pi * (y - c) / n)
    return Volume(data=data, spacing=(1, 1, 1))


# ---------------------------------------------------------------------------
# Kernel
# ---------------------------------------------------------------------------


def literal_hann_sinc(t, a):
    """The kernel's defining formula and its analytic t-derivative."""
    inside = np.abs(t) < a
    sinc = np.sinc(t)
    win = 0.5 + 0.5 * np.cos(np.pi * t / a)
    # d sinc/dt, by its Taylor series where the closed form cancels
    far = np.abs(t) >= 1e-3
    safe_t = np.where(far, t, 1.0)
    dsinc = np.where(far, (np.cos(np.pi * t) - sinc) / safe_t,
                     -(np.pi**2) * t / 3.0 + np.pi**4 * t**3 / 30.0)
    dwin = -0.5 * (np.pi / a) * np.sin(np.pi * t / a)
    return (np.where(inside, sinc * win, 0.0),
            np.where(inside, dsinc * win + sinc * dwin, 0.0))


def literal_axis_weights(frac, a):
    """(2a, n) renormalized weights at the taps t = frac - o, o = 1-a .. a,
    and their frac-derivatives, from the literal kernel."""
    w, dw = literal_hann_sinc(frac[None, :] - np.arange(1 - a, a + 1)[:, None], a)
    total = w.sum(axis=0)
    u = w / total
    return u, (dw - u * dw.sum(axis=0)) / total


def test_hann_sinc_center_values():
    # a sample on a voxel puts all its weight there, and moving it shifts
    # weight between the two neighbors at t = +-1
    for a in (1, 2, 3):
        u, du = similarity.hann_sinc(np.array([0.0]), a)
        assert u[a - 1, 0] == 1.0 and du[a - 1, 0] == 0.0
        np.testing.assert_allclose(du, literal_axis_weights(np.zeros(1), a)[1], atol=1e-15)


def test_hann_sinc_zero_at_integers():
    for a in (1, 2, 3):
        u, _ = similarity.hann_sinc(np.array([0.0]), a)
        np.testing.assert_array_equal(np.delete(u, a - 1, axis=0), 0.0)


def test_hann_sinc_vanishes_at_support_edge():
    for a in (1, 2, 3):
        # the farthest tap (t = -a) sits on the edge, and stays near it
        u, du = similarity.hann_sinc(np.array([0.0, 1e-7]), a)
        np.testing.assert_array_equal(u[-1, 0], 0.0)
        np.testing.assert_array_equal(du[-1, 0], 0.0)
        np.testing.assert_allclose(u[-1, 1], 0.0, atol=1e-6)


def test_hann_sinc_half_offset_value():
    # taps at t = 1.5, 0.5, -0.5, -1.5: the kernel's values there, renormalized
    u, du = similarity.hann_sinc(np.array([0.5]), 2)
    inner = (2.0 / np.pi) * (0.5 + 0.5 * np.cos(np.pi / 4))
    outer = (-2.0 / (3.0 * np.pi)) * (0.5 + 0.5 * np.cos(3 * np.pi / 4))
    want = np.array([outer, inner, inner, outer]) / (2 * (inner + outer))
    np.testing.assert_allclose(u[:, 0], want, atol=1e-15)
    # symmetric taps: the derivative is antisymmetric
    np.testing.assert_allclose(du[:, 0], -du[::-1, 0], atol=1e-14)


def test_hann_sinc_derivative_matches_finite_differences():
    rng = make_rng(40)
    h = 1e-6
    for a in (1, 2, 3):
        frac = rng.uniform(h, 1 - h, 200)
        _, du = similarity.hann_sinc(frac, a)
        up, _ = similarity.hann_sinc(frac + h, a)
        um, _ = similarity.hann_sinc(frac - h, a)
        np.testing.assert_allclose(du, (up - um) / (2 * h), atol=1e-7)


def test_hann_sinc_is_even_in_t():
    # fractions f and 1 - f see the same taps in mirror order
    frac = np.linspace(0.01, 0.99, 50)
    for a in (1, 2, 3):
        u, du = similarity.hann_sinc(frac, a)
        um, dum = similarity.hann_sinc(1.0 - frac, a)
        np.testing.assert_allclose(u, um[::-1], atol=1e-15)
        np.testing.assert_allclose(du, -dum[::-1], atol=1e-14)


def test_hann_sinc_keeps_the_shape_of_its_fractions():
    frac = make_rng(41).random((3, 7))
    u, du = similarity.hann_sinc(frac, 3)
    assert u.shape == du.shape == (6, 3, 7)
    flat_u, flat_du = similarity.hann_sinc(frac.ravel(), 3)
    np.testing.assert_array_equal(u.reshape(6, -1), flat_u)
    np.testing.assert_array_equal(du.reshape(6, -1), flat_du)


def test_hann_sinc_rejects_unsupported_radius():
    with pytest.raises(ValueError):
        similarity.hann_sinc(np.array([0.0]), 4)


@settings(max_examples=300, deadline=None)
@given(radius=st.sampled_from([1, 2, 3]),
       drawn=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=40))
def test_hann_sinc_matches_its_defining_formula(radius, drawn):
    # 0 is every sample at an identity start on a matching grid; fractions
    # just below 1 put a tap just past t = 0
    forced = [0.0, 5e-324, 1e-300, 1e-17, 1e-9, 1e-4, 0.25, np.nextafter(0.5, 0), 0.5,
              np.nextafter(0.5, 1), 0.75, 1 - 1e-4, 1 - 1e-9, 1 - 1e-12, np.nextafter(1.0, 0)]
    frac = np.array(forced + drawn)
    want_u, want_du = literal_axis_weights(frac, radius)
    u, du = similarity.hann_sinc(frac, radius)
    np.testing.assert_array_equal(similarity.hann_sinc(frac, radius, derivative=False), u)
    np.testing.assert_allclose(u, want_u, rtol=0, atol=1e-14)
    np.testing.assert_allclose(du, want_du, rtol=0, atol=1e-10)


# ---------------------------------------------------------------------------
# Histogram accumulation
# ---------------------------------------------------------------------------


def test_identity_self_histogram_concentrates_near_diagonal(phantom32):
    v = phantom32
    idx = interior_indices(v)
    params = transform.RigidParams.identity(v.center_mm)
    h = similarity.accumulate(v, v, params, idx, num_bins=32)
    assert h.escaped == 0
    # at zero fractional offset the kernel collapses to the center voxel, so
    # each sample lands on the moving bin of its own intensity; the fixed
    # side spreads over at most the two adjacent bins
    kf, km = np.meshgrid(np.arange(32), np.arange(32), indexing="ij")
    off_band = np.abs(kf - km) > 1
    assert np.abs(h.bins[off_band]).max() <= 1e-12
    assert similarity.nmi(h) > 1.5


def test_mass_conservation_random_configurations():
    rng = make_rng(41)
    for k in range(20):
        fixed = Volume(data=rng.random((12, 12, 12)) * 50, spacing=(1, 1, 1))
        moving = Volume(data=rng.random((12, 12, 12)) * 50, spacing=(1, 1, 1))
        params = transform.RigidParams(
            t=rng.uniform(-4, 4, 3), r=rng.uniform(-0.2, 0.2, 3),
            center=fixed.center_mm,
        )
        idx = rng.integers(0, fixed.num_voxels, 300)
        h = similarity.accumulate(fixed, moving, params, idx, num_bins=16)
        assert h.total_weight + h.escaped == pytest.approx(idx.size, abs=1e-9)
        np.testing.assert_allclose(
            h.bins.sum(axis=1).sum(), h.total_weight, rtol=1e-9
        )
        np.testing.assert_allclose(
            h.bins.sum(axis=0).sum(), h.total_weight, rtol=1e-9
        )


def test_integer_shift_of_periodic_pattern_reproduces_histogram():
    n = 16
    x, y, z = np.meshgrid(*[np.arange(n)] * 3, indexing="ij")
    pattern = (
        np.sin(2 * np.pi * x / n)
        + np.cos(4 * np.pi * y / n)
        + np.sin(2 * np.pi * z / n)
    )
    fixed = Volume(data=pattern, spacing=(1, 1, 1))
    # moving(x) = fixed(x - 1): the fixed pattern translated by +1 voxel
    moving = Volume(data=np.roll(pattern, 1, axis=0), spacing=(1, 1, 1))
    idx = interior_indices(fixed, margin=4)
    ident = transform.RigidParams.identity(fixed.center_mm)
    shift = transform.RigidParams(t=(1.0, 0, 0), center=fixed.center_mm)
    f_range = fixed.intensity_range

    def hist(moving, params):
        level = similarity.Level(fixed, moving, 16, 2, f_range, f_range)
        return similarity.accumulate(fixed, moving, params, similarity.FixedSide(level, idx),
                                     num_bins=16)

    np.testing.assert_allclose(hist(moving, shift).bins, hist(fixed, ident).bins, atol=1e-9)


def test_empty_index_set_is_degenerate(phantom32):
    params = transform.RigidParams.identity(phantom32.center_mm)
    with pytest.raises(DegenerateHistogramError):
        similarity.accumulate(phantom32, phantom32, params, np.array([], dtype=int))
    with pytest.raises(DegenerateHistogramError):
        similarity.evaluate(phantom32, phantom32, params, np.array([], dtype=int))


def test_all_escaped_samples_are_degenerate(phantom32):
    v = phantom32
    params = transform.RigidParams(t=(500.0, 0, 0), center=v.center_mm)
    with pytest.raises(DegenerateHistogramError):
        similarity.accumulate(v, v, params, np.arange(100))


def test_escape_rule_counts_boundary_samples(phantom32):
    v = phantom32
    # shift by half the volume: some samples stay, some leave
    params = transform.RigidParams(t=(16.0, 0, 0), center=v.center_mm)
    idx = np.arange(0, v.num_voxels, 7)
    h = similarity.accumulate(v, v, params, idx, num_bins=16)
    assert 0 < h.escaped < idx.size
    assert h.total_weight == pytest.approx(idx.size - h.escaped, abs=1e-9)


# ---------------------------------------------------------------------------
# NMI identities
# ---------------------------------------------------------------------------


def make_hist(bins):
    bins = np.asarray(bins, dtype=np.float64)
    return JointHistogram(bins=bins, escaped=0)


def test_nmi_diagonal_histogram_is_two():
    rng = make_rng(42)
    p = rng.random(16) + 0.05
    h = make_hist(np.diag(p))
    assert similarity.nmi(h) == pytest.approx(2.0, abs=1e-6)


def test_nmi_product_histogram_is_one():
    rng = make_rng(43)
    pf = rng.random(16) + 0.05
    pm = rng.random(16) + 0.05
    pf /= pf.sum()
    pm /= pm.sum()
    h = make_hist(np.outer(pf, pm) * 37.0)
    assert similarity.nmi(h) == pytest.approx(1.0, abs=1e-6)


def test_nmi_invariant_under_simultaneous_permutation():
    rng = make_rng(44)
    bins = rng.random((16, 16))
    perm = rng.permutation(16)
    base = similarity.nmi(make_hist(bins))
    permuted = similarity.nmi(make_hist(bins[np.ix_(perm, perm)]))
    assert permuted == pytest.approx(base, abs=1e-12)


def test_nmi_single_cell_returns_two_by_continuity():
    bins = np.zeros((16, 16))
    bins[3, 7] = 5.0
    assert similarity.nmi(make_hist(bins)) == 2.0


# Absolute rounding allowed in H_f + H_m against H_j.  Each entropy sums at
# most 36 terms p*log(p) of size below 1/e, and a marginal can sum to 1 + eps,
# so the error is a few eps (the worst seen in 20,000 targeted examples was
# 4.4 eps).  NMI divides it by H_j, so the range holds to NMI_TOL / H_j: no
# fixed bound holds once nearly all the mass sits in one cell.
NMI_TOL = 64 * np.finfo(np.float64).eps


@settings(max_examples=300, deadline=None)
@given(
    size=st.integers(1, 6),
    cells=st.lists(st.one_of(st.just(0.0), st.floats(1e-9, 1e6)), min_size=36, max_size=36),
    product=st.booleans(),
)
def test_nmi_lies_in_one_to_two_without_negative_cells(size, cells, product):
    # a product of marginals sits at the lower bound
    bins = (np.outer(cells[:size], cells[size:2 * size]) if product
            else np.array(cells[: size * size]).reshape(size, size))
    if not bins.any():
        return
    h = make_hist(bins)
    value = similarity.nmi(h)
    hj = similarity._entropies(h)[5]
    slack = NMI_TOL / hj if hj > 0 else 0.0
    assert 1.0 - slack <= value <= 2.0 + slack


def test_nmi_range_on_random_histograms():
    rng = make_rng(45)
    for _ in range(50):
        h = make_hist(rng.random((12, 12)))
        val = similarity.nmi(h)
        assert 0.0 < val <= 2.0


# ---------------------------------------------------------------------------
# Analytic derivatives
# ---------------------------------------------------------------------------


def filtered_draw(fixed, moving, params, rng, rate=0.05, radius=2, margin=0.01):
    """Random draw keeping only samples clear of stencil and cell seams."""
    n = fixed.num_voxels
    idx = np.flatnonzero(rng.random(n) < rate)
    pts = fixed.points_of_flat(idx)
    mapped = transform.apply_many(params, pts)
    c = (mapped - moving.origin) / moving.spacing
    base = np.floor(c).astype(np.int64)
    frac = c - base
    dims = np.array(moving.dims)
    ok = np.all((base >= radius) & (base <= dims - 2 - radius), axis=1)
    ok &= np.all((frac >= margin) & (frac <= 1 - margin), axis=1)
    return idx[ok]


def scaled_fd_gradient(fixed, moving, params, idx, scale, h=1e-3, num_bins=16):
    vec = params.as_vector()
    out = np.zeros(6)
    for k in range(6):
        dv = np.zeros(6)
        dv[k] = h / scale[k]
        hi = similarity.metric_value(
            fixed, moving, params.with_vector(vec + dv), idx, num_bins=num_bins
        )
        lo = similarity.metric_value(
            fixed, moving, params.with_vector(vec - dv), idx, num_bins=num_bins
        )
        out[k] = (hi - lo) / (2 * h)
    return out


def assert_gradient_matches(analytic_scaled, fd_scaled):
    for k in range(6):
        g = analytic_scaled[k]
        if abs(g) > 1e-8:
            assert abs(g - fd_scaled[k]) <= 1e-3 * abs(g), (
                f"component {k}: analytic {g} vs fd {fd_scaled[k]}"
            )
        else:
            assert abs(g - fd_scaled[k]) <= 1e-6


def test_gradient_matches_finite_differences(pair32):
    fixed, moving, gold = pair32
    lo, hi = fixed.bounds
    rs = 0.5 * float(np.linalg.norm(hi - lo))
    scale = np.array([1.0, 1.0, 1.0, rs, rs, rs])
    rng = make_rng(46)
    checked = 0
    for k in range(5):
        params = transform.RigidParams(
            t=rng.uniform(-2, 2, 3), r=rng.uniform(-0.05, 0.05, 3),
            center=fixed.center_mm,
        )
        idx = filtered_draw(fixed, moving, params, rng)
        if idx.size < 50:
            continue
        ev = similarity.evaluate(fixed, moving, params, idx, num_bins=16)
        fd = scaled_fd_gradient(fixed, moving, params, idx, scale)
        assert_gradient_matches(ev.gradient / scale, fd)
        checked += 1
    assert checked >= 3


def test_gradient_zero_on_symmetric_self_pair():
    v = symmetric_volume()
    idx = interior_indices(v)
    ev = similarity.evaluate(
        v, v, transform.RigidParams.identity(v.center_mm), idx, num_bins=16
    )
    assert np.linalg.norm(ev.gradient) <= 1e-3 * abs(ev.value)


def test_alignment_is_local_maximum():
    v = symmetric_volume()
    idx = interior_indices(v)
    ident = transform.RigidParams.identity(v.center_mm)
    at_zero = similarity.metric_value(v, v, ident, idx, num_bins=16)
    for d in (0.3, 0.5, -0.4):
        shifted = transform.RigidParams(t=(d, 0, 0), center=v.center_mm)
        assert similarity.metric_value(v, v, shifted, idx, num_bins=16) < at_zero


def test_curvature_symmetric_positive_semidefinite(pair32):
    fixed, moving, gold = pair32
    rng = make_rng(47)
    params = transform.RigidParams(
        t=(1.0, -0.5, 0.3), r=(0.02, 0.01, -0.02), center=fixed.center_mm
    )
    idx = np.flatnonzero(rng.random(fixed.num_voxels) < 0.03)
    ev = similarity.evaluate(fixed, moving, params, idx, num_bins=16)
    np.testing.assert_allclose(ev.curvature, ev.curvature.T, atol=1e-12)
    eigs = np.linalg.eigvalsh(ev.curvature)
    assert eigs.min() >= -1e-9


def test_single_sample_curvature_has_rank_at_most_one(phantom32):
    v = phantom32
    params = transform.RigidParams(t=(0.4, 0.2, -0.3), center=v.center_mm)
    nx, ny, _ = v.dims
    mid = 16 + nx * (16 + ny * 16)  # voxel (16, 16, 16), comfortably interior
    ev = similarity.evaluate(v, v, params, np.array([mid]), num_bins=16)
    assert ev.sample_size == 1
    assert np.linalg.matrix_rank(ev.curvature, tol=1e-12) <= 1


def test_evaluate_value_agrees_with_accumulate_nmi(pair32):
    fixed, moving, gold = pair32
    rng = make_rng(48)
    idx = np.flatnonzero(rng.random(fixed.num_voxels) < 0.02)
    params = transform.RigidParams(t=(0.7, 0, 0), center=fixed.center_mm)
    ev = similarity.evaluate(fixed, moving, params, idx, num_bins=16)
    h = similarity.accumulate(fixed, moving, params, idx, num_bins=16)
    assert ev.value == pytest.approx(similarity.nmi(h), abs=1e-12)
    assert ev.sample_size == idx.size  # drawn count, escapes tallied separately
    assert ev.escaped == h.escaped
    val = similarity.metric_value(fixed, moving, params, idx, num_bins=16)
    assert val == pytest.approx(ev.value, abs=1e-12)


# ---------------------------------------------------------------------------
# Per-sample hot path: bin table, value-only pass, separable contraction
# ---------------------------------------------------------------------------


def random_rigid_params(rng, center, t_mm=3.0, r_rad=0.1):
    return transform.RigidParams(
        t=rng.uniform(-t_mm, t_mm, 3), r=rng.uniform(-r_rad, r_rad, 3), center=center,
    )


@pytest.mark.parametrize("radius", [1, 2, 3])
def test_metric_value_is_evaluate_value_bit_for_bit(pair32, radius):
    fixed, moving, _ = pair32
    rng = make_rng(49, radius)
    params = random_rigid_params(rng, fixed.center_mm)
    idx = np.flatnonzero(rng.random(fixed.num_voxels) < 0.05)
    ev = similarity.evaluate(fixed, moving, params, idx, radius=radius)
    assert similarity.metric_value(fixed, moving, params, idx, radius=radius) == ev.value


@pytest.mark.parametrize("chunk", [None, 300])
@pytest.mark.parametrize("radius", [1, 2, 3])
def test_a_trial_on_the_shared_fixed_side_is_evaluate_value_bit_for_bit(pair32, monkeypatch,
                                                                        radius, chunk):
    fixed, moving, _ = pair32
    if chunk:
        monkeypatch.setattr(similarity, "_CHUNK", chunk)
    rng = make_rng(54, radius)
    idx = np.flatnonzero(rng.random(fixed.num_voxels) < 0.05)
    side = similarity.FixedSide(similarity.Level(fixed, moving, 16, radius), idx)
    assert len(side.chunks) == (1 if chunk is None else -(-idx.size // chunk))
    for _ in range(3):
        params = random_rigid_params(rng, fixed.center_mm)
        trial = similarity.metric_value(fixed, moving, params, side, 16, radius)
        assert trial == similarity.evaluate(fixed, moving, params, side, 16, radius).value
        assert trial == similarity.metric_value(fixed, moving, params, idx, 16, radius)


def test_draw_spanning_several_chunks(pair32, monkeypatch):
    fixed, moving, _ = pair32
    rng = make_rng(50)
    params = random_rigid_params(rng, fixed.center_mm)
    idx = np.flatnonzero(rng.random(fixed.num_voxels) < 0.05)
    one = similarity.evaluate(fixed, moving, params, idx)
    monkeypatch.setattr(similarity, "_CHUNK", 300)
    assert idx.size > 3 * similarity._CHUNK
    many = similarity.evaluate(fixed, moving, params, idx)
    assert similarity.metric_value(fixed, moving, params, idx) == many.value
    assert many.escaped == one.escaped
    assert many.value == pytest.approx(one.value, rel=1e-12)
    np.testing.assert_allclose(many.gradient, one.gradient, rtol=1e-10, atol=1e-14)
    np.testing.assert_allclose(many.curvature, one.curvature, rtol=1e-10, atol=1e-14)


@pytest.mark.parametrize("radius", [1, 2, 3])
def test_separable_contraction_matches_dense_reference(pair32, radius):
    fixed, moving, _ = pair32
    rng = make_rng(51, radius)
    for _ in range(3):
        params = random_rigid_params(rng, fixed.center_mm, t_mm=6.0, r_rad=0.2)
        idx = np.flatnonzero(rng.random(fixed.num_voxels) < 0.03)
        assert_pass_matches_reference(fixed, moving, params, idx, 16, radius)


def test_bin_index_table_matches_per_voxel_bins(monkeypatch):
    monkeypatch.setattr(similarity, "_BLOCK", 100)  # several passes, ragged tail
    rng = make_rng(52)
    v = Volume(data=rng.random((9, 7, 5)) * 50 - 10, spacing=(1, 1, 1))
    values = v.flat_values().astype(np.float64)
    for value_range, bins in ((None, 16), ((0.0, 30.0), 16), (None, 300)):
        lo, hi = value_range or v.intensity_range
        table = similarity.bin_index_table(v, value_range, bins)
        assert table.dtype == (np.uint8 if bins <= 256 else np.uint16)
        np.testing.assert_array_equal(
            table, similarity._moving_bins(values, lo, hi, bins)
        )
    # the voxel at the range maximum lands in the top bin, not past it
    table = similarity.bin_index_table(v, None, 16)
    assert table[np.argmax(values)] == 15
    assert table[np.argmin(values)] == 0
    # a constant volume (span 0) puts every voxel in bin 0
    flat = Volume(data=np.full((4, 5, 6), 3.0), spacing=(1, 1, 1))
    np.testing.assert_array_equal(similarity.bin_index_table(flat, None, 16), 0)


def test_a_fixed_side_must_belong_to_the_volumes_and_settings(pair32):
    fixed, moving, _ = pair32
    copy = Volume(data=fixed.data, spacing=fixed.spacing, origin=fixed.origin)
    params = transform.RigidParams.identity(fixed.center_mm)
    idx = interior_indices(fixed)
    side = similarity.FixedSide(similarity.Level(fixed, moving, 16, 2), idx)
    h = similarity.accumulate(fixed, moving, params, side, 16, 2)
    np.testing.assert_array_equal(
        h.bins, similarity.accumulate(fixed, moving, params, idx).bins
    )
    for args in ((fixed, copy, 16, 2), (copy, moving, 16, 2),
                 (fixed, moving, 8, 2), (fixed, moving, 16, 1)):
        with pytest.raises(ValueError, match="other volumes or settings"):
            similarity.evaluate(args[0], args[1], params, side, *args[2:])


def test_alternating_registrations_match_runs_alone():
    """Each optimize_level builds its own bin table: nothing carries over
    from a registration of another pair, of another size."""
    pairs = []
    for size, seed in ((32, 7), (40, 8)):
        fixed = bench.make_phantom(size, seed=seed)
        gold = transform.RigidParams(t=(1.0, -0.5, 0.8), r=(0.02, 0.0, -0.01),
                                     center=fixed.center_mm)
        pairs.append((fixed, bench.make_moving(fixed, gold, seed=seed)[0]))
    cfg = optimizer.OptimizerConfig(max_iters=4)

    def run(k):
        fixed, moving = pairs[k]
        r = optimizer.register(fixed, moving, sampler_kind="urs", rate=0.02,
                               cfg=cfg, seed=3, num_levels=2)
        return [(lv["level"], lv["params"], lv["trace"]) for lv in r.levels]

    a_alone, b_after_a, b_alone, a_after_b = run(0), run(1), run(1), run(0)
    assert a_after_b == a_alone
    assert b_after_a == b_alone


# ---------------------------------------------------------------------------
# Properties over random rigid transforms and draws
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def property_pair():
    """A fixed volume and a smaller, offset, nonlinearly mapped moving one."""
    fixed = bench.make_phantom(32, seed=11)
    moving = Volume(
        data=np.abs(fixed.data[2:30, 1:31, 3:29]) ** 1.5, spacing=(1, 1, 1),
        origin=(1.5, 0.5, 2.5),
    )
    return fixed, moving


def retained_reference(fixed, moving, params, idx, radius):
    """Samples whose whole (2a)^3 stencil lies inside the moving grid."""
    c = (transform.apply_many(params, fixed.points_of_flat(idx)) - moving.origin)
    base = np.floor(c / moving.spacing)
    dims = np.array(moving.dims)
    return int(np.all((base >= radius - 1) & (base <= dims - 1 - radius), axis=1).sum())


@settings(max_examples=60, deadline=None)
@given(
    t=st.lists(st.floats(-12, 12), min_size=3, max_size=3),
    r=st.lists(st.floats(-0.4, 0.4), min_size=3, max_size=3),
    rate=st.floats(0.001, 0.05),
    draw_seed=st.integers(0, 2**32 - 1),
    radius=st.sampled_from([1, 2, 3]),
    num_bins=st.sampled_from([8, 16, 33]),
)
def test_histogram_mass_is_the_retained_count(property_pair, t, r, rate, draw_seed,
                                              radius, num_bins):
    fixed, moving = property_pair
    params = transform.RigidParams(t=t, r=r, center=fixed.center_mm)
    idx = np.flatnonzero(make_rng(draw_seed).random(fixed.num_voxels) < rate)
    retained = retained_reference(fixed, moving, params, idx, radius)
    if retained == 0:
        with pytest.raises(DegenerateHistogramError):
            similarity.accumulate(fixed, moving, params, idx, num_bins, radius)
        return
    h = similarity.accumulate(fixed, moving, params, idx, num_bins, radius)
    assert h.escaped + retained == idx.size
    assert h.total_weight == pytest.approx(retained, rel=1e-9)
    ev = similarity.evaluate(fixed, moving, params, idx, num_bins, radius)
    assert ev.escaped == h.escaped and ev.sample_size == idx.size


def reference_pass(fixed, moving, params, idx, num_bins, radius):
    """Joint histogram, gradient and curvature summed term by term from the
    literal kernel.  Every retained sample adds, for each of its (2a)^3
    neighbors and both fixed bins, the fixed bin's linear share times the
    product of the neighbor's three renormalized axis weights, at (fixed
    bin, neighbor's moving bin), with ``np.add.at``.  Its gradient
    contribution is the same sum over d(NMI)/d(cell) times the product's
    derivative, chained through ``transform.jacobian_many``."""
    pts = fixed.points_of_flat(idx)
    c = (transform.apply_many(params, pts) - moving.origin) / moving.spacing
    base = np.floor(c).astype(np.int64)
    dims = np.array(moving.dims)
    ok = np.all((base >= radius - 1) & (base <= dims - 1 - radius), axis=1)
    base, frac, pts = base[ok], c[ok] - base[ok], pts[ok]
    offsets = np.arange(1 - radius, radius + 1)
    weights = [literal_axis_weights(frac[:, axis], radius) for axis in range(3)]

    lo, hi = fixed.intensity_range
    bc = (fixed.flat_values()[idx[ok]].astype(np.float64) - lo) * (num_bins / (hi - lo)) - 0.5
    b0 = np.floor(bc).astype(np.int64)
    fixed_sides = [(np.clip(b0, 0, num_bins - 1), 1.0 - (bc - b0)),
                   (np.clip(b0 + 1, 0, num_bins - 1), bc - b0)]
    mlo, mhi = moving.intensity_range
    moving_bin = np.clip(np.floor((moving.data.astype(np.float64) - mlo)
                                  * (num_bins / (mhi - mlo))), 0, num_bins - 1).astype(int)

    ref = np.zeros((num_bins, num_bins))
    terms = []
    for i, j, k in np.ndindex(2 * radius, 2 * radius, 2 * radius):
        x, y, z = (base + offsets[[i, j, k]]).T
        (ux, dux), (uy, duy), (uz, duz) = (
            (u[n], du[n]) for (u, du), n in zip(weights, (i, j, k)))
        w = ux * uy * uz
        dw = np.stack([dux * uy * uz, ux * duy * uz, ux * uy * duz], axis=1)
        for fbin, share in fixed_sides:
            np.add.at(ref, (fbin, moving_bin[x, y, z]), share * w)
            terms.append((fbin, moving_bin[x, y, z], share[:, None] * dw))
    if not ref.any():
        return ref, None, None
    hist = JointHistogram(bins=ref, escaped=0)
    _, dnmi = similarity._nmi_and_cell_derivative(hist)
    gc = sum(dnmi[fbin, mbin][:, None] * dshare for fbin, mbin, dshare in terms)
    gs = np.einsum("sa,sak->sk", gc / moving.spacing, transform.jacobian_many(params, pts))
    curvature = (gs.T @ gs) * ok.sum()
    return ref, gs.sum(axis=0), 0.5 * (curvature + curvature.T)


def assert_pass_matches_reference(fixed, moving, params, idx, num_bins, radius):
    """``accumulate``'s histogram and ``evaluate``'s gradient and curvature
    against ``reference_pass``, each within 1e-12 of its largest entry."""
    ref, gradient, curvature = reference_pass(fixed, moving, params, idx, num_bins, radius)
    if not ref.any():
        return
    h = similarity.accumulate(fixed, moving, params, idx, num_bins, radius)
    assert np.abs(h.bins - ref).max() <= 1e-12 * np.abs(ref).max()
    ev = similarity.evaluate(fixed, moving, params, idx, num_bins, radius)
    assert np.abs(ev.gradient - gradient).max() <= 1e-12 * np.abs(gradient).max()
    assert np.abs(ev.curvature - curvature).max() <= 1e-12 * np.abs(curvature).max()


@settings(max_examples=60, deadline=None)
@given(
    t=st.lists(st.floats(-12, 12), min_size=3, max_size=3),
    r=st.lists(st.floats(-0.4, 0.4), min_size=3, max_size=3),
    rate=st.floats(0.001, 0.05),
    draw_seed=st.integers(0, 2**32 - 1),
    radius=st.sampled_from([1, 2, 3]),
    num_bins=st.sampled_from([8, 16, 33]),
)
def test_histogram_matches_a_term_by_term_reference(property_pair, t, r, rate, draw_seed,
                                                    radius, num_bins):
    fixed, moving = property_pair
    params = transform.RigidParams(t=t, r=r, center=fixed.center_mm)
    idx = np.flatnonzero(make_rng(draw_seed).random(fixed.num_voxels) < rate)
    assert_pass_matches_reference(fixed, moving, params, idx, num_bins, radius)


@pytest.mark.parametrize("shift", [0.0, -1e-12, 1e-12])
@pytest.mark.parametrize("radius", [1, 2, 3])
def test_samples_on_the_escape_boundary_match_the_reference(pair32, radius, shift):
    # on a matching grid every x fraction is 0, or just below 1 after a tiny
    # negative shift; samples on the x planes where a stencil reaches the
    # grid's edge are kept or escape by that hair (y and z stay inside)
    fixed, moving, _ = pair32
    assert moving.same_grid(fixed)
    x, y, z = fixed.coords_of_flat(np.arange(fixed.num_voxels)).T
    low, high = radius - 1, fixed.dims[0] - 1 - radius
    inside = (np.minimum(y, z) > low) & (np.maximum(y, z) < high)
    idx = np.flatnonzero(inside & np.isin(x, [low - 1, low, low + 1, high - 1, high, high + 1]))
    params = transform.RigidParams(t=(shift, 0.3, -0.4), center=fixed.center_mm)
    retained = retained_reference(fixed, moving, params, idx, radius)
    assert 0 < retained < idx.size
    h = similarity.accumulate(fixed, moving, params, idx, 16, radius)
    assert h.escaped == idx.size - retained
    assert_pass_matches_reference(fixed, moving, params, idx, 16, radius)


@pytest.mark.parametrize("radius, block", [(1, 1000), (2, 1000), (3, 1000), (3, 100)])
def test_histogram_over_several_chunks_and_blocks_matches_the_reference(
        property_pair, monkeypatch, radius, block):
    fixed, moving = property_pair
    rng = make_rng(53, radius)
    params = random_rigid_params(rng, fixed.center_mm)
    idx = np.flatnonzero(rng.random(fixed.num_voxels) < 0.05)
    monkeypatch.setattr(similarity, "_CHUNK", 300)
    monkeypatch.setattr(similarity, "_BLOCK", block)
    # several chunks, each of several blocks (one sample a block when
    # _BLOCK is below the (2a)^3 neighbors of a sample)
    assert idx.size > 3 * similarity._CHUNK
    assert max(1, block // (2 * radius) ** 3) < similarity._CHUNK // 2
    assert_pass_matches_reference(fixed, moving, params, idx, 16, radius)
