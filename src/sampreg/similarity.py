"""Sampled NMI via partial-volume joint histograms, with analytic derivatives.

Each sampled fixed voxel is mapped through the rigid transform into moving
voxel coordinates.  Instead of interpolating an intensity there, a unit of
histogram mass is spread over the (2a)^3 surrounding moving voxels with
separable Hanning-windowed-sinc weights (renormalized to sum to 1), each
neighbor depositing into the intensity bin of its own stored value; the
fixed-intensity side spreads linearly over the two adjacent bins.  Because
the histogram depends on the transform only through those kernel weights,
the NMI gradient follows from the kernel's analytic derivative chained with
the transform Jacobian; no image-gradient term appears.

A moving voxel's bin does not depend on the transform, so a caller that
evaluates many transforms on one volume builds ``bin_index_table`` once; a
sample reads its neighbors' bins with one integer gather, kept ((2a)^3, n),
neighbor-major.  A sample keeps only its three per-axis weight vectors (and
their derivatives), so no draw is too large to keep between passes.  Per
block of samples, one ``np.bincount`` sums each sample's neighbor weights
into its row of moving bins, and one (B, n) x (n, B) product with the fixed
side's two-bin spread adds the rows to the histogram.  The gradient gathers
each neighbor's cell derivative and contracts it against the weights axis
by axis (as in Thevenaz & Unser, IEEE TIP 2000).

The windowed sinc has negative lobes, so cells can go negative.  Mass is
accumulated signed and log arguments are clamped at 1e-12, so a negative
cell p lowers its entropy by |p| * ln(1e12), about 27.6|p|.  On sparse
draws that is not a rounding matter: with 64 bins and ~131 samples about
6% of the mass is negative, the joint entropy drops and NMI can exceed 2.
The coarser default (``DEFAULT_NUM_BINS``) keeps the share near 1%.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from sampreg import transform
from sampreg.transform import RigidParams
from sampreg.volume import Volume

_LOG_CLAMP = 1e-12
# Histogram bins per side.  At the low sampling rates this package targets
# (0.05% of a 64-cube is ~131 samples) a 64x64 table is so sparse that
# partial-volume artefacts and the kernel's negative lobes outweigh the
# alignment signal, and registration stalls near its start; with 16 bins
# it converges from 0.05% to 1% of the voxels.
DEFAULT_NUM_BINS = 16
# Histogram mass is summed per run of this many samples, then added to the total.
_CHUNK = 131072
# Elements per vectorized pass (sample-neighbor pairs, or voxels in
# ``bin_index_table``), so that a pass's float64 arrays stay in cache.
_BLOCK = 32768


class DegenerateHistogramError(ValueError):
    """No histogram mass: empty sample set or every sample escaped."""


@dataclass(frozen=True, eq=False)
class JointHistogram:
    """B x B co-occurrence table of fixed vs moving intensity bins."""

    bins: np.ndarray
    total_weight: float
    escaped: int
    num_bins: int


@dataclass(frozen=True, eq=False)
class MetricEvaluation:
    """NMI value with its derivatives with respect to the 6 rigid parameters."""

    value: float
    gradient: np.ndarray
    curvature: np.ndarray
    sample_size: int
    escaped: int


def hann_sinc(t, radius: int, derivative: bool = True):
    """Hanning-windowed sinc kernel weight and its t-derivative.

    weight(t) = sinc(t) * (0.5 + 0.5*cos(pi*t/radius)) for |t| < radius,
    0 outside; both weight and derivative are continuous at |t| = radius.
    With ``derivative=False`` only the weight is computed and returned.
    Only sin x and cos x, x = pi*t/radius, are evaluated: sin(pi*t) and
    cos(pi*t) follow by the double- and triple-angle identities.
    """
    if radius not in (1, 2, 3):
        raise ValueError(f"kernel radius must be 1, 2 or 3, got {radius}")
    t = np.asarray(t, dtype=np.float64)
    x = (np.pi / radius) * t
    s, c = np.sin(x), np.cos(x)
    # sinc(t) = (sin x / x) * (1, cos x, or 1 - 4/3 sin^2 x)
    sinc = np.divide(s, x, out=np.ones_like(x), where=x != 0)
    if radius > 1:
        sinc *= c if radius == 2 else 1.0 - (4.0 / 3.0) * s * s
    inside = np.abs(t) < radius
    win = 0.5 + 0.5 * c
    w = np.where(inside, sinc * win, 0.0)
    if not derivative:
        return w
    cos_pt = (c if radius == 1 else 1.0 - 2.0 * s * s if radius == 2
              else c * (4.0 * c * c - 3.0))
    # d sinc/dt = (cos(pi t) - sinc t) / t, or its series -pi^2 t / 3 where
    # the difference cancels (|t| < 1e-4, truncation error below 4e-12)
    ds = np.multiply(t, -np.pi**2 / 3.0, out=np.empty_like(t))
    np.divide(cos_pt - sinc, t, out=ds, where=np.abs(t) >= 1e-4)
    dwin = (-0.5 * np.pi / radius) * s
    dw = np.where(inside, ds * win + sinc * dwin, 0.0)
    return w, dw


def _fixed_bin_spread(values: np.ndarray, lo: float, hi: float, num_bins: int):
    """Linear spread of fixed intensities over the two adjacent bins."""
    span = hi - lo
    scale = num_bins / span if span > 0 else 0.0
    bc = (values - lo) * scale - 0.5
    b0 = np.floor(bc).astype(np.int64)
    w1 = bc - b0
    b1 = np.clip(b0 + 1, 0, num_bins - 1)
    b0 = np.clip(b0, 0, num_bins - 1)
    return b0, b1, 1.0 - w1, w1


def _moving_bins(values: np.ndarray, lo: float, hi: float, num_bins: int):
    span = hi - lo
    scale = num_bins / span if span > 0 else 0.0
    return np.clip(((values - lo) * scale).astype(np.int64), 0, num_bins - 1)


def bin_index_table(volume: Volume, value_range=None,
                    num_bins: int = DEFAULT_NUM_BINS) -> np.ndarray:
    """Moving-side intensity bin of every voxel, flat in x-fastest order.

    Bin edges span ``value_range`` (default: the volume's own range), as in
    ``accumulate``.  The table is the smallest unsigned type that holds the
    bins (uint8 up to 256) and is filled ``_BLOCK`` voxels at a time, so no
    full-volume float64 copy is made.
    """
    lo, hi = value_range or volume.intensity_range
    values = volume.flat_values()
    table = np.empty(values.size, dtype=np.min_scalar_type(num_bins - 1))
    for start in range(0, values.size, _BLOCK):
        chunk = values[start : start + _BLOCK].astype(np.float64)
        table[start : start + _BLOCK] = _moving_bins(chunk, lo, hi, num_bins)
    return table


class _SampleGeometry:
    """Per-axis kernel weights and neighbor bins of one chunk's retained samples."""

    __slots__ = (
        "count", "points", "u", "du", "moving_bins", "b0", "b1", "wf0", "wf1",
    )

    def __init__(self, fixed, moving, params, idx, num_bins, radius,
                 fixed_range, bin_table, derivatives):
        pts = fixed.points_of_flat(idx)
        c = (transform.apply_many(params, pts) - moving.origin) / moving.spacing
        base = np.floor(c).astype(np.int64)
        dims = np.array(moving.dims)
        ok = np.all((base >= radius - 1) & (base <= dims - 1 - radius), axis=1)
        self.count = int(ok.sum())
        base = base[ok]
        frac = c[ok] - base
        self.points = pts[ok]

        # (3, 2a, n) per-axis weights, renormalized to sum to 1 on each axis;
        # samples last, so the stencil products run over contiguous rows
        offsets = np.arange(-(radius - 1), radius + 1)
        t = frac.T[:, None, :] - offsets[:, None]
        if derivatives:
            w, dw = hann_sinc(t, radius)
        else:
            w, dw = hann_sinc(t, radius, derivative=False), None
        s = w.sum(axis=1, keepdims=True)
        self.u = w / s
        self.du = (dw / s - self.u * (dw.sum(axis=1, keepdims=True) / s)
                   if derivatives else None)

        # ((2a)^3, n) neighbor bins; neighbor (i, j, k) is row (i*2a + j)*2a + k,
        # the order of the (2a, 2a, 2a, n) outer product of the axis weights
        nxm, nym, _ = moving.dims
        stencil = (offsets[:, None, None] + nxm * (offsets[:, None] + nym * offsets)).ravel()
        corner = base[:, 0] + nxm * (base[:, 1] + nym * base[:, 2])
        self.moving_bins = bin_table[stencil[:, None] + corner]

        self.b0, self.b1, self.wf0, self.wf1 = _fixed_bin_spread(
            fixed.flat_values()[idx[ok]].astype(np.float64), *fixed_range, num_bins)

    def _blocks(self, num_bins):
        """Slices of at most ``_BLOCK`` sample-neighbor pairs over the samples,
        each with its neighbors' cells in the block's (samples, B) bin rows."""
        step = max(1, _BLOCK // self.moving_bins.shape[0])
        for a in range(0, self.count, step):
            mb = self.moving_bins[:, a : a + step]
            yield slice(a, a + step), np.arange(mb.shape[1]) * num_bins + mb

    def scatter_into(self, hist: np.ndarray, num_bins: int) -> None:
        """Add the samples' mass to the (B, B) histogram, block by block."""
        for blk, cells in self._blocks(num_bins):
            ux, uy, uz = self.u[:, :, blk]
            w3 = ux[:, None, None] * uy[None, :, None] * uz[None, None, :]
            n = cells.shape[1]
            rows = np.bincount(cells.ravel(), w3.ravel(), n * num_bins).reshape(n, num_bins)
            fx = np.zeros_like(rows)
            at = np.arange(n)
            fx[at, self.b0[blk]] = self.wf0[blk]
            fx[at, self.b1[blk]] += self.wf1[blk]
            hist += fx.T @ rows

    def per_sample_gradients(self, dnmi: np.ndarray, params, spacing):
        """(n_retained, 6) metric-gradient contribution of each sample."""
        # d(metric)/d(neighbor weight), gathered per sample from its two bin rows
        rows = self.wf0[:, None] * dnmi[self.b0] + self.wf1[:, None] * dnmi[self.b1]
        k1 = self.u.shape[1]
        gc = np.empty((self.count, 3))
        for blk, cells in self._blocks(len(dnmi)):
            coeff = rows[blk].ravel()[cells].reshape(k1, k1, k1, -1)
            # d(metric)/d(moving voxel coordinate): contract z, then y, then x,
            # differentiating one axis's weights at a time
            ux, uy, uz = self.u[:, :, blk]
            dux, duy, duz = self.du[:, :, blk]
            cz = (coeff * uz).sum(axis=2)
            dcz = (coeff * duz).sum(axis=2)
            gc[blk, 0] = ((cz * uy).sum(axis=1) * dux).sum(axis=0)
            gc[blk, 1] = ((cz * duy).sum(axis=1) * ux).sum(axis=0)
            gc[blk, 2] = ((dcz * uy).sum(axis=1) * ux).sum(axis=0)
        # chain to mm and to theta
        gc /= spacing
        jac = transform.jacobian_many(params, self.points)
        return np.einsum("sa,sak->sk", gc, jac)


def _histogram_pass(fixed, moving, params, idx, num_bins, radius,
                    fixed_range, moving_range, bin_table, derivatives):
    """Joint histogram of the draw, and each chunk's geometry if ``derivatives``.

    The one pass behind ``accumulate``, ``metric_value`` and ``evaluate``.
    """
    idx = np.asarray(idx)
    if idx.size == 0:
        raise DegenerateHistogramError("empty sample index set")
    if num_bins < 8:
        raise ValueError("need at least 8 histogram bins")
    fixed_range = fixed_range or fixed.intensity_range
    if bin_table is None:
        bin_table = bin_index_table(moving, moving_range, num_bins)
    elif bin_table.shape != (moving.num_voxels,):
        raise ValueError(f"bin table holds {bin_table.size} voxels, not {moving.num_voxels}")

    bins = np.zeros((num_bins, num_bins))
    retained = 0
    chunks = []
    for start in range(0, idx.size, _CHUNK):
        geom = _SampleGeometry(
            fixed, moving, params, idx[start : start + _CHUNK], num_bins,
            radius, fixed_range, bin_table, derivatives,
        )
        geom.scatter_into(bins, num_bins)
        retained += geom.count
        if derivatives:
            chunks.append(geom)
    if retained == 0:
        raise DegenerateHistogramError(
            f"all {idx.size} samples escaped the moving volume"
        )
    return JointHistogram(
        bins=bins,
        total_weight=float(bins.sum()),
        escaped=int(idx.size - retained),
        num_bins=num_bins,
    ), chunks


def accumulate(
    fixed: Volume,
    moving: Volume,
    params: RigidParams,
    idx,
    num_bins: int = DEFAULT_NUM_BINS,
    radius: int = 2,
    fixed_range=None,
    moving_range=None,
    bin_table=None,
) -> JointHistogram:
    """Partial-volume joint histogram over the sampled fixed voxels.

    Samples whose full kernel neighborhood leaves the moving volume are
    dropped and counted in ``escaped``.  Bin edges span ``fixed_range`` /
    ``moving_range`` (defaulting to each volume's own intensity range);
    pass the full-resolution ranges so bins mean the same at every pyramid
    level.  ``bin_table`` is the moving volume's ``bin_index_table`` for
    the same range and bin count; it is built here when not given.
    """
    return _histogram_pass(fixed, moving, params, idx, num_bins, radius,
                           fixed_range, moving_range, bin_table, False)[0]


def _clamped_plogp(p: np.ndarray) -> np.ndarray:
    return p * np.log(np.maximum(p, _LOG_CLAMP))


def _entropies(h: JointHistogram):
    p = h.bins / h.total_weight
    pf = p.sum(axis=1)
    pm = p.sum(axis=0)
    hf = -_clamped_plogp(pf).sum()
    hm = -_clamped_plogp(pm).sum()
    hj = -_clamped_plogp(p).sum()
    return p, pf, pm, hf, hm, hj


def nmi(h: JointHistogram) -> float:
    """Normalized mutual information (H_f + H_m) / H_j, natural log.

    2.0 on a perfectly diagonal histogram, 1.0 on an exact product
    histogram; a single occupied cell returns 2.0 by continuity.  A
    histogram with no negative cells gives a value in [1, 2].  Negative
    cells (see the module docstring) lower H_j, so on sparse draws the
    value can exceed 2.  The entropies carry rounding of a few ulp, which
    the ratio divides by H_j: when nearly all the mass sits in one cell,
    the value can leave [1, 2] by much more than an ulp.
    """
    if h.total_weight <= 0:
        raise DegenerateHistogramError("histogram has no mass")
    _, _, _, hf, hm, hj = _entropies(h)
    if hj <= 0.0:
        return 2.0
    return (hf + hm) / hj


def _dplogp(p: np.ndarray) -> np.ndarray:
    """Exact derivative of the clamped p*log(p) used in the entropies."""
    return np.log(np.maximum(p, _LOG_CLAMP)) + (p > _LOG_CLAMP)


def _nmi_and_cell_derivative(h: JointHistogram):
    """NMI value and d(NMI)/d(bin mass) as a (B, B) array."""
    p, pf, pm, hf, hm, hj = _entropies(h)
    if hj <= 0.0:
        return 2.0, np.zeros((h.num_bins, h.num_bins))
    value = (hf + hm) / hj
    w = h.total_weight
    tpj = _dplogp(p)
    tpf = _dplogp(pf)
    tpm = _dplogp(pm)
    cj = (p * tpj).sum()
    cf = (pf * tpf).sum()
    cm = (pm * tpm).sum()
    dhf = -(tpf[:, None] - cf) / w
    dhm = -(tpm[None, :] - cm) / w
    dhj = -(tpj - cj) / w
    return value, (dhf + dhm - value * dhj) / hj


def evaluate(
    fixed: Volume,
    moving: Volume,
    params: RigidParams,
    idx,
    num_bins: int = DEFAULT_NUM_BINS,
    radius: int = 2,
    fixed_range=None,
    moving_range=None,
    bin_table=None,
) -> MetricEvaluation:
    """Sampled NMI with analytic gradient and Gauss-Newton curvature.

    The gradient chains d(NMI)/d(bin) through the kernel-weight derivatives
    and the transform Jacobian (scaled by the moving voxel spacing).  The
    curvature surrogate is the empirical-Fisher form for an average over
    samples: the sum of outer products of per-sample gradient contributions
    times the retained-sample count (each contribution is O(1/n), so the
    bare sum would shrink as 1/n while the true curvature does not).
    Symmetric positive semidefinite by construction.  Arguments are as in
    ``accumulate``.
    """
    hist, chunks = _histogram_pass(fixed, moving, params, idx, num_bins, radius,
                                   fixed_range, moving_range, bin_table, True)
    value, dnmi = _nmi_and_cell_derivative(hist)
    gradient = np.zeros(6)
    curvature = np.zeros((6, 6))
    for geom in chunks:
        gs = geom.per_sample_gradients(dnmi, params, moving.spacing)
        gradient += gs.sum(axis=0)
        curvature += gs.T @ gs
    curvature *= sum(geom.count for geom in chunks)
    curvature = 0.5 * (curvature + curvature.T)
    return MetricEvaluation(
        value=value,
        gradient=gradient,
        curvature=curvature,
        sample_size=int(np.size(idx)),
        escaped=hist.escaped,
    )


def metric_value(
    fixed: Volume,
    moving: Volume,
    params: RigidParams,
    idx,
    num_bins: int = DEFAULT_NUM_BINS,
    radius: int = 2,
    fixed_range=None,
    moving_range=None,
    bin_table=None,
) -> float:
    """NMI only, without kernel derivatives: the cheap path for trial points."""
    return nmi(accumulate(fixed, moving, params, idx, num_bins, radius,
                          fixed_range, moving_range, bin_table))
