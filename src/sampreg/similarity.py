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

Each piece of work is done once, where it changes.  Per level, a
``Level`` holds the moving volume's ``bin_index_table``, the ((2a)^3,)
neighbor stencil and the escape bound.  Per draw, a ``FixedSide`` holds the
samples' (3, n) points and fixed-intensity bin spread, which ``evaluate``
and the trial ``metric_value`` share.  Per transform, a pass maps the
points, takes each axis's kernel weights from one sine and one cosine
(``hann_sinc``) and gathers the neighbors' bins into ((2a)^3, n) histogram
cells.  Per block of samples, one ``np.bincount`` sums each sample's
neighbor weights into its row of moving bins, and one product with the
(n, B) fixed-bin spread matrix adds the rows to the histogram.  The
gradient reuses the cells: one product of the spread matrix with
d(NMI)/d(cell) gives each sample's bin row, which it gathers and contracts
against the weights axis by axis (as in Thevenaz & Unser, IEEE TIP 2000),
then chains to the angles through the samples' offsets from the rotation
centre.  Draws are passed ``_CHUNK`` samples at a time; ``evaluate``
rebuilds all passes but the last for the gradient, so that a large draw
holds one chunk's cells at a time.

The windowed sinc has negative lobes, so cells can go negative.  Mass is
accumulated signed and log arguments are clamped at 1e-12, so a negative
cell p lowers its entropy by |p| * ln(1e12), about 27.6|p|.  On sparse
draws that is not a rounding matter: with 64 bins and ~131 samples about
6% of the mass is negative, the joint entropy drops and NMI can exceed 2.
The coarser default (``DEFAULT_NUM_BINS``) keeps the share near 1%.
"""

from __future__ import annotations

import itertools
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
# Histogram mass is summed per run of this many samples, then added to the
# total; a pass holds one run's cells and weights at a time (size: see README).
_CHUNK = 16384
# Elements per vectorized pass (sample-neighbor pairs, or voxels in
# ``bin_index_table``), so that a pass's float64 arrays stay in cache.
_BLOCK = 32768


class DegenerateHistogramError(ValueError):
    """No histogram mass: empty sample set or every sample escaped."""


@dataclass(frozen=True, eq=False)
class JointHistogram:
    """B x B co-occurrence table of fixed vs moving intensity bins."""

    bins: np.ndarray
    escaped: int

    @property
    def total_weight(self) -> float:
        return float(self.bins.sum())

    @property
    def num_bins(self) -> int:
        return len(self.bins)


@dataclass(frozen=True, eq=False)
class MetricEvaluation:
    """NMI value with its derivatives with respect to the 6 rigid parameters."""

    value: float
    gradient: np.ndarray
    curvature: np.ndarray
    sample_size: int
    escaped: int


def _tap_rows(radius: int):
    """Each tap's terms as rows of coefficients on (1, g, cos x, sin x).

    For a fraction g <= 1/2 and x = pi*g/a, tap o (t = g - o) weighs
    sinc(t) * (1 + cos(x - pi*o/a)), up to a factor common to all taps.
    As sinc(t) = (-1)^o sin(pi*g) / (pi*t), dividing by sin(pi*g) / (pi*g)
    leaves (-1)^o g / t, or 1 at o = 0.  So the value rows are t (1 at
    o = 0), that numerator and the window; the derivative rows are the
    window's and -(-1)^o o, so that d/dg ((-1)^o g / t) = -(-1)^o o / t^2.
    The kernel is even, so a fraction above 1/2 is 1 - frac with its taps
    reversed and its derivatives negated: a second set of coefficients.
    """
    o = np.arange(1 - radius, radius + 1)
    near, far, sign = (o == 0) * 1.0, (o != 0) * 1.0, 1.0 - 2.0 * (o % 2)
    # cos and sin of pi*o/a exactly: the cosines are multiples of 1/2
    cos_o = np.round(2.0 * np.cos(np.pi * o / radius)) / 2.0
    sin_o = np.sign(np.sin(np.pi * o / radius)) * np.sqrt(1.0 - cos_o**2)
    zero = np.zeros(2 * radius)

    def rows(sign, *columns):  # groups of 2a rows, one column per term
        taps = np.array(columns).reshape(-1, 4, 2 * radius).transpose(0, 2, 1)
        return np.concatenate([taps, sign * taps[:, ::-1] - taps], axis=2).reshape(-1, 8)

    return (rows(1.0, near - far * o, far, zero, zero, near, far * sign, zero, zero,
                 zero + 1.0, zero, cos_o, sin_o),
            rows(-1.0, zero, zero, (np.pi / radius) * sin_o, (-np.pi / radius) * cos_o,
                 -sign * o, zero, zero, zero))


_TAP_ROWS = {radius: _tap_rows(radius) for radius in (1, 2, 3)}


def hann_sinc(frac, radius: int, derivative: bool = True):
    """Per-axis kernel weights at the 2a taps of each fraction, renormalized
    to sum to 1, and their derivatives with respect to the fraction.

    The kernel is sinc(t) * (0.5 + 0.5*cos(pi*t/a)) for |t| < a, at
    t = frac - o for the tap offsets o = 1-a .. a; ``frac`` in [0, 1) of
    shape S gives arrays of shape (2a,) + S, only the weights with
    ``derivative=False``.  One cosine and one sine a fraction: each tap's
    terms are fixed combinations of them (``_tap_rows``), taken in one
    matrix product, and none divides by a distance below 1/2.
    """
    if radius not in (1, 2, 3):
        raise ValueError(f"kernel radius must be 1, 2 or 3, got {radius}")
    value_rows, deriv_rows = _TAP_ROWS[radius]
    frac = np.asarray(frac, dtype=np.float64)
    shape, frac = (2 * radius,) + frac.shape, frac.reshape(-1)
    # (1, g, cos x, sin x), then the same for fractions above 1/2 only
    terms = np.ones((8, frac.size))
    np.minimum(frac, 1.0 - frac, out=terms[1])
    x = (np.pi / radius) * terms[1]
    np.cos(x, out=terms[2])
    np.sin(x, out=terms[3])
    np.multiply(terms[:4], frac > 0.5, out=terms[4:])
    den, num, win = (value_rows @ terms).reshape(3, 2 * radius, -1)
    q = num / den
    h = q * win
    inv = 1.0 / h.sum(axis=0)
    u = h * inv
    if not derivative:
        return u.reshape(shape)
    dwin, k = (deriv_rows @ terms).reshape(2, 2 * radius, -1)
    dh = k / (den * den) * win + q * dwin
    du = (dh - u * dh.sum(axis=0)) * inv
    return u.reshape(shape), du.reshape(shape)


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

    Bin edges span ``value_range`` (default: the volume's own range).  The
    table is the smallest unsigned type that holds the bins (uint8 up to
    256) and is filled ``_BLOCK`` voxels at a time, so no full-volume
    float64 copy is made.
    """
    lo, hi = value_range or volume.intensity_range
    values = volume.flat_values()
    table = np.empty(values.size, dtype=np.min_scalar_type(num_bins - 1))
    for start in range(0, values.size, _BLOCK):
        chunk = values[start : start + _BLOCK].astype(np.float64)
        table[start : start + _BLOCK] = _moving_bins(chunk, lo, hi, num_bins)
    return table


class Level:
    """What every pass on one pair of level volumes shares, built once a
    level: the moving ``bin_index_table`` over ``moving_range`` (default:
    the moving volume's own range), the ((2a)^3,) neighbor stencil, the
    escape bound, and ``fixed_range`` (default: the fixed volume's own)."""

    def __init__(self, fixed: Volume, moving: Volume, num_bins: int = DEFAULT_NUM_BINS,
                 radius: int = 2, fixed_range=None, moving_range=None):
        if num_bins < 8:
            raise ValueError("need at least 8 histogram bins")
        if radius not in (1, 2, 3):
            raise ValueError(f"kernel radius must be 1, 2 or 3, got {radius}")
        self.key = (fixed, moving, num_bins, radius)
        self.fixed, self.moving, self.num_bins, self.radius = self.key
        self.fixed_range = fixed_range or fixed.intensity_range
        self.bin_table = bin_index_table(moving, moving_range, num_bins)
        # neighbor (i, j, k) is row (i*2a + j)*2a + k, the order of the
        # (2a, 2a, 2a, n) outer product of the axis weights
        nxm, nym, _ = moving.dims
        offsets = np.arange(1 - radius, radius + 1)
        self.stencil = (offsets[:, None, None] + nxm * (offsets[:, None] + nym * offsets)).ravel()
        self.strides = np.array([1.0, nxm, nxm * nym])
        self.high = (np.array(moving.dims) - 1 - radius)[:, None]


class FixedSide:
    """What no transform changes in a draw: per ``_CHUNK`` of samples, their
    (3, n) points and the spread of their fixed intensities over two bins.
    ``evaluate`` and the trial ``metric_value`` on one draw share it."""

    def __init__(self, level: Level, idx):
        idx = np.asarray(idx)
        if idx.size == 0:
            raise DegenerateHistogramError("empty sample index set")
        self.level, self.size, fixed = level, idx.size, level.fixed
        self.chunks = [
            (np.ascontiguousarray(fixed.points_of_flat(part).T), _fixed_bin_spread(
                fixed.flat_values()[part].astype(np.float64), *level.fixed_range,
                level.num_bins))
            for part in (idx[a : a + _CHUNK] for a in range(0, idx.size, _CHUNK))
        ]


class _Pass:
    """One chunk of a draw at one transform: its retained samples' offsets
    from the rotation centre, (n, B) fixed-bin spread matrix, per-axis
    weights (and derivatives) and neighbors' histogram cells."""

    __slots__ = ("count", "offsets", "spread", "u", "du", "blocks")

    def __init__(self, level, params, points, spread, derivatives):
        moving = level.moving
        # moving voxel coordinates of R (p - centre) + centre + t, (3, n)
        rot = transform.rotation_matrix(params.r) / moving.spacing[:, None]
        v = points - params.center[:, None]
        c = rot @ v + ((params.center + params.t - moving.origin) / moving.spacing)[:, None]
        base = np.floor(c)
        ok = np.all((base >= level.radius - 1) & (base <= level.high), axis=0)
        self.count = int(np.count_nonzero(ok))
        if self.count < ok.size:
            c, base, v, spread = c[:, ok], base[:, ok], v[:, ok], [a[ok] for a in spread]
        self.offsets = v
        b0, b1, wf0, wf1 = spread
        at = np.arange(self.count)
        self.spread = np.zeros((self.count, level.num_bins))
        self.spread[at, b0] = wf0
        self.spread[at, b1] += wf1

        # (2a, 3, n) per-axis weights; samples last, so the stencil products
        # run over contiguous rows
        kernel = hann_sinc(c - base, level.radius, derivatives)
        self.u, self.du = kernel if derivatives else (kernel, None)

        # ((2a)^3, n) neighbor bins, cut into slices of at most ``_BLOCK``
        # sample-neighbor pairs, each with its neighbors' cells in the
        # slice's (samples, B) bin rows; the scatter and the gradient share them
        corner = (level.strides @ base).astype(np.int64)
        moving_bins = level.bin_table[level.stencil[:, None] + corner]
        step = max(1, _BLOCK // moving_bins.shape[0])
        self.blocks = [(blk, (at[blk] - blk.start) * level.num_bins + moving_bins[:, blk])
                       for blk in (slice(a, a + step) for a in range(0, self.count, step))]

    def scatter_into(self, hist: np.ndarray) -> None:
        """Add the samples' mass to the (B, B) histogram, block by block."""
        num_bins = len(hist)
        for blk, cells in self.blocks:
            ux, uy, uz = self.u[:, :, blk].transpose(1, 0, 2)
            w3 = (ux[:, None] * uy)[:, :, None] * uz
            n = cells.shape[1]
            rows = np.bincount(cells.ravel(), w3.ravel(), n * num_bins).reshape(n, num_bins)
            hist += self.spread[blk].T @ rows

    def gradients(self, dnmi: np.ndarray, params, spacing):
        """(6, n_retained) metric-gradient contribution of each sample."""
        # d(metric)/d(neighbor weight) for each sample and moving bin
        rows = self.spread @ dnmi
        k1 = self.u.shape[0]
        gc = np.empty((3, self.count))
        for blk, cells in self.blocks:
            coeff = rows[blk].ravel()[cells].reshape(k1, k1, k1, -1)
            # d(metric)/d(moving voxel coordinate): contract z, then y, then x,
            # differentiating one axis's weights at a time
            ux, uy, uz = self.u[:, :, blk].transpose(1, 0, 2)
            dux, duy, duz = self.du[:, :, blk].transpose(1, 0, 2)
            cz = (coeff * uz).sum(axis=2)
            dcz = (coeff * duz).sum(axis=2)
            gc[0, blk] = ((cz * uy).sum(axis=1) * dux).sum(axis=0)
            gc[1, blk] = ((cz * duy).sum(axis=1) * ux).sum(axis=0)
            gc[2, blk] = ((dcz * uy).sum(axis=1) * ux).sum(axis=0)
        # chain to mm, and to the angles through d(R v)/d(angle) = (dR/d angle) v
        gc /= spacing[:, None]
        drot = transform.rotation_derivatives(params.r) @ self.offsets
        return np.concatenate([gc, (drot * gc).sum(axis=1)])


def _histogram_pass(fixed, moving, params, idx, num_bins, radius, derivatives):
    """Joint histogram of the draw, its ``FixedSide`` and its last chunk's pass.

    The one pass behind ``accumulate``, ``metric_value`` and ``evaluate``;
    ``idx`` is as in ``accumulate``.  Each chunk's pass but the last is
    dropped once scattered, and ``derivatives`` asks for the last one's.
    """
    if not isinstance(idx, FixedSide):
        idx = FixedSide(Level(fixed, moving, num_bins, radius), idx)
    elif idx.level.key != (fixed, moving, num_bins, radius):
        raise ValueError("the draw's level belongs to other volumes or settings")
    bins = np.zeros((num_bins, num_bins))
    retained = 0
    for points, spread in idx.chunks:
        last = _Pass(idx.level, params, points, spread, derivatives and points is idx.chunks[-1][0])
        last.scatter_into(bins)
        retained += last.count
    if retained == 0:
        raise DegenerateHistogramError(f"all {idx.size} samples escaped the moving volume")
    return JointHistogram(bins=bins, escaped=int(idx.size - retained)), idx, last


def accumulate(
    fixed: Volume,
    moving: Volume,
    params: RigidParams,
    idx,
    num_bins: int = DEFAULT_NUM_BINS,
    radius: int = 2,
) -> JointHistogram:
    """Partial-volume joint histogram over the sampled fixed voxels.

    Samples whose full kernel neighborhood leaves the moving volume are
    dropped and counted in ``escaped``.  ``idx`` is the draw's flat fixed
    indices, whose bins span each volume's own range, or its ``FixedSide``
    on a ``Level`` of these volumes and settings, whose bins span the
    ``Level``'s ranges.  A pyramid level's ``Level`` takes the
    full-resolution ranges, so bins mean the same at every level.
    """
    return _histogram_pass(fixed, moving, params, idx, num_bins, radius, False)[0]


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
    hist, side, last = _histogram_pass(fixed, moving, params, idx, num_bins, radius, True)
    value, dnmi = _nmi_and_cell_derivative(hist)
    gradient, curvature = np.zeros(6), np.zeros((6, 6))
    # the passes of all chunks but the last are rebuilt one at a time
    rebuilt = (_Pass(side.level, params, *chunk, True) for chunk in side.chunks[:-1])
    for p in itertools.chain(rebuilt, [last]):
        gs = p.gradients(dnmi, params, moving.spacing)
        gradient += gs.sum(axis=1)
        curvature += gs @ gs.T
    curvature *= side.size - hist.escaped
    curvature = 0.5 * (curvature + curvature.T)
    return MetricEvaluation(value=value, gradient=gradient, curvature=curvature,
                            sample_size=side.size, escaped=hist.escaped)


def metric_value(
    fixed: Volume,
    moving: Volume,
    params: RigidParams,
    idx,
    num_bins: int = DEFAULT_NUM_BINS,
    radius: int = 2,
) -> float:
    """NMI only, without kernel derivatives: the cheap path for trial points."""
    return nmi(accumulate(fixed, moving, params, idx, num_bins, radius))
