"""Per-voxel sampling probabilities and per-iteration pixel draws.

Distributions live on one pyramid level's flat (x-fastest) voxel index
space.  Three kinds: uniform (every voxel min(M/N, 1)), gradient-magnitude
proportional, and their convex mixture with weight beta on the uniform side.
Draws are independent Bernoulli trials per voxel, so the selected count is
binomial with mean equal to the distribution's expected_count.

A draw costs O(M + number of classes), not O(N): it thins proposals from a
``Cover`` (selection by thinning, Lewis & Shedler, 1979; subset sampling,
Bringmann & Panagiotou, 2012).  The cover buckets the voxels by a dyadic
class 2^-k at least their probability, each class proposes every member
with probability 2^-k, found by geometric skips, each proposal carries a
uniform v on [0, 2^-k), and voxel i is kept iff v < p_i.  ``build`` gives
every distribution it makes on a level the same cover, from
max(urs, gms), so draws of any kind or weight from one generator state
share their proposals: a voxel kept at one weight is kept at every weight
that gives it at least the same probability.  A distribution made from
bare probabilities covers itself.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from sampreg.volume import Volume

# The sampler kinds, in the order commands list them.
KINDS = ("urs", "gms", "mixed")

# Relative margin by which a level's cover exceeds max(urs, gms), so it
# covers the rounding of (1-beta)*gms + beta*urs for every beta in [0, 1]
# (at most three roundings of a value no larger than max(gms, urs)).
_BOUND_MARGIN = 2.0 ** -40

# Largest biased float64 exponent of a class: 2^(1022 - 1022) = 1.
_TOP_EXPONENT = 1022


class DegenerateGradientError(ValueError):
    """Gradient field is zero everywhere; gradient sampling is undefined."""


@dataclass(frozen=True, eq=False)
class Cover:
    """Proposal classes over one level's voxels (see the module notes).

    Class k proposes each of its ``sizes[k]`` members with probability
    ``values[k]``, which is at least the probability of every distribution
    it covers there.  ``members`` lists the voxels class by class, in index
    order within a class; None means one class of every voxel, in order.
    """

    values: np.ndarray
    sizes: np.ndarray
    members: np.ndarray | None = field(default=None, repr=False)
    starts: np.ndarray = field(init=False, repr=False)  # of each class in ``members``
    log_miss: np.ndarray = field(init=False, repr=False)  # log(1 - values)

    def __post_init__(self):
        object.__setattr__(self, "starts", np.cumsum(self.sizes) - self.sizes)
        with np.errstate(divide="ignore"):  # -inf where a class proposes every member
            object.__setattr__(self, "log_miss", np.log1p(-self.values))


def _bucketed(bound: np.ndarray) -> Cover:
    """Cover putting voxel i in the class 2^e, e <= 0, least above bound[i].

    For a nonnegative float64 that is its biased exponent, bits >> 52,
    less 1022.  Zero and subnormal bounds (exponent 0) propose nothing.
    """
    exponent = np.ascontiguousarray(bound).view(np.int64) >> 52
    np.minimum(exponent, _TOP_EXPONENT, out=exponent)
    exponent = exponent.astype(np.int16)
    counts = np.bincount(exponent)
    present = np.flatnonzero(counts[1:]) + 1
    members = np.argsort(exponent, kind="stable")[counts[0]:].astype(np.int32)
    return Cover(np.ldexp(1.0, present - _TOP_EXPONENT), counts[present], members)


@dataclass(frozen=True, eq=False)
class SamplingDistribution:
    """Selection probabilities for every voxel of one pyramid level.

    ``cover`` holds the level's proposal classes, as ``build`` attaches
    them; None means the probabilities cover themselves.
    """

    probs: np.ndarray
    expected_count: float
    kind: str  # one of KINDS
    level: int | None = None
    cover: Cover | None = field(default=None, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "probs", np.asarray(self.probs, dtype=np.float64))

    @property
    def num_voxels(self) -> int:
        return self.probs.size

    @cached_property
    def _own_cover(self) -> Cover:
        return _bucketed(self.probs)


def build_urs(n: int, m: float, level: int | None = None) -> SamplingDistribution:
    """Uniform sampling: every voxel at probability min(m/n, 1).

    The probabilities are one constant broadcast over the level."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if m <= 0:
        raise ValueError("expected sample count m must be positive")
    p = min(float(m) / n, 1.0)
    return SamplingDistribution(
        probs=np.broadcast_to(p, n), expected_count=min(float(m), float(n)),
        kind="urs", level=level,
        cover=Cover(np.array([min(p * (1.0 + _BOUND_MARGIN), 1.0)]), np.array([n])),
    )


def build_gms(g: Volume, m: float, level: int | None = None) -> SamplingDistribution:
    """Probabilities proportional to gradient magnitude, averaging m picks.

    The proportionality factor is solved so the probabilities sum to
    min(m, n); entries that would exceed 1 are clipped and the factor
    re-solved on the remainder until no new entry clips.  Zero-gradient
    voxels get probability 0.
    """
    if m <= 0:
        raise ValueError("expected sample count m must be positive")
    g_flat = g.flat_values().astype(np.float64)
    if np.any(g_flat < 0):
        raise ValueError("gradient magnitudes must be nonnegative")
    positive = g_flat > 0
    n_pos = int(positive.sum())
    if n_pos == 0:
        raise DegenerateGradientError(
            "all-zero gradient field; fall back to uniform sampling"
        )
    n = g_flat.size
    # Only n_pos voxels are reachable, so that caps the achievable mass.
    target = min(float(m), float(n), float(n_pos))

    probs = np.zeros(n)
    clipped = np.zeros(n, dtype=bool)
    remaining = target
    while True:
        free = positive & ~clipped
        denom = g_flat[free].sum()
        if denom <= 0 or remaining <= 0:
            break
        alpha = remaining / denom
        newly = free & (alpha * g_flat > 1.0)
        if not newly.any():
            probs[free] = alpha * g_flat[free]
            break
        clipped |= newly
        probs[newly] = 1.0
        remaining = target - clipped.sum()
    return SamplingDistribution(
        probs=probs, expected_count=float(probs.sum()), kind="gms", level=level,
    )


def build_mixed(
    u: SamplingDistribution, q: SamplingDistribution, beta: float
) -> SamplingDistribution:
    """Convex mixture (1-beta)*gms + beta*urs of two matching distributions."""
    if u.kind != "urs" or q.kind != "gms":
        raise ValueError(f"build_mixed needs (urs, gms), got ({u.kind}, {q.kind})")
    if beta is None or not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must be in [0, 1], got {beta}")
    if u.num_voxels != q.num_voxels:
        raise ValueError("mixed components must cover the same voxel count")
    if u.level != q.level:
        raise ValueError("mixed components must belong to the same level")
    if not np.isclose(u.expected_count, q.expected_count, rtol=1e-6):
        raise ValueError(
            "mixed components must share the expected count "
            f"({u.expected_count} vs {q.expected_count})"
        )
    probs = q.probs * (1.0 - beta)
    probs += beta * u.probs
    return SamplingDistribution(
        probs=probs, expected_count=float(probs.sum()),
        kind="mixed", level=u.level,
    )


def budget(rate: float, n: int) -> float:
    """Expected sample count M for a sampled fraction ``rate`` of n voxels."""
    if not 0.0 < rate <= 1.0:
        raise ValueError(f"rate must be in (0, 1], got {rate}")
    return max(1.0, round(rate * n))


def build(
    kind: str,
    n: int,
    m: float,
    gradient: Volume | None = None,
    beta: float | None = None,
    level: int | None = None,
) -> tuple:
    """(distribution, fallback) of ``kind`` over n voxels, averaging m picks.

    gms and mixed read ``gradient`` (magnitudes on the same n voxels), mixed
    also ``beta``.  Where the gradient is zero everywhere or too sparse to
    carry m picks they fall back to urs, and ``fallback`` names the reason:
    "gradient degenerate" or "gradient support below budget"; else None.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown sampler kind {kind!r}, expected {KINDS}")
    urs = build_urs(n, m, level=level)
    if kind == "urs":
        return urs, None
    try:
        gms = build_gms(gradient, m, level=level)
    except DegenerateGradientError:
        return urs, "gradient degenerate"
    if not np.isclose(gms.expected_count, urs.expected_count, rtol=1e-6):
        return urs, "gradient support below budget"
    # one cover for every kind and weight on the level (see the module notes)
    cover = _bucketed(np.maximum(gms.probs, urs.probs) * (1.0 + _BOUND_MARGIN))
    d = gms if kind == "gms" else build_mixed(urs, gms, beta)
    return replace(d, cover=cover), None


def _proposals(cover: Cover, rng: np.random.Generator) -> tuple:
    """(class, position in class) of each proposal of one draw.

    Class k proposes each of its members independently with probability
    ``cover.values[k]``, so a Binomial(sizes[k], values[k]) number of
    distinct members, uniformly.  Geometric skips between proposals find
    them, each from one uniform, so the cost follows the number proposed.
    """
    sizes = cover.sizes
    start = np.zeros(sizes.size, dtype=np.int64)  # first position not yet decided
    live = np.flatnonzero(sizes)
    classes, positions = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.int64)]
    while live.size:
        # enough skips to pass a class's end with high probability; classes
        # that fall short go round again from where they stopped
        mean = (sizes[live] - start[live]) * cover.values[live]
        count = (mean + 4.0 * np.sqrt(mean) + 4.0).astype(np.int64)
        cls = np.repeat(live, count)
        skip = np.log(1.0 - rng.random(cls.size))
        with np.errstate(over="ignore"):  # inf in the least classes, clipped next
            skip /= cover.log_miss[cls]
        np.minimum(skip, sizes[cls], out=skip)
        step = skip.astype(np.int64) + 1
        pos = np.cumsum(step)
        ends = np.cumsum(count)
        pos += np.repeat(start[live] - 1 - (pos[ends - count] - step[ends - count]), count)
        keep = pos < sizes[cls]
        classes.append(cls[keep])
        positions.append(pos[keep])
        start[live] = pos[ends - 1] + 1
        live = live[start[live] < sizes[live]]
    return np.concatenate(classes), np.concatenate(positions)


def draw(d: SamplingDistribution, rng: np.random.Generator) -> np.ndarray:
    """Sorted voxel indices of one Bernoulli trial per voxel at d.probs.

    Thins the proposals of d's cover (see the module notes), so its cost
    follows the cover's expected count, at most four times d's.
    """
    cover = d._own_cover if d.cover is None else d.cover
    cls, pos = _proposals(cover, rng)
    idx = pos if cover.members is None else cover.members[cover.starts[cls] + pos]
    v = rng.random(idx.size)
    v *= cover.values[cls]
    return np.sort(idx[v < d.probs[idx]]).astype(np.intp, copy=False)


# ---------------------------------------------------------------------------
# Learned mixing-weight file
# ---------------------------------------------------------------------------


def save_betas(betas: dict, path, extra: dict | None = None) -> None:
    """Write per-level mixing weights as {"levels":[{"r":..,"beta":..},..]}.

    ``extra`` adds sibling top-level keys (e.g. provenance); readers key on
    "levels" only, so additions stay backward compatible.
    """
    doc = {
        "levels": [
            {"r": int(r), "beta": float(betas[r])} for r in sorted(betas, reverse=True)
        ]
    }
    for key, value in (extra or {}).items():
        if key == "levels":
            raise ValueError("extra keys must not shadow 'levels'")
        doc[key] = value
    with open(path, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


def load_betas(path) -> dict:
    """Read a mixing-weight file back into {level: beta}.

    Each entry needs an integer level of at least 1, listed once, and a
    number in [0, 1]; the first entry that lacks one is named by position.
    """
    with open(path) as f:
        doc = json.load(f)
    betas = {}
    for i, entry in enumerate(doc["levels"]):
        r, beta = entry["r"], entry["beta"]
        if type(r) is not int or r < 1:
            raise ValueError(f"levels[{i}]: level must be an integer >= 1, got {r!r}")
        if r in betas:
            raise ValueError(f"levels[{i}]: level {r} is listed twice")
        if type(beta) not in (int, float) or not 0.0 <= beta <= 1.0:
            raise ValueError(f"levels[{i}]: beta for level {r} outside [0, 1]: {beta!r}")
        betas[r] = float(beta)
    return betas
