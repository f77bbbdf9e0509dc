"""Per-voxel sampling probabilities and per-iteration pixel draws.

Distributions live on one pyramid level's flat (x-fastest) voxel index
space.  Three kinds: uniform (every voxel min(M/N, 1)), gradient-magnitude
proportional, and their convex mixture with weight beta on the uniform side.
Draws are independent Bernoulli trials per voxel, so the selected count is
binomial with mean equal to the distribution's expected_count.

Runs that share a generator stream but not a distribution can share one
draw by thinning (Lewis & Shedler, 1979): ``draw_envelope`` draws against a
per-voxel bound and keeps each hit's uniform, and ``thin`` keeps the hits
whose uniform also falls below the distribution's own probability.  That
is exactly ``draw`` from the same generator state, since u < p implies
u < bound.  ``envelope_bound`` gives a bound for every distribution
``build`` makes on one level, whatever its kind or weight.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from sampreg.volume import Volume

# The sampler kinds, in the order commands list them.
KINDS = ("urs", "gms", "mixed")

# Uniforms generated at a time by ``draw``: 512 KB of float64, so a draw
# never holds a float array as long as the level.
_DRAW_BLOCK = 65536

# Relative margin by which ``envelope_bound`` exceeds max(urs, gms).
_BOUND_MARGIN = 2.0 ** -40


class DegenerateGradientError(ValueError):
    """Gradient field is zero everywhere; gradient sampling is undefined."""


@dataclass(frozen=True)
class SamplingDistribution:
    """Selection probabilities for every voxel of one pyramid level."""

    probs: np.ndarray
    expected_count: float
    kind: str  # one of KINDS
    level: int | None = None

    def __post_init__(self):
        probs = np.ascontiguousarray(self.probs, dtype=np.float64)
        object.__setattr__(self, "probs", probs)

    @property
    def num_voxels(self) -> int:
        return self.probs.size


def build_urs(n: int, m: float, level: int | None = None) -> SamplingDistribution:
    """Uniform sampling: every voxel at probability min(m/n, 1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if m <= 0:
        raise ValueError("expected sample count m must be positive")
    p = min(float(m) / n, 1.0)
    return SamplingDistribution(
        probs=np.full(n, p), expected_count=min(float(m), float(n)),
        kind="urs", level=level,
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
    probs = (1.0 - beta) * q.probs + beta * u.probs
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
    if kind == "gms":
        return gms, None
    return build_mixed(urs, gms, beta), None


def _bernoulli(probs: np.ndarray, rng: np.random.Generator) -> tuple:
    """(indices, uniforms) of one Bernoulli trial per voxel at ``probs``.

    The uniforms are generated ``_DRAW_BLOCK`` at a time into one buffer.
    A generator's stream carries on across calls, so the indices are those
    of ``np.flatnonzero(rng.random(n) < probs)``, each with the uniform
    that selected it, and the generator is left in the same state.
    """
    n = probs.size
    buf = np.empty(min(n, _DRAW_BLOCK))
    picked = [np.empty(0, dtype=np.intp)]
    kept = [np.empty(0)]
    for lo in range(0, n, _DRAW_BLOCK):
        u = buf[: min(_DRAW_BLOCK, n - lo)]
        rng.random(out=u)
        hits = np.flatnonzero(u < probs[lo : lo + u.size])
        kept.append(u[hits])
        hits += lo
        picked.append(hits)
    return np.concatenate(picked), np.concatenate(kept)


def draw(d: SamplingDistribution, rng: np.random.Generator) -> np.ndarray:
    """Sorted voxel indices from one Bernoulli trial per voxel.

    The indices are those of ``np.flatnonzero(rng.random(n) < d.probs)``,
    and the generator is left in the same state.
    """
    return _bernoulli(d.probs, rng)[0]


def envelope_bound(n: int, m: float, gradient: Volume) -> np.ndarray:
    """Per-voxel probability at least that of every distribution ``build``
    makes over these inputs, whatever the kind and mixing weight.

    That is max(urs, gms) raised by ``_BOUND_MARGIN``, which covers the
    rounding of (1-beta)*q + beta*u for every beta in [0, 1] (at most three
    roundings of a value no larger than max(q, u)); urs alone where the
    gradient is zero everywhere, as ``build`` then falls back to it.
    """
    probs = build_urs(n, m).probs
    try:
        probs = np.maximum(probs, build_gms(gradient, m).probs)
    except DegenerateGradientError:
        pass
    return probs * (1.0 + _BOUND_MARGIN)


def draw_envelope(bound: np.ndarray, rng: np.random.Generator) -> tuple:
    """(indices, uniforms) of one draw at per-voxel probability ``bound``.

    ``thin`` turns it into the draw of any distribution whose probabilities
    are at most ``bound``: a voxel with u < p also has u < bound.  Both
    consume the same uniforms, so the generator is left where ``draw``
    leaves it.
    """
    return _bernoulli(np.ascontiguousarray(bound, dtype=np.float64), rng)


def thin(envelope: tuple, d: SamplingDistribution) -> np.ndarray:
    """``draw(d, rng)`` from the envelope ``draw_envelope`` made with the
    same generator state, bit for bit, given d.probs <= its bound."""
    idx, u = envelope
    return idx[u < d.probs[idx]]


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
    """Read a mixing-weight file back into {level: beta}."""
    with open(path) as f:
        doc = json.load(f)
    betas = {}
    for entry in doc["levels"]:
        r = int(entry["r"])
        beta = float(entry["beta"])
        if not 0.0 <= beta <= 1.0:
            raise ValueError(f"beta for level {r} outside [0, 1]: {beta}")
        betas[r] = beta
    return betas
