"""Per-voxel sampling probabilities and per-iteration pixel draws.

Distributions live on one pyramid level's flat (x-fastest) voxel index
space.  Three kinds: uniform (every voxel min(M/N, 1)), gradient-magnitude
proportional, and their convex mixture with weight beta on the uniform side.
Draws are independent Bernoulli trials per voxel, so the selected count is
binomial with mean equal to the distribution's expected_count.
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


class DegenerateGradientError(ValueError):
    """Gradient field is zero everywhere; gradient sampling is undefined."""


@dataclass(frozen=True)
class SamplingDistribution:
    """Selection probabilities for every voxel of one pyramid level."""

    probs: np.ndarray
    expected_count: float
    kind: str  # one of KINDS
    level: int | None = None
    beta: float | None = None

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
    if not 0.0 <= beta <= 1.0:
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
        kind="mixed", level=u.level, beta=float(beta),
    )


def draw(d: SamplingDistribution, rng: np.random.Generator) -> np.ndarray:
    """Sorted voxel indices from one Bernoulli trial per voxel.

    The uniforms are generated ``_DRAW_BLOCK`` at a time into one buffer.
    A generator's stream carries on across calls, so the indices are those
    of ``np.flatnonzero(rng.random(n) < d.probs)`` and leave the generator
    in the same state.
    """
    n = d.num_voxels
    buf = np.empty(min(n, _DRAW_BLOCK))
    picked = [np.empty(0, dtype=np.intp)]
    for lo in range(0, n, _DRAW_BLOCK):
        u = buf[: min(_DRAW_BLOCK, n - lo)]
        rng.random(out=u)
        hits = np.flatnonzero(u < d.probs[lo : lo + u.size])
        hits += lo
        picked.append(hits)
    return np.concatenate(picked)


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
