"""Sampling distribution construction and Bernoulli draw tests."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from sampreg import sampler
from sampreg.rng import make_rng
from sampreg.sampler import DegenerateGradientError
from sampreg.volume import Volume, gradient_magnitude


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


@pytest.mark.parametrize("m", [3, 4, 50])
def test_gms_budget_at_or_above_the_nonzero_count_clips_every_one(m):
    d = sampler.build_gms(gradient_volume([1, 0, 3, 2]), m)
    np.testing.assert_array_equal(d.probs[:4], [1.0, 0.0, 1.0, 1.0])
    np.testing.assert_array_equal(d.probs[4:], 0.0)
    assert d.expected_count == 3.0


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


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(
        st.one_of(st.just(0.0), st.floats(1e-6, 1e6)), min_size=8, max_size=8,
    ).filter(any),
    m=st.floats(1e-3, 16.0),
)
def test_gms_probabilities_are_unit_bounded_with_mass_min_m_npos(values, m):
    d = sampler.build_gms(gradient_volume(values), m)
    n_pos = sum(v > 0 for v in values)
    assert d.probs.min() >= 0.0 and d.probs.max() <= 1.0
    assert d.probs.sum() == pytest.approx(min(m, n_pos), rel=1e-9)
    assert d.expected_count == d.probs.sum()


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


def test_draw_returns_sorted_unique_indices():
    d = sampler.build_urs(2000, 100)
    idx = sampler.draw(d, make_rng(5))
    assert np.all(np.diff(idx) > 0)


def test_draw_cardinality_concentrates():
    d = sampler.build_urs(10000, 100)
    counts = [len(sampler.draw(d, make_rng(60, k))) for k in range(200)]
    assert abs(np.mean(counts) - 100) <= 3 * np.sqrt(100)


@pytest.mark.parametrize("n", [2**16 - 1, 2**16, 2**16 + 1, 96 ** 3])
def test_blockwise_draw_keeps_the_whole_level_stream(n):
    """A draw proposes in rounds of geometric skips, class by class; over
    levels about and well past 2^16 voxels its draws reach every quarter of
    the level at that quarter's rate, and a generator at the same seed
    repeats them and ends at the same place."""
    probs = np.linspace(0.0, 0.01, n)
    d = sampler.SamplingDistribution(probs=probs, expected_count=probs.sum(), kind="gms")
    k = 40
    rng, again = make_rng(9, n), make_rng(9, n)
    drawn = [sampler.draw(d, rng) for _ in range(k)]
    for idx in drawn:
        assert idx.dtype == np.intp and np.all(np.diff(idx) > 0)
        assert idx[0] > 0 and idx[-1] < n  # voxel 0 has probability 0
        np.testing.assert_array_equal(sampler.draw(d, again), idx)
    assert repr(rng.bit_generator.state) == repr(again.bit_generator.state)
    edges = np.linspace(0, n, 5).astype(int)
    hits = np.histogram(np.concatenate(drawn), bins=edges)[0]
    for q, count in enumerate(hits):
        p = probs[edges[q]:edges[q + 1]]
        assert abs(count - k * p.sum()) < 5 * np.sqrt(k * (p * (1 - p)).sum())


# ---------------------------------------------------------------------------
# Draw frequencies
# ---------------------------------------------------------------------------

# Draws a frequency check makes of each distribution, the family-wise
# false-alarm rate of each of its two tests, and its chi-square cells.
FREQ_DRAWS = 10_000
FREQ_FWER = 1e-3
FREQ_CELLS = 20


def draw_hits(d: sampler.SamplingDistribution, n_draws: int, rng) -> np.ndarray:
    """How often each voxel was selected in ``n_draws`` draws of d from rng."""
    hits = np.zeros(d.num_voxels)
    for _ in range(n_draws):
        hits[sampler.draw(d, rng)] += 1
    return hits


def frequency_failures(family, n_draws: int) -> list:
    """Where hit counts disagree with their probabilities; empty when none do.

    ``family`` holds (probs, hits) of each distribution, its hits counted
    over ``n_draws`` independent draws.  Two tests, each with family-wise
    false-alarm rate at most ``FREQ_FWER``:

    * every voxel's count against the exact two-sided binomial tail
      (twice the smaller tail), Bonferroni-corrected over all the family's
      voxels: catches one voxel drawn too often or too rarely;
    * per distribution, a chi-square over ``FREQ_CELLS`` cells of voxels
      grouped by probability quantile, at ``FREQ_FWER`` / len(family):
      catches a bias shared by many voxels, each too small to flag alone.
      Voxels are pooled because many expect fewer than 5 hits; a cell's
      count is a sum of independent binomials, so its variance is
      n * sum p(1-p).
    """
    failures = []
    voxel_alpha = FREQ_FWER / sum(probs.size for probs, _ in family)
    for j, (probs, hits) in enumerate(family):
        tail = np.minimum(stats.binom.cdf(hits, n_draws, probs),
                          stats.binom.sf(hits - 1, n_draws, probs))
        flagged = np.flatnonzero(2 * tail < voxel_alpha)
        if flagged.size:
            failures.append(f"distribution {j}: voxels {flagged.tolist()} outside their "
                            f"binomial tails at {voxel_alpha:.2g}")
        groups = np.array_split(np.argsort(probs, kind="stable"), FREQ_CELLS)
        deviation = np.array([hits[g].sum() - n_draws * probs[g].sum() for g in groups])
        variance = np.array([n_draws * np.sum(probs[g] * (1 - probs[g])) for g in groups])
        live = variance > 0  # a cell of certain voxels is left to the per-voxel test
        statistic = float(np.sum(deviation[live] ** 2 / variance[live]))
        p_value = stats.chi2.sf(statistic, live.sum())
        if p_value < FREQ_FWER / len(family):
            failures.append(f"distribution {j}: chi-square {statistic:.1f} on {live.sum()} "
                            f"quantile cells, p = {p_value:.2g}")
    return failures


def frequency_grid() -> tuple:
    """(urs, gms) at a 2% rate on the 12-cube grid acceptance test 2 draws on."""
    small = Volume(data=make_rng(9).random((12, 12, 12)) * 40, spacing=(1, 1, 1))
    n, m = small.num_voxels, 0.02 * small.num_voxels
    return sampler.build_urs(n, m), sampler.build_gms(gradient_magnitude(small), m)


def _scaled(d: sampler.SamplingDistribution, factor) -> sampler.SamplingDistribution:
    probs = np.minimum(d.probs * factor, 1.0)
    return sampler.SamplingDistribution(probs, float(probs.sum()), d.kind)


def _top_voxel(d: sampler.SamplingDistribution, factor: float) -> sampler.SamplingDistribution:
    scale = np.ones(d.num_voxels)
    scale[np.argmax(d.probs)] = factor
    return _scaled(d, scale)


@functools.cache
def _sound_family() -> tuple:
    """Acceptance test 2's family (urs, gms, mixed at beta 0.3) and its hits."""
    us, qs = frequency_grid()
    family = (us, qs, sampler.build_mixed(us, qs, 0.3))
    rng = make_rng(10)
    return family, tuple(draw_hits(d, FREQ_DRAWS, rng) for d in family)


@pytest.mark.parametrize("defect", ["top gms voxel x0.5", "top gms voxel x1.5",
                                    "every gms p x1.05", "beta 0.30 -> 0.35"])
def test_frequency_check_flags_each_defect(defect):
    """The family with one member drawn from a defective distribution is flagged."""
    family, hits = _sound_family()
    us, qs, _ = family
    member, defective = {
        "top gms voxel x0.5": (1, _top_voxel(qs, 0.5)),
        "top gms voxel x1.5": (1, _top_voxel(qs, 1.5)),
        "every gms p x1.05": (1, _scaled(qs, 1.05)),
        "beta 0.30 -> 0.35": (2, sampler.build_mixed(us, qs, 0.35)),
    }[defect]
    hits = list(hits)
    hits[member] = draw_hits(defective, FREQ_DRAWS, make_rng(11, member))
    assert frequency_failures([(d.probs, h) for d, h in zip(family, hits)], FREQ_DRAWS)


def test_draw_frequencies_match_probs():
    """Both draw paths: a bare mixture draws through its own cover, while
    ``sampler.build`` attaches the level's shared cover, as registrations use."""
    rng = make_rng(34)
    g = Volume(data=rng.random((4, 4, 4)) + 0.02, spacing=(1, 1, 1))
    q = sampler.build_gms(g, 12, level=1)
    u = sampler.build_urs(g.num_voxels, 12, level=1)
    built, fallback = sampler.build("mixed", g.num_voxels, 12, g, 0.3, level=1)
    assert fallback is None and built.cover is not None
    family = []
    for root, d in ((70, sampler.build_mixed(u, q, 0.3)), (71, built)):
        hits = np.zeros(d.num_voxels)
        for k in range(FREQ_DRAWS):
            hits[sampler.draw(d, make_rng(root, k))] += 1
        family.append((d.probs, hits))
    assert frequency_failures(family, FREQ_DRAWS) == []


# ---------------------------------------------------------------------------
# Covers: proposals shared by a level's distributions, and the draw's cost
# ---------------------------------------------------------------------------


def class_values(d: sampler.SamplingDistribution) -> np.ndarray:
    """The proposal probability d's cover gives each voxel (0: never proposed)."""
    cover = d.cover
    if cover.members is None:
        return np.full(d.num_voxels, cover.values[0])
    values = np.zeros(d.num_voxels)
    values[cover.members] = np.repeat(cover.values, cover.sizes)
    return values


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_thinning_an_envelope_draw_is_the_draw(n, seed, data):
    """A draw thins its cover's proposals: from one generator state, the
    draw at the cover's own class values (the envelope, which keeps every
    proposal) holds every voxel the draw keeps, and every proposed voxel
    whose probability is its class value."""
    bound = np.array(data.draw(st.lists(st.floats(0.0, 1.5), min_size=n, max_size=n)))
    # p <= bound voxel by voxel, with ties (fraction 1) and zeros among them
    frac = np.array(data.draw(st.lists(
        st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)), min_size=n, max_size=n,
    )))
    cover = sampler._bucketed(bound)
    probs = np.minimum(bound * frac, 1.0)
    d = sampler.SamplingDistribution(probs=probs, expected_count=probs.sum(), kind="gms",
                                     cover=cover)
    values = class_values(d)
    # zero and subnormal bounds (below 2^-1022) propose nothing; every other
    # voxel's class value is at least its probability
    proposable = values > 0
    np.testing.assert_array_equal(proposable, bound >= np.finfo(np.float64).tiny)
    assert np.all(probs[proposable] <= values[proposable])
    envelope = sampler.SamplingDistribution(probs=values, expected_count=values.sum(),
                                            kind="gms", cover=cover)
    enveloped, direct = make_rng(seed), make_rng(seed)
    for _ in range(3):  # later draws check where the stream was left
        proposed, got = sampler.draw(envelope, enveloped), sampler.draw(d, direct)
        assert got.dtype == proposed.dtype and np.all(np.diff(proposed) > 0)
        assert np.all(np.isin(got, proposed)) and np.all(probs[got] > 0)
        certain = proposed[probs[proposed] == values[proposed]]
        assert np.all(np.isin(certain, got))
    # the state holds small arrays (counter, key, buffer), which repr prints whole
    assert repr(enveloped.bit_generator.state) == repr(direct.bit_generator.state)


# Weights at and next to the ends of [0, 1], where (1-beta)*q + beta*u rounds
# furthest from its exact value.
EDGE_BETAS = (0.0, 2.0**-53, 0.5, 1.0 - 2.0**-53, 1.0)


def assert_cover_covers_every_build(n, m, g, betas):
    """Every distribution ``build`` makes on these inputs lies under its
    cover's class values, the level's envelope bound, and every gms or
    mixed one has the same cover."""
    urs = sampler.build("urs", n, m)[0]
    assert np.all(urs.probs <= class_values(urs))
    gms, fallback = sampler.build("gms", n, m, g)
    level = class_values(gms)
    assert np.all(level <= 1.0) and np.all(gms.probs <= level)
    for beta in betas:
        mixed = sampler.build("mixed", n, m, g, beta=beta)[0]
        assert np.all(mixed.probs <= level)
        np.testing.assert_array_equal(class_values(mixed), level)
    if fallback is None:  # max(urs, gms), rounded up to a power of two, at most 1
        top = np.maximum(urs.probs, gms.probs)
        assert np.all((top < level) | (level == 1.0))
        assert np.all(level < 2 * top * (1 + 2.0 ** -40))


# Mixing weights anywhere in [0, 1], and within 1e-9 of either end, where
# the rounding of 1 - beta is largest against beta itself.
WEIGHTS = st.one_of(
    st.floats(0.0, 1.0), st.floats(0.0, 1e-9), st.floats(0.0, 1e-9).map(lambda b: 1.0 - b),
)


@settings(max_examples=60, deadline=None)
@given(
    dims=st.tuples(st.integers(2, 5), st.integers(2, 5), st.integers(2, 5)),
    m=st.floats(0.5, 8.0),
    betas=st.lists(WEIGHTS, min_size=1, max_size=20),
)
def test_envelope_bound_covers_mixtures_where_gms_equals_urs(dims, m, betas):
    # a constant gradient gives every voxel gms == urs == m/n, bit for bit
    g = Volume(data=np.ones(dims), spacing=(1, 1, 1))
    n = g.num_voxels
    np.testing.assert_array_equal(sampler.build_gms(g, m).probs, sampler.build_urs(n, m).probs)
    assert_cover_covers_every_build(n, m, g, EDGE_BETAS + tuple(betas))


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(
        st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 100.0)), min_size=8, max_size=8,
    ),
    m=st.one_of(st.integers(1, 8), st.floats(0.5, 8.0)),
    beta=WEIGHTS,
)
def test_envelope_bound_covers_every_distribution_build_makes(values, m, beta):
    # zeros make the degenerate and below-budget urs fallbacks
    assert_cover_covers_every_build(8, m, gradient_volume(values), EDGE_BETAS + (beta,))


@settings(max_examples=60, deadline=None)
@given(
    dims=st.tuples(st.integers(2, 6), st.integers(2, 6), st.integers(2, 6)),
    data_seed=st.integers(0, 2**32 - 1),
    power=st.floats(0.0, 4.0),
    m=st.floats(0.5, 30.0),
    betas=st.tuples(WEIGHTS, WEIGHTS),
    seed=st.integers(0, 2**32 - 1),
)
def test_draws_at_two_weights_are_coupled(dims, data_seed, power, m, betas, seed):
    """From one level's cover and one generator state, a voxel drawn at one
    weight is drawn at every weight that gives it at least the same
    probability; training's common random numbers rest on this."""
    g = Volume(data=make_rng(data_seed).random(dims) ** power, spacing=(1, 1, 1))
    n = g.num_voxels
    d1, d2 = (sampler.build("mixed", n, min(m, n), g, beta=beta)[0] for beta in betas)
    rng1, rng2 = make_rng(seed), make_rng(seed)
    for _ in range(3):  # later draws check that both leave the stream at one place
        picked1, picked2 = sampler.draw(d1, rng1), sampler.draw(d2, rng2)
        at_least = d2.probs[picked1] >= d1.probs[picked1]
        assert np.all(np.isin(picked1[at_least], picked2))
        at_most = d1.probs[picked2] >= d2.probs[picked2]
        assert np.all(np.isin(picked2[at_most], picked1))
    # the state holds small arrays (counter, key, buffer), which repr prints whole
    assert repr(rng1.bit_generator.state) == repr(rng2.bit_generator.state)


def words_used(rng) -> int:
    """64-bit words a fresh Philox generator has produced."""
    state = rng.bit_generator.state
    counter = sum(int(w) << (64 * i) for i, w in enumerate(state["state"]["counter"]))
    return 4 * counter - (4 - state["buffer_pos"])


@pytest.mark.parametrize("kind", ["urs", "mixed"])
def test_draw_cost_follows_the_sample_count_not_the_voxel_count(kind):
    """At one budget, a draw from 2^22 voxels uses about as many random
    words as a draw from 2^16; one uniform per voxel would use 64 times more."""
    used = []
    for dims in ((64, 32, 32), (256, 128, 128)):
        g = Volume(data=make_rng(35).gamma(2.0, size=dims).astype(np.float32), spacing=(1, 1, 1))
        d, fallback = sampler.build(kind, g.num_voxels, 500, g, beta=0.5)
        assert fallback is None
        rng = make_rng(36)
        picked = sum(sampler.draw(d, rng).size for _ in range(20))
        assert abs(picked - 20 * 500) < 5 * np.sqrt(20 * 500)
        used.append(words_used(rng))
    assert 0.5 < used[1] / used[0] < 2.0, used


# ---------------------------------------------------------------------------
# Budget and factory
# ---------------------------------------------------------------------------


def test_budget_rounds_rate_times_n_and_keeps_one_sample():
    assert sampler.budget(0.005, 32768) == round(0.005 * 32768)
    assert sampler.budget(1e-9, 1000) == 1.0
    assert sampler.budget(1.0, 7) == 7
    for rate in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError, match="rate"):
            sampler.budget(rate, 100)


def test_build_kinds(phantom32):
    n = phantom32.num_voxels
    m = sampler.budget(0.005, n)
    g = gradient_magnitude(phantom32)
    for kind in ("urs", "gms"):
        d, fallback = sampler.build(kind, n, m, g)
        assert d.kind == kind and fallback is None
        assert d.expected_count == pytest.approx(round(0.005 * n), rel=1e-6)
    d, fallback = sampler.build("mixed", n, m, g, beta=0.2)
    assert d.kind == "mixed" and fallback is None
    with pytest.raises(ValueError):
        sampler.build("mixed", n, m, g)
    with pytest.raises(ValueError):
        sampler.build("fancy", n, m, g)
    with pytest.raises(ValueError):
        sampler.build("urs", n, sampler.budget(0.0, n))


@pytest.mark.parametrize("kind", ["gms", "mixed"])
@pytest.mark.parametrize("values, reason", [
    ([], "gradient degenerate"),
    ([1.0, 2.0], "gradient support below budget"),
])
def test_build_falls_back_to_uniform(kind, values, reason):
    d, fallback = sampler.build(kind, 8, 3, gradient_volume(values), beta=0.5, level=2)
    assert fallback == reason
    assert d.kind == "urs" and d.level == 2
    np.testing.assert_array_equal(d.probs, 3 / 8)


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


@pytest.mark.parametrize("levels, match", [
    ([{"r": 1, "beta": 0.2}, {"r": 1, "beta": 0.9}], r"levels\[1\]: level 1 is listed twice"),
    ([{"r": 1.7, "beta": 0.2}], r"levels\[0\]: level must be an integer >= 1, got 1.7"),
    ([{"r": True, "beta": 0.2}], r"levels\[0\]: level must be an integer >= 1, got True"),
    ([{"r": 2, "beta": 0.2}, {"r": 1, "beta": True}], r"levels\[1\]: beta for level 1 .*True"),
    ([{"r": 0, "beta": 0.2}], r"levels\[0\]: level must be an integer >= 1, got 0"),
    ([{"r": -2, "beta": 0.2}], r"levels\[0\]: level must be an integer >= 1, got -2"),
])
def test_load_betas_rejects_malformed_levels(tmp_path, levels, match):
    import json

    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"levels": levels}))
    with pytest.raises(ValueError, match=match):
        sampler.load_betas(path)
