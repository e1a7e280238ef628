import bisect
import functools
import hashlib
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shockcop.distributions import (
    _GUARD_ULPS,
    _PROBE_LIMIT,
    _SORTED_LOOKUP_KNOTS,
    _SORTED_LOOKUP_POINTS,
    EfgmMargin,
    EfgmShock,
    Exponential,
    MappedCdf,
    NegatedCdf,
    Product,
    SurvivalProduct,
    TabulatedCdf,
    Uniform,
    _level_index,
    load_tabulated_csv,
    negated,
    point_mass,
)
from shockcop.errors import MalformedCdfError, TableFormatError

STEP = TabulatedCdf([0.0, 1.0], [0.4, 1.0], "step")

ALL_DISTS = [
    Uniform(),
    Uniform(-2.0, 3.0),
    Exponential(2.0),
    negated(Exponential(1.5)),
    EfgmMargin(0.95),
    EfgmShock(0.95),
    STEP,
    TabulatedCdf([0.0, 0.5, 2.0], [0.0, 0.25, 1.0], "linear"),
    Product(Uniform(), Exponential(1.0)),
    SurvivalProduct(Exponential(1.0), Exponential(3.0)),
    negated(Exponential(1.0)),
]


def test_uniform_cdf_is_identity_on_unit_interval():
    assert Uniform().cdf(0.3) == 0.3


def test_exponential_cdf_half_life():
    # solve 1 - exp(-2x) = 0.5 by hand: x = ln(2)/2
    assert Exponential(2.0).cdf(math.log(2.0) / 2.0) == pytest.approx(0.5, abs=1e-15)


def test_efgm_margin_closed_form_value():
    # substitute into the explicit root formula and cross-check the numeric
    # inverse of the quantile quadratic (a+1)t - a t^2 = x
    d = EfgmMargin(1.0)
    expected = (2.0 - math.sqrt(2.0)) / 2.0
    assert d.cdf(0.5) == pytest.approx(expected, abs=1e-15)
    t = expected
    assert (1.0 + 1.0) * t - 1.0 * t * t == pytest.approx(0.5, abs=1e-12)


def test_cdf_at_sentinels():
    for d in ALL_DISTS:
        assert d.cdf(-math.inf) == 0.0
        assert d.cdf(math.inf) == 1.0


def test_cdf_left_of_continuous_families_equals_cdf():
    assert Uniform().cdf_left(0.5) == 0.5


def test_cdf_left_single_jump():
    d = point_mass(0.0)
    assert d.cdf_left(0.0) == 0.0
    assert d.cdf(0.0) == 1.0


def test_cdf_left_of_step_table():
    assert STEP.cdf_left(1.0) == 0.4
    assert STEP.cdf(1.0) == 1.0
    assert STEP.cdf_left(0.0) == 0.0


def test_quantile_identity_for_uniform():
    assert Uniform().quantile(0.3) == 0.3


def test_quantile_at_zero_is_negative_infinity():
    # inf over the whole line: F >= 0 everywhere
    assert Exponential(3.0).quantile(0.0) == -math.inf
    assert Uniform().quantile(0.0) == -math.inf


def test_quantile_of_step_table_at_jump_level():
    assert STEP.quantile(0.4) == 0.0
    assert STEP.quantile(0.41) == 1.0
    assert STEP.quantile(1.0) == 1.0


def test_step_table_quantile_of_a_0d_level_is_0d():
    # np.searchsorted returns a scalar for a 0-d level, and the step lookup fills its
    # output in place
    got = STEP.quantile_array(np.array(0.41))
    assert got.shape == () and got == 1.0
    assert SHORT_STEP._quantile_array(np.array(0.7)) == np.inf  # above the table's top


def test_quantile_beyond_reach_is_positive_infinity():
    assert Exponential(1.0).quantile(1.0) == math.inf


def test_quantile_at_one_is_the_right_endpoint():
    # the closed forms evaluated at u = 1 round away from the endpoint here
    assert Uniform(-0.3, 0.1).quantile(1.0) == 0.1
    assert Uniform(0.2, 0.9).quantile(1.0) == 0.9
    assert EfgmMargin(0.13).quantile(1.0) == 1.0
    assert EfgmShock(0.3).quantile(1.0) == 1.0


def test_product_of_uniforms():
    assert Product(Uniform(), Uniform()).cdf(0.5) == 0.25


def test_product_of_exponentials_spot_value():
    d = Product(Exponential(1.0), Exponential(1.0))
    assert d.cdf(1.0) == pytest.approx((1.0 - math.exp(-1.0)) ** 2, abs=1e-15)


def test_product_reproduces_efgm_margin():
    # the closed-form margin factors exactly through the closed-form shock
    a = 1.0
    prod = Product(Uniform(), EfgmShock(a))
    margin = EfgmMargin(a)
    assert prod.cdf(0.5) == pytest.approx(0.5 * 2.0 / (2.0 + math.sqrt(2.0)), abs=1e-15)
    for x in np.linspace(-0.5, 1.5, 41):
        assert prod.cdf(x) == pytest.approx(margin.cdf(x), abs=1e-12)


def test_product_is_same_floating_point_expression():
    d1, d2 = Exponential(1.0), Uniform(0.0, 2.0)
    prod = Product(d1, d2)
    for x in np.linspace(-1.0, 3.0, 23):
        assert prod.cdf(x) == d1.cdf(x) * d2.cdf(x)


def test_survival_product_is_min_law():
    d = SurvivalProduct(Exponential(1.0), Exponential(3.0))
    # min of independent exponentials is exponential with the rate sum
    ref = Exponential(4.0)
    for x in np.linspace(0.0, 3.0, 31):
        assert d.cdf(x) == pytest.approx(ref.cdf(x), abs=1e-12)


def test_negated_round_trip_unwraps():
    d = Exponential(1.0)
    assert negated(negated(d)) is d


def test_negated_cdf_matches_reflection():
    d = negated(Exponential(2.0))
    for x in np.linspace(-3.0, 0.5, 29):
        assert d.cdf(x) == pytest.approx(1.0 - Exponential(2.0).cdf(-x), abs=1e-15)


def test_neg_exponential_quantile_closed_form():
    d = negated(Exponential(2.0))
    for u in (0.1, 0.5, 0.9):
        assert d.cdf(d.quantile(u)) == pytest.approx(u, abs=1e-12)
    assert d.quantile(1.0) == 0.0


_NEG_EXP_POINTS = st.one_of(
    st.floats(-800.0, 5.0), st.sampled_from([0.0, -0.0, math.inf, -math.inf, -5e-324])
)


@given(
    st.floats(math.exp(-5.0), math.exp(5.0)),
    st.lists(_NEG_EXP_POINTS, min_size=1, max_size=20),
    st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), min_size=1, max_size=20),
)
@settings(max_examples=300, deadline=None)
def test_negated_exponential_reads_the_upper_tail_to_the_bit(rate, xs, us):
    # 1 - F(-x) by subtraction read 0 at x = -40 where exp(-40) is 4.25e-18
    # and its quantile is the closed form log(u)/rate, where the generic inverse was
    # up to 4.2e-14 off
    xs, us = np.array(xs), np.array(us)
    want = np.where(xs >= 0.0, 1.0, np.exp(rate * np.minimum(xs, 0.0)))
    d = negated(Exponential(rate))
    for left in (False, True):
        assert d.cdf_array(xs, left).tobytes() == want.tobytes()
    want = np.log(us) / rate
    assert d.quantile_array(us).tobytes() == want.tobytes()
    assert np.array([d.quantile(u) for u in us.tolist()]).tobytes() == want.tobytes()
    assert d.describe() == f"neg-exp:rate={rate!r}"
    assert negated(d).describe() == f"exp:rate={rate!r}"


@pytest.mark.parametrize("d", ALL_DISTS, ids=lambda d: d.describe())
def test_quantile_inverse_properties(d):
    rng = np.random.default_rng(7)
    for u in rng.random(1000):
        if u == 0.0:
            continue
        q = d.quantile(float(u))
        if q == math.inf:
            assert d.cdf(1e12) < u
            continue
        assert q != -math.inf
        assert d.cdf(q) >= u - 1e-12


@pytest.mark.parametrize("d", ALL_DISTS, ids=lambda d: d.describe())
def test_quantile_of_cdf_stays_left(d):
    xs = d.quantile_array(np.linspace(1e-6, 1.0 - 1e-6, 41))
    for x in xs:
        q = d.quantile(d.cdf(float(x)))
        if q in (-math.inf, math.inf):
            continue
        # levels u = 1-eps lose relative precision in eps; allow for it
        assert q <= x + 1e-9 + 1e-7 * abs(x)


@pytest.mark.parametrize("d", ALL_DISTS, ids=lambda d: d.describe())
def test_quantile_nondecreasing(d):
    us = np.linspace(0.01, 0.99, 99)
    qs = d.quantile_array(us)
    assert np.all(np.diff(qs) >= -1e-12)


@pytest.mark.parametrize("d", ALL_DISTS, ids=lambda d: d.describe())
def test_cdf_axioms_on_grid(d):
    lo, hi = d.support_hint()
    xs = np.linspace(lo - 1.0, hi + 1.0, 101)
    vals = d.cdf_array(xs)
    assert np.all(np.diff(vals) >= -1e-12)
    assert d.cdf(-1e300) <= 1e-9
    assert d.cdf(1e300) >= 1.0 - 1e-9


@given(st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
@settings(max_examples=200, deadline=None)
def test_generalized_inverse_property_for_products(u):
    d = Product(Uniform(), Exponential(1.0))
    q = d.quantile(u)
    assert d.cdf(q) >= u - 1e-10


# laws whose quantile is +oo above the top of the table (and -oo on a flat left tail)
SHORT_STEP = TabulatedCdf([0.0, 1.0], [0.2, 0.6], "step")
SHORT_LINEAR = TabulatedCdf([0.0, 1.0], [0.2, 0.6], "linear")


def reconstructed_laws():
    """Every component law of a reconstructed Marshall, RMM and SMM model."""
    from shockcop.copulas import efgm, marshall, survival
    from shockcop.generators import GeneratorClass, closed_form
    from shockcop.shock_models import reconstruct

    cap = closed_form("capped", GeneratorClass.MARSHALL, slope=2.0)
    models = [
        reconstruct(marshall(cap, cap), Uniform(), Uniform()),  # composed, chi-shifted, Marshall shock
        reconstruct(efgm(0.8), Uniform(), Exponential(2.0)),  # composed, RMM shocks
        reconstruct(survival(efgm(0.6)), Uniform(), Uniform()),  # negated composed and RMM shocks
    ]
    return [d for m in models for d in (m.f_x, m.f_y, m.g1, m.g2)]


def reconstructed_laws_on_a_step_margin():
    """The component laws of a reconstructed Marshall, RMM and SMM model with a step
    margin: their composed, shifted, branch-shock and negated laws have atoms."""
    from shockcop.copulas import efgm, marshall, survival
    from shockcop.generators import GeneratorClass, closed_form
    from shockcop.shock_models import reconstruct

    cap = closed_form("capped", GeneratorClass.MARSHALL, slope=2.0)
    step = TabulatedCdf([0.0, 1.0, 2.0], [0.25, 0.5, 1.0], "step")
    models = [
        reconstruct(marshall(cap, cap), step, step),  # the star ratios align on equal margins
        reconstruct(efgm(0.8), step, Uniform(0.0, 3.0)),
        reconstruct(survival(efgm(0.6)), step, Uniform(0.0, 3.0)),
    ]
    return [d for m in models for d in (m.f_x, m.f_y, m.g1, m.g2)]


SCALAR_API_LAWS = {
    **{d.describe(): lambda d=d: [d] for d in ALL_DISTS},
    "exp-and-neg-exp-1.3": lambda: [Exponential(1.3), negated(Exponential(1.3))],
    "unreached-levels": lambda: [
        SHORT_STEP,
        SHORT_LINEAR,
        Product(SHORT_STEP, Exponential(1.0)),
        negated(TabulatedCdf([0.0, 1.0], [0.0, 0.6], "linear")),
    ],
    "reconstructed": reconstructed_laws,
    "reconstructed-on-a-step-margin": reconstructed_laws_on_a_step_margin,
    "negated-steps": lambda: [negated(STEP), negated(Product(STEP, Uniform(0.5, 1.5)))],
}


@pytest.mark.parametrize("case", sorted(SCALAR_API_LAWS))
def test_left_limits_are_limits_from_the_left(case):
    for d in SCALAR_API_LAWS[case]():
        lo, hi = d.support_hint()
        jumps = np.asarray(d.jump_points(), dtype=float)
        xs = np.concatenate((np.linspace(lo - 1.0, hi + 1.0, 201), jumps))
        f, f_left = d.cdf_array(xs), d.cdf_array(xs, True)
        assert np.all(f_left <= f), d
        away = ~np.isin(xs, jumps)
        assert f_left[away].tobytes() == f[away].tobytes(), d
        # F(J-) is F a float before J: the limit is taken from the left, not at J
        before = d.cdf_array(np.nextafter(jumps, -np.inf))
        assert np.all(np.abs(before - d.cdf_array(jumps, True)) <= 1e-12), d


@pytest.mark.parametrize("case", sorted(SCALAR_API_LAWS))
def test_scalar_api_equals_array_path(case):
    for d in SCALAR_API_LAWS[case]():
        lo, hi = d.support_hint()
        xs = np.concatenate((np.linspace(lo - 1.0, hi + 1.0, 201), d.jump_points()))
        if case.startswith("exp-"):
            xs = np.linspace(-10.0, 10.0, 10001)
        for x, f, f_left in zip(xs.tolist(), d.cdf_array(xs), d.cdf_left_array(xs)):
            assert type(d.cdf(x)) is float and d.cdf(x) == f, (d, x)
            assert type(d.cdf_left(x)) is float and d.cdf_left(x) == f_left, (d, x)
        assert (d.cdf(-math.inf), d.cdf(math.inf)) == (0.0, 1.0)
        assert (d.cdf_left(-math.inf), d.cdf_left(math.inf)) == (0.0, 1.0)
        # the ends of the line read 0 and 1 on the array path too, to the bit
        ends = np.array([-np.inf, np.inf])
        for f in (d.cdf_array(ends), d.cdf_left_array(ends)):
            assert f.tobytes() == np.array([0.0, 1.0]).tobytes(), (d, f)

        us = np.concatenate(([1e-9], np.linspace(0.02, 0.98, 25), [1.0]))
        with np.errstate(divide="ignore"):
            qs = d._quantile_array(us)
        scalar = [d.quantile(u) for u in us.tolist()]
        assert all(type(q) is float for q in scalar) and scalar == qs.tolist(), d
        assert type(d.quantile(0.0)) is float and d.quantile(0.0) == -math.inf
        for u in (-0.1, 1.5):
            with pytest.raises(ValueError):
                d.quantile(u)


def test_unreached_levels_invert_to_the_sentinels():
    bisected_top = Product(SHORT_STEP, Exponential(1.0))
    bisected_floor = negated(TabulatedCdf([0.0, 1.0], [0.0, 0.6], "linear"))  # F >= 0.4 everywhere
    assert SHORT_STEP.quantile(0.7) == SHORT_LINEAR.quantile(0.7) == math.inf
    assert bisected_top.quantile(0.7) == math.inf
    assert SHORT_LINEAR.quantile(0.1) == -math.inf
    assert bisected_floor.quantile(0.3) == -math.inf
    assert bisected_floor.quantile(0.5) == pytest.approx(-0.5 / 0.6, abs=1e-12)
    for d, u in ((SHORT_STEP, 0.7), (bisected_top, 0.7), (SHORT_LINEAR, 0.1), (bisected_floor, 0.3)):
        with pytest.raises(MalformedCdfError):
            d.quantile_array(np.array([0.5, u]))


@st.composite
def products_of_steps_and_exponentials(draw):
    def part():
        if draw(st.booleans()):
            return Exponential(draw(st.floats(0.25, 4.0)))
        k = draw(st.integers(1, 5))
        xs = draw(st.integers(-4, 4)) + 0.5 * np.cumsum(draw(st.lists(st.integers(1, 4), min_size=k, max_size=k)))
        ps = np.sort(draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]) | st.floats(0.0, 1.0), min_size=k, max_size=k)))
        return TabulatedCdf(xs, ps, "step")

    law = draw(st.sampled_from([Product, SurvivalProduct]))(part(), part())
    levels = draw(st.lists(st.floats(0.0, 1.0).filter(lambda u: 0.0 < u < 1.0), min_size=1, max_size=4))
    return law, levels


@given(products_of_steps_and_exponentials())
@settings(max_examples=100, deadline=None)
def test_galois_inequalities_for_products_of_steps_and_exponentials(case):
    d, levels = case
    for u in levels:
        q = d.quantile(u)
        if q == math.inf:
            assert d.cdf(1e12) < u  # never reached
            continue
        assert q != -math.inf
        # F(Q(u)) >= u > F(prevfloat(Q(u))) exactly
        assert d.cdf(q) >= u > d.cdf(np.nextafter(q, -np.inf))


def float_or_nan(q) -> float:
    """A scalar quantile as a float, with the infinite ones mapped to NaN."""
    return float(q) if math.isfinite(q) else float("nan")


def reference_tabulated_quantile(d: TabulatedCdf, u: float):
    """inf{x : F(x) >= u} of a table at a level u in (0,1], one level at a time."""
    if u > d.ps[-1]:
        return math.inf
    if d.interpolation == "step":
        idx = int(np.searchsorted(d.ps, u, side="left"))
        return float(d.xs[idx])
    if u <= d.ps[0]:
        # flat extension to the left sits at level ps[0] on the whole tail
        return -math.inf if d.ps[0] > 0.0 else float(d.xs[0])
    idx = int(np.searchsorted(d.ps, u, side="left"))
    p0, p1 = d.ps[idx - 1], d.ps[idx]
    x0, x1 = d.xs[idx - 1], d.xs[idx]
    return float(x0 + (u - p0) / (p1 - p0) * (x1 - x0))


@st.composite
def tables_and_levels(draw):
    """A random step or linear table, with plateaus and ps[0] > 0 or ps[-1] < 1 allowed."""
    k = draw(st.integers(1, 8))
    xs = draw(st.integers(-10, 10)) + 0.5 * np.cumsum(draw(st.lists(st.integers(1, 4), min_size=k, max_size=k)))
    prob = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0))
    ps = np.sort(draw(st.lists(prob, min_size=k, max_size=k)))
    d = TabulatedCdf(xs, ps, draw(st.sampled_from(["step", "linear"])))
    # interior levels, including the knot levels themselves
    level = st.one_of(st.sampled_from(list(ps)), st.floats(0.0, 1.0)).filter(lambda u: 0.0 < u < 1.0)
    return d, np.array(draw(st.lists(level, min_size=1, max_size=20)))


@given(tables_and_levels())
@settings(max_examples=300, deadline=None)
def test_tabulated_quantile_array_matches_scalar_quantile(case):
    d, us = case
    reference = [reference_tabulated_quantile(d, float(u)) for u in us]
    # the scalar API returns the reference inverse, infinities included
    assert [d.quantile(float(u)) for u in us] == reference
    expected = np.array([float_or_nan(q) for q in reference])
    finite = ~np.isnan(expected)
    np.testing.assert_array_equal(d.quantile_array(us[finite]), expected[finite])
    # interior levels with an infinite inverse are refused
    for u in us[~finite]:
        with pytest.raises(MalformedCdfError):
            d.quantile_array(np.array([u]))


@given(tables_and_levels())
@settings(max_examples=300, deadline=None)
def test_tabulated_quantile_array_galois_inequalities(case):
    d, us = case
    us = us[~np.isnan([float_or_nan(reference_tabulated_quantile(d, float(u))) for u in us])]
    qs = d.quantile_array(us)
    # step inverses are exact; linear ones round once in x, and slopes are at most 2
    tol = 0.0 if d.interpolation == "step" else 1e-12
    assert np.all(d.cdf_array(qs) >= us - tol)
    assert np.all(d.cdf_left_array(qs) <= us + tol)


@st.composite
def sized_tables_and_shuffled_points(draw):
    """A step or linear table on either side of the sorted-lookup crossover, with
    shuffled points (knots, between and beyond them, +-inf, NaN) on either side of
    the point floor, and shuffled levels (knot levels included)."""
    k = draw(st.sampled_from([1, 5, 20, _SORTED_LOOKUP_KNOTS - 1, _SORTED_LOOKUP_KNOTS, 400]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    xs = np.cumsum(rng.integers(1, 4, k) * 0.5) - 3.0
    ps = np.sort(rng.choice(np.concatenate((rng.random(k), [0.0, 0.5, 1.0])), k))
    d = TabulatedCdf(xs, ps, draw(st.sampled_from(["step", "linear"])))
    pool = np.concatenate((xs, rng.uniform(xs[0] - 1.0, xs[-1] + 1.0, 50), [np.inf, -np.inf, np.nan]))
    points = rng.permutation(rng.choice(pool, draw(st.integers(2, 2 * _SORTED_LOOKUP_POINTS))))
    levels = np.concatenate((ps, rng.random(50)))
    levels = rng.permutation(rng.choice(levels[(levels > 0.0) & (levels < 1.0)], 200))
    return d, points, levels


@given(sized_tables_and_shuffled_points())
@settings(max_examples=150, deadline=None)
def test_tabulated_lookups_of_shuffled_points_match_direct_lookups(case):
    d, points, levels = case
    for side, got in (("right", d.cdf_array(points)), ("left", d.cdf_left_array(points))):
        if d.interpolation == "linear":
            want = np.interp(points, d.xs, d.ps)
        else:
            idx = np.searchsorted(d.xs, points, side=side) - 1
            want = np.where(idx < 0, 0.0, d.ps[np.maximum(idx, 0)])
        want = np.where(np.isinf(points), points > 0.0, want)  # F(-inf) = 0, F(inf) = 1
        assert got.tobytes() == want.tobytes()
    want = np.array([reference_tabulated_quantile(d, float(u)) for u in levels])
    assert d._quantile_array(levels).tobytes() == want.tobytes()


def test_sorted_table_lookup_takes_repeated_infinities():
    # the order probe of a 64-knot lookup compares neighbours; inf - inf would be invalid
    d = TabulatedCdf(np.arange(64.0), np.linspace(0.5, 0.9, 64), "step")
    reps = _SORTED_LOOKUP_POINTS // 5 + 1  # enough points for the probe
    xs = np.tile([np.inf, np.inf, 3.0, -np.inf, -np.inf], reps)
    with np.errstate(invalid="raise"):
        want = [1.0, 1.0, d.ps[3], 0.0, 0.0] * reps
        assert d.cdf_array(xs).tolist() == d.cdf_left_array(xs + 0.5).tolist() == want


@st.composite
def guide_tables_and_levels(draw):
    """A nondecreasing table on either side of the guide's size threshold, spread over
    [0, 1], with repeated values, crowded into one bucket, or beyond [0, 1] with +-inf
    ends, and scattered levels: the edge floats of [0, 1], NaN, the table's values and
    their neighbouring floats, at least as many as the table's entries."""
    n = draw(st.sampled_from([1, 63, 64, 65, 1000, 5000]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["spread", "repeated", "crowded", "wide"]))
    if shape == "spread":
        table = rng.random(n)
    elif shape == "repeated":
        table = rng.choice(rng.random(max(1, n // 8)), n)
    elif shape == "crowded":  # a bucket of any guide up to 2**14 buckets
        table = np.where(rng.random(n) < 0.8, (rng.integers(2**14) + rng.random(n)) / 2**14, rng.random(n))
    else:
        table = rng.uniform(-0.5, 1.5, n)
    table = np.sort(table)
    if shape == "wide":
        table[: draw(st.integers(0, min(n, 2)))] = -np.inf
        table[n - draw(st.integers(0, min(n, 2))) :] = np.inf
    edges = [5e-324, 2.0**-53, 1.0 - 2.0**-53, 1.0, 0.0, -0.0, np.nan]
    pool = np.concatenate((table, np.nextafter(table, -np.inf), np.nextafter(table, np.inf), edges))
    pool = np.concatenate((pool, rng.random(pool.size)))
    return table, rng.permutation(rng.choice(pool, n + draw(st.integers(0, n))))


@given(guide_tables_and_levels())
@settings(max_examples=150, deadline=None)
def test_guide_lookup_is_searchsorted_to_the_bit(case):
    table, levels = case
    got, want = _level_index(table, levels), np.searchsorted(table, levels, "left")
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_quantile_array_rejects_boundary_levels():
    with pytest.raises(ValueError):
        Uniform().quantile_array(np.array([0.0, 0.5]))


@pytest.mark.parametrize("d", ALL_DISTS, ids=lambda d: d.describe())
def test_quantile_array_rejects_non_finite_levels(d):
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            d.quantile_array(np.array([bad, 0.5]))


def test_tabulated_rejects_bad_tables():
    with pytest.raises(TableFormatError):
        TabulatedCdf([0.0, 0.0], [0.1, 0.2])
    with pytest.raises(TableFormatError):
        TabulatedCdf([0.0, 1.0], [0.5, 0.2])
    with pytest.raises(TableFormatError):
        TabulatedCdf([0.0, 1.0], [0.5, 1.2])
    # a NaN knot used to pass the order checks and give NaN quantiles
    for xs, ps in (([0.0, np.nan, 2.0], [0.1, 0.5, 1.0]), ([0.0, 1.0], [np.nan, 1.0]),
                   ([0.0, np.inf], [0.5, 1.0])):
        with pytest.raises(TableFormatError, match="finite"):
            TabulatedCdf(xs, ps)
    for xs, ps in (([], []), ([0.0, 1.0], [1.0]), ([[0.0, 1.0]], [[0.5, 1.0]])):
        with pytest.raises(TableFormatError, match="matching, nonempty x and p columns"):
            TabulatedCdf(xs, ps)
    with pytest.raises(TableFormatError, match="unknown interpolation 'cubic'"):
        TabulatedCdf([0.0, 1.0], [0.5, 1.0], "cubic")


def neg_exp(rate):
    return negated(Exponential(rate))


@pytest.mark.parametrize("law, args, message", [
    (Uniform, (1.0, 1.0), "uniform needs a < b"),
    (Uniform, (2.0, 1.0), "uniform needs a < b"),
    (Uniform, (math.nan, 1.0), "uniform needs a < b"),
    # an infinite end or width read NaN at the ends of the line and in the quantile
    (Uniform, (0.0, math.inf), "finite b - a"),
    (Uniform, (-math.inf, 0.0), "finite b - a"),
    (Uniform, (-1e308, 1e308), "finite b - a"),
    (Exponential, (0.0,), "rate must be positive"),
    (Exponential, (-1.0,), "rate must be positive"),
    (Exponential, (math.nan,), "rate must be positive"),
    # a unit step at 0 that reported no jump and warned at x <= 0
    (Exponential, (math.inf,), "positive and finite, got inf"),
    (neg_exp, (math.inf,), "positive and finite, got inf"),
    # a support hint 40 / rate of inf gave the generic inverse a NaN grid
    (Exponential, (1e-307,), "too small: 40 / rate overflows, got 1e-307"),
    (Exponential, (1e-320,), "too small: 40 / rate overflows, got 1e-320"),
    (neg_exp, (1e-307,), "too small: 40 / rate overflows, got 1e-307"),
    (neg_exp, (1e-320,), "too small: 40 / rate overflows, got 1e-320"),
    (EfgmMargin, (0.0,), "EFGM weight must lie in (0,1], got 0.0"),
    (EfgmShock, (1.5,), "EFGM weight must lie in (0,1], got 1.5"),
])
def test_parametric_laws_reject_bad_parameters(law, args, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        law(*args)


def test_csv_loader_round_trip(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text("x,p\n0.0,0.4\n1.0,1.0\n")
    d = load_tabulated_csv(path, "step")
    assert d.cdf(0.5) == 0.4
    assert d.describe() == f"step:file={path}"


def test_csv_loader_rejects_unsorted(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,p\n1.0,0.4\n0.0,1.0\n")
    with pytest.raises(TableFormatError):
        load_tabulated_csv(path)


def test_csv_loader_rejects_out_of_range(tmp_path):
    path = tmp_path / "bad2.csv"
    path.write_text("x,p\n0.0,0.4\n1.0,1.4\n")
    with pytest.raises(TableFormatError):
        load_tabulated_csv(path)


# ---------------------------------------------------------------------------
# the generic inverse against an independent bisection
# ---------------------------------------------------------------------------


def reference_bisect_quantile(d, us: np.ndarray) -> np.ndarray:
    """inf{x : F(x) >= u} by plain bracketing and bisection on every level.

    This is the generic inverse as it stood before the shared table, with float
    midpoints: the same expansion of ``support_hint``, the same ±inf marking of
    levels it cannot bracket and the same stop, once lo and hi are neighbouring
    floats.
    """
    shape = us.shape
    us = us.ravel()
    lo0, hi0 = d.support_hint()
    lo = np.full(us.shape, float(lo0))
    hi = np.full(us.shape, float(hi0))
    below = above = np.zeros(us.shape, dtype=bool)
    span = max(hi0 - lo0, 1.0)
    for _ in range(200):
        bad = d.cdf_array(lo) >= us
        if not bad.any():
            break
        lo[bad] -= span
        span *= 2.0
    else:
        below = bad  # F >= u at every probe: the infimum is -oo
    span = max(hi0 - lo0, 1.0)
    for _ in range(200):
        bad = d.cdf_array(hi) < us
        if not bad.any():
            break
        hi[bad] += span
        span *= 2.0
    else:
        above = bad  # u is never reached: the infimum is +oo
    lo = np.where(below | above, hi, lo)  # nothing to bisect there
    while True:
        open_ = np.nextafter(lo, np.inf) < hi
        if not open_.any():
            break
        mid = 0.5 * (lo + hi)
        assert np.all((mid > lo) & (mid < hi) | ~open_)  # a float midpoint splits the bracket
        take_hi = d.cdf_array(mid) >= us
        hi = np.where(open_ & take_hi, mid, hi)
        lo = np.where(open_ & ~take_hi, mid, lo)
    hi = np.where(above, np.inf, hi)
    return np.where(below, -np.inf, hi).reshape(shape)


@st.composite
def generic_laws(draw, depth: int = 2):
    """A law inverted by the generic solver: products, min-laws and negations of
    exponentials, uniforms and step or linear tables, some with unreachable levels."""
    if depth == 0 or draw(st.booleans()):
        kind = draw(st.sampled_from(["exp", "uniform", "step", "linear"]))
        if kind == "exp":
            return Exponential(draw(st.floats(0.25, 4.0)))
        if kind == "uniform":
            a = draw(st.floats(-3.0, 3.0))
            return Uniform(a, a + draw(st.floats(0.1, 4.0)))
        k = draw(st.integers(1, 5))
        xs = draw(st.integers(-4, 4)) + 0.5 * np.cumsum(draw(st.lists(st.integers(1, 4), min_size=k, max_size=k)))
        prob = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]) | st.floats(0.0, 1.0)
        return TabulatedCdf(xs, np.sort(draw(st.lists(prob, min_size=k, max_size=k))), kind)
    combine = draw(st.sampled_from(["product", "survival", "negated"]))
    if combine == "negated":
        return negated(draw(generic_laws(depth - 1)))
    law = Product if combine == "product" else SurvivalProduct
    return law(draw(generic_laws(depth - 1)), draw(generic_laws(depth - 1)))



def exact_cdf(d, x: float, left: bool = False) -> Fraction:
    """F(x), or F(x-) if ``left``, in exact arithmetic from the leaves' values, so that a
    mass below float resolution, which F's float value rounds away, still reads strictly
    inside (0, 1).  Products, min-laws, mapped laws, exponentials, uniforms and tables
    are exact; another law gives its float value."""
    if isinstance(d, (Product, SurvivalProduct)):
        f1, f2 = (exact_cdf(p, x, left) for p in d.parts)
        return f1 * f2 if isinstance(d, Product) else 1 - (1 - f1) * (1 - f2)
    if isinstance(d, NegatedCdf):
        return 1 - exact_cdf(d.inner, -x, not left)
    if isinstance(d, MappedCdf):
        return exact_cdf(d.inner, float(d.inverse(np.array([x]))[0]), left)
    if isinstance(d, Exponential):
        # 1 - exp(-rate x) from whichever of its float forms keeps its bits
        t = d.rate * x
        return Fraction(0) if t <= 0.0 else Fraction(-math.expm1(-t)) if t < 1.0 else 1 - Fraction(math.exp(-t))
    if isinstance(d, Uniform):
        return min(max((Fraction(x) - Fraction(d.a)) / (Fraction(d.b) - Fraction(d.a)), Fraction(0)), Fraction(1))
    if not isinstance(d, TabulatedCdf):
        return Fraction(float(d.cdf_array(np.array([x]), left)[0]))
    xs, ps, at = [Fraction(v) for v in d.xs.tolist()], [Fraction(p) for p in d.ps.tolist()], Fraction(x)
    if d.interpolation == "step":
        k = (bisect.bisect_left if left else bisect.bisect_right)(xs, at)
        return ps[k - 1] if k else Fraction(0)
    k = min(max(bisect.bisect_right(xs, at), 1), len(xs) - 1)
    if len(xs) == 1 or at <= xs[0] or at >= xs[-1]:
        return ps[0] if at <= xs[0] else ps[-1]
    return ps[k - 1] + (at - xs[k - 1]) / (xs[k] - xs[k - 1]) * (ps[k] - ps[k - 1])


@given(generic_laws())
@settings(max_examples=150, deadline=None)
def test_declared_support_ends_are_exact(d):
    # F reads 0 one float left of a finite lo and 1 from a finite hi on; the law is
    # inside (0, 1) a relative 1e-12 within each, read exactly, as F may round its
    # value there to 0 or 1 (a product of two exponentials near 0, a 1e-300 step)
    lo, hi = d.support()
    assert lo <= hi, d
    if math.isfinite(lo):
        assert d.cdf(np.nextafter(lo, -np.inf)) == 0.0, (d, lo)
        assert exact_cdf(d, lo + 1e-12 * max(1.0, abs(lo))) > 0, (d, lo)
    if math.isfinite(hi):
        assert exact_cdf(d, hi - 1e-12 * max(1.0, abs(hi))) < 1, (d, hi)
        assert d.cdf(hi) == d.cdf(np.nextafter(hi, np.inf)) == d.cdf(hi + 1.0) == 1.0, (d, hi)


def test_leaf_laws_declare_their_support():
    assert Uniform(-2.0, 3.0).support() == (-2.0, 3.0)
    assert Exponential(2.0).support() == (0.0, math.inf)
    assert EfgmMargin(0.5).support() == (0.0, 1.0)
    assert EfgmShock(0.5).support() == (-math.inf, 1.0)
    assert negated(Exponential(2.0)).support() == (-math.inf, -0.0)
    # a table whose p stops below 1 never ends; a linear one with p[0] > 0 never starts
    assert TabulatedCdf([0.0, 1.0, 2.0], [0.0, 0.5, 0.75]).support() == (1.0, math.inf)
    assert TabulatedCdf([0.0, 1.0, 2.0], [0.0, 0.5, 1.0], "linear").support() == (0.0, 2.0)
    assert TabulatedCdf([0.0, 1.0, 2.0], [0.25, 0.5, 1.0], "linear").support() == (-math.inf, 2.0)
    # a product starts at its later part's start, a min-law at its earlier part's
    assert Product(Uniform(1.0, 2.0), Exponential(1.0)).support() == (1.0, math.inf)
    assert SurvivalProduct(Uniform(1.0, 2.0), Uniform(-1.0, 3.0)).support() == (-1.0, 2.0)

@functools.cache
def reconstructed_margins() -> tuple:
    """Margins and shocks of reconstructed models: ComposedCdf, RmmShockCdf and their products."""
    from shockcop.copulas import efgm, survival
    from shockcop.shock_models import margins, reconstruct

    models = (
        reconstruct(efgm(0.8), Uniform(), Exponential(2.0)),
        reconstruct(survival(efgm(0.6)), Uniform(), Uniform()),
        reconstruct(efgm(0.5), TabulatedCdf([0.0, 1.0, 2.0], [0.25, 0.5, 1.0]), Uniform()),
    )
    return tuple(d for m in models for d in (m.f_x, m.f_y, m.g1, m.g2, *margins(m)))


LEVELS = st.floats(0.0, 1.0).filter(lambda u: 0.0 < u < 1.0) | st.sampled_from([1e-12, 1e-6, 0.5, 1.0 - 1e-6])


def check_generic_inverse(d, us: np.ndarray) -> None:
    qs = d._bisect_quantile_array(us)
    ref = reference_bisect_quantile(d, us)
    finite = np.isfinite(ref)
    # unreachable levels keep their infinities, and quantile_array refuses them
    np.testing.assert_array_equal(qs[~finite], ref[~finite])
    if finite.all():
        d.quantile_array(us)
    else:
        with pytest.raises(MalformedCdfError):
            d.quantile_array(us)
    assert_float_infimum(d, us[finite], qs[finite])
    assert_float_infimum(d, us[finite], ref[finite])
    # to the bit, but for the sign of a zero (a jump point may be -0.0, a midpoint round
    # to it), wherever F is nondecreasing in floats: the infimum is then one float.  The
    # two bisections split at other midpoints, so where F wobbles across u by its own
    # rounding (an RmmShockCdf, which rises by less than an ulp of its value per float)
    # each may stop at another float infimum; F then reads >= u at the lower and < u a
    # float below the upper, but by no more than WOBBLE_ULPS of the level
    for u, q, r in zip(us[finite], qs[finite] + 0.0, ref[finite] + 0.0):
        if q.tobytes() != r.tobytes():
            lo, hi = min(q, r), max(q, r)
            dip = d.cdf(np.nextafter(hi, -np.inf))
            assert d.cdf(lo) >= u > dip >= u - WOBBLE_ULPS * np.spacing(u), (d, u, q, r)


#: How far F may fall back below a level between two float infima, in ulps of the
#: level.  Over 8 seeds of 2,000 levels on each reconstructed margin, the two answers
#: differed on 699 levels, up to 22,284 floats apart where F is flat, and F fell back
#: by at most 1 ulp of the level on every one.
WOBBLE_ULPS = 1


def assert_float_infimum(d, us: np.ndarray, qs: np.ndarray) -> None:
    """F(Q(u)) >= u > F(prevfloat(Q(u))) exactly at every level.  At a jump point J,
    F(J-) < u will do for the right side: a law read through a map that rounds reads
    F(J) one float left of J already."""
    assert np.all(d.cdf_array(qs) >= us), d
    before = d.cdf_array(np.nextafter(qs, -np.inf))
    at_jump = np.isin(qs, np.asarray(d.jump_points(), dtype=float))
    before[at_jump] = np.minimum(before[at_jump], d.cdf_left_array(qs[at_jump]))
    assert np.all(before < us), d


@given(generic_laws(), st.lists(LEVELS, min_size=1, max_size=12))
@settings(max_examples=150, deadline=None)
def test_generic_inverse_matches_bisection_on_random_laws(d, levels):
    check_generic_inverse(d, np.array(levels))


@given(st.integers(0, 17), st.lists(LEVELS, min_size=1, max_size=12))
@settings(max_examples=40, deadline=None)
def test_generic_inverse_matches_bisection_on_reconstructed_margins(i, levels):
    laws = reconstructed_margins()
    check_generic_inverse(laws[i % len(laws)], np.array(levels))


@given(generic_laws(), st.floats(0.0, 1.0))
@settings(max_examples=150, deadline=None)
def test_level_inside_a_jump_inverts_to_the_jump_point(d, t):
    jumps = np.asarray(d.jump_points(), dtype=float)
    under, over = d.cdf_left_array(jumps), d.cdf_array(jumps)
    real = (over > under) & (over > 0.0)
    for j, a, b in zip(jumps[real], under[real], over[real]):
        u = min(max(a + t * (b - a), np.nextafter(a, 1.0)), b)  # a level in (F(J-), F(J)]
        if 0.0 < u < 1.0:
            assert d.quantile_array(np.array([u]))[0] == j
            assert d.quantile(u) == j


def test_generic_inverse_commutes_with_permuting_the_levels():
    # each block of levels is sorted for the table lookup and scattered back: a level's
    # quantile depends on the level alone, at a jump and past the reach of F too.  The
    # digest, recorded with the bisection on the float lattice, is that of the
    # float-midpoint reference bisection on these levels too.
    d = Product(SHORT_STEP, Uniform(-1.0, 3.0))  # F(1-) = 0.1, F(1) = 0.3; levels above 0.6 unreached
    rng = np.random.default_rng(8)
    us = rng.uniform(1e-9, 1.0 - 1e-9, 10_000)
    us[:1000] = rng.uniform(0.1, 0.3, 1000)
    qs = d._bisect_quantile_array(us)
    assert (np.count_nonzero(qs == 1.0), np.count_nonzero(qs == np.inf)) == (2760, 3667)
    assert hashlib.sha256(qs.tobytes()).hexdigest() == (
        "27e81b002a1f89f588845277978c8883b5c09bd6835aa30292e344f97a2e3e28"
    )
    for seed in range(3):
        perm = np.random.default_rng(seed).permutation(us.size)
        assert d._bisect_quantile_array(us[perm]).tobytes() == qs[perm].tobytes()
    assert d._bisect_quantile_array(us.reshape(100, 100)).tobytes() == qs.tobytes()


def test_generic_inverse_probes_on_past_the_first_expansion():
    # F reads 3.3e-98 only near -5.95e195, far beyond the first 199 probes below the hint
    # (about -4e61): the running sum goes on until a probe brackets the level
    from shockcop.copulas import efgm
    from shockcop.shock_models import reconstruct

    d = reconstruct(efgm(0.8), EfgmShock(0.5), Uniform(-2.0, 0.0)).f_x
    us = np.array([3.3e-98])
    qs = d._bisect_quantile_array(us)
    assert -1e196 < qs[0] < -1e195
    assert_float_infimum(d, us, qs)
    # the parts answer reaches the level within the guard's ladder above the infimum
    parts = d.quantile_array(us)
    assert d.cdf_array(parts) >= us and qs <= parts <= qs + _GUARD_ULPS[-1] * np.spacing(np.abs(qs))


def test_generic_inverse_probes_stop_at_half_the_largest_float():
    # F stays at 0.25 on the whole left tail: the probes run out at half the largest
    # float, no infinity enters the table, and a level below 0.25 inverts to -inf
    d = TabulatedCdf([0.0, 1.0], [0.25, 1.0], "linear")
    xs = d._quantile_table(0.1, 0.5)[0]
    assert np.all(np.isfinite(xs)) and xs[0] == -_PROBE_LIMIT
    qs = d._bisect_quantile_array(np.array([0.1, 0.5]))
    assert qs[0] == -np.inf and 0.0 < qs[1] < 1.0 and d.cdf(qs[1]) >= 0.5


def test_generic_inverse_keeps_relative_accuracy_near_zero():
    # F = (1 - e^-x)(1 - e^-2x) is about 2x^2 near 0, so Q(u) is about sqrt(u/2)
    d = Product(Exponential(1.0), Exponential(2.0))
    for u, q in ((1e-100, 7.071067811865475e-51), (1e-28, 7.071067811865513e-15)):
        got = d.quantile(u)
        assert got == pytest.approx(q, rel=1e-15), u
        assert_float_infimum(d, np.array([u]), np.array([got]))


def test_generic_inverse_bisects_brackets_across_zero_wider_than_int64_differences():
    # the keys of -2 and 2 lie 2**63 apart, so hi - lo would overflow on a bracket across
    # 0 with wider ends; on [-1e300, 1.1e300] the table's cell at 0 is [-1.2e296, 1.2e295]
    for b in (1e300, 1.1e300):
        u = Uniform(-1e300, b)
        d = Product(u, u)
        f0 = d.cdf(0.0)
        us = np.array([0.25, 0.25 + 1e-10, 0.25 - 1e-10, 1e-300, 0.5, f0, f0 - 1e-12, f0 + 1e-12])
        qs = d.quantile_array(us)
        assert np.all(np.isfinite(qs))
        assert_float_infimum(d, us, qs)
        assert [d.quantile(u) for u in us.tolist()] == qs.tolist()  # each level alone, too


def test_exponential_quantile_is_the_textbook_formula_to_the_bit():
    rng = np.random.default_rng(4)
    tiny, near_one = 10.0 ** -rng.uniform(0.0, 300.0, 1000), 1.0 - 10.0 ** -rng.uniform(1.0, 16.0, 1000)
    us = np.concatenate((rng.random(10_000), tiny, near_one))
    for rate in (0.3, 1.0, 2.7, 1e-5):
        assert Exponential(rate).quantile_array(us).tobytes() == (-np.log1p(-us) / rate).tobytes()


def test_generic_quantile_memory_stays_bounded():
    # levels are refined in blocks, so past the shared table the peak grows only
    # by the output array: 1.9 float64 words per level measured, 3 allowed
    d = Product(Exponential(1.0), Exponential(2.0))
    us = np.random.default_rng(3).uniform(1e-12, 1.0 - 1e-12, 196_607)
    tracemalloc.start()
    try:
        d.quantile_array(us)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (8 * us.size) < 3.0


def test_levels_inside_a_reconstructed_shocks_atom_invert_at_the_table():
    # the Marshall, RMM and SMM shocks (each model's g1 and g2, after its f_x and f_y)
    # jump where a continuous margin starts
    shocks = [d for i, d in enumerate(reconstructed_laws()) if i % 4 >= 2]
    atoms = [(d, j) for d in shocks for j in d.jump_points() if d.cdf_left(j) < d.cdf(j)]
    assert len(shocks) == 6 and len(atoms) == 6
    for d, j in atoms:
        a, b = d.cdf_left(j), d.cdf(j)
        us = np.array([u for u in a + (b - a) * np.array([1e-6, 0.25, 0.5, 1.0]) if 0.0 < u < 1.0])
        assert us.size >= 3
        check_generic_inverse(d, us)
        assert np.all(d.quantile_array(us) == j), (d, j)
