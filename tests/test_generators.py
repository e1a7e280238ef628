import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shockcop.distributions import (
    _SORTED_LOOKUP_KNOTS,
    EfgmMargin,
    Exponential,
    NegExponential,
    Product,
    SurvivalProduct,
    Uniform,
    point_mass,
)
from shockcop.errors import (
    GeneratorKindError,
    GeneratorValidationError,
    ShockStructureError,
    TableFormatError,
)
from shockcop.extreal import POS_INF
from shockcop.generators import (
    Generator,
    GeneratorClass,
    TabulatedGenerator,
    closed_form,
    derived_value,
    generator_from_shocks,
    hat_of,
    hat_to_f,
    identity_minus,
    rmm_to_smm,
    smm_to_rmm,
    validate,
)

RMM = GeneratorClass.RMM
SMM = GeneratorClass.SMM
MARSHALL = GeneratorClass.MARSHALL
PSI = GeneratorClass.MAXMIN_PSI


def power(alpha, cls=RMM):
    return closed_form("power", cls, alpha=alpha)


def poly(cls, *coeffs):
    return closed_form("poly", cls, **{f"c{i}": float(c) for i, c in enumerate(coeffs)})


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_power_generator_value():
    # sqrt(0.25) - 0.25 by hand
    assert power(0.5).value(0.25) == pytest.approx(0.25, abs=1e-15)


def test_efgmhat_boundary_and_midpoint():
    gen = closed_form("efgmhat", MARSHALL, a=0.95)
    assert gen.value(0.0) == 0.0
    # (a+1)t - a t^2 at t = 0.5
    assert gen.value(0.5) == pytest.approx(0.7375, abs=1e-15)


def test_tabulated_interpolates_linearly():
    gen = TabulatedGenerator([0.0, 0.5, 1.0], [0.0, 0.4, 0.0], RMM)
    assert gen.value(0.25) == pytest.approx(0.2, abs=1e-15)


def test_tabulated_rejects_non_finite_knots_and_values():
    for us, values in (([0.0, np.nan, 1.0], [0.0, 0.4, 0.0]), ([0.0, 0.5, 1.0], [0.0, np.inf, 0.0])):
        with pytest.raises(TableFormatError, match="finite"):
            TabulatedGenerator(us, values, RMM)


@st.composite
def tabulated_and_points(draw):
    """A tabulated generator on either side of the sorted-lookup crossover and
    repeated points (knots, NaN) that are shuffled, sorted either way, 0-d, 2-D
    or empty."""
    k = draw(st.sampled_from([2, 5, 20, _SORTED_LOOKUP_KNOTS - 1, _SORTED_LOOKUP_KNOTS, 3000]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    us = np.unique(np.concatenate(([0.0, 1.0], rng.random(k - 2))))
    gen = TabulatedGenerator(us, rng.normal(size=us.size), RMM)
    pool = np.concatenate((us, rng.random(50), [np.nan]))
    points = rng.choice(pool, draw(st.integers(0, 400)))
    shape = draw(st.sampled_from(["shuffled", "ascending", "descending", "0-d", "2-D"]))
    if shape == "ascending":
        points = np.sort(points)
    elif shape == "descending":
        points = np.sort(points)[::-1]
    elif shape == "0-d":
        points = np.asarray(pool[draw(st.integers(0, pool.size - 1))])
    elif shape == "2-D":
        points = points[: points.size // 2 * 2].reshape(2, -1)
    return gen, points


@given(tabulated_and_points())
@settings(max_examples=300, deadline=None)
def test_tabulated_value_array_is_plain_interp(case):
    gen, points = case
    got = gen.value_array(points)
    want = np.interp(points, gen.us, gen.values)
    assert got.shape == np.shape(want)
    assert got.tobytes() == np.asarray(want).tobytes()


def test_value_rejects_out_of_range():
    with pytest.raises(ValueError):
        power(0.5).value(1.5)


# ---------------------------------------------------------------------------
# derived maps
# ---------------------------------------------------------------------------


def test_star_of_zero_generator_is_zero():
    gen = power(1.0)  # t**1 - t == 0
    for u in (0.0, 0.3, 1.0):
        assert derived_value(gen, "star", u) == 0.0


def test_star_of_efgm_generator():
    # f(t) = a t (1-t) gives f(u)/u = a(1-u)
    gen = closed_form("efgmf", RMM, a=1.0)
    assert derived_value(gen, "star", 0.5) == pytest.approx(0.5, abs=1e-15)
    assert derived_value(gen, "star", 0.0) == pytest.approx(1.0, abs=1e-6)


def test_star_divergence_reported_as_infinity():
    gen = power(0.25)  # f(u)/u = u**(-0.75) - 1 diverges
    assert derived_value(gen, "star", 0.0) == POS_INF


def test_psi_star_of_identity_is_infinite():
    gen = closed_form("identity", PSI)
    for v in (0.0, 0.4, 0.9):
        assert derived_value(gen, "psi_star", v) == POS_INF


def test_psi_star_of_square():
    gen = closed_form("poly", PSI, c0=0.0, c1=0.0, c2=1.0)
    # (1 - v^2)/(v - v^2) = (1+v)/v
    assert derived_value(gen, "psi_star", 0.5) == pytest.approx(3.0, abs=1e-12)


def test_hat_and_dagger_maps():
    f = power(0.5)
    assert derived_value(f, "hat", 0.25) == pytest.approx(0.5, abs=1e-15)
    h = rmm_to_smm(f)
    assert derived_value(h, "hat_dagger", 0.25) == pytest.approx(0.25 - h.value(0.25), abs=1e-15)
    assert derived_value(h, "dagger", 0.5) == pytest.approx(h.value(0.5) / 0.5, abs=1e-15)


@pytest.mark.parametrize("gen, kind, u, probe, offset", [
    (power(0.3), "star", 0.25, 0.25, 0.25),
    (power(0.3), "star", 0.5, 0.5, 0.5),
    (closed_form("efgmf", RMM, a=0.7), "star", 0.0, 1e-12, 1e-12),
    (poly(SMM, 0, 3, -3), "dagger", 1.0, 1.0 - 1e-12, 1e-12),
], ids=["power-star-0.25", "power-star-0.5", "efgmf-star-at-0", "poly-dagger-at-1"])
def test_derived_value_equals_its_scalar_definition(gen, kind, u, probe, offset):
    # exact: the scalar value at the probe point over its distance to the map's pole
    assert derived_value(gen, kind, u) == gen.value(probe) / offset


def test_incompatible_kind_rejected():
    with pytest.raises(GeneratorKindError):
        derived_value(power(0.5), "psi_star", 0.5)
    with pytest.raises(GeneratorKindError):
        derived_value(closed_form("identity", MARSHALL), "dagger", 0.5)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_power_half_passes_rmm_conditions():
    report = validate(power(0.5), grid_size=1001, tol=1e-12)
    assert report.passed


def test_twoparam_below_boundary_fails():
    gen = closed_form("twoparam", RMM, alpha=0.5, beta=0.3)
    report = validate(gen)
    assert not report.passed
    assert any("twoparam-domain" in v.condition for v in report.violations)


def test_twoparam_on_boundary_passes():
    gen = closed_form("twoparam", RMM, alpha=0.5, beta=0.5)
    assert validate(gen).passed


def test_identity_passes_marshall_conditions():
    assert validate(closed_form("identity", MARSHALL)).passed


def test_fullshock_passes_marshall_conditions():
    assert validate(closed_form("fullshock", MARSHALL)).passed


def test_capped_passes_marshall_conditions():
    assert validate(closed_form("capped", MARSHALL, slope=2.0)).passed


def test_boundary_violation_detected():
    gen = closed_form("capped", MARSHALL, slope=0.5)  # caps at 0.5 < 1 at u=1
    report = validate(gen)
    assert not report.passed
    assert any(v.condition == "boundary-at-1" for v in report.violations)


def test_marshall_generator_dominates_identity():
    # the nonincreasing-ratio condition forces f(u) >= u
    for gen in (
        closed_form("identity", MARSHALL),
        closed_form("capped", MARSHALL, slope=2.0),
        closed_form("efgmhat", MARSHALL, a=0.95),
    ):
        assert validate(gen).passed
        us = np.linspace(0.0, 1.0, 1001)
        assert np.all(gen.value_array(us) >= us - 1e-12)


def test_rmm_generator_nonnegative_with_monotone_hat():
    for gen in (power(0.5), closed_form("efgmf", RMM, a=0.8)):
        assert validate(gen).passed
        us = np.linspace(0.0, 1.0, 1001)
        vals = gen.value_array(us)
        assert np.all(vals >= -1e-12)
        assert np.all(np.diff(vals + us) >= -1e-12)


@pytest.mark.parametrize("gen, condition", [
    (TabulatedGenerator([0.0, 0.3, 0.6, 1.0], [0.0, 0.9, 0.5, 1.0], MARSHALL), "nondecreasing"),
    (poly(MARSHALL, 0, 0, 1), "star-nonincreasing"),
    (TabulatedGenerator([0.0, 0.5, 0.9, 1.0], [0.0, 0.1, 0.85, 1.0], PSI), "psi-star-nonincreasing"),
    (poly(RMM, 0, 3, -3), "hat-nondecreasing"),
    (poly(RMM, 0, 0, 1, -1), "star-nonincreasing"),
    (poly(SMM, 0, 3, -3), "hat-dagger-nondecreasing"),
    (poly(SMM, 0, 1, -2, 1), "dagger-nondecreasing"),
], ids=lambda x: x if isinstance(x, str) else x.declared_class.value)
def test_each_class_condition_is_reported(gen, condition):
    report = validate(gen)
    assert not report.passed
    assert condition in [v.condition for v in report.violations]


def test_validator_notes_flag_unenforced_literals():
    assert validate(power(0.5)).notes
    assert validate(rmm_to_smm(power(0.5))).notes


def test_smm_conditions_for_reflected_power():
    h = rmm_to_smm(power(0.5))
    assert validate(h).passed


# ---------------------------------------------------------------------------
# conversions
# ---------------------------------------------------------------------------


def test_rmm_to_smm_of_zero():
    h = rmm_to_smm(power(1.0))
    us = np.linspace(0.0, 1.0, 101)
    assert np.all(h.value_array(us) == 0.0)


def test_rmm_to_smm_pointwise_reflection():
    f = closed_form("poly", RMM, c0=0.0, c1=1.0, c2=-1.0)  # t - t^2
    h = rmm_to_smm(f)
    assert h.value(0.25) == pytest.approx(0.1875, abs=1e-15)
    f2 = power(0.5)
    assert rmm_to_smm(f2).value(0.75) == pytest.approx(0.25, abs=1e-15)


def test_conversion_round_trip_is_exact():
    f = power(0.5)
    back = smm_to_rmm(rmm_to_smm(f))
    us = np.linspace(0.0, 1.0, 1001)
    assert np.array_equal(back.value_array(us), f.value_array(us))
    assert back is f


def test_conversion_rejects_wrong_class():
    with pytest.raises(GeneratorValidationError):
        smm_to_rmm(power(0.5))


def test_hat_to_f_of_identity_is_zero():
    f = hat_to_f(closed_form("identity", MARSHALL))
    assert f.value(0.3) == 0.0


def test_hat_to_f_of_efgmhat():
    f = hat_to_f(closed_form("efgmhat", MARSHALL, a=0.8))
    assert f.value(0.5) == pytest.approx(0.2, abs=1e-15)  # a/4


def test_hat_to_f_rejects_boundary_mismatch():
    with pytest.raises(GeneratorValidationError):
        hat_to_f(power(0.5))  # ends at 0, not 1


def test_hat_of_inverts_hat_to_f():
    f = power(0.5)
    hat = hat_of(f)
    assert hat.value(0.25) == pytest.approx(0.5, abs=1e-15)


def test_identity_minus():
    g = identity_minus(closed_form("zero", MARSHALL), SMM)
    assert g.value(0.4) == 0.4


# ---------------------------------------------------------------------------
# construction from shocks
# ---------------------------------------------------------------------------


def test_degenerate_shock_gives_identity_generator():
    gen = generator_from_shocks(Uniform(), Uniform())
    us = np.linspace(0.0, 1.0, 101)
    np.testing.assert_allclose(gen.value_array(us), us, atol=1e-12)


def test_point_mass_shock_gives_identity_generator():
    margin = Product(Uniform(), point_mass(0.5))
    gen = generator_from_shocks(Uniform(), margin)
    us = np.linspace(0.0, 1.0, 101)
    np.testing.assert_allclose(gen.value_array(us), us, atol=1e-9)


def test_efgm_margin_reproduces_quadratic_hat():
    for a in (0.5, 0.95, 1.0):
        gen = generator_from_shocks(Uniform(), EfgmMargin(a), resolution=1 << 16)
        us = np.linspace(0.01, 0.99, 99)
        expected = (a + 1.0) * us - a * us * us
        np.testing.assert_allclose(gen.value_array(us), expected, atol=1e-9)


def test_equal_rate_exponentials_give_power_hat():
    lam = 1.0
    margin = Product(Exponential(lam), Exponential(lam))
    hat = generator_from_shocks(Exponential(lam), margin)
    f = hat_to_f(hat, RMM)
    us = np.arange(0.1, 0.95, 0.1)
    expected = us**0.5 - us
    np.testing.assert_allclose(f.value_array(us), expected, atol=1e-6)
    assert validate(f).passed


def test_negated_exponentials_give_exact_power_for_any_rates():
    lam, mu = 1.0, 3.0
    margin = Product(NegExponential(lam), NegExponential(mu))
    hat = generator_from_shocks(NegExponential(lam), margin)
    alpha = lam / (lam + mu)
    us = np.arange(0.1, 0.95, 0.1)
    np.testing.assert_allclose(hat.value_array(us), us**alpha, atol=1e-6)
    assert validate(hat_to_f(hat, RMM)).passed


def test_margin_order_precondition_enforced():
    with pytest.raises(ShockStructureError) as err:
        generator_from_shocks(Uniform(), Uniform(0.0, 0.5))  # margin above component
    assert err.value.witness is not None


@pytest.mark.parametrize(
    "component, margin, side, at",
    [
        (Uniform(), Uniform(0.0, 0.5), "below", 0.5),
        (Exponential(1.0), SurvivalProduct(Exponential(1.0), Exponential(1.0)), "below", math.log(2.0)),
        (Exponential(1.0), Product(Exponential(1.0), Exponential(1.0)), "above", math.log(2.0)),
    ],
)
def test_margin_order_witness_reproduces_the_reported_gap(component, margin, side, at):
    with pytest.raises(ShockStructureError) as err:
        generator_from_shocks(component, margin, margin_side=side)
    x = err.value.witness
    assert x == pytest.approx(at, abs=1e-12)  # the worst point of the tabulation
    gap = margin.cdf(x) - component.cdf(x) if side == "below" else component.cdf(x) - margin.cdf(x)
    assert f" by {gap:.3g} at x={x:.6g} " in str(err.value)


def test_generator_from_shocks_inverts_the_margin_once():
    class Spy(Product):
        calls = 0

        def quantile_array(self, levels):
            Spy.calls += 1
            return super().quantile_array(levels)

    gen = generator_from_shocks(Exponential(1.0), Spy(Exponential(1.0), Exponential(2.0)))
    assert Spy.calls == 1 and validate(gen).passed


def test_min_side_margin_order():
    from shockcop.distributions import SurvivalProduct

    margin = SurvivalProduct(Exponential(1.0), Exponential(1.0))
    gen = generator_from_shocks(Exponential(1.0), margin, margin_side="above")
    # A(u) = 1 - (1-u)**0.5; id - A is the min-model generator
    us = np.arange(0.1, 0.95, 0.1)
    np.testing.assert_allclose(gen.value_array(us), 1.0 - (1.0 - us) ** 0.5, atol=1e-6)
    h = identity_minus(gen, SMM)
    assert validate(h).passed
    with pytest.raises(ShockStructureError):
        generator_from_shocks(Exponential(1.0), margin, margin_side="below")


def test_gap_interpolation_across_margin_jumps():
    # two-step shock: margin = 0.5x on [0.5, 1), flat 0.5 on [1, 2), 1 beyond.
    # Across the lower gap the generator climbs linearly from (0,0) to
    # (0.25, 0.5); across the upper gap it is pinned at 1; the whole map is
    # min{2u, 1}.
    from shockcop.distributions import TabulatedCdf

    shock = TabulatedCdf([0.5, 2.0], [0.5, 1.0], "step")
    margin = Product(Uniform(), shock)
    gen = generator_from_shocks(Uniform(), margin)
    us = np.linspace(0.0, 1.0, 201)
    np.testing.assert_allclose(gen.value_array(us), np.minimum(2.0 * us, 1.0), atol=1e-9)
    assert validate(gen, tol=1e-9).passed


@given(st.floats(min_value=0.1, max_value=1.0), st.floats(min_value=0.1, max_value=5.0))
@settings(max_examples=20, deadline=None)
def test_shock_construction_yields_valid_marshall_generator(lam, mu):
    margin = Product(Exponential(lam), Exponential(mu))
    gen = generator_from_shocks(Exponential(lam), margin, resolution=512)
    report = validate(gen, grid_size=301)
    assert report.passed


def test_star_of_valid_rmm_generator_is_nonincreasing():
    for gen in (
        power(0.5),
        closed_form("efgmf", RMM, a=0.7),
        closed_form("twoparam", RMM, alpha=0.5, beta=0.7),
    ):
        us = np.linspace(0.0, 1.0, 1001)[1:]
        stars = [derived_value(gen, "star", float(u)) for u in us]
        assert all(b <= a + 1e-12 for a, b in zip(stars, stars[1:]))


class _NanAtHalf(Generator):
    """0.2 u(1-u), a valid RMM generator, except NaN at u = 0.5."""

    declared_class = RMM

    def _eval(self, u):
        return np.where(u == 0.5, np.nan, 0.2 * u * (1.0 - u))

    def describe(self):
        return "nan-at-half"


def test_validate_reports_a_nan_step():
    report = validate(_NanAtHalf())
    assert not report.passed
    assert {v.condition for v in report.violations} == {"hat-nondecreasing", "star-nonincreasing"}
    assert all(v.u == 0.5 and np.isnan(v.observed) for v in report.violations)
