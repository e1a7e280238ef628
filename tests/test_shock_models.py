import functools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shockcop.copulas import (
    FrechetM,
    FrechetW,
    MarshallCopula,
    MaxminCopula,
    RmmCopula,
    SmmCopula,
    efgm,
    exprmm_ab,
    marshall,
    normalize,
    sklar_join,
    survival,
)
from shockcop.descriptors import parse_copula, parse_generator
from shockcop.distributions import (
    _GUARD_ULPS,
    DistributionFunction,
    EfgmMargin,
    EfgmShock,
    Exponential,
    MappedCdf,
    NegatedCdf,
    PointwiseCdf,
    Product,
    SurvivalProduct,
    TabulatedCdf,
    Uniform,
    negated,
    point_mass,
)
from shockcop.errors import IllegalModelError, ReconstructionError
from shockcop.generators import (
    CLASS_SPECS,
    DERIVED_MAPS,
    GeneratorClass,
    TabulatedGenerator,
    closed_form,
    derived_value,
    generator_from_shocks,
)
from shockcop.sampling import sample_model, sup_distance
from shockcop.shock_models import (
    ChiMap,
    Combiner,
    ComposedCdf,
    MarshallShockCdf,
    RmmShockCdf,
    ShockModel,
    audited_reconstruction,
    exponential_marshall_model,
    exponential_rmm_model,
    exponential_smm_model,
    exprmm_ab_model,
    induced_copula,
    joint_cdf,
    margins,
    marshall_model,
    maxmin_model,
    reconstruct,
    rmm_model,
    smm_model,
    support_grid,
)
from test_distributions import LEVELS, assert_float_infimum, exact_cdf

U = Uniform()


def grid_joint_gap(model, copula, n=21):
    f_u, f_v = margins(model)
    join = sklar_join(copula, f_u, f_v)
    levels = np.linspace(1e-6, 1.0 - 1e-6, n)
    xs = f_u.quantile_array(levels)
    ys = f_v.quantile_array(levels)
    worst = 0.0
    for x in xs:
        for y in ys:
            worst = max(worst, abs(joint_cdf(model, float(x), float(y)) - join.cdf(float(x), float(y))))
    return worst


# ---------------------------------------------------------------------------
# configurations and margins
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("g1, g2, combiner, coupling, message", [
    pytest.param(U, U, Combiner.MIN_MIN, FrechetM(), "combiner min-min with frechet-m shocks",
                 id="M-under-min-min"),
    pytest.param(U, U, Combiner.MAX_MIN, FrechetW(), "combiner max-min with frechet-w shocks",
                 id="W-under-max-min"),
    pytest.param(U, Uniform(), Combiner.MAX_MIN, FrechetM(), "g1 must be g2",
                 id="max-min-two-shocks"),
])
def test_illegal_configuration_rejected(g1, g2, combiner, coupling, message):
    with pytest.raises(IllegalModelError, match=message):
        ShockModel(U, U, g1, g2, combiner, coupling)


@pytest.mark.parametrize("alpha, beta", [(1.0, 0.5), (0.5, 0.0)])
def test_exprmm_ab_model_rejects_exponents_outside_the_open_interval(alpha, beta):
    with pytest.raises(ValueError, match=re.escape("model exponents must lie strictly inside (0,1)")):
        exprmm_ab_model(alpha, beta)


def test_max_model_margin_is_product():
    m = marshall_model(U, U, U, U)
    f_u, _ = margins(m)
    assert f_u.cdf(0.5) == 0.25


def test_exponential_margin_value():
    m = marshall_model(Exponential(1.0), Exponential(1.0), Exponential(1.0), Exponential(1.0))
    f_u, _ = margins(m)
    assert f_u.cdf(1.0) == pytest.approx((1.0 - math.exp(-1.0)) ** 2, abs=1e-15)


def test_min_model_margin_is_survival_product():
    m = smm_model(U, U, U, U)
    f_u, _ = margins(m)
    assert f_u.cdf(0.5) == pytest.approx(0.75, abs=1e-15)


# ---------------------------------------------------------------------------
# joint CDFs
# ---------------------------------------------------------------------------


def test_joint_cdf_comonotonic_max():
    m = marshall_model(U, U, U, U)
    assert joint_cdf(m, 0.5, 0.5) == pytest.approx(0.125, abs=1e-15)


def test_joint_cdf_countermonotonic_max():
    m = rmm_model(U, U, U, U)
    assert joint_cdf(m, 0.5, 0.5) == 0.0


def test_joint_cdf_countermonotonic_min():
    m = smm_model(U, U, U, U)
    assert joint_cdf(m, 0.5, 0.5) == pytest.approx(0.5, abs=1e-15)


def test_joint_cdf_shared_shock_margins():
    m = maxmin_model(U, U, U)
    f_u, f_v = margins(m)
    for x in np.linspace(0.05, 0.95, 13):
        assert joint_cdf(m, float(x), math.inf) == pytest.approx(f_u.cdf(x), abs=1e-14)
        assert joint_cdf(m, math.inf, float(x)) == pytest.approx(f_v.cdf(x), abs=1e-14)


def scalar_joint_cdf(m, x, y):
    """The closed-form joint CDF from scalar component CDFs, one point at a time."""
    fx, fy = m.f_x.cdf(x), m.f_y.cdf(y)
    g1, g2 = m.g1.cdf(x), m.g2.cdf(y)
    comonotone = isinstance(m.coupling, FrechetM)
    if m.combiner is Combiner.MAX_MIN:
        assert comonotone and m.g1 is m.g2
        return fx * (g1 - (1.0 - fy) * max(0.0, g1 - g2))
    if m.combiner is Combiner.MIN_MIN:
        assert not comonotone
        fu = 1.0 - (1.0 - fx) * (1.0 - g1)
        fv = 1.0 - (1.0 - fy) * (1.0 - g2)
        return fu + fv - 1.0 + (1.0 - fx) * (1.0 - fy) * max(0.0, 1.0 - g1 - g2)
    if comonotone:
        return fx * fy * min(g1, g2)
    return fx * fy * max(0.0, g1 + g2 - 1.0)


_CAP = closed_form("capped", GeneratorClass.MARSHALL, slope=2.0)
FOUR_FAMILIES = {
    "marshall": lambda: marshall_model(
        Exponential(1.0), Exponential(2.0), Exponential(1.5), Exponential(0.5)
    ),
    "rmm": lambda: rmm_model(U, U, EfgmShock(0.7), EfgmShock(0.7)),
    "smm": lambda: smm_model(
        Exponential(1.0), Exponential(2.0), Exponential(3.0), Exponential(0.5)
    ),
    "maxmin": lambda: maxmin_model(Exponential(1.0), Exponential(2.0), Exponential(1.5)),
    # reconstructed models: per-element branch shocks and chi-shifted laws
    "marshall-reconstructed": lambda: reconstruct(marshall(_CAP, _CAP), U, U),
    "rmm-reconstructed": lambda: reconstruct(efgm(0.8), U, U),
    "smm-reconstructed": lambda: reconstruct(survival(efgm(0.6)), U, U),
}


@pytest.mark.parametrize("family", sorted(FOUR_FAMILIES))
def test_array_joint_cdf_equals_scalar_formula(family):
    model = FOUR_FAMILIES[family]()
    xs = np.array([-1.0, 0.0, 0.05, 0.3, 0.5, 0.77, 1.0, 2.5])
    ys = np.array([-0.5, 0.1, 0.5, 0.9, 1.0, 3.0])
    lattice = joint_cdf(model, xs[:, None], ys[None, :])
    assert lattice.shape == (xs.size, ys.size)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            ref = scalar_joint_cdf(model, float(x), float(y))
            assert lattice[i, j] == pytest.approx(ref, abs=1e-15)
            point = joint_cdf(model, float(x), float(y))
            assert type(point) is float and point == lattice[i, j]
    # 1-D arguments broadcast elementwise, a scalar against a vector too
    np.testing.assert_array_equal(joint_cdf(model, xs[:6], ys), np.diag(lattice[:6]))
    np.testing.assert_array_equal(joint_cdf(model, 0.3, ys), lattice[3])
    # the infinities give the margins, and the corners, as the scalar formula does
    f_u, f_v = margins(model)
    for x in xs:
        assert joint_cdf(model, float(x), math.inf) == pytest.approx(f_u.cdf(float(x)), abs=1e-14)
        assert joint_cdf(model, math.inf, float(x)) == pytest.approx(f_v.cdf(float(x)), abs=1e-14)
        for args in ((-math.inf, float(x)), (float(x), -math.inf)):
            ref = scalar_joint_cdf(model, *args)
            assert joint_cdf(model, *args) == pytest.approx(ref, abs=1e-15)
    assert joint_cdf(model, math.inf, math.inf) == 1.0
    assert joint_cdf(model, -math.inf, -math.inf) == 0.0


def test_scalar_joint_formula_equals_lattice_entry_exactly():
    # a scalar call is the array path at one point, so it reproduces each lattice
    # entry to the bit; the joint law is a sum of nonnegative terms, so it is exactly
    # 0 where the per-family formula cancels to a tiny negative number
    model = FOUR_FAMILIES["smm"]()
    xs, ys = np.array([0.3, 2.5]), np.array([-np.inf, 0.0, 0.7, 3.0])
    lattice = joint_cdf(model, xs[:, None], ys[None, :])
    assert scalar_joint_cdf(model, 2.5, -math.inf) < 0.0
    assert joint_cdf(model, 2.5, -math.inf) == lattice[1, 0] == 0.0
    for i, x in enumerate(xs.tolist()):
        for j, y in enumerate(ys.tolist()):
            assert joint_cdf(model, x, y) == lattice[i, j]
            assert lattice[i, j] == pytest.approx(scalar_joint_cdf(model, x, y), abs=1e-15)


def test_sub_stochastic_shock_gives_the_margins_at_infinity_on_arrays():
    # the table's p stops at 0.6: its missing mass sits at +inf, where F still reads 1
    t = TabulatedCdf([0.0, 1.0], [0.3, 0.6], "step")
    model = rmm_model(Exponential(1.0), Exponential(2.0), t, Exponential(1.5))
    f_u, f_v = margins(model)
    pts = np.array([-1.0, 0.0, 0.5, 1.0, 3.0])
    inf = np.full(pts.shape, np.inf)
    np.testing.assert_allclose(joint_cdf(model, inf, pts), f_v.cdf_array(pts), rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(joint_cdf(model, pts, inf), f_u.cdf_array(pts), rtol=0.0, atol=1e-15)
    f_v1 = (1.0 - math.exp(-2.0)) * (1.0 - math.exp(-1.5))
    assert joint_cdf(model, np.array([np.inf]), np.array([1.0]))[0] == pytest.approx(f_v1, abs=1e-15)
    assert joint_cdf(model, math.inf, 1.0) == joint_cdf(model, np.array([np.inf]), np.array([1.0]))[0]


_LAWS = st.one_of(
    st.floats(0.1, 5.0).map(Exponential),
    st.tuples(st.floats(-1.0, 1.0), st.floats(0.1, 3.0)).map(lambda t: Uniform(t[0], t[0] + t[1])),
)
_BUILDERS = {
    "marshall": marshall_model,
    "rmm": rmm_model,
    "smm": smm_model,
    "maxmin": lambda f_x, f_y, g1, g2: maxmin_model(f_x, f_y, g1),
}


@given(
    st.sampled_from(sorted(_BUILDERS)),
    st.tuples(_LAWS, _LAWS, _LAWS, _LAWS),
    st.lists(st.floats(-2.0, 8.0), min_size=1, max_size=30),
)
@settings(max_examples=200, deadline=None)
def test_joint_law_lies_between_zero_and_both_margins(family, laws, points):
    model = _BUILDERS[family](*laws)
    xs = np.concatenate(([-np.inf, np.inf], points))
    h = joint_cdf(model, xs[:, None], xs[None, :])
    f_u, f_v = (margin.cdf_array(xs) for margin in margins(model))
    assert np.all(h >= 0.0)
    assert np.all(h <= np.minimum(f_u[:, None], f_v[None, :]) + 4e-16)
    np.testing.assert_allclose(h[:, 1], f_u, rtol=0.0, atol=1e-14)
    np.testing.assert_allclose(h[1, :], f_v, rtol=0.0, atol=1e-14)


def test_join_cdf_broadcasts_and_keeps_scalars():

    join = sklar_join(efgm(0.9), Exponential(1.0), Exponential(2.0))
    xs = np.array([0.0, 0.2, 1.0, 4.0])
    lattice = join.cdf(xs[:, None], xs[None, :])
    assert lattice.shape == (4, 4)
    for i, x in enumerate(xs):
        for j, y in enumerate(xs):
            u, v = Exponential(1.0).cdf(float(x)), Exponential(2.0).cdf(float(y))
            assert lattice[i, j] == pytest.approx(efgm(0.9).value(u, v), abs=1e-16)
    assert type(join.cdf(0.2, 1.0)) is float
    assert join.cdf(1.0, math.inf) == pytest.approx(Exponential(1.0).cdf(1.0), abs=1e-16)


# ---------------------------------------------------------------------------
# induced copulas and model/copula agreement as grid identities
# ---------------------------------------------------------------------------


def test_degenerate_shock_induces_identity_marshall():
    m = marshall_model(U, U, point_mass(0.5), point_mass(0.5))
    c = induced_copula(m)
    assert isinstance(c, MarshallCopula)
    us = np.linspace(0.0, 1.0, 51)
    np.testing.assert_allclose(c.phi.value_array(us), us, atol=1e-9)


def test_equal_rate_exponential_max_model_matches_power_family():
    m = rmm_model(Exponential(1.0), Exponential(1.0), Exponential(1.0), Exponential(1.0))
    c = induced_copula(m)
    assert isinstance(c, RmmCopula)
    assert sup_distance(c, exprmm_ab(0.5, 0.5), 11) <= 1e-6


def test_negated_exponential_model_matches_power_family_any_rates():
    m = exponential_rmm_model(1.0, 2.0, 3.0, 0.5)
    c = induced_copula(m)
    assert sup_distance(c, exprmm_ab(0.25, 0.8), 11) <= 1e-6


def test_min_model_induces_survival_of_power_family():
    m = smm_model(Exponential(1.0), Exponential(1.0), Exponential(1.0), Exponential(1.0))
    c = induced_copula(m)
    assert isinstance(c, SmmCopula)
    assert sup_distance(c, survival(exprmm_ab(0.5, 0.5)), 11) <= 1e-6


def test_min_model_power_family_for_unequal_rates():
    # survival scale makes the exponent exact for any rates
    m = smm_model(Exponential(1.0), Exponential(2.0), Exponential(3.0), Exponential(0.5))
    c = induced_copula(m)
    assert sup_distance(c, survival(exprmm_ab(0.25, 0.8)), 11) <= 1e-6


def test_efgm_forward_model_induces_efgm():
    a = 0.95
    m = rmm_model(U, U, EfgmShock(a), EfgmShock(a))
    c = induced_copula(m)
    assert sup_distance(c, efgm(a), 11) <= 1e-6


@pytest.mark.parametrize(
    "model",
    [
        marshall_model(U, U, U, U),
        marshall_model(Exponential(1.0), Exponential(2.0), Exponential(1.5), Exponential(0.5)),
        rmm_model(U, U, U, U),
        rmm_model(Exponential(1.0), Exponential(1.0), Exponential(1.0), Exponential(1.0)),
        exprmm_ab_model(0.4, 0.9),
        smm_model(U, U, U, U),
        smm_model(Exponential(1.0), Exponential(2.0), Exponential(3.0), Exponential(0.5)),
        maxmin_model(U, U, U),
        maxmin_model(Exponential(1.0), Exponential(2.0), Exponential(1.5)),
        rmm_model(U, U, EfgmShock(1.0), EfgmShock(1.0)),
    ],
    ids=lambda m: m.describe(),
)
def test_joint_cdf_equals_sklar_join_of_induced(model):
    # model/copula agreement restated as a grid identity; the tabulation must be
    # fine enough that interpolation error stays under the identity tolerance
    worst = grid_joint_gap(model, induced_copula(model, resolution=1 << 15))
    assert worst <= 1e-9


def test_maxmin_shared_uniform_has_closed_form_generators():
    m = maxmin_model(U, U, U)
    c = induced_copula(m, resolution=1 << 14)
    assert isinstance(c, MaxminCopula)
    us = np.linspace(0.0, 1.0, 101)
    np.testing.assert_allclose(c.phi.value_array(us), np.sqrt(us), atol=1e-8)
    np.testing.assert_allclose(c.psi.value_array(us), 1.0 - np.sqrt(1.0 - us), atol=1e-8)


# ---------------------------------------------------------------------------
# Marshall reconstruction
# ---------------------------------------------------------------------------


def identity_gen():
    return closed_form("identity", GeneratorClass.MARSHALL)


def capped_gen():
    return closed_form("capped", GeneratorClass.MARSHALL, slope=2.0)


# sqrt(u): a Marshall generator whose star ratio diverges at 0+, so its margins need not start
SQRT = parse_generator("plus-id(power:alpha=0.5)", GeneratorClass.MARSHALL)


def test_marshall_reconstruction_identity_generators():
    c = marshall(identity_gen(), identity_gen())
    model = reconstruct(c, U, U)
    assert model.combiner is Combiner.MAX_MAX
    g2 = model.g2
    for x in (0.25, 0.5, 1.0):
        assert g2.cdf(x) == pytest.approx(1.0, abs=1e-12)
    assert model.f_x.cdf(0.37) == pytest.approx(0.37, abs=1e-12)


def test_marshall_reconstruction_capped_generators():
    c = marshall(capped_gen(), capped_gen())
    model = reconstruct(c, U, U)
    assert model.g2.cdf(0.25) == pytest.approx(0.5, abs=1e-12)
    # factorization F_X * G1 = F_U on a grid
    xs = np.linspace(0.01, 0.99, 37)
    prod = model.f_x.cdf_array(xs) * model.g1.cdf_array(xs)
    np.testing.assert_allclose(prod, xs, atol=1e-10)


def test_marshall_reconstruction_alignment_violation():
    c = MarshallCopula(capped_gen(), identity_gen())  # mismatched star ratios
    with pytest.raises(ReconstructionError) as err:
        reconstruct(c, U, U)
    assert err.value.assumption == "alignment"
    assert err.value.witness is not None


def test_marshall_alignment_witness_is_first_violating_grid_point():
    c = MarshallCopula(capped_gen(), identity_gen())
    with pytest.raises(ReconstructionError) as err:
        reconstruct(c, U, U, tol=1e-9)
    # reference: the scalar scan over the reconstruction grid
    for x in support_grid([U, U], 1001):
        fu, fv = U.cdf(float(x)), U.cdf(float(x))
        if fu > 0.0 and fv > 0.0:
            left, right = c.phi.value(fu) / fu, c.psi.value(fv) / fv
            if abs(left - right) > 1e-9 * max(1.0, abs(left), abs(right)):
                break
    assert err.value.witness == (float(x), 0.0)
    assert str(err.value) == (
        f"alignment: phi-star({fu:.6g})={left:.6g} != psi-star({fv:.6g})={right:.6g}"
    )


AFFINE_CHI = ChiMap(lambda x: 2.0 * x + 1.0, lambda y: (y - 1.0) / 2.0)


def test_marshall_reconstruction_through_an_array_chi():
    # U on [1, 3] and V on [0, 1] align only through chi(x) = 2x + 1
    c = marshall(capped_gen(), capped_gen())
    margin_u = Uniform(1.0, 3.0)
    model, report = audited_reconstruction(c, margin_u, U)
    assert model is None
    assert [r.check_id for r in report.results] == ["hypothesis:alignment"]
    model, report = audited_reconstruction(c, margin_u, U, chi=AFFINE_CHI)
    assert report.passed and len(report.results) == 8
    # flat steps of the nondecreasing checks are +0.0, in the text and the CSV alike
    assert not any(np.signbit(r.magnitude) for r in report.results)
    assert "-0." not in report.render_text() + "\n".join(report.csv_rows())
    assert grid_joint_gap(model, c) <= 1e-9


def test_marshall_reconstruction_joint_identity():
    c = marshall(capped_gen(), capped_gen())
    model = reconstruct(c, U, U)
    assert grid_joint_gap(model, c) <= 1e-9


def test_marshall_reconstruction_margin_envelope():
    c = marshall(capped_gen(), capped_gen())
    model = reconstruct(c, U, U)
    xs = support_grid([U, U], 201)
    f_u, _ = margins(model)
    env = np.minimum(model.f_x.cdf_array(xs), model.g1.cdf_array(xs))
    assert np.all(f_u.cdf_array(xs) <= env + 1e-12)


_FULLSHOCK = closed_form("fullshock", GeneratorClass.MARSHALL)


@pytest.mark.parametrize("margin, passes", [
    (U, False),
    (TabulatedCdf([0.0, 1.0, 2.0], [0.25, 0.5, 1.0], "step"), True),
    (point_mass(0.0), True),
], ids=["uniform", "step-table", "point-mass"])
def test_left_endpoint_hypothesis_needs_an_atom_where_the_margin_starts(margin, passes):
    # fullshock jumps from 0 to 1 at 0+, so only an atom at the left endpoint carries it
    model, report = audited_reconstruction(marshall(_FULLSHOCK, _FULLSHOCK), margin, margin)
    if passes:
        assert model is not None and report.passed and len(report.results) == 8
    else:
        assert model is None
        assert [r.check_id for r in report.results] == ["hypothesis:left-endpoint"]


def test_star_divergence_hypothesis_needs_a_margin_that_vanishes():
    # capped's star ratio stays at its slope as u -> 0+, and neg-exp is positive everywhere
    c = marshall(capped_gen(), capped_gen())
    model, report = audited_reconstruction(c, negated(Exponential(1.0)), negated(Exponential(1.0)))
    assert model is None
    [row] = report.results
    assert row.check_id == "hypothesis:star-divergence" and not row.passed
    # witnessed at the grid's first point, the margins' 1e-6 quantile log(1e-6)
    assert row.witness == (pytest.approx(-13.816, abs=1e-3), 0.0)
    assert "star ratio bounded at 0+ and margin never vanishes" in row.detail
    # the verdict reads the declared start, so a margin whose F underflows to 0 left of
    # the grid (exp(1000 x) below x = -0.75) still never vanishes
    steep = negated(Exponential(1000.0))
    assert steep.cdf(-1.0) == 0.0 and steep.support()[0] == -math.inf
    model, report = audited_reconstruction(c, steep, steep)
    assert model is None and report.results[0].check_id == "hypothesis:star-divergence"


# ---------------------------------------------------------------------------
# RMM reconstruction
# ---------------------------------------------------------------------------


def test_rmm_reconstruction_independence():
    c = RmmCopula(
        closed_form("zero", GeneratorClass.RMM), closed_form("zero", GeneratorClass.RMM)
    )
    model = reconstruct(c, U, U)
    assert model.f_x.cdf(0.3) == pytest.approx(0.3, abs=1e-12)
    assert model.g1.cdf(0.5) == pytest.approx(1.0, abs=1e-12)


def test_rmm_reconstruction_efgm_closed_forms():
    a = 1.0
    model = reconstruct(efgm(a), U, U)
    # F_X(x) = (a+1)x - a x^2 and G1(x) = 1/(a+1-ax) on (0,1]
    assert model.f_x.cdf(0.5) == pytest.approx(0.75, abs=1e-12)
    assert model.g1.cdf(0.5) == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert model.f_x.cdf(0.5) * model.g1.cdf(0.5) == pytest.approx(0.5, abs=1e-12)


def test_rmm_reconstruction_native_margins_recovers_exponentials():
    margin = Product(Exponential(1.0), Exponential(1.0))
    model = reconstruct(exprmm_ab(0.5, 0.5), margin, margin)
    ref = Exponential(1.0)
    for lvl in np.linspace(0.05, 0.95, 21):
        x = float(ref.quantile(float(lvl)))
        assert model.f_x.cdf(x) == pytest.approx(ref.cdf(x), abs=1e-6)


def from_start(d, x, left=False):
    """Whether x lies at or past the start of a shock's margin_u (past it, for a left
    limit), where a margin_u that reads 0 gives the u branch's right limit."""
    start = d.margin_u.support()[0]
    return math.isfinite(start) and (x > start if left else x >= start)


def margin_values(d, x, left=False):
    read = "cdf_left" if left else "cdf"
    return getattr(d.margin_u, read)(x), getattr(d.margin_v, read)(x)


def reference_rmm_shock(d, x, left=False):
    """The RMM shock CDF, or its left limit, at one point."""
    return rmm_shock_rule(d, *margin_values(d, x, left), from_start(d, x, left))


def rmm_shock_rule(d, fu, fv, past_start):
    """The RMM shock from its margins' values at one point: fu / hat_f(fu); where fu
    vanishes, 1 / (1 + f*(0+)) from margin_u's start on, else s / (1 + s) with s the
    star value of g at 1 - fv."""
    if fu == 0.0 and past_start:
        return 1.0 / (1.0 + derived_value(d.f, "star", 0.0))
    if fu == 0.0:
        s = derived_value(d.g, "star", 1.0 - fv)
        return 1.0 if s == math.inf else s / (1.0 + s)
    return fu / (d.f.value(fu) + fu)


def reference_marshall_shock(d, x, left=False):
    """The Marshall shock CDF, or its left limit, at one point."""
    return marshall_shock_rule(d, *margin_values(d, x, left), from_start(d, x, left))


def marshall_shock_rule(d, fu, fv, past_start=False):
    """The Marshall shock from its margins' values at one point: fu / phi(fu); where fu
    vanishes, 1 / phi*(0+) from margin_u's start on, else fv / psi(fv), 0 if fv vanishes."""
    if fu == 0.0 and past_start:
        star = derived_value(d.phi, "star", 0.0)
        return 1.0 / star if star else math.inf  # phi*(0+) = 0 only where phi vanishes
    if fu == 0.0 and fv == 0.0:
        return 0.0
    name, num, gen = ("psi", fv, d.psi) if fu == 0.0 else ("phi", fu, d.phi)
    if gen.value(num) == 0.0:
        raise ReconstructionError(
            "generator-vanishes", f"{name} vanishes at a point with margin value {num}"
        )
    return num / gen.value(num)


SHOCK_XS = np.linspace(-0.5, 2.5, 25).reshape(5, 5)  # 2-D, with x = 1 where fu = 0 and fv = 1


@pytest.mark.parametrize("g", [
    closed_form("efgmf", GeneratorClass.RMM, a=0.7),  # finite star limit at 0
    closed_form("power", GeneratorClass.RMM, alpha=0.5),  # star diverges at 0
], ids=lambda g: g.describe())
def test_rmm_shock_cdf_equals_scalar_reference(g):
    f = closed_form("efgmf", GeneratorClass.RMM, a=0.4)
    # margin_u vanishes up to 1, where margin_v already reaches 1: every branch is hit
    margins_uv = Uniform(1.0, 2.0), Uniform(0.0, 1.0)
    d = RmmShockCdf(f, g, *margins_uv, "u")
    ref, ref_left = (np.vectorize(lambda x: reference_rmm_shock(d, x, left))(SHOCK_XS) for left in (False, True))
    assert 1.0 in SHOCK_XS and d.margin_v.cdf(1.0) == 1.0 and d.margin_u.cdf(1.0) == 0.0
    np.testing.assert_array_equal(d.cdf_array(SHOCK_XS), ref)
    np.testing.assert_array_equal(d.cdf_left_array(SHOCK_XS), ref_left)
    # margin_u starts at 1: F(1) is the u branch's limit 1/(1 + 0.4), F(1-) the star limit of g
    assert ref[SHOCK_XS == 1.0] == [1.0 / 1.4] and d.jump_points() == (1.0,)
    assert np.array_equal(ref != ref_left, SHOCK_XS == 1.0)


def test_marshall_shock_cdf_equals_scalar_reference():
    d = MarshallShockCdf(capped_gen(), identity_gen(), Uniform(0.5, 1.5), U)
    for left in (False, True):
        ref = np.vectorize(lambda x: reference_marshall_shock(d, x, left))(SHOCK_XS)
        np.testing.assert_array_equal(d.cdf_array(SHOCK_XS, left), ref)


CHI_STEP_MARGINS = (
    TabulatedCdf([1.5, 2.0, 3.0], [0.3, 0.6, 1.0], "step"),
    TabulatedCdf([0.25, 0.5, 1.0], [0.3, 0.6, 1.0], "step"),
)


def test_marshall_shock_jump_points_are_in_each_shocks_own_coordinates():
    # U's steps sit at chi(x) = 2x + 1 of V's: g2 lives on V's axis, g1 on U's
    margin_u, margin_v = CHI_STEP_MARGINS
    c = marshall(capped_gen(), capped_gen())
    model, report = audited_reconstruction(c, margin_u, margin_v, chi=AFFINE_CHI)
    assert report.passed and len(report.results) == 8
    assert model.g2.jump_points() == (0.25, 0.5, 1.0)
    assert model.g1.jump_points() == (1.5, 2.0, 3.0)


@pytest.mark.parametrize("side", ["phi", "psi"])
def test_marshall_shock_cdf_raises_at_first_vanishing_point(side):
    vanishing = TabulatedGenerator([0.0, 0.5, 1.0], [0.0, 0.0, 1.0], GeneratorClass.MARSHALL)
    gens = (vanishing, identity_gen()) if side == "phi" else (identity_gen(), vanishing)
    margin_u = U if side == "phi" else Uniform(1.0, 2.0)  # fu = 0 sends psi's side to work
    d = MarshallShockCdf(*gens, margin_u, U)
    xs = np.array([[0.9, 0.0], [0.3, 0.2]])  # first offending point in ravel order: 0.3
    with pytest.raises(ReconstructionError) as ref:
        for x in xs.ravel().tolist():
            reference_marshall_shock(d, x)
    with pytest.raises(ReconstructionError) as err:
        d.cdf_array(xs)
    assert err.value.assumption == ref.value.assumption == "generator-vanishes"
    assert str(err.value) == str(ref.value) == (
        f"generator-vanishes: {side} vanishes at a point with margin value 0.3"
    )
    assert err.value.witness is ref.value.witness is None


# ---------------------------------------------------------------------------
# composite laws: a law read from its parts at the same point
# ---------------------------------------------------------------------------

STEP_MARGIN = TabulatedCdf([0.0, 1.0, 2.0], [0.25, 0.5, 1.0], "step")
COMPOSITE_KINDS = [Product, SurvivalProduct, ComposedCdf, RmmShockCdf, MarshallShockCdf]
# (low, high) applied to the parts' support hints; every other composite takes the hull
HINT_RULES = {Product: (max, max), SurvivalProduct: (min, min)}


@functools.lru_cache(maxsize=1)
def laws_at_any_depth():
    """Every law, at any depth, of reconstructed Marshall (also through the affine
    chi), RMM and SMM models on continuous and step margins, some of which never
    start, of their margins, and of products of step tables and negated laws."""
    cap = capped_gen()
    linear = TabulatedCdf([0.0, 0.5, 2.0], [0.0, 0.25, 1.0], "linear")
    stack = [
        Product(STEP_MARGIN, negated(linear)),
        SurvivalProduct(negated(STEP_MARGIN), Uniform(-1.0, 3.0)),
        Product(SurvivalProduct(STEP_MARGIN, Exponential(0.5)), negated(Product(linear, STEP_MARGIN))),
    ]
    for c, fu, fv, chi in [
        (marshall(cap, cap), U, U, None),
        (efgm(0.8), U, Exponential(2.0), None),
        (survival(efgm(0.6)), U, U, None),
        (marshall(cap, cap), STEP_MARGIN, STEP_MARGIN, None),
        (efgm(0.8), STEP_MARGIN, Uniform(0.0, 3.0), None),
        (survival(efgm(0.6)), STEP_MARGIN, Uniform(0.0, 3.0), None),
        (marshall(cap, cap), Uniform(1.0, 3.0), U, AFFINE_CHI),
        (marshall(cap, cap), *CHI_STEP_MARGINS, AFFINE_CHI),
        # margins that never start (of U; of -U for SMM): shocks without a jump
        (marshall(SQRT, SQRT), EfgmShock(0.5), EfgmShock(0.5), None),
        (efgm(0.8), EfgmShock(0.5), Uniform(-2.0, 0.0), None),
        (survival(efgm(0.6)), Product(U, Exponential(1.0)), Product(U, Exponential(2.0)), None),
        # power, twoparam and tabulated RMM generators, the last two without a closed inverse
        (exprmm_ab(0.5, 0.7), U, Exponential(1.0), None),
        (parse_copula("rmm:f=twoparam:alpha=0.5,beta=0.6,g=efgmf:a=0.5"), STEP_MARGIN, U, None),
        (induced_copula(exponential_rmm_model(1.0, 2.0, 1.5, 0.7), resolution=256), U, Uniform(0.0, 2.0), None),
    ]:
        m = reconstruct(c, fu, fv, chi=chi)
        stack += [m.f_x, m.f_y, m.g1, m.g2, *margins(m)]
    found = []
    while stack:
        d = stack.pop()
        found.append(d)
        if isinstance(d, PointwiseCdf):
            stack += d.parts
        elif isinstance(d, MappedCdf):
            stack.append(d.inner)
    return found


def composite_laws():
    return [d for d in laws_at_any_depth() if isinstance(d, PointwiseCdf)]


def probe_points(d):
    """Points across a law's support hint, at and just below its jumps, and at +-inf."""
    jumps = list(d.jump_points())
    lo, hi = d.support_hint()
    return np.concatenate((
        np.linspace(lo - 1.0, hi + 1.0, 61), jumps, np.nextafter(jumps, -np.inf), [-np.inf, np.inf]
    ))


def composite_rule(d, xs, left, fs):
    """Each class's rule on its parts' values, written out point by point; a shock's
    rule also asks whether the point lies past its margin_u's start."""
    points = zip(*(f.tolist() for f in fs))
    if isinstance(d, Product):
        return [f1 * f2 for f1, f2 in points]
    if isinstance(d, SurvivalProduct):
        return [max(f1, 1.0 - (1.0 - f1) * (1.0 - f2)) for f1, f2 in points]
    if isinstance(d, ComposedCdf):
        return [d.gen.value(f) for (f,) in points]
    rule = rmm_shock_rule if isinstance(d, RmmShockCdf) else marshall_shock_rule
    return [rule(d, fu, fv, from_start(d, x, left)) for x, (fu, fv) in zip(xs.tolist(), points)]


@pytest.mark.parametrize("kind", COMPOSITE_KINDS, ids=lambda k: k.__name__)
def test_composite_laws_read_their_parts_at_the_same_point(kind):
    laws = [d for d in composite_laws() if type(d) is kind]
    # each kind is met on continuous parts and on parts with atoms
    assert laws and any(d.jump_points() for d in laws) and not all(d.jump_points() for d in laws)
    for d in laws:
        jumps = {j for p in d.parts for j in p.jump_points()}
        if isinstance(d, (RmmShockCdf, MarshallShockCdf)) and math.isfinite(d.margin_u.support()[0]):
            jumps.add(d.margin_u.support()[0])  # a shock jumps where its margin_u starts
        assert d.jump_points() == tuple(sorted(jumps)), d
        low, high = HINT_RULES.get(kind, (min, max))
        hints = [p.support_hint() for p in d.parts]
        assert d.support_hint() == (low(h[0] for h in hints), high(h[1] for h in hints)), d
        xs = probe_points(d)
        for left in (False, True):
            want = np.array(composite_rule(d, xs, left, [p.cdf_array(xs, left) for p in d.parts]))
            assert d.cdf_array(xs, left).tobytes() == want.tobytes(), (d, left)


def mapped_at(d, x: float) -> float:
    """A mapped law's map at one point: -x for a negation, else its own forward map."""
    return -x if isinstance(d, NegatedCdf) else float(d.forward(np.array([x]))[0])


def mapped_rule(d, x: float, left: bool) -> float:
    """A mapped law's F(x), or F(x-) with ``left``, read from its law at one point:
    a negation reads the upper tail at -x, an increasing map the CDF at t^-1(x), and
    0 before its declared start and 1 from its declared end on, where t^-1 may round."""
    if isinstance(d, NegatedCdf):
        return float(d.inner.sf_array(np.array([-x]), not left)[0])
    lo, hi = d.support()
    if x < lo or (left and x == lo):
        return 0.0
    if x > hi or (not left and x == hi):
        return 1.0
    return float(d.inner.cdf_array(d.inverse(np.array([x])), left)[0])


@pytest.mark.parametrize("kind", [NegatedCdf, MappedCdf], ids=lambda k: k.__name__)
def test_mapped_laws_carry_their_law_through_the_map(kind):
    laws = [d for d in laws_at_any_depth() if type(d) is kind]
    # each kind is met on a law with atoms and on one without
    assert laws and any(d.jump_points() for d in laws) and not all(d.jump_points() for d in laws)
    for d in laws:
        jumps = sorted(mapped_at(d, j) for j in d.inner.jump_points())
        assert d.jump_points() == tuple(jumps), d
        assert d.support_hint() == tuple(sorted(mapped_at(d, h) for h in d.inner.support_hint())), d
        xs = probe_points(d)
        for left in (False, True):
            want = np.array([mapped_rule(d, x, left) for x in xs.tolist()])
            assert d.cdf_array(xs, left).tobytes() == want.tobytes(), (d, left)



def test_declared_support_ends_are_exact_at_any_depth():
    # as on random laws: F reads 0 one float left of a finite lo and 1 from a finite hi
    # on, and the law, read exactly, is inside (0, 1) a relative 1e-12 within each.  A
    # law that does not know an end (a composed margin, a shock, a product with either)
    # declares it infinite.  A law read through the affine chi, which rounds, holds too.
    laws = laws_at_any_depth()
    assert sum(math.isfinite(end) for d in laws for end in d.support()) > 300
    for d in laws:
        lo, hi = d.support()
        if math.isfinite(lo):
            assert d.cdf(np.nextafter(lo, -np.inf)) == 0.0, d
            assert exact_cdf(d, lo + 1e-12 * max(1.0, abs(lo))) > 0, d
        if math.isfinite(hi):
            assert exact_cdf(d, hi - 1e-12 * max(1.0, abs(hi))) < 1, d
            assert d.cdf(hi) == d.cdf(np.nextafter(hi, np.inf)) == 1.0, d
    shock = reconstruct(efgm(0.5), U, U).g1
    assert shock.support() == Product(Uniform(1.0, 2.0), shock).support() == (-math.inf, math.inf)
    assert SurvivalProduct(Uniform(1.0, 2.0), shock).support() == (-math.inf, math.inf)


def test_negations_without_a_closed_form_invert_by_the_generic_inverse():
    # a negation reads its law's upper quantile, whose default is the generic inverse of
    # the negated law, negated: it must land on that inverse to the bit
    laws = [d for d in laws_at_any_depth() if type(d) is NegatedCdf]
    kinds = {type(d.inner) for d in laws}
    assert {Uniform, TabulatedCdf, Product, ComposedCdf, RmmShockCdf} <= kinds
    assert {d.inner.interpolation for d in laws if type(d.inner) is TabulatedCdf} == {"step", "linear"}
    assert Exponential not in kinds
    us = np.concatenate((np.random.default_rng(3).random(3000), [2.0**-53, 0.5, 1.0 - 2.0**-53]))
    for d in laws:
        assert d.quantile_array(us).tobytes() == d._bisect_quantile_array(us).tobytes(), d


def parts_laws():
    """The laws of ``laws_at_any_depth`` that invert through their parts."""
    return [d for d in laws_at_any_depth() if type(d) in (ComposedCdf, RmmShockCdf, MarshallShockCdf, MappedCdf)]


def test_parts_laws_cover_every_margin_and_generator_kind():
    laws = parts_laws()
    bases = {type(d.parts[0]).__name__ for d in laws if type(d) is ComposedCdf}
    assert {"Uniform", "TabulatedCdf", "Exponential"} <= bases
    gens = {d.gen.describe().split(":")[0] for d in laws if type(d) is ComposedCdf}
    ratios = {d.ratio.describe().split(":")[0] for d in laws if isinstance(d, (RmmShockCdf, MarshallShockCdf))}
    for kind in ("plus-id(efgmf", "plus-id(power", "plus-id(twoparam", "capped", "tabulated"):
        assert any(g.startswith(kind) for g in gens) and any(r.startswith(kind) for r in ratios), kind
    assert {type(d) for d in laws} == {ComposedCdf, RmmShockCdf, MarshallShockCdf, MappedCdf}


#: F's own rounding, in ulps of the level: a parts answer is the exact quantile of its
#: parts' rounded values, so where F's floats resolve a level coarser than the guard's
#: widest step (the far tail of an exponential or an EFGM shock, a negated product near
#: 1) it may sit anywhere on the flat or ulp-noisy stretch whose start, or one of its
#: starts, the bisection finds, and F reads the same level there up to this much
F_ROUNDING_ULPS = 4

#: A parts answer further than this many ulps from the exact infimum must read the
#: infimum's level up to F's rounding.  Over 22 seeds of 3,307 levels on each parts law,
#: no answer that F reads apart lay more than 11 floats from it.
AGREE_ULPS = 16


def checked_axis(d):
    """The law and the map to the axis on which its parts answers are checked: its own,
    but for the law that the FOUND line on the affine chi in CHANGES.md names.  There
    chi^-1(x) rounds to floats near 1, so F steps only once per ulp of 1 and a parts
    answer may read the step of F of the infimum up to 4.5e15 floats right of it; on
    the base's axis, chi^-1(x), both position checks hold."""
    if d.describe() == "chi-shifted(uniform:a=1.0,b=3.0)":
        return d.inner, d.inverse
    return d, np.asarray


@given(st.integers(0, 10**6), st.lists(LEVELS, min_size=1, max_size=12))
@settings(max_examples=150, deadline=None)
def test_generic_inverse_is_the_float_infimum_at_any_depth(i, levels):
    laws = laws_at_any_depth()
    d = laws[i % len(laws)]
    us = np.array(levels)
    qs = d._bisect_quantile_array(us)
    finite = np.isfinite(qs)
    assert_float_infimum(d, us[finite], qs[finite])


@given(st.integers(0, 10**6), st.lists(LEVELS, min_size=1, max_size=12), st.floats(0.0, 1.0))
@settings(max_examples=300, deadline=None)
def test_parts_inverse_agrees_with_the_generic_inverse(i, levels, t):
    laws = parts_laws()
    d = laws[i % len(laws)]
    # a level inside each atom, F(J-) < u <= F(J), inverts to its jump point exactly
    jumps = np.asarray(d.jump_points(), dtype=float)
    under, over = d.cdf_left_array(jumps), d.cdf_array(jumps)
    inside = np.minimum(np.maximum(under + t * (over - under), np.nextafter(under, 1.0)), over)
    atoms = (over > under) & (inside > 0.0) & (inside < 1.0)
    us = np.concatenate((levels, inside[atoms]))
    qs = d._quantile_array(us)
    assert np.array_equal(qs[len(levels):], jumps[atoms]), d
    # a scalar is the array path at one point, to the bit
    assert [d.quantile(u) for u in us.tolist()] == qs.tolist(), d
    # +inf where the level is never reached; the bisection's probes may stop short of a
    # finite far-left answer, which it then reads as -inf
    ref = d._bisect_quantile_array(us)
    assert np.array_equal(qs == np.inf, ref == np.inf), d
    assert np.all(qs[ref > -np.inf] > -np.inf), d
    finite = np.isfinite(qs)
    us, qs, ref = us[finite], qs[finite], ref[finite]
    # F(Q(u)) >= u exactly
    assert np.all(d.cdf_array(qs) >= us), d
    # F(Q(u) - the guard's widest step) <= u up to F's own rounding
    law, to_axis = checked_axis(d)
    ys, slack = to_axis(qs), F_ROUNDING_ULPS * np.spacing(us)
    assert np.all(law.cdf_array(ys - _GUARD_ULPS[-1] * np.spacing(np.abs(ys))) <= us + slack), d
    # within a few ulps of the exact infimum, or at the level F reads there, up to rounding
    known = np.isfinite(ref)
    qs, ref, ys, slack = qs[known], ref[known], ys[known], slack[known]
    y_ref = to_axis(ref)
    apart = np.abs(ys - y_ref) > AGREE_ULPS * np.maximum(np.spacing(np.abs(ys)), np.spacing(np.abs(y_ref)))
    assert np.all(np.abs(d.cdf_array(qs) - d.cdf_array(ref))[apart] <= slack[apart]), d


def test_rmm_reconstruction_requires_interior_point():
    degenerate = point_mass(0.0)
    with pytest.raises(ReconstructionError) as err:
        reconstruct(efgm(1.0), degenerate, degenerate)
    assert err.value.assumption == "interior-point"


def assert_atom_at(g, x, level):
    """g jumps at x, reads its right limit there and inverts ``level`` to x exactly."""
    assert x in g.jump_points()
    assert g.cdf(x) == g.cdf(x + 1e-300) and g.cdf_left(x) < level <= g.cdf(x)
    assert g.quantile(level) == x and g.quantile_array(np.array([level]))[0] == x


def test_reconstructed_shocks_jump_at_a_continuous_margins_start():
    # the RMM shocks read 1/(1 + f*(0+)) = 2/3 at 0, where the uniform margins start
    model = reconstruct(efgm(0.5), U, U)
    for g in (model.g1, model.g2):
        assert g.cdf(0.0) == g.cdf(1e-300) == pytest.approx(2.0 / 3.0)
        assert_atom_at(g, 0.0, 0.3)
    # the capped Marshall shock reads 1/phi*(0+) = 1/2 there, and so does its chi-mapped g1
    model = reconstruct(marshall(capped_gen(), capped_gen()), U, U)
    for g in (model.g1, model.g2):
        assert g.cdf(0.0) == 0.5
        assert_atom_at(g, 0.0, 0.3)
    # the SMM shock is a negated RMM shock on -U, which starts at -1: it jumps at 1 from 1/3
    g1 = reconstruct(survival(efgm(0.5)), U, U).g1
    assert 1.0 in g1.jump_points()
    assert g1.cdf_left(1.0) == pytest.approx(g1.cdf(np.nextafter(1.0, 0.0)), abs=1e-12)
    assert g1.cdf_left(1.0) == pytest.approx(1.0 / 3.0) and g1.cdf(1.0) == 1.0


def count_parts_work(monkeypatch, d, base):
    """Counters of F's rule (``_values``), of ``base``'s own inverse and of the generic
    inverse while d inverts 20,000 seeded levels; returns the levels and quantiles too."""
    counts = {"values": 0, "base": 0, "bisect": 0}
    values, quantile, bisect = type(d)._values, type(base)._quantile_array, DistributionFunction._bisect_quantile_array

    def counted(key, fn, only=None):
        def wrapper(self, *args):
            counts[key] += only is None or self is only
            return fn(self, *args)

        return wrapper

    monkeypatch.setattr(type(d), "_values", counted("values", values))
    monkeypatch.setattr(type(base), "_quantile_array", counted("base", quantile, base))
    monkeypatch.setattr(DistributionFunction, "_bisect_quantile_array", counted("bisect", bisect))
    us = np.random.Generator(np.random.Philox(5)).random(20_000)
    return counts, us, d.quantile_array(us)


def test_inverting_a_reconstructed_shock_reads_its_atom_from_the_table(monkeypatch):
    # a level inside the atom at 0 is its jump point; the others are margin_u's quantiles
    # of the star inverse, read once, with F read at the atom's two ends, at the answers
    # and at most once more.  Bisecting into the atom called F 198 times here, and a
    # generic inverse outside it 29 times
    g1 = reconstruct(efgm(0.8), U, U).g1
    counts, us, qs = count_parts_work(monkeypatch, g1, g1.margin_u)
    assert (counts["base"], counts["bisect"]) == (1, 0) and counts["values"] <= 5, counts
    assert np.count_nonzero(qs == 0.0) == np.count_nonzero(us <= g1.cdf(0.0)) > 10_000


def test_inverting_a_composed_margin_reads_its_base_once(monkeypatch):
    # Q_base(h^-1(w)): the base's quantile once and F at the answers, at most once more
    f_x = reconstruct(efgm(0.8), U, U).f_x
    counts, us, qs = count_parts_work(monkeypatch, f_x, f_x.parts[0])
    assert (counts["base"], counts["bisect"]) == (1, 0) and counts["values"] <= 2, counts
    assert np.all(f_x.cdf_array(qs) >= us)


def test_a_generator_without_an_inverse_leaves_its_composed_margin_to_the_generic_inverse():
    # power and twoparam have no closed-form inverse: they answer NaN, and the margins
    # built on them invert every level exactly as their own generic inverse does
    us = np.random.Generator(np.random.Philox(5)).random(2000)
    laws = [d for d in parts_laws() if type(d) is ComposedCdf
            and d.gen.describe().startswith(("plus-id(power", "plus-id(twoparam"))]
    assert len(laws) >= 3
    for d in laws:
        assert np.isnan(d.gen._inverse_array(us)).all() and np.isnan(d.gen._inverse_array(us, True)).all()
        assert d.quantile_array(us).tobytes() == d._bisect_quantile_array(us).tobytes(), d


SUBNORMAL_XS = np.array([0.0, 5e-324, 1e-320, 1e-310, 2.3e-308])  # the last one normal


@pytest.mark.parametrize("a", [0.5, 0.8])
def test_reconstructed_shocks_read_their_limit_where_the_margin_is_subnormal(a):
    # margin_u = U reads its own subnormal argument just right of its start at 0, where
    # the u branch rounded to 1.0 (a = 0.5) or 0.5 (a = 0.8): F is the limit up to the
    # smallest normal and nondecreasing on
    model = reconstruct(efgm(a), U, U)
    for g in (model.g1, model.g2):
        fs = g.cdf_array(SUBNORMAL_XS)
        assert np.all(fs[:4] == g.limit) and fs[4] >= g.limit, (a, fs)
        assert [g.cdf(x) for x in SUBNORMAL_XS.tolist()] == fs.tolist()


def test_a_divergent_star_keeps_its_branch_values_where_the_margin_is_subnormal():
    # f = t**0.5 - t has f*(0+) = +inf, so the limit is 0 and F = t/t**0.5 = sqrt(t) is
    # representable at a subnormal t: it stays, rising from F(0) = 0
    g1 = reconstruct(exprmm_ab(0.5, 0.7), U, U).g1
    fs = g1.cdf_array(SUBNORMAL_XS)
    assert g1.limit == 0.0 and fs[0] == 0.0
    assert np.all((fs[1:] > 0.0) & (np.diff(fs) > 0.0)), fs
    np.testing.assert_allclose(fs[2:], np.sqrt(SUBNORMAL_XS[2:]), rtol=1e-3)


@pytest.mark.parametrize("c", [
    efgm(0.7),
    survival(efgm(0.7)),  # SMM: shocks of negated uniform margins, so the generic inverse runs
    marshall(capped_gen(), capped_gen()),
], ids=["rmm", "smm", "marshall"])
def test_reconstruction_induction_and_sampling_solve_no_scalar_quantile(monkeypatch, c):
    levels = []
    quantile = DistributionFunction.quantile
    monkeypatch.setattr(DistributionFunction, "quantile", lambda d, u: levels.append(u) or quantile(d, u))
    model = reconstruct(c, U, U)
    induced_copula(model, resolution=256)
    sample_model(model, 1000, seed=1)
    assert levels == []


@pytest.mark.parametrize("grid_size", [0, -1])
def test_reconstruction_refuses_an_empty_grid_before_any_hypothesis(grid_size):
    # an empty support grid is a usage error, not a failed interior-point hypothesis
    with pytest.raises(ValueError, match=f"grid_size must be at least 1, got {grid_size}"):
        audited_reconstruction(efgm(1.0), U, U, grid_size)


def test_rmm_reconstruction_joint_identity_efgm():
    model = reconstruct(efgm(0.5), U, U)
    assert grid_joint_gap(model, efgm(0.5)) <= 1e-9


def test_rmm_roundtrip_reinduces_original():
    for a in (0.5, 1.0):
        c = efgm(a)
        model = reconstruct(c, U, U)
        again = induced_copula(model, resolution=1 << 14)
        assert sup_distance(again, c, 11) <= 1e-6


# ---------------------------------------------------------------------------
# SMM reconstruction
# ---------------------------------------------------------------------------


def test_smm_reconstruction_zero_generators():
    c = SmmCopula(
        closed_form("zero", GeneratorClass.SMM), closed_form("zero", GeneratorClass.SMM)
    )
    model = reconstruct(c, U, U)
    assert model.combiner is Combiner.MIN_MIN
    f_u, _ = margins(model)
    for x in np.linspace(0.05, 0.95, 13):
        assert f_u.cdf(float(x)) == pytest.approx(x, abs=1e-10)


def test_smm_reconstruction_of_survival_efgm():
    c = normalize(survival(efgm(0.95)))
    model = reconstruct(c, U, U)
    assert grid_joint_gap(model, c) <= 1e-9


def test_smm_reconstruction_from_sigma1_of_maxmin():
    base = MaxminCopula(capped_gen(), closed_form("poly", GeneratorClass.MAXMIN_PSI, c0=0.0, c1=0.0, c2=1.0))
    c = normalize(__import__("shockcop.copulas", fromlist=["reflect"]).reflect(base, "sigma1"))
    assert isinstance(c, SmmCopula)
    model = reconstruct(c, U, U)
    assert grid_joint_gap(model, c) <= 1e-9


def test_reconstruct_dispatch_normalizes_wrappers():
    model = reconstruct(survival(efgm(0.9)), U, U)
    assert model.combiner is Combiner.MIN_MIN


def test_smm_reconstruction_audits_once(monkeypatch):
    import shockcop.shock_models as sm

    calls = {"audit": 0, "interior": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(sm, "audit_reconstruction", counted("audit", sm.audit_reconstruction))
    monkeypatch.setattr(sm, "_check_interior_point", counted("interior", sm._check_interior_point))
    model = reconstruct(normalize(survival(efgm(0.95))), U, U)
    assert model.combiner is Combiner.MIN_MIN
    assert calls == {"audit": 1, "interior": 1}


def test_smm_reconstructed_model_samples_its_copula():
    # end-to-end oracle: simulate the reconstructed min/min model and compare
    # the empirical copula back to the copula it was built from
    from shockcop.sampling import empirical_copula, sample_model

    c = normalize(survival(efgm(0.95)))
    model = reconstruct(c, U, U)
    emp = empirical_copula(sample_model(model, 200_000, seed=8))
    assert sup_distance(emp, c, 21) <= 0.01


def test_min_model_margin_monte_carlo():
    from shockcop.sampling import sample_model

    m = smm_model(U, U, U, U)
    s = sample_model(m, 200_000, seed=2)
    assert np.mean(s.pairs[:, 0] <= 0.5) == pytest.approx(0.75, abs=3e-3)
    f_u, _ = margins(m)
    for x in (0.2, 0.8):
        assert np.mean(s.pairs[:, 0] <= x) == pytest.approx(f_u.cdf(x), abs=3e-3)


# ---------------------------------------------------------------------------
# forward knots of induced generators
# ---------------------------------------------------------------------------

FORWARD_MODELS = {
    "maxmin": maxmin_model(Exponential(1.0), Exponential(2.0), Exponential(1.5)),
    "smm": exponential_smm_model(1.0, 2.0, 3.0, 0.5),
    "rmm": exponential_rmm_model(1.0, 2.0, 1.5, 0.7),
    "marshall": exponential_marshall_model(1.0, 2.0, 1.5, 0.7),
}


def side_generators(model, resolution=4096):
    """(takes the max, generator) for U and V, as ``induced_copula`` builds them."""
    return [
        (is_max, generator_from_shocks(
            f, margin, resolution=resolution,
            declared_class=GeneratorClass.MARSHALL if is_max else GeneratorClass.MAXMIN_PSI,
        ))
        for is_max, f, margin in zip(model.combiner.maxes, (model.f_x, model.f_y), margins(model))
    ]


def assert_knots_on_their_side(model, resolution=4096):
    # a max gives F_X(x) >= F_X(x) G(x), a min F_X(x) <= 1 - (1 - F_X(x))(1 - G(x))
    for is_max, gen in side_generators(model, resolution):
        assert np.all(gen.values >= gen.us) if is_max else np.all(gen.values <= gen.us)


@pytest.mark.parametrize("name", sorted(FORWARD_MODELS))
def test_every_knot_lies_on_its_side_of_the_identity(name):
    assert_knots_on_their_side(FORWARD_MODELS[name])


@given(
    st.sampled_from(["maxmin", "smm", "rmm", "marshall"]),
    st.lists(st.floats(0.5, 2.0), min_size=4, max_size=4),
)
@settings(max_examples=20, deadline=None)
def test_every_knot_lies_on_its_side_for_random_exponential_rates(family, rates):
    model = {
        "maxmin": lambda a, b, c, _: maxmin_model(Exponential(a), Exponential(b), Exponential(c)),
        "smm": exponential_smm_model,
        "rmm": exponential_rmm_model,
        "marshall": exponential_marshall_model,
    }[family](*rates)
    assert_knots_on_their_side(model, resolution=512)


@pytest.mark.parametrize("name", sorted(FORWARD_MODELS))
def test_class_rules_hold_between_consecutive_knots(name):
    c = induced_copula(FORWARD_MODELS[name])
    for slot, cls in c.slots:
        gen = getattr(c, slot)
        for condition, kind, direction in CLASS_SPECS[cls].rules:
            # the map's undefined end knot is left out, as validate leaves out its grid point
            m = DERIVED_MAPS.get(kind)
            keep = gen.us != m.end if m else slice(None)
            us, vals = gen.us[keep], gen.values[keep]
            with np.errstate(divide="ignore", invalid="ignore"):
                ys = m.fn(vals, us) if m else vals
                steps = direction * np.diff(ys)
            both_inf = np.isinf(ys[1:]) & np.isinf(ys[:-1])
            assert np.all((steps >= 0.0) | both_inf), (slot, condition)


def test_step_table_knots_are_points_of_the_curve():
    # F_U = F_X G with a 1000-step F_X: on the step [J_k, J_k+1) where F_X = p_k,
    # F_U runs from F_U(J_k) up to F_U(J_k+1 -), and every knot must lie there
    xs = np.unique(np.random.default_rng(5).uniform(0.0, 3.0, 1000))
    ps = np.arange(1, xs.size + 1) / xs.size
    step = TabulatedCdf(xs, ps, "step")
    margin = Product(step, Exponential(2.0))
    gen = generator_from_shocks(step, margin)
    us, vals = gen.us[1:-1], gen.values[1:-1]
    k = np.searchsorted(ps, vals)
    assert np.all(ps[k] == vals)
    lo = margin.cdf_array(xs[k])
    hi = np.append(margin.cdf_left_array(xs[1:]), 1.0)[k]
    assert np.all((lo <= us) & (us <= hi))
    # both ends of every jump inside (0, 1) are knots
    for bracket in (margin.cdf_left_array(xs), margin.cdf_array(xs)):
        inside = bracket[(bracket > 0.0) & (bracket < 1.0)]
        assert np.isin(inside, gen.us).all()
