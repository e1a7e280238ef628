import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shockcop.copulas import (
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
from shockcop.distributions import (
    DistributionFunction,
    EfgmMargin,
    EfgmShock,
    Exponential,
    NegExponential,
    Product,
    TabulatedCdf,
    Uniform,
    point_mass,
)
from shockcop.errors import IllegalModelError, ReconstructionError
from shockcop.extreal import POS_INF
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
    Comonotonic,
    Countermonotonic,
    MarshallShockCdf,
    RmmShockCdf,
    ShockModel,
    SharedShock,
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


def test_illegal_configuration_rejected():
    with pytest.raises(IllegalModelError):
        ShockModel(U, U, Comonotonic(U, U), Combiner.MIN_MIN)
    with pytest.raises(IllegalModelError):
        ShockModel(U, U, SharedShock(U), Combiner.MAX_MAX)


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
    from shockcop.extreal import POS_INF

    m = maxmin_model(U, U, U)
    f_u, f_v = margins(m)
    for x in np.linspace(0.05, 0.95, 13):
        assert joint_cdf(m, float(x), POS_INF) == pytest.approx(f_u.cdf(x), abs=1e-14)
        assert joint_cdf(m, POS_INF, float(x)) == pytest.approx(f_v.cdf(x), abs=1e-14)


def scalar_joint_cdf(m, x, y):
    """The closed-form joint CDF from scalar component CDFs, one point at a time."""
    fx, fy = m.f_x.cdf(x), m.f_y.cdf(y)
    if isinstance(m.coupling, SharedShock):
        gx, gy = m.coupling.g.cdf(x), m.coupling.g.cdf(y)
        return fx * (gx - (1.0 - fy) * max(0.0, gx - gy))
    g1, g2 = m.coupling.g1.cdf(x), m.coupling.g2.cdf(y)
    if m.combiner is Combiner.MIN_MIN:
        fu = 1.0 - (1.0 - fx) * (1.0 - g1)
        fv = 1.0 - (1.0 - fy) * (1.0 - g2)
        return fu + fv - 1.0 + (1.0 - fx) * (1.0 - fy) * max(0.0, 1.0 - g1 - g2)
    if isinstance(m.coupling, Comonotonic):
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
    from shockcop.extreal import NEG_INF, POS_INF

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
        assert joint_cdf(model, float(x), POS_INF) == pytest.approx(f_u.cdf(float(x)), abs=1e-14)
        assert joint_cdf(model, POS_INF, float(x)) == pytest.approx(f_v.cdf(float(x)), abs=1e-14)
        for args in ((NEG_INF, float(x)), (float(x), NEG_INF)):
            ref = scalar_joint_cdf(model, *args)
            assert joint_cdf(model, *args) == pytest.approx(ref, abs=1e-15)
    assert joint_cdf(model, POS_INF, POS_INF) == 1.0
    assert joint_cdf(model, NEG_INF, NEG_INF) == 0.0


def test_scalar_joint_formula_equals_lattice_entry_exactly():
    from shockcop.extreal import NEG_INF

    # a scalar call is the array path at one point, so it reproduces each lattice
    # entry to the bit; the joint law is a sum of nonnegative terms, so it is exactly
    # 0 where the per-family formula cancels to a tiny negative number
    model = FOUR_FAMILIES["smm"]()
    xs, ys = np.array([0.3, 2.5]), np.array([-np.inf, 0.0, 0.7, 3.0])
    lattice = joint_cdf(model, xs[:, None], ys[None, :])
    assert scalar_joint_cdf(model, 2.5, NEG_INF) < 0.0
    assert joint_cdf(model, 2.5, NEG_INF) == lattice[1, 0] == 0.0
    for i, x in enumerate(xs.tolist()):
        for j, y in enumerate(ys.tolist()):
            y = NEG_INF if y == -np.inf else y
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
    assert joint_cdf(model, POS_INF, 1.0) == joint_cdf(model, np.array([np.inf]), np.array([1.0]))[0]


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
    from shockcop.extreal import POS_INF

    join = sklar_join(efgm(0.9), Exponential(1.0), Exponential(2.0))
    xs = np.array([0.0, 0.2, 1.0, 4.0])
    lattice = join.cdf(xs[:, None], xs[None, :])
    assert lattice.shape == (4, 4)
    for i, x in enumerate(xs):
        for j, y in enumerate(xs):
            u, v = Exponential(1.0).cdf(float(x)), Exponential(2.0).cdf(float(y))
            assert lattice[i, j] == pytest.approx(efgm(0.9).value(u, v), abs=1e-16)
    assert type(join.cdf(0.2, 1.0)) is float
    assert join.cdf(1.0, POS_INF) == pytest.approx(Exponential(1.0).cdf(1.0), abs=1e-16)


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


def test_marshall_reconstruction_identity_generators():
    c = marshall(identity_gen(), identity_gen())
    model = reconstruct(c, U, U)
    assert model.combiner is Combiner.MAX_MAX
    g2 = model.coupling.g2
    for x in (0.25, 0.5, 1.0):
        assert g2.cdf(x) == pytest.approx(1.0, abs=1e-12)
    assert model.f_x.cdf(0.37) == pytest.approx(0.37, abs=1e-12)


def test_marshall_reconstruction_capped_generators():
    c = marshall(capped_gen(), capped_gen())
    model = reconstruct(c, U, U)
    assert model.coupling.g2.cdf(0.25) == pytest.approx(0.5, abs=1e-12)
    # factorization F_X * G1 = F_U on a grid
    xs = np.linspace(0.01, 0.99, 37)
    prod = model.f_x.cdf_array(xs) * model.coupling.g1.cdf_array(xs)
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


def test_marshall_reconstruction_through_an_array_chi():
    # U on [1, 3] and V on [0, 1] align only through chi(x) = 2x + 1
    c = marshall(capped_gen(), capped_gen())
    margin_u = Uniform(1.0, 3.0)
    model, report = audited_reconstruction(c, margin_u, U)
    assert model is None
    assert [r.check_id for r in report.results] == ["hypothesis:alignment"]
    chi = ChiMap(lambda x: 2.0 * x + 1.0, lambda y: (y - 1.0) / 2.0)
    model, report = audited_reconstruction(c, margin_u, U, chi=chi)
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
    env = np.minimum(model.f_x.cdf_array(xs), model.coupling.g1.cdf_array(xs))
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


# ---------------------------------------------------------------------------
# RMM reconstruction
# ---------------------------------------------------------------------------


def test_rmm_reconstruction_independence():
    c = RmmCopula(
        closed_form("zero", GeneratorClass.RMM), closed_form("zero", GeneratorClass.RMM)
    )
    model = reconstruct(c, U, U)
    assert model.f_x.cdf(0.3) == pytest.approx(0.3, abs=1e-12)
    assert model.coupling.g1.cdf(0.5) == pytest.approx(1.0, abs=1e-12)


def test_rmm_reconstruction_efgm_closed_forms():
    a = 1.0
    model = reconstruct(efgm(a), U, U)
    # F_X(x) = (a+1)x - a x^2 and G1(x) = 1/(a+1-ax) on (0,1]
    assert model.f_x.cdf(0.5) == pytest.approx(0.75, abs=1e-12)
    assert model.coupling.g1.cdf(0.5) == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert model.f_x.cdf(0.5) * model.coupling.g1.cdf(0.5) == pytest.approx(0.5, abs=1e-12)


def test_rmm_reconstruction_native_margins_recovers_exponentials():
    margin = Product(Exponential(1.0), Exponential(1.0))
    model = reconstruct(exprmm_ab(0.5, 0.5), margin, margin)
    ref = Exponential(1.0)
    for lvl in np.linspace(0.05, 0.95, 21):
        x = float(ref.quantile(float(lvl)))
        assert model.f_x.cdf(x) == pytest.approx(ref.cdf(x), abs=1e-6)


def reference_rmm_shock(d, x):
    """The RMM shock CDF at one point: fu / hat_f(fu), or s / (1 + s) with s the
    star value of g at 1 - fv where fu vanishes."""
    fu, fv = d.margin_u.cdf(x), d.margin_v.cdf(x)
    if fu == 0.0:
        s = derived_value(d.g, "star", 1.0 - fv)
        return 1.0 if s == POS_INF else s / (1.0 + s)
    return fu / (d.f.value(fu) + fu)


def reference_marshall_shock(d, x):
    """The Marshall shock CDF at one point: fu / phi(fu), or fv / psi(fv) where fu vanishes."""
    fu, fv = d.margin_u.cdf(x), d.margin_v.cdf(x)
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
    ref = np.vectorize(lambda x: reference_rmm_shock(d, x))(SHOCK_XS)
    assert 1.0 in SHOCK_XS and d.margin_v.cdf(1.0) == 1.0 and d.margin_u.cdf(1.0) == 0.0
    np.testing.assert_array_equal(d.cdf_array(SHOCK_XS), ref)
    np.testing.assert_array_equal(d.cdf_left_array(SHOCK_XS), ref)


def test_marshall_shock_cdf_equals_scalar_reference():
    d = MarshallShockCdf(capped_gen(), identity_gen(), Uniform(0.5, 1.5), U)
    ref = np.vectorize(lambda x: reference_marshall_shock(d, x))(SHOCK_XS)
    np.testing.assert_array_equal(d.cdf_array(SHOCK_XS), ref)


def test_marshall_shock_jump_points_are_in_each_shocks_own_coordinates():
    # U's steps sit at chi(x) = 2x + 1 of V's: g2 lives on V's axis, g1 on U's
    p = [0.3, 0.6, 1.0]
    margin_u = TabulatedCdf([1.5, 2.0, 3.0], p, "step")
    margin_v = TabulatedCdf([0.25, 0.5, 1.0], p, "step")
    chi = ChiMap(lambda x: 2.0 * x + 1.0, lambda y: (y - 1.0) / 2.0)
    c = marshall(capped_gen(), capped_gen())
    model, report = audited_reconstruction(c, margin_u, margin_v, chi=chi)
    assert report.passed and len(report.results) == 8
    assert model.coupling.g2.jump_points() == (0.25, 0.5, 1.0)
    assert model.coupling.g1.jump_points() == (1.5, 2.0, 3.0)


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


def test_rmm_reconstruction_requires_interior_point():
    degenerate = point_mass(0.0)
    with pytest.raises(ReconstructionError) as err:
        reconstruct(efgm(1.0), degenerate, degenerate)
    assert err.value.assumption == "interior-point"


def test_reconstructed_shocks_jump_nowhere_on_continuous_margins():
    model = reconstruct(efgm(0.5), U, U)
    assert model.coupling.g1.jump_points() == ()
    assert model.coupling.g2.jump_points() == ()


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
