import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shockcop.copulas import (
    FLIPS,
    FrechetM,
    FrechetW,
    Independence,
    MarshallCopula,
    MaxminCopula,
    Rectangle,
    RmmCopula,
    SmmCopula,
    efgm,
    exponential_rmm,
    exprmm_ab,
    frechet_m,
    frechet_w,
    independence,
    marshall,
    maxmin,
    normalize,
    reflect,
    rmm,
    sklar_join,
    smm,
    survival,
    volume,
)
from shockcop.distributions import Exponential, Uniform
from shockcop.errors import GeneratorValidationError
from shockcop.extreal import POS_INF
from shockcop.generators import GeneratorClass, ReflectedGenerator, closed_form, rmm_to_smm
from shockcop.shock_models import induced_copula, maxmin_model

GRID = np.linspace(0.0, 1.0, 21)


def capped2():
    return closed_form("capped", GeneratorClass.MARSHALL, slope=2.0)


def square_psi():
    return closed_form("poly", GeneratorClass.MAXMIN_PSI, c0=0.0, c1=0.0, c2=1.0)


def sample_copulas():
    return [
        independence(),
        frechet_w(),
        frechet_m(),
        efgm(0.95),
        exprmm_ab(0.4, 0.9),
        marshall(capped2(), capped2()),
        maxmin(capped2(), square_psi()),
        smm(rmm_to_smm(closed_form("power", GeneratorClass.RMM, alpha=0.5)),
            rmm_to_smm(closed_form("power", GeneratorClass.RMM, alpha=0.5))),
    ]


def grid_max_diff(a, b, n=21):
    us = np.linspace(0.0, 1.0, n)
    uu, vv = np.meshgrid(us, us, indexing="ij")
    return float(np.max(np.abs(a.value_array(uu, vv) - b.value_array(uu, vv))))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_rmm_with_zero_generators_is_independence():
    c = rmm(
        closed_form("zero", GeneratorClass.RMM), closed_form("zero", GeneratorClass.RMM)
    )
    assert c.value(0.3, 0.4) == pytest.approx(0.12, abs=1e-15)


def test_efgm_at_center():
    assert efgm(1.0).value(0.5, 0.5) == pytest.approx(0.1875, abs=1e-15)


def test_efgm_arbitrary_weight():
    assert efgm(0.95).value(0.5, 0.5) == pytest.approx(0.25 - 0.9025 * 0.0625, abs=1e-15)


def test_exponential_power_family_clips_at_zero():
    c = exprmm_ab(0.5, 0.5)
    assert c.value(0.25, 0.25) == 0.0


def test_frechet_bounds_values():
    assert frechet_m().value(0.3, 0.4) == 0.3
    assert frechet_w().value(0.3, 0.4) == 0.0


def test_marshall_neutral_edge_uses_identity_domination():
    c = marshall(capped2(), capped2())
    for u in GRID:
        assert c.value(float(u), 1.0) == pytest.approx(u, abs=1e-15)


def _value_copulas():
    rmm_base = exprmm_ab(0.37, 0.61)
    return [
        marshall(capped2(), closed_form("efgmhat", GeneratorClass.MARSHALL, a=0.61)),
        maxmin(capped2(), square_psi()),
        rmm_base,
        smm(rmm_to_smm(rmm_base.f), rmm_to_smm(rmm_base.g)),
        survival(rmm_base),
        reflect(rmm_base, "sigma1"),
        reflect(rmm_base, "sigma2"),
    ]


@pytest.mark.parametrize("c", _value_copulas(), ids=lambda c: c.describe())
def test_scalar_value_is_value_array_to_the_bit(c):
    us, vs = np.random.default_rng(11).random((2, 10_000))
    scalar = np.array([c.value(float(u), float(v)) for u, v in zip(us, vs)])
    assert scalar.tobytes() == c.value_array(us, vs).tobytes()


# ---------------------------------------------------------------------------
# volumes
# ---------------------------------------------------------------------------


def test_degenerate_rectangle_has_zero_volume():
    for c in sample_copulas():
        assert c.volume(Rectangle(0.3, 0.3, 0.1, 0.9)) == 0.0


def test_independence_quadrant_volume():
    assert independence().volume(Rectangle(0.0, 0.5, 0.0, 0.5)) == 0.25


def test_efgm_band_volume():
    c = efgm(1.0)
    assert volume(c, Rectangle(0.0, 0.5, 0.5, 1.0)) == pytest.approx(0.3125, abs=1e-15)


def test_rectangle_ordering_enforced():
    with pytest.raises(ValueError):
        Rectangle(0.6, 0.5, 0.0, 1.0)


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------


def test_survival_of_independence_is_independence():
    c = survival(independence())
    assert c.value(0.3, 0.7) == pytest.approx(0.21, abs=1e-15)


def test_survival_of_rmm_formula():
    base = exprmm_ab(0.5, 0.9)
    surv = survival(base)
    f, g = base.f, base.g
    for u in GRID:
        for v in GRID:
            expected = max(u + v - 1.0, u * v - f.value(1.0 - u) * g.value(1.0 - v))
            assert surv.value(float(u), float(v)) == pytest.approx(expected, abs=1e-14)


def test_survival_involution():
    c = efgm(0.95)
    assert grid_max_diff(survival(survival(c)), c, 11) <= 1e-15


def test_sigma_involutions():
    c = efgm(0.8)
    for which in ("sigma1", "sigma2"):
        twice = reflect(reflect(c, which), which)
        assert grid_max_diff(twice, c, 11) <= 1e-15


def test_sigma2_of_independence_is_independence():
    c = reflect(independence(), "sigma2")
    assert grid_max_diff(c, independence(), 21) <= 1e-15


def test_sigma2_of_maxmin_equals_rmm_rewrite():
    base = maxmin(capped2(), square_psi())
    wrapped = reflect(base, "sigma2")
    rewritten = normalize(wrapped)
    assert isinstance(rewritten, RmmCopula)
    assert grid_max_diff(wrapped, rewritten, 101) <= 1e-12


def test_sigma1_of_maxmin_equals_smm_rewrite():
    base = maxmin(capped2(), square_psi())
    wrapped = reflect(base, "sigma1")
    rewritten = normalize(wrapped)
    assert isinstance(rewritten, SmmCopula)
    assert grid_max_diff(wrapped, rewritten, 101) <= 1e-12


_PHIS = st.one_of(
    st.floats(1.0, 4.0).map(lambda s: closed_form("capped", GeneratorClass.MARSHALL, slope=s)),
    st.just(closed_form("identity", GeneratorClass.MARSHALL)),
    st.floats(0.0, 1.0, exclude_min=True).map(lambda a: closed_form("efgmhat", GeneratorClass.MARSHALL, a=a)),
)
_RATES = st.floats(0.5, 2.0)


@given(_PHIS, _RATES, _RATES, _RATES)
@settings(max_examples=40, deadline=None)
def test_sigma_rewrites_of_maxmin_with_induced_psi(phi, l1, l2, m):
    psi = induced_copula(maxmin_model(Exponential(l1), Exponential(l2), Exponential(m)), resolution=512).psi
    base = maxmin(phi, psi)
    for which, family in (("sigma2", RmmCopula), ("sigma1", SmmCopula)):
        wrapped = reflect(base, which)
        rewritten = normalize(wrapped)
        assert isinstance(rewritten, family)
        assert grid_max_diff(wrapped, rewritten, 41) <= 1e-15


_SMM_GENS = st.floats(0.0, 1.0, exclude_min=True).map(
    lambda a: rmm_to_smm(closed_form("power", GeneratorClass.RMM, alpha=a))
)
_WEIGHTS = st.floats(0.0, 1.0, exclude_min=True)


@st.composite
def _maxmin_bases(draw):
    psi = draw(st.one_of(
        st.just(square_psi()),
        st.tuples(_RATES, _RATES, _RATES).map(
            lambda r: induced_copula(maxmin_model(*map(Exponential, r)), resolution=512).psi
        ),
    ))
    return maxmin(draw(_PHIS), psi)


_FLIP_BASES = st.one_of(
    _WEIGHTS.map(efgm),
    st.tuples(_WEIGHTS, _WEIGHTS).map(lambda ab: exprmm_ab(*ab)),
    st.tuples(_SMM_GENS, _SMM_GENS).map(lambda hk: smm(*hk)),
    _maxmin_bases(),
)
#: where each family sits on maxmin's orbit: the flip that carries maxmin onto it
_PLACES = {MaxminCopula: (False, False), RmmCopula: (False, True), SmmCopula: (True, False)}


@given(_FLIP_BASES, st.lists(st.sampled_from(sorted(FLIPS)), max_size=4))
@settings(max_examples=80, deadline=None)
def test_normalize_composes_flip_stacks_onto_the_orbit(base, names):
    stack, composed = base, (False, False)
    for name in names:
        stack = survival(stack) if name == "survival" else reflect(stack, name)
        composed = (composed[0] != FLIPS[name][0], composed[1] != FLIPS[name][1])
    out = normalize(stack)
    assert grid_max_diff(out, stack, 41) <= 1e-15
    place = _PLACES[type(base)]
    landing = {(False, True): RmmCopula, (True, False): SmmCopula}.get(
        (place[0] != composed[0], place[1] != composed[1])
    )
    assert type(out) is landing if landing else not isinstance(out, (RmmCopula, SmmCopula))
    if composed == (False, False):
        assert out is base


def test_smm_equals_survival_of_rmm():
    base = exprmm_ab(0.4, 0.9)
    direct = smm(
        ReflectedGenerator(base.f, GeneratorClass.SMM),
        ReflectedGenerator(base.g, GeneratorClass.SMM),
    )
    assert grid_max_diff(direct, survival(base), 101) <= 1e-15


def test_normalize_survival_round_trip():
    base = efgm(0.9)
    as_smm = normalize(survival(base))
    assert isinstance(as_smm, SmmCopula)
    back = normalize(survival(as_smm))
    assert isinstance(back, RmmCopula)
    assert grid_max_diff(back, base, 21) <= 1e-15


def test_normalize_unwraps_reflections_over_repeated_survival_rounds():
    # each flipped generator that is already a reflection unwraps to its inner one,
    # so survival rounds alternate between two descriptors instead of nesting reflect(...)
    f = closed_form("power", GeneratorClass.RMM, alpha=0.37)
    g = closed_form("power", GeneratorClass.RMM, alpha=0.61)
    c = smm(rmm_to_smm(f), rmm_to_smm(g))
    for _ in range(3):
        c = normalize(survival(c))
        assert c.describe() == "rmm:f=power:alpha=0.37,g=power:alpha=0.61"
        assert c.f is f and c.g is g
        c = normalize(survival(c))
        assert c.describe() == "smm:h=reflect(power:alpha=0.37),k=reflect(power:alpha=0.61)"


# ---------------------------------------------------------------------------
# joins
# ---------------------------------------------------------------------------


def test_sklar_join_of_upper_bound_is_min():
    h = sklar_join(frechet_m(), Uniform(), Uniform())
    assert h.cdf(0.3, 0.8) == pytest.approx(0.3, abs=1e-15)


def test_join_margins_recovered_at_infinity():
    for c in sample_copulas():
        h = sklar_join(c, Uniform(), Uniform(0.0, 2.0))
        for x in np.linspace(0.05, 0.95, 21):
            assert h.cdf(float(x), POS_INF) == pytest.approx(x, abs=1e-12)
            assert h.cdf(POS_INF, float(x)) == pytest.approx(Uniform(0.0, 2.0).cdf(x), abs=1e-12)


# ---------------------------------------------------------------------------
# constructors and axioms
# ---------------------------------------------------------------------------


def test_efgm_rejects_out_of_range_weight():
    with pytest.raises(ValueError):
        efgm(0.0)
    with pytest.raises(ValueError):
        efgm(1.2)


def test_exponential_rmm_rate_mapping():
    c = exponential_rmm(1.0, 1.0, 1.0, 1.0)
    ref = exprmm_ab(0.5, 0.5)
    assert grid_max_diff(c, ref, 21) == 0.0


def test_constructor_rejects_invalid_generator():
    bad = closed_form("twoparam", GeneratorClass.RMM, alpha=0.5, beta=0.3)
    with pytest.raises(GeneratorValidationError):
        rmm(bad, bad)


def test_validating_an_identity_psi_warns_nothing():
    # psi-star is +oo at every grid point of the identity: its steps are inf - inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        c = maxmin(capped2(), closed_form("identity", GeneratorClass.MAXMIN_PSI))
    assert c.value(0.5, 0.5) == 0.25  # min{u, uv}: independence


def test_constructor_rejects_wrong_class_tag():
    with pytest.raises(GeneratorValidationError):
        MarshallCopula(capped2(), square_psi())


@pytest.mark.parametrize("c", sample_copulas(), ids=lambda c: c.describe())
def test_grounded_and_neutral(c):
    us = np.linspace(0.0, 1.0, 101)
    zeros, ones = np.zeros_like(us), np.ones_like(us)
    assert np.max(np.abs(c.value_array(us, zeros))) <= 1e-12
    assert np.max(np.abs(c.value_array(zeros, us))) <= 1e-12
    assert np.max(np.abs(c.value_array(us, ones) - us)) <= 1e-12
    assert np.max(np.abs(c.value_array(ones, us) - us)) <= 1e-12


@pytest.mark.parametrize("c", sample_copulas(), ids=lambda c: c.describe())
def test_frechet_sandwich(c):
    us = np.linspace(0.0, 1.0, 101)
    uu, vv = np.meshgrid(us, us, indexing="ij")
    vals = c.value_array(uu, vv)
    assert np.all(vals >= np.maximum(0.0, uu + vv - 1.0) - 1e-12)
    assert np.all(vals <= np.minimum(uu, vv) + 1e-12)


@pytest.mark.parametrize("c", sample_copulas(), ids=lambda c: c.describe())
def test_random_rectangles_have_nonnegative_volume(c):
    rng = np.random.default_rng(11)
    u = np.sort(rng.random((2000, 2)), axis=1)
    v = np.sort(rng.random((2000, 2)), axis=1)
    vols = (
        c.value_array(u[:, 1], v[:, 1])
        - c.value_array(u[:, 0], v[:, 1])
        - c.value_array(u[:, 1], v[:, 0])
        + c.value_array(u[:, 0], v[:, 0])
    )
    assert vols.min() >= -1e-12


def test_raw_eval_is_unclamped_but_clamped_variant_clips():
    class Broken(Independence):
        def _eval(self, u, v):
            return u * v - 0.5

    b = Broken()
    assert b.value(0.1, 0.1) < 0.0
    assert b.value_clamped(0.1, 0.1) == 0.0
