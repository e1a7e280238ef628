import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shockcop.copulas import exprmm_ab
from shockcop.distributions import (
    _SORTED_LOOKUP_KNOTS,
    EfgmMargin,
    Exponential,
    Product,
    SurvivalProduct,
    TabulatedCdf,
    Uniform,
    negated,
    point_mass,
)
from shockcop.errors import (
    GeneratorKindError,
    GeneratorValidationError,
    MalformedCdfError,
    ShockStructureError,
    TableFormatError,
)
from shockcop.generators import (
    _FAMILIES,
    _OWN_VALUES,
    CLASS_SPECS,
    DERIVED_MAPS,
    WRAPPERS,
    AffineGenerator,
    Generator,
    GeneratorClass,
    ReflectedGenerator,
    TabulatedGenerator,
    _ladder,
    affine,
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
from shockcop.shock_models import (
    exponential_marshall_model,
    exponential_rmm_model,
    exponential_smm_model,
    induced_copula,
    margins,
    maxmin_model,
    reconstruct,
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


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: closed_form("power", RMM, alpha=0.0), ValueError,
                 "parameter alpha must be positive, got 0.0", id="power-alpha-zero"),
    pytest.param(lambda: closed_form("poly", RMM, c0=0.0, c2=1.0), ValueError,
                 "poly parameters must be c0..c{n}, got ['c0', 'c2']", id="poly-gap"),
    pytest.param(lambda: closed_form("poly", RMM), ValueError,
                 "poly parameters must be c0..c{n}, got []", id="poly-empty"),
    pytest.param(lambda: closed_form("nosuch", RMM), ValueError,
                 "unknown generator family 'nosuch'", id="unknown-family"),
    pytest.param(lambda: TabulatedGenerator([0.0, 1.0], [0.0], RMM), TableFormatError,
                 "tabulated generator needs matching u/value knots", id="table-shapes"),
    pytest.param(lambda: TabulatedGenerator([0.0, 0.5], [0.0, 0.0], RMM), TableFormatError,
                 "tabulated generator knots must span [0,1]", id="table-span"),
    pytest.param(lambda: TabulatedGenerator([0.0, 0.5, 0.5, 1.0], [0.0, 0.1, 0.1, 0.0], RMM),
                 TableFormatError, "tabulated generator knots must be strictly increasing",
                 id="table-order"),
    pytest.param(lambda: derived_value(power(0.5), "star", 1.5), ValueError,
                 "argument must lie in [0,1], got 1.5", id="derived-argument"),
    pytest.param(lambda: validate(power(0.5), grid_size=2), ValueError,
                 "grid_size must be at least 3", id="validate-grid"),
    pytest.param(lambda: generator_from_shocks(Uniform(), Uniform(), resolution=7), ValueError,
                 "resolution must be at least 8", id="shocks-resolution"),
])
def test_generator_arguments_are_rejected(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


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


#: one parameter set for each named family and ``poly``
_SCALAR_PARAMS = {
    "power": {"alpha": 0.37},
    "twoparam": {"alpha": 0.37, "beta": 0.8},
    "efgmhat": {"a": 0.61},
    "efgmf": {"a": 0.61},
    "identity": {},
    "zero": {},
    "fullshock": {},
    "capped": {"slope": 2.5},
    "poly": {"c0": 0.0, "c1": 0.3, "c2": -0.7, "c3": 0.4},
}
SCALAR_POINTS = np.concatenate(([0.0, 1.0], np.random.default_rng(7).random(10_000)))


def _value_generators():
    named = [closed_form(name, RMM, **params) for name, params in _SCALAR_PARAMS.items()]
    return named + [
        ReflectedGenerator(power(0.37)),
        affine(power(0.37), WRAPPERS["minus-id"], RMM),
        TabulatedGenerator([0.0, 0.3, 1.0], [0.0, 0.2, 1.0], MARSHALL),
    ]


def test_scalar_params_cover_every_family():
    assert set(_SCALAR_PARAMS) == set(_FAMILIES) | {"poly"}


@pytest.mark.parametrize("gen", _value_generators(), ids=lambda g: g.describe())
def test_scalar_value_is_value_array_to_the_bit(gen):
    scalar = np.array([gen.value(float(u)) for u in SCALAR_POINTS])
    assert scalar.tobytes() == gen.value_array(SCALAR_POINTS).tobytes()


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
    assert derived_value(gen, "star", 0.0) == math.inf


def test_psi_star_of_identity_is_infinite():
    gen = closed_form("identity", PSI)
    for v in (0.0, 0.4, 0.9):
        assert derived_value(gen, "psi_star", v) == math.inf


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


@pytest.mark.parametrize("gen, kind, u, want", [
    (power(0.3), "star", 0.25, power(0.3).value(0.25) / 0.25),
    (power(0.3), "star", 0.5, power(0.3).value(0.5) / 0.5),
    (closed_form("efgmf", RMM, a=0.7), "star", 0.0, 0.7),  # a(1-u) at 0
    (poly(SMM, 0, 3, -3), "dagger", 1.0, 3.0),  # 3u(1-u)/(1-u) at 1
], ids=["power-star-0.25", "power-star-0.5", "efgmf-star-at-0", "poly-dagger-at-1"])
def test_derived_value_equals_its_scalar_definition(gen, kind, u, want):
    # exact: the scalar value over its distance to the map's pole, at the pole its exact limit
    assert derived_value(gen, kind, u) == want


@pytest.mark.parametrize("gen, want", [
    (power(0.5), math.inf),
    (power(0.999), math.inf),
    (power(1.0), 0.0),
    (power(1.5), -1.0),
    (closed_form("twoparam", RMM, alpha=0.5, beta=0.7), math.inf),
    (closed_form("twoparam", RMM, alpha=1.0, beta=0.7), 1.0),
    (closed_form("twoparam", RMM, alpha=2.0, beta=0.7), 0.0),
    (closed_form("efgmhat", MARSHALL, a=0.61), 1.0 + 0.61),
    (closed_form("efgmf", RMM, a=0.61), 0.61),
    (closed_form("identity", MARSHALL), 1.0),
    (closed_form("zero", RMM), 0.0),
    (closed_form("fullshock", MARSHALL), math.inf),  # g(0+) = 1
    (closed_form("capped", MARSHALL, slope=2.5), 2.5),
    (poly(RMM, 0.0, 0.3, -0.7, 0.4), 0.3),
    (poly(RMM, 0.25, 0.3), math.inf),
    (poly(RMM, -0.25, 0.3), -math.inf),
], ids=lambda x: x.describe() if isinstance(x, Generator) else str(x))
def test_star_at_0_is_the_exact_limit_of_every_closed_form(gen, want):
    assert derived_value(gen, "star", 0.0) == want
    if math.isfinite(want):  # the ratio approaches it; power(1.5) slowest, as sqrt(u)
        assert gen.value(1e-9) / 1e-9 == pytest.approx(want, abs=1e-4)


def test_a_generator_that_declares_no_ends_reads_no_limit():
    with pytest.raises(NotImplementedError, match="declares no ends"):
        derived_value(_NanAtHalf(), "star", 0.0)


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
    assert any("twoparam-domain" in r.check_id and not r.passed for r in report.results)


def test_twoparam_alpha_above_one_fails_its_domain():
    report = validate(closed_form("twoparam", RMM, alpha=1.5, beta=0.5))
    domain = report.results[0]
    assert not report.passed and not domain.passed
    assert (domain.check_id, domain.detail) == ("twoparam-domain", "alpha=1.5 must lie in (0,1]")


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
    assert any(r.check_id == "boundary-at-1" and not r.passed for r in report.results)


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
    assert condition in [r.check_id for r in report.results if not r.passed]


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


def test_conversion_rejects_a_generator_failing_its_own_class():
    with pytest.raises(GeneratorValidationError, match="twoparam-domain") as err:
        rmm_to_smm(closed_form("twoparam", RMM, alpha=0.5, beta=0.3))
    report = err.value.report
    assert [r.check_id for r in report.results if not r.passed] == ["twoparam-domain"]


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
# the affine adapter: wrapper stacks
# ---------------------------------------------------------------------------

#: each wrapper as the literal nested evaluation it stands for
_LITERAL = {
    "reflect": lambda g: lambda u: g(1.0 - u),
    "minus-id": lambda g: lambda u: g(u) - u,
    "id-minus": lambda g: lambda u: u - g(u),
    "plus-id": lambda g: lambda u: g(u) + u,
}
#: each wrapper on (a, b, p, q), the map g -> a*g(u) + b*g(1-u) + p*u + q
_ON_COEFFS = {
    "reflect": lambda a, b, p, q: (b, a, -p, p + q),
    "minus-id": lambda a, b, p, q: (a, b, p - 1, q),
    "id-minus": lambda a, b, p, q: (-a, -b, 1 - p, -q),
    "plus-id": lambda a, b, p, q: (a, b, p + 1, q),
}
_STACK_TABLE = TabulatedGenerator([0.0, 0.3, 0.55, 1.0], [0.0, 0.2, 0.7, 1.0], MARSHALL)
_STACK_BASES = [closed_form(n, MARSHALL, **p) for n, p in _SCALAR_PARAMS.items()] + [_STACK_TABLE]
#: dyadic points: 1 - u is exact, so a composed reflection moves no point and only
#: the affine arithmetic differs from the literal nesting
_DYADIC = np.arange(1025) / 1024.0
#: |g| <= 1 on every base and a stack of four adds at most 4u + 4, so a few roundings
#: at magnitudes below 10 stay far inside this
_STACK_ATOL = 1e-13


def _build_stack(names, base, classes):
    """The generator and literal evaluation of names (innermost first) over base."""
    gen, lit, coeffs = base, base.value_array, (1, 0, 0, 0)
    for name, cls in zip(names, classes):
        gen = affine(gen, WRAPPERS[name], cls)
        lit, coeffs = _LITERAL[name](lit), _ON_COEFFS[name](*coeffs)
    return gen, lit, coeffs


@given(
    st.sampled_from(range(len(_STACK_BASES))),
    st.lists(st.tuples(st.sampled_from(sorted(WRAPPERS)), st.sampled_from(GeneratorClass)), max_size=4),
)
@settings(max_examples=300, deadline=None)
def test_wrapper_stacks_compose_into_one_map(which, layers):
    base = _STACK_BASES[which]
    names = [name for name, _ in layers]
    classes = [cls for _, cls in layers]
    gen, lit, coeffs = _build_stack(names, base, classes)
    np.testing.assert_allclose(gen.value_array(_DYADIC), lit(_DYADIC), rtol=0.0, atol=_STACK_ATOL)
    if isinstance(gen, AffineGenerator):
        assert not isinstance(gen.base, AffineGenerator)
    if isinstance(base, TabulatedGenerator):
        # a table absorbs the layers of a stack without a flip and is the base of a
        # map with one
        if coeffs[1] == 0:
            assert isinstance(gen, TabulatedGenerator)
        else:
            assert isinstance(gen.base, TabulatedGenerator) and gen.map[1]
        return
    if isinstance(gen, AffineGenerator):
        s, flip, t, c = gen.map
        assert gen.base is base
        assert coeffs == ((0, s, -t, t + c) if flip else (s, 0, t, c))
    final_class = classes[-1] if classes else base.declared_class
    if coeffs == (1, 0, 0, 0) and final_class is base.declared_class:
        assert gen is base


def _one_sided(fn, u, toward):
    """The difference quotient of fn from u toward the point u + toward."""
    return (fn(np.array([u + toward])) - fn(np.array([u])))[0] / toward


@given(
    st.sampled_from(range(len(_STACK_BASES))),
    st.lists(st.tuples(st.sampled_from(sorted(WRAPPERS)), st.sampled_from(GeneratorClass)), max_size=4),
)
@settings(max_examples=300, deadline=None)
def test_wrapper_stacks_map_the_ends_of_their_base(which, layers):
    gen, lit, _ = _build_stack([n for n, _ in layers], _STACK_BASES[which], [c for _, c in layers])
    v0, slope_0, slope_1 = gen.ends()
    # g(0+) and the slopes against the literal nesting, at dyadic offsets that survive
    # 1 - (1 - u): g(0+) within power(0.37)'s 2e-6 of g(2**-52); the secant h from an
    # end within O(h) of a finite slope, and steep with its sign for an infinite one
    assert v0 == pytest.approx(lit(np.array([2.0**-52]))[0], abs=1e-5)
    h = 2.0**-23
    for slope, secant in ((slope_0, _one_sided(lit, h, h)), (slope_1, _one_sided(lit, 1.0, -h))):
        if math.isfinite(slope):
            assert secant == pytest.approx(slope, abs=1e-5)
        else:
            assert secant * math.copysign(1.0, slope) > 1e3


_SRC_STACKS = [  # the shapes normalize and reconstruction build, innermost first
    ("reflect",),
    ("minus-id",),
    ("id-minus",),
    ("plus-id",),
    ("minus-id", "reflect"),
    ("id-minus", "reflect"),
]


@pytest.mark.parametrize("names", _SRC_STACKS, ids=lambda n: "(".join(n[::-1]) + ")" * (len(n) - 1))
def test_wrapper_stacks_keep_the_bits_of_the_nested_wrappers(names):
    g = power(0.37, MARSHALL)
    table = _STACK_TABLE
    u = SCALAR_POINTS
    x = 1.0 - u
    # the nested wrappers: a closed form evaluates each layer in turn; an offset of a
    # table is the table of s*values + t*us, reflected at the query
    closed = {
        ("reflect",): g.value_array(x),
        ("minus-id",): g.value_array(u) - u,
        ("id-minus",): u - g.value_array(u),
        ("plus-id",): g.value_array(u) + u,
        ("minus-id", "reflect"): g.value_array(x) - x,
        ("id-minus", "reflect"): x - g.value_array(x),
    }[names]
    us, vs = table.us, table.values
    tabulated = {
        ("reflect",): np.interp(x, us, vs),
        ("minus-id",): np.interp(u, us, vs - us),
        ("id-minus",): np.interp(u, us, us - vs),
        ("plus-id",): np.interp(u, us, vs + us),
        ("minus-id", "reflect"): np.interp(x, us, vs - us),
        ("id-minus", "reflect"): np.interp(x, us, us - vs),
    }[names]
    for base, want in ((g, closed), (table, tabulated)):
        gen, _, _ = _build_stack(names, base, [RMM] * len(names))
        assert gen.value_array(u).tobytes() == want.tobytes()


def test_hat_of_a_reflected_maxmin_generator_is_one_minus_psi_reflected():
    psi = closed_form("poly", GeneratorClass.MAXMIN_PSI, c0=0.0, c1=0.5, c2=0.5)
    g = ReflectedGenerator(identity_minus(psi, SMM))
    u = SCALAR_POINTS
    assert hat_of(g).value_array(u).tobytes() == (1.0 - psi.value_array(1.0 - u)).tobytes()
    assert hat_of(g).describe() == "plus-id(reflect(id-minus(poly:c0=0.0,c1=0.5,c2=0.5)))"


def test_offsets_that_cancel_give_the_base_only_in_its_class():
    hat = closed_form("efgmhat", MARSHALL, a=0.61)
    assert hat_of(hat_to_f(hat, MARSHALL)) is hat
    back = hat_of(hat_to_f(hat, RMM))  # hat_of keeps the class RMM
    assert isinstance(back, AffineGenerator) and back.base is hat
    assert back.declared_class is RMM and back.describe() == hat.describe()
    assert back.value_array(SCALAR_POINTS).tobytes() == hat.value_array(SCALAR_POINTS).tobytes()


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
    margin = Product(negated(Exponential(lam)), negated(Exponential(mu)))
    hat = generator_from_shocks(negated(Exponential(lam)), margin)
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
    # the class puts the margin below the component (Marshall) or above it (maxmin-psi)
    with pytest.raises(ShockStructureError) as err:
        generator_from_shocks(component, margin, declared_class=MARSHALL if side == "below" else PSI)
    x = err.value.witness
    assert x == pytest.approx(at, abs=1e-12)  # the worst point of the tabulation
    gap = margin.cdf(x) - component.cdf(x) if side == "below" else component.cdf(x) - margin.cdf(x)
    assert f" by {gap:.3g} at x={x:.6g} " in str(err.value)


@pytest.mark.parametrize("cls", [RMM, SMM])
def test_shocks_give_only_the_two_one_sided_classes(cls):
    # a Marshall generator has its margin below the component, a maxmin-psi one above
    with pytest.raises(ValueError, match="marshall or maxmin-psi"):
        generator_from_shocks(Uniform(), Uniform(), declared_class=cls)


def test_a_generic_margin_costs_its_table_and_one_cdf_point_per_knot():
    model = reconstruct(exprmm_ab(0.3, 0.6), Exponential(1.0), Exponential(2.0))
    margin = margins(model)[0]  # Product(ComposedCdf, RmmShockCdf): no closed-form inverse
    points, probes, refined = [], [], []
    cdf, expand = margin.cdf_array, margin._expand

    def counted_expand(*args):
        xs, fs = expand(*args)
        probes.append(xs.size)
        return xs, fs

    def counted_cdf(xs, left=False):
        if not left:  # the points of F; its left limits at the jumps are not counted
            points.append(np.size(xs))
        return cdf(xs, left)

    margin.cdf_array = counted_cdf
    margin._expand = counted_expand
    margin._refine = lambda *args: refined.append(args)
    generator_from_shocks(model.f_x, margin, resolution=4096)
    # the shared table (grid, expansion probes, jumps), then the knots (levels, jumps)
    jumps = len(margin.jump_points())
    assert not refined
    assert sum(points) <= 2**14 + 1 + sum(probes) + _ladder(4096).size + 2 * jumps


@pytest.mark.parametrize("side", ["max", "min"])
def test_points_become_knots_read_to_the_bit(side):
    # each point x is a knot (F_U(x), F_C(x)) beside the ladder's, so the generator reads
    # F_C(x) exactly at F_U(x); the table grows by at most the points given
    rng = np.random.default_rng(5)
    xs = np.unique(rng.uniform(0.0, 3.0, 1000))
    step = TabulatedCdf(xs, np.arange(1, xs.size + 1) / xs.size, "step")
    component, cls = step, MARSHALL
    margin = Product(step, Exponential(2.0))
    if side == "min":
        component, cls = step, PSI
        margin = SurvivalProduct(step, Exponential(0.5))
    points = np.concatenate((rng.uniform(-2.0, 3.0, 200), margin.quantile_array(np.linspace(0.0, 1.0, 21)[1:-1])))
    us = margin.cdf_array(points)
    points = points[(us > 0.0) & (us < 1.0)]
    gen = generator_from_shocks(component, margin, declared_class=cls, resolution=256, points=points)
    assert gen.us.size - 2 <= _ladder(256).size + points.size + 2 * len(margin.jump_points())
    assert gen.value_array(margin.cdf_array(points)).tobytes() == component.cdf_array(points).tobytes()
    plain = generator_from_shocks(component, margin, declared_class=cls, resolution=256)
    assert plain.us.size < gen.us.size


@pytest.mark.parametrize("point, at", [(0.3, None), (1.0, 1.0)])
def test_margin_order_witness_with_points(point, at):
    # margin x above component x/2, worst as x -> 1: a ladder knot is reported at its
    # level's exact quantile, a point that is worst at the point itself
    with pytest.raises(ShockStructureError) as err:
        generator_from_shocks(Uniform(0.0, 2.0), Uniform(), points=[point])
    x = err.value.witness
    assert x == at if at is not None else 1.0 - 1e-6 < x < 1.0
    assert f" by {x - x / 2:.3g} at x={x:.6g} " in str(err.value)


@pytest.mark.parametrize("resolution", [8, 4096, 32768])
def test_ladder_is_built_once_per_resolution_and_read_only(resolution):
    # evenly spaced levels and graded tails, built afresh
    tail = (np.arange(1, resolution, dtype=float) / resolution) ** 6
    want = np.unique(np.concatenate((np.linspace(0.0, 1.0, resolution + 1), tail, 1.0 - tail)))
    want = want[(want > 0.0) & (want < 1.0)]
    levels = _ladder(resolution)
    assert levels.tobytes() == want.tobytes()
    assert _ladder(resolution) is levels
    assert not levels.flags.writeable
    with pytest.raises(ValueError):
        levels[0] = 0.5


def exact_curve(margin):
    """Points (F_U(x), F_C(x)) of the curve u -> F_C(F_U^-1(u)) with 0 < u < 1, F_C = Exp(1)."""
    x = np.geomspace(1e-16, 40.0, 42001)
    u, v = margin.cdf_array(x), Exponential(1.0).cdf_array(x)
    inside = (u > 0.0) & (u < 1.0)
    return u[inside], v[inside]


@pytest.mark.parametrize("resolution", [4096, 32768])
def test_max_side_curve_error_shrinks_as_resolution_squared_at_both_ends(resolution):
    margin = Product(Exponential(1.0), Exponential(2.0))
    u, v = exact_curve(margin)
    gen = generator_from_shocks(Exponential(1.0), margin, resolution=resolution)
    err = np.abs(gen.value_array(u) - v)
    shrink = (4096 / resolution) ** 2
    # bounds at R = 4096; measured 3.10e-8 sup and, band by band, 5.6e-4, 1.8e-4,
    # 5.6e-5, 1.8e-5, 6.8e-7; R = 32768 measured 64 times smaller in every band
    assert err.max() <= 4e-8 * shrink
    for lo, hi, bound in [
        (1e-15, 1e-12, 1e-3),
        (1e-12, 1e-9, 3e-4),
        (1e-9, 1e-6, 1e-4),
        (1e-6, 1e-3, 3e-5),
        (1e-3, 0.999, 1e-6),
    ]:
        band = (u >= lo) & (u < hi)
        assert band.any() and np.max(err[band] / v[band]) <= bound * shrink, (lo, hi)


@pytest.mark.parametrize("resolution", [4096, 32768])
def test_min_side_curve_error_shrinks_as_resolution_squared_between_float_limited_ends(resolution):
    margin = SurvivalProduct(Exponential(1.0), Exponential(2.0))
    u, v = exact_curve(margin)
    gen = generator_from_shocks(Exponential(1.0), margin, resolution=resolution, declared_class=PSI)
    err = np.abs(gen.value_array(u) - v)
    near_0, near_1 = u < 1e-6, u >= 0.999
    # SurvivalProduct resolves F only to about 2**-53 near 0 (measured 8e-17 at both R)
    assert err[near_0].max() <= 2.0**-52
    # measured 5.96e-8 at R = 4096 and 9.3e-10 at R = 32768
    assert err[~near_0 & ~near_1].max() <= 1e-7 * (4096 / resolution) ** 2
    # v = 1 - (1-u)**(1/3) moves about 5e-6 while u stays within 2**-53 of 1 (measured 1.65e-6)
    assert err[near_1].max() <= 2e-6


@pytest.mark.parametrize(
    "margin",
    [
        negated(TabulatedCdf([0.0, 1.0], [0.0, 0.7], "linear")),  # F >= 0.3 on the whole line
        Product(TabulatedCdf([0.0, 1.0], [0.0, 0.8], "linear"), Exponential(1.0)),  # F <= 0.8
    ],
    ids=["floor", "ceiling"],
)
def test_a_margin_that_never_reaches_a_ladder_level_is_malformed(margin):
    with pytest.raises(MalformedCdfError):
        generator_from_shocks(Exponential(1.0), margin)


def test_min_side_margin_order():
    from shockcop.distributions import SurvivalProduct

    margin = SurvivalProduct(Exponential(1.0), Exponential(1.0))
    gen = generator_from_shocks(Exponential(1.0), margin, declared_class=PSI)
    # A(u) = 1 - (1-u)**0.5; id - A is the min-model generator
    us = np.arange(0.1, 0.95, 0.1)
    np.testing.assert_allclose(gen.value_array(us), 1.0 - (1.0 - us) ** 0.5, atol=1e-6)
    h = identity_minus(gen, SMM)
    assert validate(h).passed
    with pytest.raises(ShockStructureError):
        generator_from_shocks(Exponential(1.0), margin, declared_class=MARSHALL)


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
    assert {r.check_id for r in report.results if not r.passed} == {"hat-nondecreasing", "star-nonincreasing"}
    assert all(r.witness[0] == 0.5 and np.isnan(r.magnitude) for r in report.results if not r.passed)


@given(st.floats(0.0, 1.0, exclude_min=True))
@settings(max_examples=200, deadline=None)
def test_efgmhat_boundary_is_exact_for_every_weight(a):
    # t + a t (1 - t) is 1 at t = 1 in floating point; (a+1)t - a t^2 misses by an ulp for 1 a in 4
    gen = closed_form("efgmhat", MARSHALL, a=a)
    assert gen.value(0.0) == 0.0 and gen.value(1.0) == 1.0
    assert validate(gen).passed


# ---------------------------------------------------------------------------
# validate against the rule it replaced
# ---------------------------------------------------------------------------


def reference_violations(gen):
    """The former validate's failed conditions as {condition: (u, observed)}: exact
    boundary comparisons, and per rule the most negative step ``direction * diff``
    beyond the slack (a NaN step first), witnessed at the step's right end."""
    tol = gen.grid_tol
    us = np.linspace(0.0, 1.0, 1001)
    vals = gen.value_array(us)
    spec = CLASS_SPECS[gen.declared_class]
    out = {cond: (np.nan, np.nan) for cond, _ in gen.param_domain_violations()}
    for cond, i, end in (("boundary-at-0", 0, spec.ends[0]), ("boundary-at-1", -1, spec.ends[1])):
        if vals[i] != end:
            out[cond] = (float(us[i]), float(vals[i]))
    for condition, kind, direction in spec.rules:
        m = DERIVED_MAPS[kind] if kind else _OWN_VALUES
        keep = slice(int(m.end == 0.0), us.size - int(m.end == 1.0))
        ys = m.fn(vals[keep], us[keep])
        with np.errstate(invalid="ignore"):
            diffs = direction * np.diff(ys)
        both_inf = np.isinf(ys[1:]) & np.isinf(ys[:-1])
        bad = ~(diffs >= -tol) & ~(np.isnan(diffs) & both_inf)
        if bad.any():
            idx = int(np.argmin(np.where(bad, diffs, np.inf)))
            out[condition] = (float(us[keep][1:][idx]), float(diffs[idx]))
    return out


_FAMILY_PARAMS = {
    "power": [{"alpha": 0.5}, {"alpha": 1.5}],
    "twoparam": [{"alpha": 0.5, "beta": 0.5}, {"alpha": 0.5, "beta": 0.3}, {"alpha": 1.0, "beta": 2.0},
                 {"alpha": 1.5, "beta": 0.5}],
    "efgmhat": [{"a": 0.95}, {"a": 1.5}],
    "efgmf": [{"a": 0.8}],
    "identity": [{}],
    "zero": [{}],
    "fullshock": [{}],
    "capped": [{"slope": 2.0}, {"slope": 0.5}],
}


def _reference_cases():
    assert set(_FAMILY_PARAMS) == set(_FAMILIES)
    cases = [
        closed_form(family, cls, **params)
        for family, param_sets in _FAMILY_PARAMS.items()
        for params in param_sets
        for cls in GeneratorClass
    ]
    cases += [  # the failing cases of test_each_class_condition_is_reported
        TabulatedGenerator([0.0, 0.3, 0.6, 1.0], [0.0, 0.9, 0.5, 1.0], MARSHALL),
        poly(MARSHALL, 0, 0, 1),
        TabulatedGenerator([0.0, 0.5, 0.9, 1.0], [0.0, 0.1, 0.85, 1.0], PSI),
        poly(RMM, 0, 3, -3),
        poly(RMM, 0, 0, 1, -1),
        poly(SMM, 0, 3, -3),
        poly(SMM, 0, 1, -2, 1),
    ]
    for model in (
        exponential_marshall_model(1.0, 2.0, 1.5, 0.7),
        exponential_rmm_model(1.0, 2.0, 1.5, 0.7),
        exponential_smm_model(1.0, 2.0, 3.0, 0.5),
        maxmin_model(Exponential(1.0), Exponential(2.0), Exponential(1.5)),
    ):
        c = induced_copula(model)
        cases += [getattr(c, slot) for slot, _ in c.slots]
    return cases + [_NanAtHalf()]


@pytest.mark.parametrize("gen", _reference_cases(), ids=repr)
def test_validate_rows_match_the_former_rule(gen):
    report = validate(gen)
    ref = reference_violations(gen)
    rules = [cond for cond, _, _ in CLASS_SPECS[gen.declared_class].rules]
    domain = [cond for cond, _ in gen.param_domain_violations()]
    assert [r.check_id for r in report.results] == domain + ["boundary-at-0", "boundary-at-1"] + rules
    for r in report.results:
        assert r.passed == (r.check_id not in ref), r.render()
        if not r.passed and r.check_id in rules:
            u, observed = ref[r.check_id]
            assert r.witness[0] == u
            assert r.magnitude == -observed or (np.isnan(r.magnitude) and np.isnan(observed))
