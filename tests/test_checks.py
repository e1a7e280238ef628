import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shockcop import shock_models as sm
from shockcop.checks import (
    check_copula_axioms,
    check_model_theorem,
    check_reconstruction,
)
from shockcop.copulas import (
    Copula,
    MarshallCopula,
    RmmCopula,
    efgm,
    independence,
    normalize,
    rmm,
    sklar_join,
    smm,
    survival,
)
from shockcop.descriptors import parse_copula
from shockcop.distributions import EfgmMargin, Exponential, Product, TabulatedCdf, Uniform, point_mass
from shockcop.errors import ReconstructionError
from shockcop.generators import (
    DEFAULT_RESOLUTION,
    GeneratorClass,
    closed_form,
    rmm_to_smm,
    smm_to_rmm,
    validate,
)
from shockcop.sampling import empirical_copula, sample_model, sup_distance
from shockcop.shock_models import induced_copula, marshall_model, reconstruct, rmm_model

U = Uniform()
RMM = GeneratorClass.RMM


def overweight_efgm():
    # weight beyond the valid range: uv - 2 uv(1-u)(1-v) is not 2-increasing
    f = closed_form("poly", GeneratorClass.RMM, c0=0.0, c1=np.sqrt(2.0), c2=-np.sqrt(2.0))
    return RmmCopula(f, f)


def test_axiom_suite_passes_for_independence():
    assert check_copula_axioms(independence()).passed


def test_axiom_suite_passes_for_efgm_boundary_weight():
    report = check_copula_axioms(efgm(1.0), grid=101, rectangles=10_000, tol=1e-12)
    assert report.passed


@pytest.mark.parametrize("kwargs, message", [
    ({"grid": 2}, "grid must be at least 3"),
    ({"rectangles": 0}, "rectangles must be at least 1"),
], ids=["grid", "rectangles"])
def test_axiom_suite_arguments_are_rejected(kwargs, message):
    with pytest.raises(ValueError, match=message):
        check_copula_axioms(efgm(0.5), **kwargs)


def test_axiom_suite_catches_negative_volume():
    report = check_copula_axioms(overweight_efgm(), seed=3)
    assert not report.passed
    failed = {r.check_id for r in report.results if not r.passed}
    assert "rectangle-positivity" in failed
    # witness reproduces by direct evaluation
    bad = next(r for r in report.results if r.check_id == "rectangle-positivity")
    assert bad.witness is not None
    assert bad.magnitude > 1e-12
    # the rectangles are the row-sorted pairs of the seeded draws
    rng = np.random.default_rng(3)
    u_pair = np.sort(rng.random((10_000, 2)), axis=1)
    v_pair = np.sort(rng.random((10_000, 2)), axis=1)
    c = overweight_efgm()
    vols = (
        c.value_array(u_pair[:, 1], v_pair[:, 1])
        - c.value_array(u_pair[:, 0], v_pair[:, 1])
        - c.value_array(u_pair[:, 1], v_pair[:, 0])
        + c.value_array(u_pair[:, 0], v_pair[:, 0])
    )
    worst = int(np.argmin(vols))
    assert bad.magnitude == -float(vols[worst])
    assert bad.witness == (float(u_pair[worst, 0]), float(v_pair[worst, 0]))


def test_axiom_report_renders_text_and_csv():
    report = check_copula_axioms(independence(), grid=11, rectangles=100)
    text = report.render_text()
    assert "suite axioms[indep]: pass" in text
    rows = report.csv_rows()
    assert rows[0] == "check_id,status,magnitude,u,v"
    assert len(rows) == 1 + len(report.results)


@pytest.mark.parametrize("kwargs, message", [
    ({"n": 0}, "n must be at least 1"),
    ({"n": -1}, "n must be at least 1"),
    ({"grid": 0}, "grid must be at least 2"),
    ({"grid": 1}, "grid must be at least 2"),
], ids=["n0", "n-1", "grid0", "grid1"])
def test_model_theorem_arguments_are_rejected_before_any_work(kwargs, message, monkeypatch):
    def no_work(*args, **kw):
        raise AssertionError("the induced copula was built before the arguments were checked")

    monkeypatch.setattr(sm, "induced_copula", no_work)
    m = rmm_model(Exponential(1.0), Exponential(1.0), Exponential(1.0), Exponential(1.0))
    with pytest.raises(ValueError, match=message):
        check_model_theorem(m, **kwargs)


def test_axiom_reports_deterministic_given_seed():
    a = check_copula_axioms(efgm(0.5), seed=12)
    b = check_copula_axioms(efgm(0.5), seed=12)
    assert a == b


def test_model_theorem_exponential_rmm():
    m = rmm_model(Exponential(1.0), Exponential(1.0), Exponential(1.0), Exponential(1.0))
    report = check_model_theorem(m, n=50_000, seed=5)
    assert report.passed, report.render_text()
    # the Monte Carlo witness reproduces the reported sup distance
    mc = report.results[-1]
    assert mc.check_id == "empirical-vs-induced"
    u, v = mc.witness
    emp = empirical_copula(sample_model(m, 50_000, seed=5))
    induced = induced_copula(m, points=theorem_points(m))
    assert abs(emp.value(u, v) - induced.value(u, v)) == mc.magnitude


def theorem_points(m, grid=21):
    """The knots ``check_model_theorem`` adds: the margins' quantiles at the joint
    lattice's levels, then at the empirical grid's interior levels."""
    levels = np.concatenate((np.linspace(1e-6, 1.0 - 1e-6, grid), np.linspace(0.0, 1.0, grid)[1:-1]))
    return tuple(f.quantile_array(levels) for f in sm.margins(m))


def _step_law(knots=1000, seed=11):
    xs = np.unique(np.random.default_rng(seed).uniform(0.0, 3.0, knots))
    return TabulatedCdf(xs, np.arange(1, xs.size + 1) / xs.size, "step")


@pytest.mark.parametrize("laws", ["exp", "step"])
@pytest.mark.parametrize("family", list(sm.MODEL_PREFIXES), ids=list(sm.MODEL_PREFIXES.values()))
def test_model_theorem_joint_row_is_exact_at_knots_on_every_family(family, laws):
    combiner, coupling = family
    f_x = Exponential(1.0) if laws == "exp" else _step_law()
    g = Exponential(1.5)
    m = sm.ShockModel(f_x, Exponential(2.0), g, g if combiner is sm.Combiner.MAX_MIN else Exponential(0.7),
                      combiner, coupling())
    report = check_model_theorem(m)
    assert report.passed, report.render_text()
    joint = report.results[0]
    assert joint.check_id == "joint-vs-join" and joint.detail == "exact at knots"
    assert joint.magnitude <= 1e-15


def test_model_theorem_asks_for_no_resolution_above_the_default(monkeypatch):
    asked = []
    build = sm.generator_from_shocks

    def spy(*args, resolution, **kwargs):
        asked.append(resolution)
        return build(*args, resolution=resolution, **kwargs)

    monkeypatch.setattr(sm, "generator_from_shocks", spy)
    m = rmm_model(Exponential(1.0), Exponential(2.0), Exponential(1.5), Exponential(0.7))
    assert check_model_theorem(m, n=2000).passed
    assert asked == [DEFAULT_RESOLUTION] * 2 == [4096] * 2


def test_model_theorem_detects_coupling_mismatch():
    # sample the comonotonic model but compare against the countermonotonic
    # family built from the same components
    como = marshall_model(Exponential(1.0), Exponential(1.0), Exponential(1.0), Exponential(1.0))
    counter = rmm_model(Exponential(1.0), Exponential(1.0), Exponential(1.0), Exponential(1.0))
    emp = empirical_copula(sample_model(como, 50_000, seed=5))
    wrong = induced_copula(counter)
    assert sup_distance(emp, wrong, 21) > 4.4 / np.sqrt(50_000)


def test_reconstruction_suite_efgm_uniform():
    report = check_reconstruction(efgm(1.0), U, U, tol=1e-10)
    assert report.passed, report.render_text()
    ids = {r.check_id for r in report.results}
    assert "margin-u-factorization" in ids
    assert "joint-law" in ids
    assert "shock-margin-envelope" in ids


def test_reconstruction_suite_degenerate_margin_fails_hypothesis():
    report = check_reconstruction(efgm(1.0), point_mass(0.0), point_mass(0.0))
    assert not report.passed
    assert any(r.check_id.startswith("hypothesis:interior-point") for r in report.results)


def test_reconstruction_suite_survival_efgm_as_smm():
    report = check_reconstruction(survival(efgm(0.95)), U, U, tol=1e-9)
    assert report.passed, report.render_text()


AUDIT_IDS = [
    "margin-u-factorization",
    "margin-v-factorization",
    "f-x-nondecreasing",
    "f-y-nondecreasing",
    "g1-nondecreasing",
    "g2-nondecreasing",
    "shock-margin-envelope",
    "joint-law",
]


def row_major_worst(model, join, xs, ys):
    """Reference lattice scan: the first maximum of |H_model - H_join|, x outer, y inner."""
    worst, witness = 0.0, (float(xs[0]), float(ys[0]))
    for x in xs:
        for y in ys:
            diff = abs(sm.joint_cdf(model, float(x), float(y)) - join.cdf(float(x), float(y)))
            if diff > worst:
                worst, witness = diff, (float(x), float(y))
    return worst, witness


@pytest.mark.parametrize(
    "c, margin",
    [(efgm(0.5), EfgmMargin(0.5)), (survival(efgm(0.9)), U), (efgm(1.0), U)],
    ids=["rmm-native", "smm", "rmm-uniform"],
)
def test_reconstruction_report_ids_and_joint_law_match_row_major_loop(c, margin):
    report = check_reconstruction(c, margin, margin, tol=1e-10)
    assert report.passed, report.render_text()
    assert [r.check_id for r in report.results] == AUDIT_IDS
    model = reconstruct(c, margin, margin, tol=1e-10)
    sub = sm._subsample(sm.support_grid([margin, margin], 1001), 21)
    join = sklar_join(normalize(c), margin, margin)
    worst, witness = row_major_worst(model, join, sub, sub)
    joint = report.results[-1]
    assert abs(joint.magnitude - worst) <= 1e-15
    assert joint.witness == witness


def test_joint_law_check_matches_row_major_loop_on_a_clear_gap():
    # the model's own join against a different copula: a large gap with one maximum
    model = rmm_model(Exponential(1.0), Exponential(1.0), Exponential(1.0), Exponential(1.0))
    f_u, f_v = sm.margins(model)
    join = sklar_join(efgm(0.3), f_u, f_v)
    xs = f_u.quantile_array(np.linspace(0.05, 0.95, 13))
    ys = f_v.quantile_array(np.linspace(0.02, 0.98, 17))
    got = sm.joint_law_check("joint-law", model, join, xs, ys, 1e-9)
    worst, witness = row_major_worst(model, join, xs, ys)
    assert not got.passed and worst > 1e-3
    assert abs(got.magnitude - worst) <= 1e-15
    assert got.witness == witness


def test_model_theorem_joint_vs_join_catches_a_perturbed_joint_law(monkeypatch):
    # a joint law 1e-12 off its copula, far above the row's rounding tolerance
    m = marshall_model(Exponential(1.0), Exponential(2.0), Exponential(1.5), Exponential(0.5))
    exact = sm.joint_cdf
    monkeypatch.setattr(sm, "joint_cdf", lambda model, x, y: exact(model, x, y) + 1e-12)
    report = check_model_theorem(m, n=2000, seed=3)
    first = report.results[0]
    assert first.check_id == "joint-vs-join" and not first.passed
    f_u, f_v = sm.margins(m)
    points = theorem_points(m)
    join = sklar_join(induced_copula(m, points=points), f_u, f_v)
    xs, ys = (p[:21] for p in points)
    worst, witness = row_major_worst(m, join, xs, ys)
    assert abs(worst - 1e-12) <= 1e-15
    assert abs(first.magnitude - worst) <= 1e-15
    assert first.witness == witness


@functools.cache
def _tabulated_rmm():
    # the tabulated route of criterion 8: it passes at 1e-10 with a worst gap near 1e-16
    exp_margin = Product(Exponential(1.0), Exponential(1.0))
    model0 = rmm_model(Exponential(1.0), Exponential(1.0), Exponential(1.0), Exponential(1.0))
    return induced_copula(model0, resolution=1 << 15), exp_margin, exp_margin


_CAP = closed_form("capped", GeneratorClass.MARSHALL, slope=2.0)
_ID = closed_form("identity", GeneratorClass.MARSHALL)
RECONSTRUCTION_CASES = {  # name: (copula and margins, tol, first failed row or None)
    "pass": (lambda: (efgm(0.5), U, U), sm.RECONSTRUCTION_TOL, None),
    "normalized-survival": (lambda: (survival(efgm(0.5)), U, U), sm.RECONSTRUCTION_TOL, None),
    "tabulated": (_tabulated_rmm, sm.RECONSTRUCTION_TOL, None),
    "alignment": (lambda: (MarshallCopula(_CAP, _ID), U, U), sm.RECONSTRUCTION_TOL,
                  "hypothesis:alignment"),
    "interior-point": (lambda: (efgm(1.0), point_mass(0.0), point_mass(0.0)),
                       sm.RECONSTRUCTION_TOL, "hypothesis:interior-point"),
    "family": (lambda: (parse_copula("maxmin:phi=capped:slope=2.0,psi=identity"), U, U),
               sm.RECONSTRUCTION_TOL, "hypothesis:family"),
    "tabulated-postcondition": (_tabulated_rmm, 1e-17, "margin-u-factorization"),
}


@pytest.mark.parametrize("case", RECONSTRUCTION_CASES)
def test_every_reconstruction_entry_point_reads_one_report(case):
    build, tol, first_failed = RECONSTRUCTION_CASES[case]
    c, fu, fv = build()
    model, report = sm.audited_reconstruction(c, fu, fv, tol=tol)
    # the same report; compared as text, since a hypothesis row's NaN is unequal to itself
    assert repr(check_reconstruction(c, fu, fv, tol=tol)) == repr(report)
    ids = [r.check_id for r in report.results]
    assert ids == ([first_failed] if model is None else AUDIT_IDS)
    if first_failed is None:
        assert report.passed, report.render_text()
        assert reconstruct(c, fu, fv, tol=tol) is not None
        return
    first = next(r for r in report.results if not r.passed)
    assert first.check_id == first_failed
    with pytest.raises(ReconstructionError) as err:
        reconstruct(c, fu, fv, tol=tol)
    assert err.value.assumption == first_failed.removeprefix("hypothesis:")
    assert err.value.witness == first.witness
    if model is None:
        assert str(err.value) == first.detail
        if first.witness is not None:  # a hypothesis at a point x on the line
            assert first.witness[1] == 0.0
            assert report.csv_rows()[1].endswith(f",{first.witness[0]},0.0")
    else:
        assert str(err.value) == (
            f"{first_failed}: audit worst {first.magnitude:.3e} at {first.witness}"
        )


class _LookupSpy:
    """numpy, except that ``interp`` and ``searchsorted`` record their table size
    and whether their flattened queries are monotone, and ``argsort`` counts its calls."""

    def __init__(self):
        self.calls = []
        self.argsorts = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def _record(self, table, queries):
        step = np.diff(np.ravel(queries))
        self.calls.append((np.size(table), bool(np.all(step >= 0) or np.all(step <= 0))))

    def interp(self, x, xp, fp, *args, **kwargs):
        self._record(xp, x)
        return np.interp(x, xp, fp, *args, **kwargs)

    def searchsorted(self, a, v, *args, **kwargs):
        self._record(a, v)
        return np.searchsorted(a, v, *args, **kwargs)

    def argsort(self, *args, **kwargs):
        self.argsorts += 1
        return np.argsort(*args, **kwargs)


def test_large_table_lookups_run_in_query_order(monkeypatch):
    from shockcop import distributions, generators, sampling
    from shockcop.distributions import _SORTED_LOOKUP_KNOTS, TabulatedCdf

    reinduced = induced_copula(reconstruct(efgm(0.8), U, U))
    xs = np.arange(1000.0)
    step_model = rmm_model(TabulatedCdf(xs, (xs + 1) / xs.size), Exponential(1.0), U, U)
    spy = _LookupSpy()
    for module in (distributions, generators, sampling):
        monkeypatch.setattr(module, "np", spy)
    check_copula_axioms(reinduced, grid=21, rectangles=2000)
    assert validate(reinduced.f).passed and validate(reinduced.g).passed
    sample_model(step_model, 5000, seed=1)
    large = [monotone for knots, monotone in spy.calls if knots >= _SORTED_LOOKUP_KNOTS]
    assert len(large) >= 10 and (xs.size, True) in spy.calls
    assert all(large)


def test_large_step_table_quantile_sorts_no_levels(monkeypatch):
    # the levels find their knots through the guide: one ascending search of the bucket
    # edges, and no sort or binary search of the scattered levels; the CDF still sorts
    from shockcop import distributions
    from shockcop.distributions import _SORTED_LOOKUP_KNOTS, TabulatedCdf

    xs = np.arange(1000.0)
    step = TabulatedCdf(xs, (xs + 1) / xs.size)
    rng = np.random.default_rng(1)
    levels, points = rng.random(200_000), rng.uniform(-1.0, 1001.0, 200_000)
    spy = _LookupSpy()
    monkeypatch.setattr(distributions, "np", spy)
    step.quantile_array(levels)
    assert spy.argsorts == 0 and spy.calls == [(xs.size, True)]
    spy.calls = []
    step.cdf_array(points)
    step.cdf_left_array(points)
    assert spy.argsorts == 2 and spy.calls == [(xs.size, True)] * 2
    spy.calls = []
    TabulatedCdf(xs[:_SORTED_LOOKUP_KNOTS], (xs[:_SORTED_LOOKUP_KNOTS] + 1) / 64).cdf_array(points)
    assert spy.argsorts == 3 and spy.calls == [(_SORTED_LOOKUP_KNOTS, True)]


# ---------------------------------------------------------------------------
# one worst-point rule
# ---------------------------------------------------------------------------


@st.composite
def valid_rmm_generators(draw):
    """``power`` with alpha in (0, 1], or ``twoparam`` with alpha in (0, 1), beta in [1-alpha, 1]."""
    if draw(st.booleans()):
        return closed_form("power", RMM, alpha=draw(st.floats(0.0, 1.0, exclude_min=True)))
    alpha = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    return closed_form("twoparam", RMM, alpha=alpha, beta=draw(st.floats(1.0 - alpha, 1.0)))


def _one(c, u, v):
    return float(c.value_array(np.array([u]), np.array([v]))[0])


@given(valid_rmm_generators(), valid_rmm_generators())
@settings(max_examples=20, deadline=None)
def test_axioms_hold_for_random_rmm_smm_and_survival_copulas(f, g):
    c = rmm(f, g)
    for copula in (c, smm(rmm_to_smm(f), rmm_to_smm(g)), survival(c)):
        report = check_copula_axioms(copula, grid=41, rectangles=2000)
        assert report.passed, report.render_text()
        got = {r.check_id: r for r in report.results}
        # each lattice witness reproduces its magnitude by direct evaluation
        u, v = got["grounded"].witness
        assert abs(_one(copula, u, v)) == got["grounded"].magnitude
        u, v = got["neutral-element"].witness  # one coordinate is 1
        assert abs(_one(copula, u, v) - min(u, v)) == got["neutral-element"].magnitude
        u, v = got["frechet-sandwich"].witness
        val = _one(copula, u, v)
        breach = max(max(0.0, u + v - 1.0) - val, val - min(u, v))
        assert (breach if breach > 0.0 else 0.0) == got["frechet-sandwich"].magnitude


LATTICE = np.linspace(0.0, 1.0, 21)


def _lattice(c):
    return c.value_array(LATTICE[:, None], LATTICE[None, :])


@given(valid_rmm_generators(), valid_rmm_generators())
@settings(max_examples=40, deadline=None)
def test_survival_is_an_involution_and_normalize_keeps_values(f, g):
    c = rmm(f, g)
    values = _lattice(c)
    twice = survival(survival(c))
    assert np.max(np.abs(_lattice(twice) - values)) <= 1e-15
    for wrapped in (survival(c), twice):
        assert np.max(np.abs(_lattice(normalize(wrapped)) - _lattice(wrapped))) <= 1e-15


@given(valid_rmm_generators())
@settings(max_examples=40, deadline=None)
def test_rmm_smm_round_trip_returns_the_same_generator(f):
    assert smm_to_rmm(rmm_to_smm(f)) is f


class _NanPatch(Copula):
    """The independence copula, except NaN on the open square (0.4, 0.6)^2."""

    def _eval(self, u, v):
        return np.where((0.4 < u) & (u < 0.6) & (0.4 < v) & (v < 0.6), np.nan, u * v)

    def describe(self):
        return "nan-indep"


def test_nan_values_fail_the_rectangle_and_frechet_checks():
    report = check_copula_axioms(_NanPatch())
    assert not report.passed
    got = {r.check_id: r for r in report.results}
    assert got["grounded"].passed and got["neutral-element"].passed
    for check_id in ("rectangle-positivity", "frechet-sandwich"):
        assert not got[check_id].passed and np.isnan(got[check_id].magnitude)
    # the first NaN in row-major order: the lattice point just inside the patch
    lattice = np.linspace(0.0, 1.0, 101)
    assert got["frechet-sandwich"].witness == (lattice[41], lattice[41])


def test_worst_takes_the_first_largest_gap_of_a_broadcast_lattice():
    xs, ys = np.array([0.0, 1.0, 2.0]), np.array([10.0, 20.0])
    gaps = np.array([[-1.0, 0.5], [0.5, 0.25], [-3.0, -2.0]])
    r = sm._worst("c", gaps, xs[:, None], ys[None, :], 0.4)
    assert r == sm.CheckResult("c", False, 0.5, (0.0, 20.0))
    r = sm._worst("c", -np.abs(gaps), xs[:, None], ys[None, :], 0.0)
    assert r == sm.CheckResult("c", True, 0.0, (1.0, 20.0))
    assert repr(r.magnitude) == "0.0"
