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
from shockcop.distributions import EfgmMargin, Exponential, Product, Uniform, point_mass
from shockcop.errors import ReconstructionError
from shockcop.generators import GeneratorClass, closed_form, rmm_to_smm
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
    induced = induced_copula(m, resolution=1 << 15)
    assert abs(emp.value(u, v) - induced.value(u, v)) == mc.magnitude


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


def test_model_theorem_joint_vs_join_matches_row_major_loop():
    # a coarse tabulation leaves an interpolation gap well above rounding noise
    m = marshall_model(Exponential(1.0), Exponential(2.0), Exponential(1.5), Exponential(0.5))
    report = check_model_theorem(m, n=2000, seed=3, resolution=1 << 8)
    first = report.results[0]
    assert first.check_id == "joint-vs-join"
    f_u, f_v = sm.margins(m)
    join = sklar_join(induced_copula(m, resolution=1 << 8), f_u, f_v)
    levels = np.linspace(1e-6, 1.0 - 1e-6, 21)
    xs, ys = f_u.quantile_array(levels), f_v.quantile_array(levels)
    worst, witness = row_major_worst(m, join, xs, ys)
    assert worst > 1e-9
    assert abs(first.magnitude - worst) <= 1e-15
    assert first.witness == witness


def test_postcondition_failure_raises_with_the_check_id():
    # the tabulated route of criterion 8 passes at 1e-10 with a worst gap near 1e-16
    exp_margin = Product(Exponential(1.0), Exponential(1.0))
    model0 = rmm_model(Exponential(1.0), Exponential(1.0), Exponential(1.0), Exponential(1.0))
    c_tab = induced_copula(model0, resolution=1 << 15)
    assert check_reconstruction(c_tab, exp_margin, exp_margin, tol=1e-10).passed
    report = check_reconstruction(c_tab, exp_margin, exp_margin, tol=1e-17)
    assert [r.check_id for r in report.results] == AUDIT_IDS
    first_failed = next(r for r in report.results if not r.passed)
    with pytest.raises(ReconstructionError) as err:
        reconstruct(c_tab, exp_margin, exp_margin, tol=1e-17)
    assert err.value.assumption == first_failed.check_id
    assert err.value.witness == first_failed.witness


def test_hypothesis_failure_keeps_a_scalar_witness():
    cap = closed_form("capped", GeneratorClass.MARSHALL, slope=2.0)
    c = MarshallCopula(cap, closed_form("identity", GeneratorClass.MARSHALL))
    with pytest.raises(ReconstructionError) as err:
        reconstruct(c, U, U)
    report = check_reconstruction(c, U, U)
    (result,) = report.results
    assert result.check_id == "hypothesis:alignment"
    assert result.witness == (err.value.witness, 0.0)
    assert report.csv_rows()[1].endswith(f",{err.value.witness},0.0")


class _LookupSpy:
    """numpy, except that ``interp`` and ``searchsorted`` record their table size
    and whether their flattened queries are monotone."""

    def __init__(self):
        self.calls = []

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
    sample_model(step_model, 5000, seed=1)
    large = [monotone for knots, monotone in spy.calls if knots >= _SORTED_LOOKUP_KNOTS]
    assert len(large) >= 10 and (xs.size, True) in spy.calls
    assert all(large)


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
