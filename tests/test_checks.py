import numpy as np
import pytest

from shockcop.checks import (
    check_copula_axioms,
    check_model_theorem,
    check_reconstruction,
)
from shockcop.copulas import RmmCopula, efgm, independence, survival
from shockcop.distributions import Exponential, Uniform, point_mass
from shockcop.generators import GeneratorClass, closed_form
from shockcop.sampling import empirical_copula, sample_model, sup_distance
from shockcop.shock_models import induced_copula, marshall_model, rmm_model

U = Uniform()


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
