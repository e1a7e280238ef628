"""Acceptance suite: every criterion at its stated tolerance, one line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the PASS/FAIL lines.
"""

import time

import numpy as np
import pytest

from shockcop.checks import check_copula_axioms, check_reconstruction
from shockcop.copulas import (
    efgm,
    exprmm_ab,
    marshall,
    maxmin,
    normalize,
    reflect,
    rmm,
    smm,
    survival,
)
from shockcop.distributions import (
    EfgmMargin,
    EfgmShock,
    Exponential,
    Product,
    Uniform,
    negated,
)
from shockcop.generators import (
    GeneratorClass,
    ReflectedGenerator,
    closed_form,
    generator_from_shocks,
    hat_to_f,
    validate,
)
from shockcop.sampling import empirical_copula, sample_model, sup_distance
from shockcop.shock_models import (
    exponential_smm_model,
    exprmm_ab_model,
    induced_copula,
    joint_cdf,
    margins,
    marshall_model,
    reconstruct,
    rmm_model,
)

SEED = 20_240_101
U = Uniform()


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{criterion}: {detail}"


def capped2():
    return closed_form("capped", GeneratorClass.MARSHALL, slope=2.0)


def square_psi():
    return closed_form("poly", GeneratorClass.MAXMIN_PSI, c0=0.0, c1=0.0, c2=1.0)


def grid_identity_gap(a, b, n):
    us = np.linspace(0.0, 1.0, n)
    uu, vv = np.meshgrid(us, us, indexing="ij")
    return float(np.max(np.abs(a.value_array(uu, vv) - b.value_array(uu, vv))))


# ---------------------------------------------------------------------------
# 1. axiom suite over the family battery, plus all transforms
# ---------------------------------------------------------------------------


def test_criterion_1_axiom_suite():
    start = time.perf_counter()
    psi = square_psi()
    psi_report = validate(psi)
    assert psi_report.passed, f"maxmin psi fails its condition set: {psi_report}"

    bases = [efgm(a) for a in (0.1, 0.25, 0.5, 0.75, 0.95, 1.0)]
    bases += [
        exprmm_ab(alpha, beta)
        for alpha in (0.1, 0.4, 0.5, 0.9, 1.0)
        for beta in (0.1, 0.4, 0.5, 0.9, 1.0)
    ]
    bases.append(marshall(capped2(), capped2()))
    bases.append(maxmin(capped2(), psi))

    worst = 0.0
    count = 0
    for base in bases:
        for c in (base, survival(base), reflect(base, "sigma1"), reflect(base, "sigma2")):
            rep = check_copula_axioms(c, grid=101, rectangles=10_000, tol=1e-12, seed=SEED)
            count += 1
            worst = max(worst, max(r.magnitude for r in rep.results))
            assert rep.passed, f"{c.describe()}:\n{rep.render_text()}"
    elapsed = time.perf_counter() - start
    report(
        "1 axiom-suite",
        worst <= 1e-12 and elapsed < 5.0,
        f"{count} copulas, worst violation {worst:.2e}, {elapsed:.2f}s < 5s",
    )


# ---------------------------------------------------------------------------
# 2. countermonotonic max model Monte Carlo against the analytic power family
# ---------------------------------------------------------------------------


def test_criterion_2_countermonotonic_max_monte_carlo():
    cases = [
        (
            "rates (1,1,1,1)",
            rmm_model(Exponential(1.0), Exponential(1.0), Exponential(1.0), Exponential(1.0)),
            exprmm_ab(0.5, 0.5),
        ),
        ("exponents (0.1,0.1)", exprmm_ab_model(0.1, 0.1), exprmm_ab(0.1, 0.1)),
        ("exponents (0.4,0.9)", exprmm_ab_model(0.4, 0.9), exprmm_ab(0.4, 0.9)),
    ]
    details = []
    ok = True
    for label, model, analytic in cases:
        start = time.perf_counter()
        emp = empirical_copula(sample_model(model, 200_000, seed=SEED))
        dist = sup_distance(emp, analytic, 21)
        elapsed = time.perf_counter() - start
        ok = ok and dist <= 0.01 and elapsed < 10.0
        details.append(f"{label}: sup {dist:.4f}, {elapsed:.1f}s")
    report("2 countermonotonic-max-MC", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 3. comonotonic max model Monte Carlo against its induced family
# ---------------------------------------------------------------------------


def test_criterion_3_comonotonic_max_monte_carlo():
    model = marshall_model(
        Exponential(1.0), Exponential(1.0), Exponential(1.0), Exponential(1.0)
    )
    start = time.perf_counter()
    analytic = induced_copula(model)
    emp = empirical_copula(sample_model(model, 200_000, seed=SEED))
    dist = sup_distance(emp, analytic, 21)
    elapsed = time.perf_counter() - start
    report(
        "3 comonotonic-max-MC",
        dist <= 0.01 and elapsed < 10.0,
        f"sup {dist:.4f} <= 0.01, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 4. countermonotonic min model: MC against survival(RMM) and the joint law
# ---------------------------------------------------------------------------


def test_criterion_4_countermonotonic_min_monte_carlo():
    model = exponential_smm_model(1.0, 1.0, 1.0, 1.0)
    analytic = survival(exprmm_ab(0.5, 0.5))
    start = time.perf_counter()
    pairs = sample_model(model, 200_000, seed=SEED)
    emp = empirical_copula(pairs)
    dist = sup_distance(emp, analytic, 21)

    f_u, f_v = margins(model)
    levels = (0.25, 0.5, 0.75)
    worst_joint = 0.0
    for lu in levels:
        for lv in levels:
            x = float(f_u.quantile(lu))
            y = float(f_v.quantile(lv))
            mc = float(np.mean((pairs.pairs[:, 0] <= x) & (pairs.pairs[:, 1] <= y)))
            worst_joint = max(worst_joint, abs(mc - joint_cdf(model, x, y)))
    elapsed = time.perf_counter() - start
    report(
        "4 countermonotonic-min-MC",
        dist <= 0.01 and worst_joint <= 3e-3 and elapsed < 10.0,
        f"sup {dist:.4f} <= 0.01, joint dev {worst_joint:.4f} <= 3e-3, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 5. EFGM construction closed forms
# ---------------------------------------------------------------------------


def simpson(f, a, b, n=2000):
    xs = np.linspace(a, b, n + 1)
    ys = np.array([f(float(x)) for x in xs])
    h = (b - a) / n
    return h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-1:2].sum())


def test_criterion_5_efgm_closed_forms():
    worst_hat = 0.0
    for a in (0.5, 0.95, 1.0):
        gen = generator_from_shocks(U, EfgmMargin(a), resolution=1 << 16)
        ts = np.linspace(0.01, 0.99, 99)
        worst_hat = max(
            worst_hat, float(np.max(np.abs(gen.value_array(ts) - ((a + 1.0) * ts - a * ts * ts))))
        )

    worst_factor = 0.0
    for a in (0.5, 0.95, 1.0):
        xs = np.linspace(-0.25, 1.25, 301)
        prod = U.cdf_array(xs) * EfgmShock(a).cdf_array(xs)
        worst_factor = max(worst_factor, float(np.max(np.abs(prod - EfgmMargin(a).cdf_array(xs)))))

    worst_integral = 0.0
    for a in (0.5, 0.95, 1.0):
        margin = EfgmMargin(a)
        # independent quadrature of the density formula on the closed interval
        density = lambda t, a=a: 1.0 / np.sqrt((a + 1.0) ** 2 - 4.0 * a * t)
        for x in np.linspace(0.1, 0.9, 9):
            integral = simpson(density, 0.0, float(x))
            worst_integral = max(worst_integral, abs(integral - margin.cdf(float(x))))

    report(
        "5 efgm-closed-forms",
        worst_hat <= 1e-9 and worst_factor <= 1e-12 and worst_integral <= 1e-6,
        f"hat dev {worst_hat:.2e} <= 1e-9, factorization dev {worst_factor:.2e} <= 1e-12, "
        f"density integral dev {worst_integral:.2e} <= 1e-6",
    )


# ---------------------------------------------------------------------------
# 6. exponential-shock generator and the two-parameter validity boundary
# ---------------------------------------------------------------------------


def test_criterion_6_exponential_generator_and_boundary():
    worst = 0.0
    us = np.linspace(0.01, 0.99, 99)

    margin = Product(Exponential(1.0), Exponential(1.0))
    f = hat_to_f(generator_from_shocks(Exponential(1.0), margin))
    worst = max(worst, float(np.max(np.abs(f.value_array(us) - (us**0.5 - us)))))

    lam, mu = 1.0, 3.0
    margin = Product(negated(Exponential(lam)), negated(Exponential(mu)))
    f = hat_to_f(generator_from_shocks(negated(Exponential(lam)), margin))
    alpha = lam / (lam + mu)
    worst = max(worst, float(np.max(np.abs(f.value_array(us) - (us**alpha - us)))))

    boundary_ok = True
    for alpha in (0.25, 0.5, 0.75):
        on = closed_form("twoparam", GeneratorClass.RMM, alpha=alpha, beta=1.0 - alpha)
        below = closed_form(
            "twoparam", GeneratorClass.RMM, alpha=alpha, beta=1.0 - alpha - 0.01
        )
        boundary_ok = boundary_ok and validate(on).passed and not validate(below).passed

    report(
        "6 exponential-generators",
        worst <= 1e-6 and boundary_ok,
        f"generator dev {worst:.2e} <= 1e-6, validity boundary confirmed: {boundary_ok}",
    )


# ---------------------------------------------------------------------------
# 7. transform algebra as grid identities
# ---------------------------------------------------------------------------


def test_criterion_7_transform_algebra():
    worst = 0.0
    base_rmm = exprmm_ab(0.4, 0.9)
    base_maxmin = maxmin(capped2(), square_psi())

    for c in (efgm(0.95), base_rmm, base_maxmin):
        worst = max(worst, grid_identity_gap(survival(survival(c)), c, 101))
        for which in ("sigma1", "sigma2"):
            worst = max(worst, grid_identity_gap(reflect(reflect(c, which), which), c, 101))

    direct_smm = smm(
        ReflectedGenerator(base_rmm.f, GeneratorClass.SMM),
        ReflectedGenerator(base_rmm.g, GeneratorClass.SMM),
    )
    worst = max(worst, grid_identity_gap(direct_smm, survival(base_rmm), 101))

    sigma2_rewrite = normalize(reflect(base_maxmin, "sigma2"))
    worst = max(worst, grid_identity_gap(reflect(base_maxmin, "sigma2"), sigma2_rewrite, 101))
    sigma1_rewrite = normalize(reflect(base_maxmin, "sigma1"))
    worst = max(worst, grid_identity_gap(reflect(base_maxmin, "sigma1"), sigma1_rewrite, 101))

    report("7 transform-algebra", worst <= 1e-12, f"worst grid deviation {worst:.2e} <= 1e-12")


# ---------------------------------------------------------------------------
# 8. reconstruction round trips
# ---------------------------------------------------------------------------


def test_criterion_8_reconstruction_round_trips():
    exp_margin = Product(Exponential(1.0), Exponential(1.0))
    cases = [
        ("efgm(0.5)+uniform", efgm(0.5), U, U),
        ("efgm(1.0)+uniform", efgm(1.0), U, U),
        ("efgm(0.5)+native", efgm(0.5), EfgmMargin(0.5), EfgmMargin(0.5)),
        ("efgm(1.0)+native", efgm(1.0), EfgmMargin(1.0), EfgmMargin(1.0)),
        ("exprmm(1,1,1,1)+uniform", exprmm_ab(0.5, 0.5), U, U),
        ("exprmm(1,1,1,1)+native", exprmm_ab(0.5, 0.5), exp_margin, exp_margin),
    ]
    details = []
    ok = True
    for label, c, fu, fv in cases:
        rep = check_reconstruction(c, fu, fv, tol=1e-10)
        model = reconstruct(c, fu, fv, tol=1e-10)
        again = induced_copula(model, resolution=1 << 14)
        dist = sup_distance(again, c, 11)
        ok = ok and rep.passed and dist <= 1e-6
        details.append(f"{label}: postconds {'ok' if rep.passed else 'FAIL'}, roundtrip {dist:.1e}")

    # tabulated-generator route: reconstruct the copula induced by the model itself
    model0 = rmm_model(Exponential(1.0), Exponential(1.0), Exponential(1.0), Exponential(1.0))
    c_tab = induced_copula(model0, resolution=1 << 15)
    rep = check_reconstruction(c_tab, exp_margin, exp_margin, tol=1e-6)
    ok = ok and rep.passed
    details.append(f"tabulated: postconds {'ok' if rep.passed else 'FAIL'} at 1e-6")

    report("8 reconstruction-roundtrip", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 9. determinism of seeded sampling through the CLI
# ---------------------------------------------------------------------------


def test_criterion_9_sampling_determinism(tmp_path):
    from shockcop.cli import main

    model = "smm-min:fx=exp:rate=1.0,fy=exp:rate=1.0,g1=exp:rate=1.0,g2=exp:rate=1.0"
    p1, p2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
    for p in (p1, p2):
        assert main(["sample", model, "-n", "5000", "--seed", "17", "--out", str(p)]) == 0
    identical = p1.read_bytes() == p2.read_bytes()
    report("9 determinism", identical, "two seeded runs produced bit-identical CSVs")
