"""Verification harness: copula axioms, model/copula agreement, reconstruction audits.

Each suite returns a :class:`CheckSuiteReport` whose entries carry the worst
violation magnitude and a witness point, so every failure is reproducible by
direct evaluation.  Analytic grid identities default to 1e-12 with closed-form
generators and 1e-9 with tabulated ones; Monte Carlo bounds default to
4.4/sqrt(n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import copulas as cop
from . import shock_models as sm
from .distributions import DistributionFunction
from .errors import ReconstructionError
from .sampling import empirical_copula, sample_model, sup_distance_at


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    passed: bool
    magnitude: float
    witness: tuple[float, float] | None = None

    def render(self) -> str:
        mark = "pass" if self.passed else "FAIL"
        where = ""
        if self.witness is not None:
            where = f" at ({self.witness[0]:.6g}, {self.witness[1]:.6g})"
        return f"[{mark}] {self.check_id}: worst {self.magnitude:.3e}{where}"


@dataclass(frozen=True)
class CheckSuiteReport:
    suite: str
    results: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def render_text(self) -> str:
        lines = [f"suite {self.suite}: {'pass' if self.passed else 'FAIL'}"]
        lines += ["  " + r.render() for r in self.results]
        return "\n".join(lines)

    def csv_rows(self) -> list[str]:
        rows = ["check_id,status,magnitude,u,v"]
        for r in self.results:
            u, v = r.witness if r.witness is not None else ("", "")
            status = "pass" if r.passed else "fail"
            rows.append(f"{r.check_id},{status},{r.magnitude!r},{u},{v}")
        return rows


def check_copula_axioms(
    c: cop.Copula,
    grid: int = 101,
    rectangles: int = 10_000,
    tol: float = 1e-12,
    seed: int = 0,
) -> CheckSuiteReport:
    """Groundedness, neutral element, random-rectangle positivity, Frechet sandwich."""
    if grid < 3:
        raise ValueError("grid must be at least 3")
    us = np.linspace(0.0, 1.0, grid)
    zeros = np.zeros_like(us)
    ones = np.ones_like(us)
    results = []

    grounded = np.concatenate((np.abs(c.value_array(us, zeros)), np.abs(c.value_array(zeros, us))))
    results.append(
        _worst(
            "grounded",
            grounded,
            np.concatenate((us, zeros)),
            np.concatenate((zeros, us)),
            tol,
        )
    )

    neutral = np.concatenate(
        (np.abs(c.value_array(us, ones) - us), np.abs(c.value_array(ones, us) - us))
    )
    results.append(
        _worst(
            "neutral-element",
            neutral,
            np.concatenate((us, ones)),
            np.concatenate((ones, us)),
            tol,
        )
    )

    rng = np.random.default_rng(seed)
    u_pair = np.sort(rng.random((rectangles, 2)), axis=1)
    v_pair = np.sort(rng.random((rectangles, 2)), axis=1)
    vols = (
        c.value_array(u_pair[:, 1], v_pair[:, 1])
        - c.value_array(u_pair[:, 0], v_pair[:, 1])
        - c.value_array(u_pair[:, 1], v_pair[:, 0])
        + c.value_array(u_pair[:, 0], v_pair[:, 0])
    )
    worst_idx = int(np.argmin(vols))
    neg = max(0.0, -float(vols[worst_idx]))
    results.append(
        CheckResult(
            "rectangle-positivity",
            neg <= tol,
            neg,
            (float(u_pair[worst_idx, 0]), float(v_pair[worst_idx, 0])),
        )
    )

    uu, vv = np.meshgrid(us, us, indexing="ij")
    vals = c.value_array(uu, vv)
    lower = np.maximum(0.0, uu + vv - 1.0) - vals
    upper = vals - np.minimum(uu, vv)
    breach = np.maximum(lower, upper)
    idx = np.unravel_index(np.argmax(breach), breach.shape)
    mag = max(0.0, float(breach[idx]))
    results.append(
        CheckResult("frechet-sandwich", mag <= tol, mag, (float(uu[idx]), float(vv[idx])))
    )

    return CheckSuiteReport(f"axioms[{c.describe()}]", tuple(results))


def _worst(check_id, magnitudes, us, vs, tol) -> CheckResult:
    idx = int(np.argmax(magnitudes))
    mag = float(magnitudes[idx])
    return CheckResult(check_id, mag <= tol, mag, (float(us[idx]), float(vs[idx])))


def check_model_theorem(
    m: sm.ShockModel,
    n: int = 200_000,
    grid: int = 21,
    eps: float | None = None,
    seed: int = 20_240_101,
    tol: float = 1e-9,
    resolution: int = 1 << 15,
) -> CheckSuiteReport:
    """Verify that the model's copula claim holds analytically and by simulation.

    (i) the closed-form joint CDF equals the induced copula joined with the
    model margins on a grid x grid lattice of quantile points; (ii) the
    empirical copula of an n-sample stays within ``eps`` of the induced
    copula in sup distance.
    """
    if eps is None:
        eps = 4.4 / math.sqrt(n)
    induced = sm.induced_copula(m, resolution=resolution)
    margin_u, margin_v = sm.margins(m)
    join = cop.sklar_join(induced, margin_u, margin_v)

    levels = np.linspace(1e-6, 1.0 - 1e-6, grid)
    xs = margin_u.quantile_array(levels)
    ys = margin_v.quantile_array(levels)
    worst = 0.0
    witness = (float(xs[0]), float(ys[0]))
    for x in xs:
        for y in ys:
            diff = abs(sm.joint_cdf(m, float(x), float(y)) - join.cdf(float(x), float(y)))
            if diff > worst:
                worst = diff
                witness = (float(x), float(y))
    results = [CheckResult("joint-vs-join", worst <= tol, worst, witness)]

    emp = empirical_copula(sample_model(m, n, seed))
    dist, at = sup_distance_at(emp, induced, grid)
    results.append(CheckResult("empirical-vs-induced", dist <= eps, dist, at))

    return CheckSuiteReport(f"model-theorem[{m.describe()}]", tuple(results))


def check_reconstruction(
    c: cop.Copula,
    margin_u: DistributionFunction,
    margin_v: DistributionFunction,
    grid_size: int = 1001,
    tol: float = 1e-10,
) -> CheckSuiteReport:
    """Run the family's reconstruction and audit every postcondition it claims."""
    c = cop.normalize(c)
    suite = f"reconstruction[{c.describe()}]"
    try:
        model = sm.reconstruct(c, margin_u, margin_v, grid_size=grid_size, tol=tol)
    except ReconstructionError as exc:
        return CheckSuiteReport(
            suite,
            (
                CheckResult(
                    f"hypothesis:{exc.assumption}",
                    False,
                    float("nan"),
                    exc.witness if isinstance(exc.witness, tuple) else None,
                ),
            ),
        )

    xs = sm.support_grid([margin_u, margin_v], grid_size)
    got_u, got_v = sm.margins(model)
    results = [
        _sup_check("margin-u-factorization", xs, got_u.cdf_array(xs) - margin_u.cdf_array(xs), tol),
        _sup_check("margin-v-factorization", xs, got_v.cdf_array(xs) - margin_v.cdf_array(xs), tol),
    ]

    shocks = (
        [("g1", model.coupling.g1), ("g2", model.coupling.g2)]
        if not isinstance(model.coupling, sm.SharedShock)
        else [("g", model.coupling.g)]
    )
    for label, dist in [("f-x", model.f_x), ("f-y", model.f_y)] + shocks:
        vals = dist.cdf_array(xs)
        drop = np.maximum(0.0, -np.diff(vals))
        idx = int(np.argmax(drop)) if drop.size else 0
        mag = float(drop[idx]) if drop.size else 0.0
        results.append(
            CheckResult(f"{label}-nondecreasing", mag <= 1e-12, mag, (float(xs[idx]), 0.0))
        )

    if model.combiner is sm.Combiner.MAX_MAX:
        fu = margin_u.cdf_array(xs)
        envelope = np.maximum(
            fu - model.f_x.cdf_array(xs), fu - model.coupling.g1.cdf_array(xs)
        )
        results.append(_sup_check("shock-margin-envelope", xs, envelope, 1e-12))
    elif model.combiner is sm.Combiner.MIN_MIN:
        fu = margin_u.cdf_array(xs)
        envelope = np.maximum(
            model.f_x.cdf_array(xs) - fu, model.coupling.g1.cdf_array(xs) - fu
        )
        results.append(_sup_check("shock-margin-envelope", xs, envelope, 1e-12))

    sub = sm._subsample(xs, 21)
    join = cop.sklar_join(c, margin_u, margin_v)
    worst = 0.0
    witness = (float(sub[0]), float(sub[0]))
    for x in sub:
        for y in sub:
            diff = abs(sm.joint_cdf(model, float(x), float(y)) - join.cdf(float(x), float(y)))
            if diff > worst:
                worst = diff
                witness = (float(x), float(y))
    results.append(CheckResult("joint-law", worst <= tol, worst, witness))

    return CheckSuiteReport(suite, tuple(results))


def _sup_check(check_id, xs, signed_gap, tol) -> CheckResult:
    gap = np.abs(signed_gap) if check_id.endswith("factorization") else np.maximum(0.0, signed_gap)
    idx = int(np.argmax(gap))
    mag = float(gap[idx])
    return CheckResult(check_id, mag <= tol, mag, (float(xs[idx]), 0.0))
