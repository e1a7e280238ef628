"""Verification harness: copula axioms, model/copula agreement, reconstruction audits.

Each suite returns a :class:`CheckSuiteReport` whose entries carry the worst
violation magnitude and a witness point, so every failure is reproducible by
direct evaluation: ``generators._worst``, the rule of every check in the
package (``generators.validate`` included), takes the first largest gap in
row-major order, reports a negative one as 0 and fails a NaN as the largest.
Analytic grid identities default to 1e-12 with closed-form generators and
1e-9 with tabulated ones; Monte Carlo bounds default to ``monte_carlo_eps(n)``.
"""

from __future__ import annotations

import math

import numpy as np

from . import copulas as cop
from . import shock_models as sm
from .distributions import DistributionFunction
from .generators import CheckResult, CheckSuiteReport, _worst
from .sampling import empirical_copula, sample_model, sup_distance_at


def monte_carlo_eps(n: int) -> float:
    """The default bound on the sup distance of an n-sample's empirical copula to its copula."""
    return 4.4 / math.sqrt(n)


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
    if rectangles < 1:
        raise ValueError("rectangles must be at least 1")
    us = np.linspace(0.0, 1.0, grid)
    results = []
    for check_id, edge in (("grounded", 0.0), ("neutral-element", 1.0)):
        # the points (u, edge), then (edge, u), where C must equal min(u, edge)
        side = np.full_like(us, edge)
        eu, ev = np.stack((us, side)), np.stack((side, us))
        gaps = np.abs(c.value_array(eu, ev) - np.minimum(eu, ev))
        results.append(_worst(check_id, gaps, eu, ev, tol))

    rng = np.random.default_rng(seed)
    u_pair = rng.random((rectangles, 2))
    u1, u2 = np.minimum(u_pair[:, 0], u_pair[:, 1]), np.maximum(u_pair[:, 0], u_pair[:, 1])
    v_pair = rng.random((rectangles, 2))
    v1, v2 = np.minimum(v_pair[:, 0], v_pair[:, 1]), np.maximum(v_pair[:, 0], v_pair[:, 1])
    # corners[i, j] = C(u_i, v_j): each coordinate is evaluated once, on its own axis
    corners = c.value_array(np.stack((u1, u2))[:, None], np.stack((v1, v2))[None])
    vols = corners[1, 1] - corners[0, 1] - corners[1, 0] + corners[0, 0]
    results.append(_worst("rectangle-positivity", -vols, u1, v1, tol))

    uu, vv = us[:, None], us[None, :]
    vals = c.value_array(uu, vv)
    lower = np.maximum(0.0, uu + vv - 1.0) - vals
    upper = vals - np.minimum(uu, vv)
    results.append(_worst("frechet-sandwich", np.maximum(lower, upper), uu, vv, tol))

    return CheckSuiteReport(f"axioms[{c.describe()}]", tuple(results))


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
    if n < 1:
        raise ValueError("n must be at least 1")
    if grid < 2:
        raise ValueError("grid must be at least 2")
    if eps is None:
        eps = monte_carlo_eps(n)
    induced = sm.induced_copula(m, resolution=resolution)
    margin_u, margin_v = sm.margins(m)
    join = cop.sklar_join(induced, margin_u, margin_v)

    levels = np.linspace(1e-6, 1.0 - 1e-6, grid)
    xs = margin_u.quantile_array(levels)
    ys = margin_v.quantile_array(levels)
    results = [sm.joint_law_check("joint-vs-join", m, join, xs, ys, tol)]

    emp = empirical_copula(sample_model(m, n, seed))
    dist, at = sup_distance_at(emp, induced, grid)
    results.append(CheckResult("empirical-vs-induced", dist <= eps, dist, at))

    return CheckSuiteReport(f"model-theorem[{m.describe()}]", tuple(results))


def check_reconstruction(
    c: cop.Copula,
    margin_u: DistributionFunction,
    margin_v: DistributionFunction,
    grid_size: int = sm.RECONSTRUCTION_GRID,
    tol: float = sm.RECONSTRUCTION_TOL,
) -> CheckSuiteReport:
    """The report of ``shock_models.audited_reconstruction``, the one reconstruction:
    its audit rows, or the single row ``hypothesis:<assumption>``."""
    return sm.audited_reconstruction(c, margin_u, margin_v, grid_size, tol)[1]
