"""Verification harness: copula axioms, model/copula agreement, reconstruction audits.

Each suite returns a :class:`CheckSuiteReport` whose entries carry the worst
violation magnitude and a witness point, so every failure is reproducible by
direct evaluation: ``shock_models._worst`` takes the first largest gap in
row-major order, reports a negative one as 0 and fails a NaN as the largest.
Analytic grid identities default to 1e-12 with closed-form generators and
1e-9 with tabulated ones; Monte Carlo bounds default to 4.4/sqrt(n).
"""

from __future__ import annotations

import math

import numpy as np

from . import copulas as cop
from . import shock_models as sm
from .distributions import DistributionFunction
from .errors import ReconstructionError
from .sampling import empirical_copula, sample_model, sup_distance_at
from .shock_models import CheckResult, CheckSuiteReport, _worst


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
    vols = (
        c.value_array(u2, v2)
        - c.value_array(u1, v2)
        - c.value_array(u2, v1)
        + c.value_array(u1, v1)
    )
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
    if eps is None:
        eps = 4.4 / math.sqrt(n)
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
    grid_size: int = 1001,
    tol: float = 1e-10,
) -> CheckSuiteReport:
    """Run the family's reconstruction and return its audit report.

    This is the report ``shock_models.audit_reconstruction`` builds and
    ``shock_models.reconstruct`` raises from: ``margin-u-factorization``,
    ``margin-v-factorization``, ``f-x-nondecreasing``, ``f-y-nondecreasing``,
    ``g1-nondecreasing``, ``g2-nondecreasing``, ``shock-margin-envelope``
    and ``joint-law``.  A failed hypothesis gives the single result
    ``hypothesis:<assumption>`` with the error's witness.
    """
    return reconstruction_audit(c, margin_u, margin_v, grid_size, tol)[1]


def reconstruction_audit(
    c: cop.Copula,
    margin_u: DistributionFunction,
    margin_v: DistributionFunction,
    grid_size: int = 1001,
    tol: float = 1e-10,
) -> tuple[sm.ShockModel | None, CheckSuiteReport]:
    """``check_reconstruction``'s report and the audited model (None if a hypothesis failed)."""
    c = cop.normalize(c)
    try:
        return sm.audited_reconstruction(c, margin_u, margin_v, grid_size, tol)
    except ReconstructionError as exc:
        witness = exc.witness
        if witness is not None and not isinstance(witness, tuple):
            witness = (float(witness), 0.0)  # a point on the line, as in the per-x checks
        failed = CheckResult(f"hypothesis:{exc.assumption}", False, float("nan"), witness)
        return None, CheckSuiteReport(f"reconstruction[{c.describe()}]", (failed,))
