"""Stochastic shock mechanisms, their joint laws, induced copulas, and reconstructions.

One mechanism covers the four families.  Each coordinate takes the max or
the min of its idiosyncratic shock and a systemic one, U = max-or-min(X, Z1)
and V = max-or-min(Y, Z2), and the copula K of the systemic pair (Z1, Z2) is
a Frechet bound: M (comonotone) or W (countermonotone).  A shared shock is M
with one law object for both shocks, g1 is g2.

========  ==========================  ========================================
U, V      K of the systemic pair      induced family
========  ==========================  ========================================
max, max  ``FrechetM``                Marshall: min{u psi(v), v phi(u)}
max, max  ``FrechetW``                RMM: max{0, uv - f(u)g(v)}
min, min  ``FrechetW``                SMM: max{u+v-1, uv - h(u)k(v)}
max, min  ``FrechetM``, g1 is g2      maxmin: min{u, phi(u)(v-psi(v)) + u psi(v)}
========  ==========================  ========================================

``MODEL_PREFIXES`` holds these four (combiner, type of K) pairs; no other
pair is legal.

``induced_copula`` realizes the forward direction by composing each component
CDF with the generalized inverse of its margin.  ``audited_reconstruction`` is
the one reverse direction: it inverts a copula-plus-margins pair into explicit
shock CDFs and returns the model, None if a hypothesis failed, with one report.
That report is the single row ``hypothesis:<assumption>`` or the audit's rows,
in order: ``margin-u-factorization``, ``margin-v-factorization``,
``f-x-nondecreasing``, ``f-y-nondecreasing``, ``g1-nondecreasing``,
``g2-nondecreasing``, ``shock-margin-envelope`` and ``joint-law``; each audit
row comes from ``generators._worst``, the rule of every check in the package.
``reconstruct`` raises from the report's first failed row, and
``checks.check_reconstruction`` returns the report; every reconstruction's
tolerance defaults to ``RECONSTRUCTION_TOL``.
"""

from __future__ import annotations

import enum
import math
from typing import Callable, NamedTuple

import numpy as np

from . import copulas as cop
from .distributions import (
    DistributionFunction,
    Exponential,
    MappedCdf,
    PointwiseCdf,
    Product,
    SurvivalProduct,
    negated,
)
from .errors import IllegalModelError, ReconstructionError
from .generators import (
    DEFAULT_RESOLUTION,
    CheckResult,
    CheckSuiteReport,
    Generator,
    GeneratorClass,
    derived_value,
    generator_from_shocks,
    hat_of,
    hat_to_f,
    identity_minus,
    smm_to_rmm,
    _worst,
)


class Combiner(enum.Enum):
    MAX_MAX = "max-max"
    MIN_MIN = "min-min"
    MAX_MIN = "max-min"

    @property
    def maxes(self) -> tuple[bool, bool]:
        """Per coordinate, U's first, whether it takes the max (else the min) of its two shocks."""
        return tuple(op == "max" for op in self.value.split("-"))


# the four families: (combiner, type of K) -> descriptor prefix
MODEL_PREFIXES = {
    (Combiner.MAX_MAX, cop.FrechetM): "marshall-max",
    (Combiner.MAX_MAX, cop.FrechetW): "rmm-max",
    (Combiner.MIN_MIN, cop.FrechetW): "smm-min",
    (Combiner.MAX_MIN, cop.FrechetM): "maxmin-shared",
}


class ShockModel:
    """U = max-or-min(X, Z1), V = max-or-min(Y, Z2): X ~ f_x, Y ~ f_y, Z1 ~ g1, Z2 ~ g2,
    and (Z1, Z2) has the copula ``coupling``, a ``FrechetM`` or a ``FrechetW``."""

    __slots__ = ("f_x", "f_y", "g1", "g2", "combiner", "coupling")

    def __init__(self, f_x, f_y, g1, g2, combiner: Combiner, coupling: cop.Copula):
        if (combiner, type(coupling)) not in MODEL_PREFIXES:
            raise IllegalModelError(
                f"no supported family for combiner {combiner.value} with {coupling.describe()} shocks"
            )
        if combiner is Combiner.MAX_MIN and g1 is not g2:
            raise IllegalModelError("a max-min model reads one shared shock: g1 must be g2")
        self.f_x, self.f_y, self.g1, self.g2 = f_x, f_y, g1, g2
        self.combiner, self.coupling = combiner, coupling

    def __repr__(self) -> str:
        return f"<ShockModel {self.describe()}>"

    @property
    def family(self) -> str:
        """The descriptor prefix of the model's family."""
        return MODEL_PREFIXES[(self.combiner, type(self.coupling))]

    def describe(self) -> str:
        if self.combiner is Combiner.MAX_MIN:
            shocks = f"g={self.g1.describe()}"
        else:
            shocks = f"g1={self.g1.describe()},g2={self.g2.describe()}"
        return f"{self.family}:fx={self.f_x.describe()},fy={self.f_y.describe()},{shocks}"


def marshall_model(f_x, f_y, g1, g2) -> ShockModel:
    return ShockModel(f_x, f_y, g1, g2, Combiner.MAX_MAX, cop.FrechetM())


def rmm_model(f_x, f_y, g1, g2) -> ShockModel:
    return ShockModel(f_x, f_y, g1, g2, Combiner.MAX_MAX, cop.FrechetW())


def smm_model(f_x, f_y, g1, g2) -> ShockModel:
    return ShockModel(f_x, f_y, g1, g2, Combiner.MIN_MIN, cop.FrechetW())


def maxmin_model(f_x, f_y, g) -> ShockModel:
    return ShockModel(f_x, f_y, g, g, Combiner.MAX_MIN, cop.FrechetM())


def exponential_marshall_model(l1: float, l2: float, m1: float, m2: float) -> ShockModel:
    """Comonotonic max/max model with exponential shocks."""
    return marshall_model(Exponential(l1), Exponential(l2), Exponential(m1), Exponential(m2))


def exponential_rmm_model(l1: float, l2: float, m1: float, m2: float) -> ShockModel:
    """Countermonotonic max/max model inducing the power-generator RMM family exactly.

    Negated exponential shocks are used because their CDFs are powers of each
    other, which makes the composed generator u ** (l/(l+m)) exact for every
    rate pair.  (Positive exponentials achieve this only at equal rates.)
    """
    return rmm_model(*(negated(Exponential(rate)) for rate in (l1, l2, m1, m2)))


def exponential_smm_model(l1: float, l2: float, m1: float, m2: float) -> ShockModel:
    """Countermonotonic min/min model with exponential lifetimes."""
    return smm_model(Exponential(l1), Exponential(l2), Exponential(m1), Exponential(m2))


def exprmm_ab_model(alpha: float, beta: float) -> ShockModel:
    """The countermonotonic max/max model matching exprmm_ab(alpha, beta)."""
    if not (0.0 < alpha < 1.0 and 0.0 < beta < 1.0):
        raise ValueError("model exponents must lie strictly inside (0,1)")
    return exponential_rmm_model(alpha, beta, 1.0 - alpha, 1.0 - beta)


# ---------------------------------------------------------------------------
# forward direction
# ---------------------------------------------------------------------------


def _coordinates(m: ShockModel):
    """Per coordinate, U's first: whether it takes the max, its own law and its shock's law."""
    return zip(m.combiner.maxes, (m.f_x, m.f_y), (m.g1, m.g2))


def margins(m: ShockModel) -> tuple[DistributionFunction, DistributionFunction]:
    """Marginal CDFs of (U, V) under the model."""
    return tuple((Product if is_max else SurvivalProduct)(f, g) for is_max, f, g in _coordinates(m))


def _given_shock(is_max: bool, f):
    """(a, b) with P[max-or-min(X, Z) <= t | Z] = a + b 1{Z <= t}, for f = F_X(t)."""
    return (0.0, f) if is_max else (f, 1.0 - f)


def joint_cdf(m: ShockModel, x, y):
    """P[U <= x, V <= y] in closed form, broadcast over array arguments.

    With ``_given_shock``'s (a, b) for each coordinate, H = a_u a_v + a_u b_v
    G2 + b_u a_v G1 + b_u b_v K(G1, G2), where K is the shocks' copula, min for
    M and max(0, G1 + G2 - 1) for W: a sum of nonnegative terms.  Scalars,
    +-inf included, give a float; every CDF reads 0 at -inf and 1 at +inf, so
    H(x, +inf) = F_U(x) and H(+inf, y) = F_V(y).
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    u_max, v_max = m.combiner.maxes
    a_u, b_u = _given_shock(u_max, m.f_x.cdf_array(x))
    a_v, b_v = _given_shock(v_max, m.f_y.cdf_array(y))
    g1, g2 = m.g1.cdf_array(x), m.g2.cdf_array(y)
    out = a_u * a_v + a_u * b_v * g2 + b_u * a_v * g1 + b_u * b_v * m.coupling._eval(g1, g2)
    return out if np.ndim(out) else float(out)


def induced_copula(m: ShockModel, resolution: int = DEFAULT_RESOLUTION, points=((), ())) -> cop.Copula:
    """The copula of (U, V), built from tabulated generators and validated.

    Each coordinate gives the generator F_X(F_U^{-1}) (F_Y(F_V^{-1}) for V).
    A max puts the margin below its own law and gives a Marshall-class
    generator; a min puts it above and gives a psi-class one.  ``points``, one array
    per coordinate, become knots, so the copula reads F_U(x), F_V(y) uninterpolated.
    """
    side_u, side_v = (
        generator_from_shocks(
            f, margin, resolution=resolution, points=at,
            declared_class=GeneratorClass.MARSHALL if is_max else GeneratorClass.MAXMIN_PSI,
        )
        for (is_max, f, _), margin, at in zip(_coordinates(m), margins(m), points)
    )
    if m.combiner is Combiner.MAX_MIN:
        return cop.maxmin(side_u, side_v)
    if m.combiner is Combiner.MIN_MIN:
        # the max model of the negated pair has hat generators 1 - A(1-u) with
        # A the min side; its survival copula is the SMM with h = id - A directly
        return cop.smm(
            identity_minus(side_u, GeneratorClass.SMM), identity_minus(side_v, GeneratorClass.SMM)
        )
    if m.family == "rmm-max":
        return cop.rmm(
            hat_to_f(side_u, GeneratorClass.RMM), hat_to_f(side_v, GeneratorClass.RMM)
        )
    return cop.marshall(side_u, side_v)


# ---------------------------------------------------------------------------
# reconstruction support types
# ---------------------------------------------------------------------------


class ChiMap(NamedTuple):
    """Increasing alignment map between the two margins' supports; ``forward``
    and ``inverse`` take and return float arrays."""

    forward: Callable[[np.ndarray], np.ndarray]
    inverse: Callable[[np.ndarray], np.ndarray]


IDENTITY_CHI = ChiMap(np.asarray, np.asarray)  # returns a float array itself


def _quantile_where(d: DistributionFunction, ts, on) -> np.ndarray:
    """d's quantiles of the levels ts where ``on``, NaN elsewhere: the last step of an
    inverse through parts, which keeps levels that round to 0, which no quantile takes,
    and levels the parts do not answer off ``on``."""
    out = np.full(ts.shape, np.nan)
    if on.any():
        out[on] = d._quantile_array(ts[on])
    return out


class ComposedCdf(PointwiseCdf):
    """gen(base.cdf(x)) for a continuous nondecreasing generator with gen(0)=0, gen(1)=1.

    It inverts through its parts, Q(w) = Q_base(gen^-1(w)): gen(G(x)) >= w exactly where
    G(x) >= gen^-1(w), as gen is continuous.  The rounding of gen^-1 is guarded as in
    ``DistributionFunction._parts_quantile_array``; a generator without an inverse of its
    own leaves every level to the generic inverse."""

    def __init__(self, gen: Generator, base: DistributionFunction):
        super().__init__(base)
        self.gen = gen

    def _values(self, f):
        return self.gen.value_array(f)

    def _quantile_array(self, us):
        def inverse(w):
            ts = self.gen._inverse_array(w)
            return _quantile_where(self.parts[0], ts, ts > 0.0)

        return self._parts_quantile_array(us, inverse)

    def describe(self) -> str:
        return f"composed({self.gen.describe()},{self.parts[0].describe()})"


class _ShockCdf(PointwiseCdf):
    """A reconstructed shock read from margin_u and margin_v: the u branch t/h(t) of
    t = margin_u(x), for the generator ``ratio``, and another branch where margin_u
    vanishes.  At margin_u's declared start, where margin_u still reads 0, F is the u
    branch's right limit ``limit``, and the start is a jump point.  In floats the margin
    can read 0, or a subnormal in which the branch rounds wildly, a little beyond its
    start; F is the limit there too, unless the limit is 0 (a divergent star ratio),
    where the branch's own small values stay.

    It inverts through its parts: a level inside an atom, the start's included, is its
    jump point; a level above ``limit`` is margin_u's quantile of the inverse of
    t -> t/h(t) (``Generator._inverse_array``), as F >= w > limit exactly where
    margin_u >= that inverse; a level at or below F(start-), on the other branch, or
    above ``limit`` for a generator without an inverse of its own, takes the generic
    inverse."""

    def __init__(self, margin_u, margin_v, limit: float, ratio: Generator):
        super().__init__(margin_u, margin_v)
        self.margin_u = margin_u
        self.margin_v = margin_v
        self.limit = limit
        self.ratio = ratio
        lo = margin_u.support()[0]
        self.start = lo if math.isfinite(lo) else None  # no start: the branches alone
        # margin_u's values that read as its start: 0, and the subnormals under a positive limit
        self._floor = np.nextafter(np.finfo(float).tiny, 0.0) if limit > 0.0 else 0.0

    def cdf_array(self, xs, left=False):
        xs = np.asarray(xs, dtype=float)
        fu = self.margin_u.cdf_array(xs, left)
        out = self._values(fu, self.margin_v.cdf_array(xs, left))
        if self.start is not None:
            # F(start-) is the other branch's; F is the limit from the start on
            out[((xs > self.start) if left else (xs >= self.start)) & (fu <= self._floor)] = self.limit
        return out

    def _quantile_array(self, us):
        return self._parts_quantile_array(us, self._u_branch_quantile)

    def _u_branch_quantile(self, us):
        """margin_u's quantile of the ratio inverse at levels above ``limit``, NaN below and
        where the generator has no inverse."""
        ts = self.ratio._inverse_array(us, ratio=True)
        return _quantile_where(self.margin_u, ts, (us > self.limit) & (ts > 0.0))

    def jump_points(self):
        jumps = super().jump_points()
        return jumps if self.start is None else tuple(sorted({*jumps, self.start}))


class RmmShockCdf(_ShockCdf):
    """Reconstructed systemic-shock CDF of the countermonotonic max/max model.

    On {margin_u > 0} it is margin_u / hat_f(margin_u), whose right limit at
    margin_u's start is 1/(1 + f*(0+)) with f* the star ratio f(t)/t; where
    margin_u vanishes it continues as s/(1+s) with s the star value of the
    opposite generator at 1 - margin_v.  Where margin_v is 1, s is the star's
    one-sided limit at 0, and a divergent limit, +inf, gives 1.
    """

    def __init__(self, f: Generator, g: Generator, margin_u, margin_v, side: str):
        if side == "v":
            margin_u, margin_v = margin_v, margin_u
            f, g = g, f
        limit = 1.0 / (1.0 + derived_value(f, "star", 0.0))
        super().__init__(margin_u, margin_v, limit, hat_of(f))
        self.f = f
        self.g = g
        self.side = side

    def _values(self, fu, fv):
        out = np.empty_like(fu)
        pos = fu > 0.0
        fu_pos = fu[pos]
        out[pos] = fu_pos / (self.f.value_array(fu_pos) + fu_pos)
        # star ratio g(t)/t of t = 1 - fv; at t = 0 its one-sided limit, +inf giving 1
        t = 1.0 - fv[~pos]
        at_zero = t == 0.0
        s = self.g.value_array(t) / np.where(at_zero, 1.0, t)
        vals = s / (1.0 + s)
        if at_zero.any():
            s0 = derived_value(self.g, "star", 0.0)
            vals[at_zero] = s0 / (1.0 + s0) if math.isfinite(s0) else 1.0
        out[~pos] = vals
        return out

    def describe(self) -> str:
        return f"rmm-shock-{self.side}"


class MarshallShockCdf(_ShockCdf):
    """Reconstructed second systemic shock of the comonotonic max/max model.

    It is margin_u / phi(margin_u), with margin_u the U margin read on V's axis
    (through chi), whose right limit at margin_u's start is 1/phi*(0+); where
    margin_u vanishes it is margin_v / psi(margin_v), and 0 where both vanish.
    """

    def __init__(self, phi: Generator, psi: Generator, margin_u, margin_v):
        star0 = derived_value(phi, "star", 0.0)  # 0 only where phi vanishes, which _values refuses
        super().__init__(margin_u, margin_v, 1.0 / star0 if star0 else math.inf, phi)
        self.phi = phi
        self.psi = psi

    def _values(self, fu, fv):
        on_v = fu == 0.0
        num = np.where(on_v, fv, fu)
        den = np.where(on_v, self.psi.value_array(fv), self.phi.value_array(fu))
        vanishes = (den == 0.0) & (num != 0.0)
        if vanishes.any():
            i = int(np.argmax(vanishes.ravel()))
            name = "psi" if on_v.ravel()[i] else "phi"
            raise ReconstructionError(
                "generator-vanishes",
                f"{name} vanishes at a point with margin value {float(num.ravel()[i])}",
            )
        return np.where(num == 0.0, 0.0, num / np.where(den == 0.0, 1.0, den))

    def describe(self) -> str:
        return "marshall-shock"


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

RECONSTRUCTION_TOL = 1e-10  # each reconstruction's default ``tol``: it decides verdicts, not models
RECONSTRUCTION_GRID = 1001  # each reconstruction's default support-grid size


def support_grid(dists, n: int = RECONSTRUCTION_GRID) -> np.ndarray:
    """Points spanning the union of effective supports (quantile 1e-6 .. 1-1e-6)."""
    levels = np.linspace(1e-6, 1.0 - 1e-6, n)
    pieces = [d.quantile_array(levels) for d in dists]
    for d in dists:
        jumps = np.asarray(d.jump_points(), dtype=float)
        if jumps.size:
            pieces.append(jumps)
    return np.unique(np.concatenate(pieces))


def _subsample(xs: np.ndarray, k: int) -> np.ndarray:
    if xs.size <= k:
        return xs
    idx = np.linspace(0, xs.size - 1, k).round().astype(int)
    return xs[np.unique(idx)]


# ---------------------------------------------------------------------------
# the reconstruction audit
# ---------------------------------------------------------------------------

_SHAPE_TOL = 1e-12  # slack of the monotonicity and envelope checks; ``tol`` does not loosen it


def joint_law_check(check_id: str, m: ShockModel, join, xs, ys, tol: float) -> CheckResult:
    """|joint_cdf(m) - join.cdf| on the xs-by-ys lattice in one broadcast evaluation,
    witnessed at the first maximum in row-major (x outer, y inner) order."""
    xs, ys = xs[:, None], ys[None, :]
    return _worst(check_id, np.abs(joint_cdf(m, xs, ys) - join.cdf(xs, ys)), xs, ys, tol)


def audit_reconstruction(
    model: ShockModel, c: cop.Copula, margin_u, margin_v, xs: np.ndarray, tol: float
) -> CheckSuiteReport:
    """Audit a model reconstructed from ``c`` and the margins on the grid ``xs``.

    In order: the model's margins equal the given ones (within ``tol``); each
    component CDF is nondecreasing; F_U lies below both f_x and g1 if U takes
    the max, above both if the min; the joint CDF equals the Sklar join of
    ``c`` on a 21-point subgrid (within ``tol``).  The check ids are in the
    module docstring.
    """
    got_u, got_v = margins(model)
    fu, fv, zeros = margin_u.cdf_array(xs), margin_v.cdf_array(xs), np.zeros_like(xs)
    results = [
        _worst("margin-u-factorization", np.abs(got_u.cdf_array(xs) - fu), xs, zeros, tol),
        _worst("margin-v-factorization", np.abs(got_v.cdf_array(xs) - fv), xs, zeros, tol),
    ]

    components = [("f-x", model.f_x), ("f-y", model.f_y), ("g1", model.g1), ("g2", model.g2)]
    values = {label: dist.cdf_array(xs) for label, dist in components}
    for label, vals in values.items():
        # v[i] - v[i+1], not -(v[i+1] - v[i]): a flat step gives +0.0, never -0.0
        drop = np.maximum(0.0, vals - np.append(vals[1:], vals[-1]))
        results.append(_worst(f"{label}-nondecreasing", drop, xs, zeros, _SHAPE_TOL))

    fx, g1, below = values["f-x"], values["g1"], model.combiner.maxes[0]
    envelope = np.maximum(0.0, fu - np.minimum(fx, g1) if below else np.maximum(fx, g1) - fu)
    results.append(_worst("shock-margin-envelope", envelope, xs, zeros, _SHAPE_TOL))

    sub = _subsample(xs, 21)
    join = cop.sklar_join(c, margin_u, margin_v)
    results.append(joint_law_check("joint-law", model, join, sub, sub, tol))
    return CheckSuiteReport(f"reconstruction[{c.describe()}]", tuple(results))


# ---------------------------------------------------------------------------
# reconstructions
# ---------------------------------------------------------------------------


def audited_reconstruction(
    c: cop.Copula,
    margin_u: DistributionFunction,
    margin_v: DistributionFunction,
    grid_size: int = RECONSTRUCTION_GRID,
    tol: float = RECONSTRUCTION_TOL,
    chi: ChiMap | None = None,
) -> tuple[ShockModel | None, CheckSuiteReport]:
    """The reconstruction: the model of ``c`` on the margins, or None, and its report.

    ``c`` is normalized first.  Its family gives the model: Marshall a
    comonotonic max/max one (its hypotheses: the star ratios align through
    ``chi``, a left endpoint, a star divergence), RMM a countermonotonic
    max/max one and SMM a countermonotonic min/min one (both need a common
    interior point of the margins); its report is ``audit_reconstruction``'s.
    A ReconstructionError on the way (another family, a failed hypothesis, a
    Marshall generator vanishing in the audit) gives no model and the single
    row ``hypothesis:<assumption>``: magnitude NaN, the error text as detail
    and, for an error at a point x, the witness (x, 0.0).
    """
    if grid_size < 1:
        raise ValueError(f"grid_size must be at least 1, got {grid_size}")
    c = cop.normalize(c)
    try:
        if not isinstance(c, (cop.MarshallCopula, cop.RmmCopula, cop.SmmCopula)):
            raise ReconstructionError("family", f"no reconstruction is defined for {c.describe()}")
        xs = support_grid([margin_u, margin_v], grid_size)
        if isinstance(c, cop.MarshallCopula):
            model = _marshall_shocks(c, margin_u, margin_v, xs, chi or IDENTITY_CHI, tol)
        else:
            _check_interior_point(margin_u, margin_v, xs)
            build = _rmm_shocks if isinstance(c, cop.RmmCopula) else _smm_shocks
            model = build(c, margin_u, margin_v)
        return model, audit_reconstruction(model, c, margin_u, margin_v, xs, tol)
    except ReconstructionError as exc:
        witness = None if exc.witness is None else (float(exc.witness), 0.0)
        failed = CheckResult(f"hypothesis:{exc.assumption}", False, float("nan"), witness, str(exc))
        return None, CheckSuiteReport(f"reconstruction[{c.describe()}]", (failed,))


def _marshall_shocks(c, margin_u, margin_v, xs, chi, tol) -> ShockModel:
    phi, psi = c.phi, c.psi

    # alignment of the star ratios wherever both margins, read on V's axis, are positive
    u_on_v = MappedCdf(margin_u, chi.inverse, chi.forward, "chi-shifted")
    fu, fv = u_on_v.cdf_array(xs), margin_v.cdf_array(xs)
    both = (fu > 0.0) & (fv > 0.0)
    fu, fv, at = fu[both], fv[both], xs[both]
    left, right = phi.value_array(fu) / fu, psi.value_array(fv) / fv
    bad = np.abs(left - right) > tol * np.maximum(1.0, np.maximum(np.abs(left), np.abs(right)))
    if bad.any():
        i = int(np.argmax(bad))
        raise ReconstructionError(
            "alignment",
            f"phi-star({fu[i]:.6g})={left[i]:.6g} != psi-star({fv[i]:.6g})={right[i]:.6g}",
            witness=float(at[i]),
        )

    _check_left_endpoint("margin-u", phi, margin_u)
    _check_left_endpoint("margin-v", psi, margin_v)
    _check_star_divergence("margin-u", phi, margin_u, xs)
    _check_star_divergence("margin-v", psi, margin_v, xs)

    g2 = MarshallShockCdf(phi, psi, u_on_v, margin_v)
    g1 = MappedCdf(g2, chi.forward, chi.inverse, "chi-shifted")  # g2 read on U's axis
    return marshall_model(ComposedCdf(phi, margin_u), ComposedCdf(psi, margin_v), g1, g2)


def _check_left_endpoint(label, gen, margin):
    """Either the generator is continuous at 0 (its declared g(0+) is g(0)) or the margin
    has an atom at a finite left support endpoint: a jump J with F(J-) = 0 < F(J).
    ``jump_points`` never under-reports, so reading its points decides this exactly."""
    if gen.ends()[0] == gen.value(0.0):
        return
    jumps = np.asarray(margin.jump_points(), dtype=float)
    if np.any((margin.cdf_left_array(jumps) == 0.0) & (margin.cdf_array(jumps) > 0.0)):
        return
    raise ReconstructionError(
        "left-endpoint",
        f"{label}: generator not continuous at 0 and margin has no left-endpoint atom",
    )


def _check_star_divergence(label, gen, margin, xs):
    """Either the star ratio diverges at 0+ or the margin vanishes somewhere: it declares
    a start above -inf.  A failure is witnessed at the grid's first point, where the
    margin is positive."""
    if derived_value(gen, "star", 0.0) == math.inf or margin.support()[0] > -math.inf:
        return
    raise ReconstructionError(
        "star-divergence",
        f"{label}: star ratio bounded at 0+ and margin never vanishes",
        witness=float(xs[0]),
    )


def _rmm_shocks(c, margin_u, margin_v) -> ShockModel:
    f, g = c.f, c.g
    return rmm_model(
        ComposedCdf(hat_of(f), margin_u),
        ComposedCdf(hat_of(g), margin_v),
        RmmShockCdf(f, g, margin_u, margin_v, "u"),
        RmmShockCdf(f, g, margin_u, margin_v, "v"),
    )


def _check_interior_point(margin_u, margin_v, xs):
    fu = margin_u.cdf_array(xs)
    fv = margin_v.cdf_array(xs)
    interior = (fu > 0.0) & (fu < 1.0) & (fv > 0.0) & (fv < 1.0)
    if not interior.any():
        raise ReconstructionError(
            "interior-point",
            "margins admit no common point with both values strictly inside (0,1)",
        )


def _smm_shocks(c, margin_u, margin_v) -> ShockModel:
    """Reduction: the negated pair has the survival copula, which is RMM with
    reflected generators; build that max/max model on the negated line and
    negate every shock back."""
    rmm_copula = cop.RmmCopula(smm_to_rmm(c.h), smm_to_rmm(c.k))
    neg = _rmm_shocks(rmm_copula, negated(margin_u), negated(margin_v))
    return smm_model(*(negated(d) for d in (neg.f_x, neg.f_y, neg.g1, neg.g2)))


def reconstruct(
    c: cop.Copula,
    margin_u: DistributionFunction,
    margin_v: DistributionFunction,
    grid_size: int = RECONSTRUCTION_GRID,
    tol: float = RECONSTRUCTION_TOL,
    chi: ChiMap | None = None,
) -> ShockModel:
    """``audited_reconstruction``'s model; ReconstructionError from its report's first failed row.

    The error names the row's assumption (a hypothesis row's without the
    ``hypothesis:`` prefix, with that hypothesis's text) and carries the row's witness.
    """
    model, report = audited_reconstruction(c, margin_u, margin_v, grid_size, tol, chi)
    failed = next((r for r in report.results if not r.passed), None)
    if failed is None:
        return model
    assumption = failed.check_id.removeprefix("hypothesis:")
    # a hypothesis row carries its error's text; an audit row only its worst gap
    message = failed.detail.removeprefix(f"{assumption}: ") or (
        f"audit worst {failed.magnitude:.3e} at {failed.witness}"
    )
    raise ReconstructionError(assumption, message, witness=failed.witness)
