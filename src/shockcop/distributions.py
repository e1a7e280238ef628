"""Univariate distribution functions with generalized-inverse and left-limit semantics.

Every family evaluates its CDF on the extended line, exposes the left limit
F(x-), and inverts through the generalized inverse

    quantile(u) = inf{x : F(x) >= u},

with quantile(0) = -oo (the infimum over the whole line) and +oo whenever the
level u is never reached.  These conventions are load-bearing: the generator
constructions in :mod:`shockcop.generators` interpolate across gaps in the
image of a CDF and need the exact bracket values F(q-) and F(q) at jump
points.
"""

from __future__ import annotations

import csv
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .errors import MalformedCdfError, TableFormatError
from .extreal import NEG_INF, POS_INF, ExtendedReal, _Infinity

_QUANTILE_MAX_EXPAND = 200
_QUANTILE_REL_TOL = 1e-14
_QUANTILE_ABS_TOL = 1e-14


class DistributionFunction(ABC):
    """A univariate CDF: nondecreasing, right-continuous, limits 0 and 1."""

    @abstractmethod
    def _cdf(self, x: float) -> float:
        """CDF at a finite point."""

    def _cdf_left(self, x: float) -> float:
        """Left limit F(x-). Default is the continuous case; atom-bearing families override."""
        return self._cdf(x)

    def cdf(self, x: ExtendedReal) -> float:
        if isinstance(x, _Infinity):
            return 1.0 if x == POS_INF else 0.0
        return self._cdf(float(x))

    def cdf_left(self, x: ExtendedReal) -> float:
        if isinstance(x, _Infinity):
            return 1.0 if x == POS_INF else 0.0
        return self._cdf_left(float(x))

    def cdf_array(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        return np.array([self._cdf(x) for x in xs.ravel()]).reshape(xs.shape)

    def cdf_left_array(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        return np.array([self._cdf_left(x) for x in xs.ravel()]).reshape(xs.shape)

    def quantile(self, u: float) -> ExtendedReal:
        """Generalized inverse inf{x : F(x) >= u}."""
        if not 0.0 <= u <= 1.0:
            raise ValueError(f"probability level must lie in [0,1], got {u}")
        if u == 0.0:
            return NEG_INF
        return self._quantile(u)

    def _quantile(self, u: float) -> ExtendedReal:
        return self._bisect_quantile(u)

    def quantile_array(self, us: np.ndarray) -> np.ndarray:
        """Vectorized quantile for interior levels; infinite results are rejected."""
        us = np.asarray(us, dtype=float)
        if us.size and (us.min() <= 0.0 or us.max() >= 1.0):
            raise ValueError("quantile_array requires levels strictly inside (0,1)")
        out = self._quantile_array(us)
        if not np.all(np.isfinite(out)):
            raise MalformedCdfError(
                f"{self.describe()}: quantile transform produced an infinite value "
                "for an interior probability"
            )
        return out

    def _quantile_array(self, us: np.ndarray) -> np.ndarray:
        return self._bisect_quantile_array(us)

    def jump_points(self) -> tuple[float, ...]:
        """Candidate discontinuity locations (may over-report; never under-reports)."""
        return ()

    def support_hint(self) -> tuple[float, float]:
        """A finite interval from which quantile bracketing starts."""
        return (-1.0, 1.0)

    @abstractmethod
    def describe(self) -> str:
        """Canonical descriptor string (see shockcop.descriptors)."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.describe()}>"

    # -- generic bracketing/bisection inverse -------------------------------

    def _bisect_quantile(self, u: float) -> ExtendedReal:
        lo, hi = self.support_hint()
        span = max(hi - lo, 1.0)
        for _ in range(_QUANTILE_MAX_EXPAND):
            if self._cdf(lo) < u:
                break
            lo -= span
            span *= 2.0
        else:
            return NEG_INF
        span = max(hi - lo, 1.0)
        for _ in range(_QUANTILE_MAX_EXPAND):
            if self._cdf(hi) >= u:
                break
            hi += span
            span *= 2.0
        else:
            return POS_INF
        while hi - lo > _QUANTILE_ABS_TOL + _QUANTILE_REL_TOL * max(abs(lo), abs(hi)):
            mid = 0.5 * (lo + hi)
            if mid <= lo or mid >= hi:
                break
            if self._cdf(mid) >= u:
                hi = mid
            else:
                lo = mid
        return hi

    def _bisect_quantile_array(self, us: np.ndarray) -> np.ndarray:
        shape = us.shape
        us = us.ravel()
        lo0, hi0 = self.support_hint()
        lo = np.full(us.shape, float(lo0))
        hi = np.full(us.shape, float(hi0))
        span = max(hi0 - lo0, 1.0)
        for _ in range(_QUANTILE_MAX_EXPAND):
            bad = self.cdf_array(lo) >= us
            if not bad.any():
                break
            lo[bad] -= span
            span *= 2.0
        span = max(hi0 - lo0, 1.0)
        for _ in range(_QUANTILE_MAX_EXPAND):
            bad = self.cdf_array(hi) < us
            if not bad.any():
                break
            hi[bad] += span
            span *= 2.0
        while True:
            tol = _QUANTILE_ABS_TOL + _QUANTILE_REL_TOL * np.maximum(np.abs(lo), np.abs(hi))
            open_ = hi - lo > tol
            if not open_.any():
                break
            mid = 0.5 * (lo + hi)
            # stop once float midpoints can no longer split the interval
            if not np.any(open_ & (mid > lo) & (mid < hi)):
                break
            take_hi = self.cdf_array(mid) >= us
            hi = np.where(open_ & take_hi, mid, hi)
            lo = np.where(open_ & ~take_hi, mid, lo)
        return hi.reshape(shape)


# ---------------------------------------------------------------------------
# parametric families
# ---------------------------------------------------------------------------


@dataclass(frozen=True, repr=False)
class Uniform(DistributionFunction):
    a: float = 0.0
    b: float = 1.0

    def __post_init__(self):
        if not self.a < self.b:
            raise ValueError(f"uniform needs a < b, got a={self.a}, b={self.b}")

    def _cdf(self, x: float) -> float:
        if x <= self.a:
            return 0.0
        if x >= self.b:
            return 1.0
        return (x - self.a) / (self.b - self.a)

    def cdf_array(self, xs):
        xs = np.asarray(xs, dtype=float)
        return np.clip((xs - self.a) / (self.b - self.a), 0.0, 1.0)

    cdf_left_array = cdf_array

    def _quantile(self, u: float) -> ExtendedReal:
        if u == 1.0:
            return self.b
        return self.a + u * (self.b - self.a)

    def _quantile_array(self, us):
        return self.a + us * (self.b - self.a)

    def support_hint(self):
        return (self.a, self.b)

    def describe(self) -> str:
        return f"uniform:a={self.a!r},b={self.b!r}"


@dataclass(frozen=True, repr=False)
class Exponential(DistributionFunction):
    rate: float

    def __post_init__(self):
        if not self.rate > 0:
            raise ValueError(f"exponential rate must be positive, got {self.rate}")

    def _cdf(self, x: float) -> float:
        if x <= 0.0:
            return 0.0
        return -math.expm1(-self.rate * x)

    def cdf_array(self, xs):
        xs = np.asarray(xs, dtype=float)
        return np.where(xs <= 0.0, 0.0, -np.expm1(-self.rate * np.maximum(xs, 0.0)))

    cdf_left_array = cdf_array

    def _quantile(self, u: float) -> ExtendedReal:
        if u == 1.0:
            return POS_INF
        return -math.log1p(-u) / self.rate

    def _quantile_array(self, us):
        return -np.log1p(-us) / self.rate

    def support_hint(self):
        return (0.0, 40.0 / self.rate)

    def describe(self) -> str:
        return f"exp:rate={self.rate!r}"


@dataclass(frozen=True, repr=False)
class NegExponential(DistributionFunction):
    """Law of -E for an exponential lifetime E: F(x) = exp(rate*x) on x <= 0.

    Max models built from these mirror exponential min models exactly, so the
    composed map F(Q_margin(u)) is a pure power of u for any rate pair.
    """

    rate: float

    def __post_init__(self):
        if not self.rate > 0:
            raise ValueError(f"neg-exponential rate must be positive, got {self.rate}")

    def _cdf(self, x: float) -> float:
        if x >= 0.0:
            return 1.0
        return math.exp(self.rate * x)

    def cdf_array(self, xs):
        xs = np.asarray(xs, dtype=float)
        return np.where(xs >= 0.0, 1.0, np.exp(self.rate * np.minimum(xs, 0.0)))

    cdf_left_array = cdf_array

    def _quantile(self, u: float) -> ExtendedReal:
        return math.log(u) / self.rate

    def _quantile_array(self, us):
        return np.log(us) / self.rate

    def support_hint(self):
        return (-40.0 / self.rate, 0.0)

    def describe(self) -> str:
        return f"neg-exp:rate={self.rate!r}"


class TabulatedCdf(DistributionFunction):
    """CDF given by knots (x_i, p_i); right-continuous steps or piecewise linear.

    Step tables place all probability jumps at the knots; linear tables join
    the knots with straight segments and extend flat outside the span.
    """

    def __init__(self, xs, ps, interpolation: str = "step", source: str | None = None):
        xs = np.asarray(xs, dtype=float)
        ps = np.asarray(ps, dtype=float)
        if xs.ndim != 1 or xs.shape != ps.shape or xs.size == 0:
            raise TableFormatError("table needs matching, nonempty x and p columns")
        if np.any(np.diff(xs) <= 0):
            raise TableFormatError("table x values must be strictly increasing")
        if np.any(np.diff(ps) < 0):
            raise TableFormatError("table p values must be nondecreasing")
        if ps[0] < 0.0 or ps[-1] > 1.0:
            raise TableFormatError("table p values must lie in [0,1]")
        if interpolation not in ("step", "linear"):
            raise TableFormatError(f"unknown interpolation {interpolation!r}")
        self.xs = xs
        self.ps = ps
        self.interpolation = interpolation
        self.source = source

    def _cdf(self, x: float) -> float:
        return float(self.cdf_array(np.array([x]))[0])

    def _cdf_left(self, x: float) -> float:
        return float(self.cdf_left_array(np.array([x]))[0])

    def cdf_array(self, xs):
        xs = np.asarray(xs, dtype=float)
        if self.interpolation == "linear":
            return np.interp(xs, self.xs, self.ps)
        idx = np.searchsorted(self.xs, xs, side="right") - 1
        return np.where(idx < 0, 0.0, self.ps[np.maximum(idx, 0)])

    def cdf_left_array(self, xs):
        xs = np.asarray(xs, dtype=float)
        if self.interpolation == "linear":
            return np.interp(xs, self.xs, self.ps)
        idx = np.searchsorted(self.xs, xs, side="left") - 1
        return np.where(idx < 0, 0.0, self.ps[np.maximum(idx, 0)])

    def _quantile(self, u: float) -> ExtendedReal:
        if u > self.ps[-1]:
            return POS_INF
        if self.interpolation == "step":
            idx = int(np.searchsorted(self.ps, u, side="left"))
            return float(self.xs[idx])
        if u <= self.ps[0]:
            # flat extension to the left sits at level ps[0] on the whole tail
            return NEG_INF if self.ps[0] > 0.0 else float(self.xs[0])
        idx = int(np.searchsorted(self.ps, u, side="left"))
        p0, p1 = self.ps[idx - 1], self.ps[idx]
        x0, x1 = self.xs[idx - 1], self.xs[idx]
        return float(x0 + (u - p0) / (p1 - p0) * (x1 - x0))

    def _quantile_array(self, us):
        ps, xs = self.ps, self.xs
        idx = np.searchsorted(ps, us, side="left")
        reached = idx < ps.size  # levels above ps[-1] invert to +oo (NaN here)
        if self.interpolation == "step":
            return np.where(reached, xs[np.minimum(idx, ps.size - 1)], np.nan)
        # levels in (0, ps[0]] sit on the flat left tail and invert to -oo (NaN here)
        out = np.full(us.shape, np.nan)
        inner = reached & (us > ps[0])
        k = idx[inner]
        p0, p1 = ps[k - 1], ps[k]
        out[inner] = xs[k - 1] + (us[inner] - p0) / (p1 - p0) * (xs[k] - xs[k - 1])
        return out

    def jump_points(self) -> tuple[float, ...]:
        if self.interpolation == "linear":
            return ()
        prev = np.concatenate(([0.0], self.ps[:-1]))
        return tuple(self.xs[self.ps > prev])

    def support_hint(self):
        return (float(self.xs[0]) - 1.0, float(self.xs[-1]) + 1.0)

    def describe(self) -> str:
        if self.source is not None:
            return f"{self.interpolation}:file={self.source}"
        return f"{self.interpolation}:knots={self.xs.size}"


def point_mass(x0: float) -> TabulatedCdf:
    """Degenerate distribution concentrated at x0."""
    return TabulatedCdf([x0], [1.0], "step")


def load_tabulated_csv(path, interpolation: str = "step") -> TabulatedCdf:
    """Load a CDF table from CSV with header ``x,p`` and rows sorted by x."""
    xs, ps = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(row for row in fh if not row.startswith("#"))
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:2]] != ["x", "p"]:
            raise TableFormatError(f"{path}: expected header 'x,p'")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                xs.append(float(row[0]))
                ps.append(float(row[1]))
            except (IndexError, ValueError) as exc:
                raise TableFormatError(f"{path}:{lineno}: bad row {row!r}") from exc
    try:
        return TabulatedCdf(xs, ps, interpolation, source=str(path))
    except TableFormatError as exc:
        raise TableFormatError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# closed-form registry: the EFGM max-shock construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True, repr=False)
class EfgmMargin(DistributionFunction):
    """Margin of the countermonotonic max model whose copula is EFGM with weight a**2.

    The quantile map is the quadratic (a+1)u - a*u**2, so the CDF is its
    explicit inverse on [0,1]; uniform idiosyncratic shocks then factor it as
    EfgmMargin(a) = Uniform(0,1) * EfgmShock(a).
    """

    a: float

    def __post_init__(self):
        if not 0.0 < self.a <= 1.0:
            raise ValueError(f"EFGM weight must lie in (0,1], got {self.a}")

    def _cdf(self, x: float) -> float:
        if x <= 0.0:
            return 0.0
        if x >= 1.0:
            return 1.0
        a = self.a
        return (a + 1.0 - math.sqrt((a + 1.0) ** 2 - 4.0 * a * x)) / (2.0 * a)

    def cdf_array(self, xs):
        xs = np.asarray(xs, dtype=float)
        a = self.a
        inner = np.clip(xs, 0.0, 1.0)
        vals = (a + 1.0 - np.sqrt((a + 1.0) ** 2 - 4.0 * a * inner)) / (2.0 * a)
        return np.where(xs <= 0.0, 0.0, np.where(xs >= 1.0, 1.0, vals))

    cdf_left_array = cdf_array

    def pdf(self, x: float) -> float:
        if 0.0 < x < 1.0:
            return 1.0 / math.sqrt((self.a + 1.0) ** 2 - 4.0 * self.a * x)
        return 0.0

    def _quantile(self, u: float) -> ExtendedReal:
        if u == 1.0:
            return 1.0
        return (self.a + 1.0) * u - self.a * u * u

    def _quantile_array(self, us):
        return (self.a + 1.0) * us - self.a * us * us

    def support_hint(self):
        return (0.0, 1.0)

    def describe(self) -> str:
        return f"efgm-margin:a={self.a!r}"


@dataclass(frozen=True, repr=False)
class EfgmShock(DistributionFunction):
    """Systemic-shock CDF of the EFGM max model; satisfies margin = uniform * shock."""

    a: float

    def __post_init__(self):
        if not 0.0 < self.a <= 1.0:
            raise ValueError(f"EFGM weight must lie in (0,1], got {self.a}")

    def _cdf(self, x: float) -> float:
        if x >= 1.0:
            return 1.0
        a = self.a
        return 2.0 / ((a + 1.0) + math.sqrt((a + 1.0) ** 2 - 4.0 * a * x))

    def cdf_array(self, xs):
        xs = np.asarray(xs, dtype=float)
        a = self.a
        inner = np.minimum(xs, 1.0)
        vals = 2.0 / ((a + 1.0) + np.sqrt((a + 1.0) ** 2 - 4.0 * a * inner))
        return np.where(xs >= 1.0, 1.0, vals)

    cdf_left_array = cdf_array

    def _quantile(self, u: float) -> ExtendedReal:
        if u == 1.0:
            return 1.0
        a = self.a
        return ((a + 1.0) - 1.0 / u) / (a * u)

    def _quantile_array(self, us):
        a = self.a
        return ((a + 1.0) - 1.0 / us) / (a * us)

    def support_hint(self):
        return (-50.0, 1.0)

    def describe(self) -> str:
        return f"efgm-shock:a={self.a!r}"


# ---------------------------------------------------------------------------
# combinators
# ---------------------------------------------------------------------------


class Product(DistributionFunction):
    """Pointwise product of two CDFs: the law of max{A, B} for independent A, B."""

    def __init__(self, d1: DistributionFunction, d2: DistributionFunction):
        self.d1 = d1
        self.d2 = d2

    def _cdf(self, x: float) -> float:
        return self.d1.cdf(x) * self.d2.cdf(x)

    def _cdf_left(self, x: float) -> float:
        return self.d1.cdf_left(x) * self.d2.cdf_left(x)

    def cdf_array(self, xs):
        return self.d1.cdf_array(xs) * self.d2.cdf_array(xs)

    def cdf_left_array(self, xs):
        return self.d1.cdf_left_array(xs) * self.d2.cdf_left_array(xs)

    def jump_points(self):
        return tuple(sorted(set(self.d1.jump_points()) | set(self.d2.jump_points())))

    def support_hint(self):
        lo1, hi1 = self.d1.support_hint()
        lo2, hi2 = self.d2.support_hint()
        return (max(lo1, lo2), max(hi1, hi2))

    def describe(self) -> str:
        return f"product({self.d1.describe()};{self.d2.describe()})"


class SurvivalProduct(DistributionFunction):
    """CDF of min{A, B} for independent A, B: 1 - (1-F1)(1-F2)."""

    def __init__(self, d1: DistributionFunction, d2: DistributionFunction):
        self.d1 = d1
        self.d2 = d2

    def _cdf(self, x: float) -> float:
        return 1.0 - (1.0 - self.d1.cdf(x)) * (1.0 - self.d2.cdf(x))

    def _cdf_left(self, x: float) -> float:
        return 1.0 - (1.0 - self.d1.cdf_left(x)) * (1.0 - self.d2.cdf_left(x))

    def cdf_array(self, xs):
        return 1.0 - (1.0 - self.d1.cdf_array(xs)) * (1.0 - self.d2.cdf_array(xs))

    def cdf_left_array(self, xs):
        return 1.0 - (1.0 - self.d1.cdf_left_array(xs)) * (1.0 - self.d2.cdf_left_array(xs))

    def jump_points(self):
        return tuple(sorted(set(self.d1.jump_points()) | set(self.d2.jump_points())))

    def support_hint(self):
        lo1, hi1 = self.d1.support_hint()
        lo2, hi2 = self.d2.support_hint()
        return (min(lo1, lo2), min(hi1, hi2))

    def describe(self) -> str:
        return f"survival-product({self.d1.describe()};{self.d2.describe()})"


class NegatedCdf(DistributionFunction):
    """Law of -A when A has the wrapped CDF: F(x) = 1 - F_A((-x)-)."""

    def __init__(self, inner: DistributionFunction):
        self.inner = inner

    def _cdf(self, x: float) -> float:
        return 1.0 - self.inner.cdf_left(-x)

    def _cdf_left(self, x: float) -> float:
        return 1.0 - self.inner.cdf(-x)

    def cdf_array(self, xs):
        return 1.0 - self.inner.cdf_left_array(-np.asarray(xs, dtype=float))

    def cdf_left_array(self, xs):
        return 1.0 - self.inner.cdf_array(-np.asarray(xs, dtype=float))

    def jump_points(self):
        return tuple(sorted(-j for j in self.inner.jump_points()))

    def support_hint(self):
        lo, hi = self.inner.support_hint()
        return (-hi, -lo)

    def describe(self) -> str:
        return f"negated({self.inner.describe()})"


def negated(d: DistributionFunction) -> DistributionFunction:
    """Negate a distribution; double negation unwraps exactly."""
    if isinstance(d, NegatedCdf):
        return d.inner
    return NegatedCdf(d)


def cdf_values(d: DistributionFunction, x) -> np.ndarray:
    """``d.cdf`` at an array of any shape; a scalar, +-oo sentinels included, gives a 0-d array."""
    if isinstance(x, _Infinity):
        return np.asarray(d.cdf(x))
    return d.cdf_array(np.asarray(x, dtype=float))


def product_cdf(d1: DistributionFunction, d2: DistributionFunction) -> Product:
    return Product(d1, d2)


def image_brackets(d: DistributionFunction, u: float) -> tuple[float, float, bool]:
    """Bracket a level u by (F(q-), F(q)) at q = quantile(u); flag whether u is attained."""
    if not 0.0 < u < 1.0:
        raise ValueError(f"image_brackets needs u strictly inside (0,1), got {u}")
    q = d.quantile(u)
    if isinstance(q, _Infinity):
        raise MalformedCdfError(f"{d.describe()}: quantile({u}) is not finite")
    over = d.cdf(q)
    under = d.cdf_left(q)
    return under, over, bool(abs(over - u) <= 1e-12)
