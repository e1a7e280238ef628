"""Univariate distribution functions with generalized-inverse and left-limit semantics.

Every family evaluates its CDF on the extended line, exposes the left limit
F(x-), and inverts through the generalized inverse

    quantile(u) = inf{x : F(x) >= u},

with quantile(0) = -inf (the infimum over the whole line) and +inf whenever the
level u is never reached.  These conventions are load-bearing: the generator
constructions in :mod:`shockcop.generators` place a knot at each of the
bracket values F(J-) and F(J) of a jump J, and at F(x) for a point x placed
near each ladder level u (``_place_array``).

Each law is written once, on arrays.  A family defines ``cdf_array``; it
overrides ``cdf_left_array`` only when it has atoms (the default is
``cdf_array`` itself) and ``_quantile_array`` only when a closed-form inverse
exists (the default is the generic inverse below).  The base class derives
the rest: the scalar ``cdf``, ``cdf_left`` and ``quantile`` evaluate the
array path at one point, so scalar and array values agree to the bit, at
the IEEE infinities too: every law reads 0 at -inf and 1 at +inf, and
``quantile`` returns -inf at level 0 and +inf at a level never reached;
``quantile_array`` refuses levels that are not strictly inside (0,1), NaN
included, and infinite results.

The generic inverse evaluates F once per call on one shared table: the jump
points, 2**14 + 1 even points on ``support_hint`` and, for levels the hint
does not bracket, probes at doubling distances beyond it.  One
``searchsorted`` on the table's running maximum gives every level a bracket
F(lo) < u <= F(hi).  A level with F(J-) < u <= F(J) at a jump J inverts to J
exactly; a level that no probe reaches below or above inverts to -inf or +inf.
The other brackets shrink, in blocks of levels, by a few Illinois (secant)
steps and then by bisection, until hi - lo <= 1e-14 + 1e-14 * max(|lo|, |hi|)
or no float lies between them.  The result is hi, so F(quantile(u)) >= u
holds exactly and F stays below u a stopping width to the left.  Each block of
4096 levels is sorted before the table lookup, so the lookup sweeps the table
and F sees nearly ascending points, and is scattered back once.  A level's
result is recorded the step its bracket closes; closed levels stay in the
working arrays, ignored, until half of them have closed, and only then are the
arrays compacted.  Every step is elementwise, so a level's result does not
depend on the other levels or their order.  Knot placement
(``_place_array``) only reads the table: it interpolates x linearly between the
points where the running maximum rises, with no probe of F beyond the table.
"""

from __future__ import annotations

import itertools
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .errors import MalformedCdfError, TableFormatError
from .tables import read_table

_QUANTILE_MAX_EXPAND = 200
_QUANTILE_REL_TOL = 1e-14
_QUANTILE_ABS_TOL = 1e-14
_QUANTILE_TABLE = 2**14  # intervals of the shared grid on support_hint
_QUANTILE_SECANT_STEPS = 6
_QUANTILE_BLOCK = 4096  # levels refined together
_SORTED_LOOKUP_KNOTS = 64  # table size from which sorting scattered queries pays


def _at(array_fn, x: float) -> float:
    """An array method evaluated at the single point x."""
    return float(array_fn(np.array([float(x)]))[0])


def _in_query_order(lookup, xs, knots: int):
    """``lookup(xs)`` for a lookup into a sorted table of ``knots`` entries whose
    result at a point does not depend on the other points, run in ascending order.

    Binary searches of scattered points miss the cache on every step; one sort and
    a sweep in order cost less from about 20 knots at 10k points and 64 knots at
    200k points (2-core VM, numpy 2.4: 10k points into 12k knots take 1.19 ms
    direct, 0.32 ms sorted).  Monotone inputs, fewer than two points and smaller
    tables go straight through.
    """
    xs = np.asarray(xs, dtype=float)
    flat = xs.ravel()
    if knots < _SORTED_LOOKUP_KNOTS or flat.size < 2:
        return lookup(xs)
    # comparisons, not differences: inf - inf would warn and read as NaN
    head, tail = flat[:-1], flat[1:]
    if np.all(tail >= head) or np.all(tail <= head):  # NaN fails both
        return lookup(xs)
    order = np.argsort(flat)
    found = lookup(flat[order])  # the sorted copy is freed before the output is allocated
    out = np.empty(flat.shape)
    out[order] = found
    return out.reshape(xs.shape)


class DistributionFunction(ABC):
    """A univariate CDF: nondecreasing, right-continuous, limits 0 and 1."""

    @abstractmethod
    def cdf_array(self, xs: np.ndarray) -> np.ndarray:
        """F at every point of a float array."""

    def cdf_left_array(self, xs: np.ndarray) -> np.ndarray:
        """Left limit F(x-). Default is the continuous case; atom-bearing families override."""
        return self.cdf_array(xs)

    def cdf(self, x: float) -> float:
        return _at(self.cdf_array, x)

    def cdf_left(self, x: float) -> float:
        return _at(self.cdf_left_array, x)

    def quantile(self, u: float) -> float:
        """Generalized inverse inf{x : F(x) >= u}."""
        if not 0.0 <= u <= 1.0:
            raise ValueError(f"probability level must lie in [0,1], got {u}")
        if u == 0.0:
            return -math.inf
        with np.errstate(divide="ignore"):
            return _at(self._quantile_array, u)

    def quantile_array(self, us: np.ndarray) -> np.ndarray:
        """Vectorized quantile for interior levels; infinite results are rejected."""
        us = np.asarray(us, dtype=float)
        if not np.all((us > 0.0) & (us < 1.0)):  # NaN fails both comparisons
            raise ValueError("quantile_array requires levels strictly inside (0,1)")
        return self._finite(self._quantile_array(us))

    def _place_array(self, levels: np.ndarray) -> np.ndarray:
        """Points near the quantiles of ascending interior levels, interpolated linearly
        in the generic inverse's table; a level the table never reaches is refused."""
        xs, _, _, reach = self._quantile_table(float(levels[0]), float(levels[-1]))
        strict = np.concatenate(([True], reach[1:] > reach[:-1]))
        return self._finite(np.interp(levels, reach[strict], xs[strict], left=-np.inf, right=np.inf))

    def _finite(self, xs: np.ndarray) -> np.ndarray:
        if not np.all(np.isfinite(xs)):
            raise MalformedCdfError(
                f"{self.describe()}: quantile transform produced an infinite value "
                "for an interior probability"
            )
        return xs

    def _quantile_array(self, us: np.ndarray) -> np.ndarray:
        """Quantiles of levels in (0,1]: +inf where a level is never reached, -inf
        where F stays at or above it on the whole line."""
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

    # -- generic inverse -----------------------------------------------------

    def _bisect_quantile_array(self, us: np.ndarray) -> np.ndarray:
        """The generic inverse of the module docstring.  A level's result does not
        depend on the other levels of the call, so ``quantile`` matches it to the bit."""
        shape = us.shape
        us = us.ravel()
        out = np.empty_like(us)
        if us.size:
            table = self._quantile_table(float(us.min()), float(us.max()))
            for start in range(0, us.size, _QUANTILE_BLOCK):
                block = us[start : start + _QUANTILE_BLOCK]
                # in ascending order the lookups sweep the table and F sees near-sorted points
                order = np.argsort(block)
                out[start : start + order.size][order] = self._quantile_block(block[order], *table)
        return out.reshape(shape)

    def _quantile_table(self, u_min: float, u_max: float):
        """Sorted points x with F(x), F(x-) and the running maximum of F.

        The points are the jumps, an even grid on ``support_hint`` and the
        expansion probes below and above it, which reach for the smallest and
        largest level.
        """
        lo0, hi0 = self.support_hint()
        grid = np.linspace(float(lo0), float(hi0), _QUANTILE_TABLE + 1)
        f_grid = self.cdf_array(grid)
        span = max(hi0 - lo0, 1.0)
        below, f_below = self._expand(grid[0], -span, f_grid[0], lambda f: f >= u_min)
        above, f_above = self._expand(grid[-1], span, f_grid[-1], lambda f: f < u_max)
        jumps = np.asarray(self.jump_points(), dtype=float)
        # jumps come first, so a jump that is also a grid point is found as a jump
        xs = np.concatenate((jumps, below, grid, above))
        fs = np.concatenate((self.cdf_array(jumps), f_below, f_grid, f_above))
        f_left = np.concatenate((self.cdf_left_array(jumps), f_below, f_grid, f_above))
        order = np.argsort(xs, kind="stable")
        fs = fs[order]
        return xs[order], fs, f_left[order], np.maximum.accumulate(fs)

    def _expand(self, x: float, span: float, f: float, short) -> tuple[np.ndarray, np.ndarray]:
        """Probes x + span, then steps of twice the last, while ``short(F)``;
        at most ``_QUANTILE_MAX_EXPAND`` points are probed counting x itself."""
        xs, fs = [], []
        for _ in range(_QUANTILE_MAX_EXPAND - 1):
            if not short(f):
                break
            x += span
            span *= 2.0
            f = _at(self.cdf_array, x)
            xs.append(x)
            fs.append(f)
        return np.array(xs), np.array(fs)

    def _quantile_block(self, us, xs, fs, f_left, reach) -> np.ndarray:
        """The quantiles of some levels from the table: exact at a jump, ±inf past
        its ends, otherwise refined inside the table's bracket (see ``_refine``)."""
        j = np.searchsorted(reach, us, side="left")  # F(xs[j-1]) < u <= F(xs[j])
        last = xs.size - 1
        k = np.minimum(j, last)
        out = np.where(j == 0, -np.inf, np.where(j > last, np.inf, xs[k]))
        # F(J-) < u <= F(J) at a jump J: the quantile is J itself
        rest = (j > 0) & (j <= last) & (f_left[k] >= us)
        k = k[rest]
        out[rest] = self._refine(us[rest], xs[k - 1], xs[k], fs[k - 1], fs[k])
        return out

    def _refine(self, us, lo, hi, f_lo, f_hi) -> np.ndarray:
        """Shrink brackets F(lo) < u <= F(hi) to the stopping width and return hi.

        The first steps are Illinois steps (Dowell & Jarratt 1971): secant
        probes, where an end that stays put twice in a row has its ordinate
        halved, clamped at least half the stopping width inside the bracket so
        that it closes from both sides. Bisection follows. A converged level's
        hi is recorded at once; the working arrays drop the converged levels
        once they make up half of them.
        """
        out = np.empty_like(us)
        at = np.arange(us.size)
        live, n_live = np.ones(us.size, dtype=bool), us.size
        g_lo, g_hi = f_lo - us, f_hi - us  # g_lo < 0 <= g_hi
        moved = np.zeros(us.size)  # +1 where the last step moved hi, -1 where it moved lo
        for step in itertools.count():
            tol = _QUANTILE_ABS_TOL + _QUANTILE_REL_TOL * np.maximum(np.abs(lo), np.abs(hi))
            mid = 0.5 * (lo + hi)
            # stop once the bracket is narrow or float midpoints can no longer split it
            open_ = live & (hi - lo > tol) & (mid > lo) & (mid < hi)
            left = np.count_nonzero(open_)
            if left < n_live:
                closed = live & ~open_
                out[at[closed]] = hi[closed]
                live, n_live = open_, left
                # closed levels ride along, ignored, until half the working arrays are closed
                if 2 * left <= at.size:
                    at, us, lo, hi, g_lo, g_hi, moved, tol, mid, live = (
                        a[live] for a in (at, us, lo, hi, g_lo, g_hi, moved, tol, mid, live)
                    )
            if not left:
                return out
            if step < _QUANTILE_SECANT_STEPS:
                with np.errstate(all="ignore"):
                    secant = lo - g_lo * ((hi - lo) / (g_hi - g_lo))
                secant = np.where(np.isfinite(secant), secant, mid)
                x = np.clip(secant, lo + 0.5 * tol, hi - 0.5 * tol)
                g = self.cdf_array(x) - us
                up = g >= 0.0
                g_lo = np.where(up, np.where(moved > 0, 0.5 * g_lo, g_lo), g)
                g_hi = np.where(up, g, np.where(moved < 0, 0.5 * g_hi, g_hi))
                moved = np.where(up, 1.0, -1.0)
            else:
                x = mid
                up = self.cdf_array(x) >= us
            hi = np.where(up, x, hi)
            lo = np.where(up, lo, x)


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

    def cdf_array(self, xs):
        xs = np.asarray(xs, dtype=float)
        return np.clip((xs - self.a) / (self.b - self.a), 0.0, 1.0)

    def _quantile_array(self, us):
        return np.where(us < 1.0, self.a + us * (self.b - self.a), self.b)

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

    def cdf_array(self, xs):
        xs = np.asarray(xs, dtype=float)
        return np.where(xs <= 0.0, 0.0, -np.expm1(-self.rate * np.maximum(xs, 0.0)))

    def _quantile_array(self, us):
        # log1p(-u) / -rate is -log1p(-u) / rate to the bit, in one buffer
        q = np.negative(us, out=np.empty(us.shape))
        np.log1p(q, out=q)
        q /= -self.rate
        return q

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

    def cdf_array(self, xs):
        xs = np.asarray(xs, dtype=float)
        return np.where(xs >= 0.0, 1.0, np.exp(self.rate * np.minimum(xs, 0.0)))

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
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ps))):
            raise TableFormatError("table x and p values must be finite")
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

    def cdf_array(self, xs):
        return self._table_cdf(xs, "right")

    def cdf_left_array(self, xs):
        return self._table_cdf(xs, "left")

    def _table_cdf(self, xs, side: str):
        """F (side "right") or F(x-) (side "left"); a linear table is continuous.

        The ends of the line read 0 and 1 whatever the table's first and last
        p: a table whose p stays below 1 leaves its missing mass at +inf.
        """

        def lookup(q):
            if self.interpolation == "linear":
                inside = np.interp(q, self.xs, self.ps)
            else:
                idx = np.searchsorted(self.xs, q, side=side) - 1
                inside = np.where(idx < 0, 0.0, self.ps[np.maximum(idx, 0)])
            return np.where(np.isinf(q), q > 0.0, inside)

        return _in_query_order(lookup, xs, self.xs.size)

    def _quantile_array(self, us):
        return _in_query_order(self._table_quantile, us, self.ps.size)

    def _table_quantile(self, us):
        ps, xs = self.ps, self.xs
        idx = np.searchsorted(ps, us, side="left")
        reached = idx < ps.size  # levels above ps[-1] invert to +inf
        if self.interpolation == "step":
            return np.where(reached, xs[np.minimum(idx, ps.size - 1)], np.inf)
        # levels in (0, ps[0]] sit on the flat left tail and invert to -inf
        out = np.where(reached, -np.inf, np.inf)
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
    _, header, table = read_table(path)
    if header is None or header[:2] != ["x", "p"]:
        raise TableFormatError(f"{path}: expected header 'x,p'")
    try:
        return TabulatedCdf(table[:, 0], table[:, 1], interpolation, source=str(path))
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

    def cdf_array(self, xs):
        xs = np.asarray(xs, dtype=float)
        a = self.a
        inner = np.clip(xs, 0.0, 1.0)
        vals = (a + 1.0 - np.sqrt((a + 1.0) ** 2 - 4.0 * a * inner)) / (2.0 * a)
        return np.where(xs <= 0.0, 0.0, np.where(xs >= 1.0, 1.0, vals))

    def _quantile_array(self, us):
        return np.where(us < 1.0, (self.a + 1.0) * us - self.a * us * us, 1.0)

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

    def cdf_array(self, xs):
        xs = np.asarray(xs, dtype=float)
        a = self.a
        inner = np.minimum(xs, 1.0)
        vals = 2.0 / ((a + 1.0) + np.sqrt((a + 1.0) ** 2 - 4.0 * a * inner))
        return np.where(xs >= 1.0, 1.0, vals)

    def _quantile_array(self, us):
        a = self.a
        return np.where(us < 1.0, ((a + 1.0) - 1.0 / us) / (a * us), 1.0)

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
    """CDF of min{A, B} for independent A, B: max{F1, 1 - (1-F1)(1-F2)}.

    The product form is nondecreasing in floating point but can round to just below
    F1; F1 + F2(1-F1) cannot, yet wobbles by an ulp as F1 grows.  The max keeps both.
    """

    def __init__(self, d1: DistributionFunction, d2: DistributionFunction):
        self.d1 = d1
        self.d2 = d2

    def cdf_array(self, xs):
        a = self.d1.cdf_array(xs)
        return np.maximum(a, 1.0 - (1.0 - a) * (1.0 - self.d2.cdf_array(xs)))

    def cdf_left_array(self, xs):
        a = self.d1.cdf_left_array(xs)
        return np.maximum(a, 1.0 - (1.0 - a) * (1.0 - self.d2.cdf_left_array(xs)))

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


def product_cdf(d1: DistributionFunction, d2: DistributionFunction) -> Product:
    return Product(d1, d2)

