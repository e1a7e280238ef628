"""Univariate distribution functions with generalized-inverse and left-limit semantics.

Every family evaluates its CDF on the extended line, exposes the left limit
F(x-), and inverts through the generalized inverse

    quantile(u) = inf{x : F(x) >= u},

with quantile(0) = -inf (the infimum over the whole line) and +inf whenever the
level u is never reached.  These conventions are load-bearing: the generator
constructions in :mod:`shockcop.generators` place a knot at each of the
bracket values F(J-) and F(J) of a jump J, and at F(x) for a point x placed
near each ladder level u (``_place_array``).

Each law is written once, on arrays.  A family defines one CDF method,
``cdf_array(xs, left=False)``, which returns F(x-) when ``left`` is set: a law
without atoms ignores the flag, a law made of parts (a ``PointwiseCdf``) passes it
to them and defines only ``_values``, how their values at a point combine, and the
law of t(A) (a ``MappedCdf``: a negation or a law read through ``chi``) carries A's
jump points and hint by t; a negation, being decreasing, flips ``left``.  Every
law declares its support, ``support()`` = (inf{x : F(x) > 0}, sup{x : F(x) < 1}):
a leaf in closed form, a ``PointwiseCdf`` by its ``hint`` rule on the parts' ends
and a ``MappedCdf`` by t; a finite end is exact, and an end the law does not know
is infinite.  A family overrides ``sf_array``, the upper tail 1 - F, only where a
closed form keeps the bits that the subtraction loses, ``_quantile_array`` only
when a closed-form inverse exists or the law inverts through its parts (the
default is the generic inverse below), and ``_upper_quantile_array``,
sup{x : P[A >= x] >= u}, likewise (the default is the generic inverse of the
negated law, negated).  A negation reads its law's upper tail for both F and Q,
so a negated exponential, spelled ``neg-exp``, has
F(x) = exp(rate*x) and Q(u) = log(u)/rate to the bit.  The base class derives
the rest: ``cdf_left_array`` is ``cdf_array(xs, True)``, and the scalar ``cdf``,
``cdf_left`` and ``quantile`` evaluate the array path at one point, so scalar and
array values agree to the bit, at the IEEE infinities too: every law reads 0 at
-inf and 1 at +inf, and ``quantile`` returns -inf at level 0 and +inf at a level
never reached; ``quantile_array`` refuses levels that are not strictly inside
(0,1), NaN included, and infinite results.

A law made of parts may invert through them (``_parts_quantile_array``): a
``MappedCdf`` through an increasing map is t(Q_A(u)), and the reconstructed margins
and shocks of :mod:`shockcop.shock_models` read a generator's inverse and a margin's
quantile.  A level inside an atom, F(J-) < u <= F(J), is the jump point J.  The
parts' answers round, so F is read once at them: an answer where F falls short of
its level moves up, at most 1024 ulps, to where F reaches it, and a level still
short takes the generic inverse, so F(Q(u)) >= u holds exactly on every path.

The generic inverse evaluates F once per call on one shared table: the jump
points, 2**14 + 1 even points on ``support_hint`` and, for levels the hint does
not bracket, probes at doubling distances beyond it, read in one call, and the
rest of their running sum up to half the largest float in a second if none
brackets them, kept up to the first that does.  One ``searchsorted`` on the
table's running maximum gives every level a bracket F(lo) < u <= F(hi).  A
level with F(J-) < u <= F(J) at a jump J inverts to J exactly; a level that no
probe reaches below or above inverts to -inf or +inf.
The other brackets shrink, in blocks of levels, by bisection on the float
lattice until lo and hi are neighbouring floats.  The result is hi, so
F(quantile(u)) >= u > F(prevfloat(quantile(u))) holds exactly: where F is
nondecreasing in floats, the quantile is the least float where F reaches u.  Each
block of 4096 levels is sorted before the table lookup, so the lookup sweeps the
table and F sees nearly ascending points, and is scattered back once.  Every step
is elementwise, so a level's result does not depend on the other levels or their
order.  Knot placement (``_place_array``) only reads the table: it interpolates x
linearly between the points where the running maximum rises, with no probe of F
beyond the table.

Lookups of levels in a table read a guide table (``_level_index``), lookups of
points run in ascending order (``_in_query_order``); both return the plain
``searchsorted`` or ``interp`` result.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np

from .errors import MalformedCdfError, TableFormatError
from .tables import read_table

_QUANTILE_MAX_EXPAND = 200
_QUANTILE_TABLE = 2**14  # intervals of the shared grid on support_hint
_QUANTILE_BLOCK = 4096  # levels refined together
_GUARD_ULPS = 4.0 ** np.arange(6)  # the steps up a parts answer may take: 1, 4, ..., 1024 ulps
_SORTED_LOOKUP_KNOTS = 64  # table size from which sorting scattered queries pays
_SORTED_LOOKUP_POINTS = 512  # query count from which it pays
_PROBE_LIMIT = float(np.finfo(float).max) / 2.0  # the farthest probe: table points stay finite


def _at(array_fn, x: float) -> float:
    """An array method evaluated at the single point x."""
    return float(array_fn(np.array([float(x)]))[0])


def _lattice(a: np.ndarray) -> np.ndarray:
    """Floats to their ordered int64 keys, and keys back to floats.  A float's key is
    its bits, and for a negative float minus its bits without the sign, so keys ascend
    with the floats, neighbouring floats have neighbouring keys and both zeros read 0;
    the map of the bits is its own inverse."""
    to_keys = a.dtype.kind == "f"
    bits = a.view(np.int64) if to_keys else a
    keys = np.where(bits < 0, -(bits & np.iinfo(np.int64).max), bits)
    return keys if to_keys else keys.view(float)


def _in_query_order(lookup, xs, knots: int):
    """``lookup(xs)`` for a lookup into a sorted table of ``knots`` entries whose
    result at a point does not depend on the other points, run in ascending order;
    levels, which lie in [0, 1], take the guide of ``_level_index`` instead.

    Binary searches of scattered points miss the cache on every step; one sort and
    a sweep in order cost less from about 20 knots at 10k points and 64 knots at
    200k points (2-core VM, numpy 2.4: 10k points into 12k knots take 1.19 ms
    direct, 0.32 ms sorted).  Below about 512 points the monotone test and the
    sort cost more than they save (441 random points into 12k knots: 11 µs
    direct, 22 µs sorted; into 1k knots the direct search wins up to 640 points,
    into 131k knots the sort wins from 448).  Monotone inputs, fewer points and
    smaller tables go straight through.
    """
    xs = np.asarray(xs, dtype=float)
    flat = xs.ravel()
    if knots < _SORTED_LOOKUP_KNOTS or flat.size < _SORTED_LOOKUP_POINTS:
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


def _level_index(table: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """``np.searchsorted(table, levels, "left")`` for a nondecreasing ``table``, to the
    bit, through a guide table (Chen & Asau 1974) instead of a binary search.

    K equal buckets of [0, 1], K the power of two at least the table's size, so u*K
    and k/K are exact; ``starts[k]`` counts the entries below k/K, so a level in
    bucket b has its index in [starts[b], starts[b+1]]: starts[b], plus one if the
    bucket's single entry lies below the level.  A level in a bucket of more entries,
    NaN or outside [0, 1] takes the binary search, as do tables under 64 entries and
    calls with fewer levels than entries, where the guide costs more than it saves.
    """
    n = table.size
    if n < _SORTED_LOOKUP_KNOTS or levels.size < n:
        return np.searchsorted(table, levels, "left")
    k = 1 << (n - 1).bit_length()
    starts = np.searchsorted(table, np.arange(k + 2) / k, "left")
    first = np.append(table, np.inf)[starts[:-1]]  # each bucket's first entry, inf if none
    inside = (levels >= 0.0) & (levels <= 1.0)  # NaN fails both
    bucket = (np.where(inside, levels, 0.0) * k).astype(np.intp)
    idx = starts[bucket] + (first[bucket] < levels)
    direct = (np.diff(starts) > 1)[bucket] | ~inside  # a bucket of several entries
    if direct.any():
        idx[direct] = np.searchsorted(table, levels[direct], "left")
    return idx


class DistributionFunction(ABC):
    """A univariate CDF: nondecreasing, right-continuous, limits 0 and 1."""

    @abstractmethod
    def cdf_array(self, xs: np.ndarray, left: bool = False) -> np.ndarray:
        """F at every point of a float array, or the left limit F(x-) if ``left``;
        a law without atoms ignores ``left``."""

    def cdf_left_array(self, xs: np.ndarray) -> np.ndarray:
        """The left limit F(x-) at every point."""
        return self.cdf_array(xs, True)

    def sf_array(self, xs: np.ndarray, left: bool = False) -> np.ndarray:
        """The upper tail 1 - F(x), or 1 - F(x-) if ``left``, by subtraction by default."""
        return 1.0 - self.cdf_array(xs, left)

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
        xs, _, reach = self._quantile_table(float(levels[0]), float(levels[-1]))
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

    def _upper_quantile_array(self, us: np.ndarray) -> np.ndarray:
        """sup{x : P[A >= x] >= u} for levels in (0,1], which a negation reads as its
        quantile: the generic inverse of the negated law, negated, by default."""
        return -NegatedCdf(self)._bisect_quantile_array(us)

    def jump_points(self) -> tuple[float, ...]:
        """Candidate discontinuity locations (may over-report; never under-reports)."""
        return ()

    def support_hint(self) -> tuple[float, float]:
        """A finite interval from which quantile bracketing starts."""
        return (-1.0, 1.0)

    def support(self) -> tuple[float, float]:
        """(inf{x : F(x) > 0}, sup{x : F(x) < 1}).  A finite end is exact; an end is
        -inf or +inf where the support is unbounded there or the law does not know it."""
        lo, hi = self._support()
        return (-math.inf if math.isnan(lo) else lo, math.inf if math.isnan(hi) else hi)

    def _support(self) -> tuple[float, float]:
        """``support`` with NaN for an end the law does not know, so that a law made of
        parts never takes a part's unknown end for an unbounded one."""
        return (math.nan, math.nan)

    @abstractmethod
    def describe(self) -> str:
        """Canonical descriptor string (see shockcop.descriptors)."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.describe()}>"

    def _parts_quantile_array(self, us: np.ndarray, inverse) -> np.ndarray:
        """Quantiles of levels in (0,1] of a law that inverts through its parts.

        A level inside an atom, F(J-) < u <= F(J) at a jump point J, inverts to J.
        ``inverse`` answers the other levels from the parts, NaN where they do not
        apply, and may round a little short, so F is read once at its answers.  An
        answer x where F is below its level moves up to the first of x + 1, 4, 16,
        64, 256 and 1024 ulps where F reaches it, read in one more call: far enough
        for a level rounded a few ulps short, or short on a stretch where F rises by
        less than an ulp of its value over hundreds of floats and wobbles by an ulp,
        at a cost of 6 points instead of the generic inverse's table.  A level still
        short, or without a finite answer, takes the generic inverse.
        """
        shape = us.shape
        us = us.ravel()
        jumps = np.asarray(self.jump_points(), dtype=float)
        rest = None  # the levels outside every atom, where some are inside one
        if jumps.size:
            # (F(J-), F(J)] of each jump in turn: a level inside one has an odd index
            edges = np.empty(2 * jumps.size)
            edges[0::2], edges[1::2] = self.cdf_left_array(jumps), self.cdf_array(jumps)
            at = _level_index(np.maximum.accumulate(edges), us)
            inside = (at & 1).astype(bool)
            if inside.any():
                rest = ~inside
        levels = us if rest is None else us[rest]
        xs = inverse(levels)
        bad = ~np.isfinite(xs)
        if bad.any():
            xs[bad] = 0.0  # any point: these levels take the generic inverse
        short = (self.cdf_array(xs) < levels) & ~bad
        low = np.flatnonzero(short)
        if low.size:
            x = xs[low]
            steps = x + np.multiply.outer(_GUARD_ULPS, np.spacing(np.abs(x)))
            reached = self.cdf_array(steps) >= levels[low]
            first = (np.argmax(reached, axis=0), np.arange(low.size))
            xs[low] = steps[first]
            bad[low[~reached[first]]] = True
        if bad.any():
            xs[bad] = self._bisect_quantile_array(levels[bad])
        if rest is None:
            return xs.reshape(shape)
        out = jumps.take(at >> 1, mode="clip")  # each level's jump, right at the atoms
        out[rest] = xs
        return out.reshape(shape)

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
        """Sorted points x with F(x-) and the running maximum of F.

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
        return xs[order], f_left[order], np.maximum.accumulate(fs[order])

    def _expand(self, x: float, span: float, f: float, short) -> tuple[np.ndarray, np.ndarray]:
        """Probes x + span, then steps of twice the last, while ``short(F)``, up to
        ``_PROBE_LIMIT``: the first ``_QUANTILE_MAX_EXPAND - 1`` in one call and, if all
        fall short, the rest in a second."""
        if not short(f):
            return np.array([]), np.array([])
        with np.errstate(over="ignore"):  # the sum passes the limit, and F may overflow there
            # the running sum adds the steps in turn, as x += span would
            xs = np.cumsum(np.concatenate(([x], span * 2.0 ** np.arange(1024))))[1:]
            end = np.argmax(np.abs(xs) >= _PROBE_LIMIT)  # the last sum is infinite
            xs = np.append(xs[:end], math.copysign(_PROBE_LIMIT, span))
            fs = self.cdf_array(xs[: _QUANTILE_MAX_EXPAND - 1])
            if short(fs[-1]) and xs.size > fs.size:
                fs = np.concatenate((fs, self.cdf_array(xs[fs.size :])))
        n = np.argmin(np.append(short(fs), False)) + 1  # up to the first probe not short
        return xs[:n], fs[:n]

    def _quantile_block(self, us, xs, f_left, reach) -> np.ndarray:
        """The quantiles of some levels from the table: exact at a jump, ±inf past
        its ends, otherwise bisected inside the table's bracket (see ``_refine``)."""
        j = np.searchsorted(reach, us, side="left")  # F(xs[j-1]) < u <= F(xs[j])
        last = xs.size - 1
        k = np.minimum(j, last)
        out = np.where(j == 0, -np.inf, np.where(j > last, np.inf, xs[k]))
        # F(J-) < u <= F(J) at a jump J: the quantile is J itself
        rest = (j > 0) & (j <= last) & (f_left[k] >= us)
        k = k[rest]
        out[rest] = self._refine(us[rest], xs[k - 1], xs[k])
        return out

    def _refine(self, us, lo, hi) -> np.ndarray:
        """Bisect brackets F(lo) < u <= F(hi) until lo and hi are neighbouring floats
        and return hi, so F(hi) >= u > F(prevfloat(hi)).

        The bisection runs on the ordered int64 view of the floats (``_lattice``), so
        every step halves the floats left in the bracket, at most 64 steps in all.  The
        midpoint floor((lo + hi) / 2) and the test hi - 1 > lo cannot overflow, where
        hi - lo can across 0.  A closed bracket's midpoint is lo, where F < u, so a
        closed level stays closed until the last one closes.
        """
        lo, hi = _lattice(lo), _lattice(hi)
        while np.any(hi - 1 > lo):
            mid = (lo >> 1) + (hi >> 1) + (lo & hi & 1)
            up = self.cdf_array(_lattice(mid)) >= us
            hi = np.where(up, mid, hi)
            lo = np.where(up, lo, mid)
        return _lattice(hi)


# ---------------------------------------------------------------------------
# parametric families
# ---------------------------------------------------------------------------


class Uniform(DistributionFunction):
    __slots__ = ("a", "b")

    def __init__(self, a: float = 0.0, b: float = 1.0):
        if not 0.0 < b - a < math.inf:  # NaN fails too
            raise ValueError(f"uniform needs a < b and a finite b - a, got a={a}, b={b}")
        self.a, self.b = a, b

    def cdf_array(self, xs, left=False):
        xs = np.asarray(xs, dtype=float)
        return np.clip((xs - self.a) / (self.b - self.a), 0.0, 1.0)

    def _quantile_array(self, us):
        return np.where(us < 1.0, self.a + us * (self.b - self.a), self.b)

    def support_hint(self):
        return (self.a, self.b)

    _support = support_hint

    def describe(self) -> str:
        return f"uniform:a={self.a!r},b={self.b!r}"


class Exponential(DistributionFunction):
    __slots__ = ("rate",)

    def __init__(self, rate: float):
        if not 0.0 < rate < math.inf:
            raise ValueError(f"exponential rate must be positive and finite, got {rate}")
        if 40.0 / rate == math.inf:  # the support hint's upper end
            raise ValueError(f"exponential rate is too small: 40 / rate overflows, got {rate}")
        self.rate = rate

    def cdf_array(self, xs, left=False):
        xs = np.asarray(xs, dtype=float)
        return np.where(xs <= 0.0, 0.0, -np.expm1(-self.rate * np.maximum(xs, 0.0)))

    def sf_array(self, xs, left=False):
        xs = np.asarray(xs, dtype=float)
        return np.where(xs <= 0.0, 1.0, np.exp(-self.rate * np.maximum(xs, 0.0)))

    def _quantile_array(self, us):
        # log1p(-u) / -rate is -log1p(-u) / rate to the bit, in one buffer
        q = np.negative(us, out=np.empty(us.shape))
        np.log1p(q, out=q)
        q /= -self.rate
        return q

    def _upper_quantile_array(self, us):
        return np.log(us) / -self.rate

    def support_hint(self):
        return (0.0, 40.0 / self.rate)

    def _support(self):
        return (0.0, math.inf)

    def describe(self) -> str:
        return f"exp:rate={self.rate!r}"


class TabulatedCdf(DistributionFunction):
    """CDF given by knots (x_i, p_i); right-continuous steps or piecewise linear.

    Step tables place all probability jumps at the knots; linear tables join
    the knots with straight segments and extend flat outside the span.  A
    quantile finds its knot through a guide table (``_level_index``), unsorted.
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

    def cdf_array(self, xs, left=False):
        """A linear table is continuous.  The ends of the line read 0 and 1 whatever
        the table's first and last p: a table whose p stays below 1 leaves its missing
        mass at +inf."""

        def lookup(q):
            if self.interpolation == "linear":
                inside = np.interp(q, self.xs, self.ps)
            else:
                idx = np.searchsorted(self.xs, q, side="left" if left else "right") - 1
                inside = np.where(idx < 0, 0.0, self.ps[np.maximum(idx, 0)])
            return np.where(np.isinf(q), q > 0.0, inside)

        return _in_query_order(lookup, xs, self.xs.size)

    def _quantile_array(self, us):
        ps, xs = self.ps, self.xs
        if self.interpolation == "step":
            # the clipped take and the fill in place keep only the index, one mask and
            # the output alive; atleast_1d because a 0-d level's index is a scalar
            idx = np.atleast_1d(_level_index(ps, us))
            out = xs.take(idx, mode="clip")
            out[idx == ps.size] = np.inf  # levels above ps[-1] are never reached
            return out.reshape(np.shape(us))
        idx = _level_index(ps, us)
        reached = idx < ps.size  # levels above ps[-1] invert to +inf
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

    def _support(self):
        """Read from the knots: a step table leaves 0 at its first positive p, a linear
        one after its last zero p, and both reach 1 at the first p = 1.  F is p[0] and
        p[-1] on a linear table's flat tails, so they bound neither end."""
        ps = self.ps
        zeros = int(np.searchsorted(ps, 0.0, "right"))  # the leading p = 0
        below = int(np.searchsorted(ps, 1.0, "left"))  # the p below 1
        x = np.concatenate(([-np.inf], self.xs, [np.inf]))
        if self.interpolation == "step":
            return float(x[zeros + 1]), float(x[below + 1])
        return (float(x[zeros]) if zeros < ps.size else math.inf, float(x[below + 1]) if below else -math.inf)

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


def _efgm_weight(a: float) -> float:
    """``a`` if it is an EFGM weight, in (0, 1]."""
    if not 0.0 < a <= 1.0:
        raise ValueError(f"EFGM weight must lie in (0,1], got {a}")
    return a


class EfgmMargin(DistributionFunction):
    """Margin of the countermonotonic max model whose copula is EFGM with weight a**2.

    The quantile map is the quadratic (a+1)u - a*u**2, so the CDF is its
    explicit inverse on [0,1]; uniform idiosyncratic shocks then factor it as
    EfgmMargin(a) = Uniform(0,1) * EfgmShock(a).
    """

    __slots__ = ("a",)

    def __init__(self, a: float):
        self.a = _efgm_weight(a)

    def cdf_array(self, xs, left=False):
        xs = np.asarray(xs, dtype=float)
        a = self.a
        inner = np.clip(xs, 0.0, 1.0)
        vals = (a + 1.0 - np.sqrt((a + 1.0) ** 2 - 4.0 * a * inner)) / (2.0 * a)
        return np.where(xs <= 0.0, 0.0, np.where(xs >= 1.0, 1.0, vals))

    def _quantile_array(self, us):
        return np.where(us < 1.0, (self.a + 1.0) * us - self.a * us * us, 1.0)

    def support_hint(self):
        return (0.0, 1.0)

    _support = support_hint

    def describe(self) -> str:
        return f"efgm-margin:a={self.a!r}"


class EfgmShock(DistributionFunction):
    """Systemic-shock CDF of the EFGM max model; satisfies margin = uniform * shock."""

    __slots__ = ("a",)

    def __init__(self, a: float):
        self.a = _efgm_weight(a)

    def cdf_array(self, xs, left=False):
        xs = np.asarray(xs, dtype=float)
        a = self.a
        inner = np.minimum(xs, 1.0)
        with np.errstate(over="ignore"):  # below about -1e307 F reads 0
            vals = 2.0 / ((a + 1.0) + np.sqrt((a + 1.0) ** 2 - 4.0 * a * inner))
        return np.where(xs >= 1.0, 1.0, vals)

    def _quantile_array(self, us):
        a = self.a
        with np.errstate(over="ignore"):  # below about 1e-154 the quantile is -inf in floats
            return np.where(us < 1.0, ((a + 1.0) - 1.0 / us) / (a * us), 1.0)

    def support_hint(self):
        return (-50.0, 1.0)

    def _support(self):
        return (-math.inf, 1.0)

    def describe(self) -> str:
        return f"efgm-shock:a={self.a!r}"


# ---------------------------------------------------------------------------
# combinators
# ---------------------------------------------------------------------------


class PointwiseCdf(DistributionFunction):
    """A law read from its parts at the same point: F(x) is ``_values`` of the parts'
    F_i(x), F(x-) of their F_i(x-) and the jump points are the union of theirs.  The
    left limits and jump points are right where ``_values`` is continuous in the parts'
    values; a law whose rule is not (a reconstructed shock) reads its own.

    ``hint`` is the pair (low, high) that takes the parts' lows and highs to the law's,
    for a rule that has one: both the support hint and the support apply it.  A law
    without one (``hint`` None) hints the hull of its parts' hints and knows no support."""

    hint = None

    def __init__(self, *parts: DistributionFunction):
        self.parts = parts

    @abstractmethod
    def _values(self, *fs: np.ndarray) -> np.ndarray:
        """The law's values from its parts' values read at the same points."""

    def cdf_array(self, xs, left=False):
        # a list, not a generator: the unpacking of a generator costs microseconds a call
        return self._values(*[p.cdf_array(xs, left) for p in self.parts])

    def jump_points(self):
        return tuple(sorted(set().union(*(p.jump_points() for p in self.parts))))

    def _ends(self, name: str, rule) -> tuple[float, float]:
        """``rule`` applied to the parts' lows and highs, read by their method ``name``;
        an end that a part does not know (NaN) leaves the law's end unknown too."""
        sides = zip(*(getattr(p, name)() for p in self.parts))
        return tuple(math.nan if any(map(math.isnan, e)) else pick(e) for pick, e in zip(rule, sides))

    def support_hint(self):
        return self._ends("support_hint", self.hint or (min, max))

    def _support(self):
        return self._ends("_support", self.hint) if self.hint else super()._support()


class Product(PointwiseCdf):
    """Pointwise product of two CDFs: the law of max{A, B} for independent A, B."""

    hint = (max, max)

    def _values(self, f1, f2):
        return f1 * f2

    def describe(self) -> str:
        d1, d2 = self.parts
        return f"product({d1.describe()};{d2.describe()})"


class SurvivalProduct(PointwiseCdf):
    """CDF of min{A, B} for independent A, B: max{F1, 1 - (1-F1)(1-F2)}.

    The product form is nondecreasing in floating point but can round to just below
    F1; F1 + F2(1-F1) cannot, yet wobbles by an ulp as F1 grows.  The max keeps both.
    """

    hint = (min, min)

    def _values(self, f1, f2):
        return np.maximum(f1, 1.0 - (1.0 - f1) * (1.0 - f2))

    def describe(self) -> str:
        d1, d2 = self.parts
        return f"survival-product({d1.describe()};{d2.describe()})"


class MappedCdf(DistributionFunction):
    """Law of t(A) for A of law ``inner``, t = ``forward`` and t^-1 = ``inverse`` on float
    arrays: A's jump points and support hint carried by t and sorted, and F_A(t^-1(x))
    for an increasing t, which inverts as t(Q_A(u)) through ``_parts_quantile_array``,
    whose guard catches a map that rounds.  A decreasing t reads A's upper tail for
    both F and Q, as ``NegatedCdf`` does."""

    def __init__(self, inner: DistributionFunction, forward, inverse, label: str):
        self.inner = inner
        self.forward = forward
        self.inverse = inverse
        self.label = label

    def cdf_array(self, xs, left=False):
        """F_A(t^-1(x)), where t^-1 may round across an end: exactly 0 before the declared
        start and 1 from the declared end on (F(x-): 0 at the start, 1 past the end)."""
        xs, (lo, hi) = np.asarray(xs, dtype=float), self.support()
        out = np.where((xs <= lo) if left else (xs < lo), 0.0, self.inner.cdf_array(self.inverse(xs), left))
        return np.where((xs > hi) if left else (xs >= hi), 1.0, out)

    def _quantile_array(self, us):
        return self._parts_quantile_array(us, lambda w: self.forward(self.inner._quantile_array(w)))

    def jump_points(self):
        jumps = np.asarray(self.inner.jump_points(), dtype=float)
        return tuple(np.sort(self.forward(jumps)).tolist())

    def _mapped(self, ends) -> tuple[float, float]:
        lo, hi = np.sort(self.forward(np.array(ends, dtype=float)))
        return float(lo), float(hi)

    def support_hint(self):
        return self._mapped(self.inner.support_hint())

    def _support(self):
        return self._mapped(self.inner._support())

    def describe(self) -> str:
        return f"{self.label}({self.inner.describe()})"


class NegatedCdf(MappedCdf):
    """Law of -A: the map is decreasing, so F(x) = 1 - F_A((-x)-), A's ``sf_array``,
    and Q(u) is minus A's upper quantile.  A negated exponential is spelled ``neg-exp``."""

    def __init__(self, inner: DistributionFunction):
        super().__init__(inner, np.negative, np.negative, "negated")

    def cdf_array(self, xs, left=False):
        return self.inner.sf_array(-np.asarray(xs, dtype=float), not left)

    def _quantile_array(self, us):
        return -self.inner._upper_quantile_array(us)

    def describe(self) -> str:
        if isinstance(self.inner, Exponential):
            return f"neg-exp:rate={self.inner.rate!r}"
        return super().describe()


def negated(d: DistributionFunction) -> DistributionFunction:
    """Negate a distribution; double negation unwraps exactly."""
    if isinstance(d, NegatedCdf):
        return d.inner
    return NegatedCdf(d)

