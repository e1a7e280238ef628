"""Generator functions on [0,1] for the four shock-copula families.

A generator is a function I -> R tagged with the condition set it claims to
satisfy:

* ``MARSHALL``   : 0 at 0, 1 at 1, nondecreasing, f(u)/u nonincreasing;
* ``MAXMIN_PSI`` : 0 at 0, 1 at 1, nondecreasing, (1-psi(v))/(v-psi(v))
  nonincreasing with the +oo convention where psi(v) = v;
* ``RMM``        : 0 at both ends, f(u)+u nondecreasing, f(u)/u nonincreasing
  on (0,1];
* ``SMM``        : 0 at both ends, u-h(u) nondecreasing, h(u)/(1-u)
  nondecreasing on [0,1).

``CLASS_SPECS`` writes each condition set once; ``validate`` turns it into
grid checks, which report as every check in the package does, through
``CheckResult``, ``CheckSuiteReport`` and ``_worst``.  ``derived_value``
exposes the auxiliary maps of ``DERIVED_MAPS`` (star, hat, dagger...), and
``generator_from_shocks`` builds a tabulated generator from a component CDF
and a margin CDF whose knots are points (margin(x), component(x)) of their
joint curve.
"""

from __future__ import annotations

import enum
import functools
import math
from abc import ABC, abstractmethod
from typing import Callable, NamedTuple

import numpy as np

from .distributions import DistributionFunction, _at, _in_query_order, _level_index
from .errors import (
    GeneratorKindError,
    GeneratorValidationError,
    ShockStructureError,
    TableFormatError,
)

DEFAULT_GRID = 1001
CLOSED_FORM_TOL = 1e-12
TABULATED_TOL = 1e-9


class GeneratorClass(enum.Enum):
    MARSHALL = "marshall"
    MAXMIN_PSI = "maxmin-psi"
    RMM = "rmm"
    SMM = "smm"


class Generator(ABC):
    declared_class: GeneratorClass

    @abstractmethod
    def _eval(self, u):
        """Evaluate at a float or ndarray of points in [0,1]."""

    def value(self, u: float) -> float:
        if not 0.0 <= u <= 1.0:
            raise ValueError(f"generator argument must lie in [0,1], got {u}")
        return _at(self.value_array, u)

    def value_array(self, us: np.ndarray) -> np.ndarray:
        return np.asarray(self._eval(np.asarray(us, dtype=float)), dtype=float)

    def __call__(self, u: float) -> float:
        return self.value(u)

    def ends(self) -> tuple[float, float, float]:
        """(g(0+), lim (g(u) - g(0+))/u at 0+, lim (g(1) - g(u))/(1 - u) at 1-): the
        limits ``derived_value`` and reconstruction read, declared, never probed."""
        raise NotImplementedError(f"{self.describe()} declares no ends, so no limit is read")

    @property
    def grid_tol(self) -> float:
        """Monotonicity slack appropriate to the representation."""
        return CLOSED_FORM_TOL

    def param_domain_violations(self) -> list[tuple[str, str]]:
        """(condition id, detail) pairs for named-family parameter constraints."""
        return []

    def _inverse_array(self, ws: np.ndarray, ratio: bool = False) -> np.ndarray:
        """inf{t in [0,1] : h(t) >= w} at levels w in (0,1] for this generator h, nondecreasing
        from 0 to 1, or with ``ratio`` inf{t in (0,1] : t/h(t) >= w}, nondecreasing where h is
        a Marshall generator or the hat form f + id of an RMM one, and 0 at levels up to
        its limit at 0+.  A closed form or a table solves it and may round an ulp short;
        a generator without one answers NaN, and a law built on it takes its own generic
        inverse at those levels."""
        return np.full(np.shape(ws), np.nan)

    @abstractmethod
    def describe(self) -> str:
        """Canonical descriptor string."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.describe()} [{self.declared_class.value}]>"


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


class _Family(NamedTuple):
    params: tuple[str, ...]
    fn: object
    check: object = None  # construction-time evaluability constraints
    domain: object = None  # family parameter-domain constraints, reported by validate()
    ends: object = None  # params -> the generator's ``ends()``


def _power_domain(p):
    if not p["alpha"] <= 1.0:
        return [("power-domain", f"alpha={p['alpha']} must lie in (0,1]")]
    return []


def _twoparam_domain(p):
    alpha, beta = p["alpha"], p["beta"]
    out = []
    if alpha > 1.0:
        out.append(("twoparam-domain", f"alpha={alpha} must lie in (0,1]"))
    elif alpha == 1.0:
        if beta > 1.0:
            out.append(("twoparam-domain", f"beta={beta} must lie in (0,1] when alpha=1"))
    elif beta < (1.0 - alpha) - 1e-12:
        out.append(("twoparam-domain", f"beta={beta} must be >= 1-alpha={1.0 - alpha}"))
    return out


def _efgm_domain(p):
    if not 0.0 < p["a"] <= 1.0:
        return [("efgm-domain", f"a={p['a']} must lie in (0,1]")]
    return []


def _positive(*names):
    def check(p):
        for n in names:
            if not p[n] > 0.0:
                raise ValueError(f"parameter {n} must be positive, got {p[n]}")

    return check


def _poly_eval(p, t):
    coeffs = [p[f"c{i}"] for i in range(len(p))]
    acc = t * 0.0
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def _power_slope(alpha):
    """The slope of t**alpha at 0+."""
    return math.inf if alpha < 1.0 else float(alpha == 1.0)


_FAMILIES: dict[str, _Family] = {
    "power": _Family(("alpha",), lambda p, t: t ** p["alpha"] - t, _positive("alpha"), _power_domain,
                     ends=lambda p: (0.0, _power_slope(p["alpha"]) - 1.0, p["alpha"] - 1.0)),
    "twoparam": _Family(("alpha", "beta"), lambda p, t: t ** p["alpha"] * (1.0 - t ** p["beta"]),
                        _positive("alpha", "beta"), _twoparam_domain,
                        ends=lambda p: (0.0, _power_slope(p["alpha"]), -p["beta"])),
    "efgmhat": _Family(("a",), lambda p, t: t + p["a"] * t * (1.0 - t), None, _efgm_domain,
                       ends=lambda p: (0.0, 1.0 + p["a"], 1.0 - p["a"])),
    "efgmf": _Family(("a",), lambda p, t: p["a"] * t * (1.0 - t), None, _efgm_domain,
                     ends=lambda p: (0.0, p["a"], -p["a"])),
    "identity": _Family((), lambda p, t: t + 0.0, ends=lambda p: (0.0, 1.0, 1.0)),
    "zero": _Family((), lambda p, t: t * 0.0, ends=lambda p: (0.0, 0.0, 0.0)),
    "fullshock": _Family((), lambda p, t: np.where(np.asarray(t) > 0.0, 1.0, 0.0),
                         ends=lambda p: (1.0, 0.0, 0.0)),
    "capped": _Family(("slope",), lambda p, t: np.minimum(p["slope"] * t, 1.0), _positive("slope"),
                      ends=lambda p: (0.0, p["slope"], p["slope"] if p["slope"] <= 1.0 else 0.0)),
}


def _efgmhat_inverse(p, w, ratio):
    """(1 + a)t - a t**2 = w, or t / that = 1/(1 + a(1 - t)) = w, solved for t.  The root
    is 2w / ((1 + a) + sqrt(D)) with D = (1 + a)**2 - 4aw written (1 - a)**2 + 4a(1 - w),
    a sum that keeps its bits as w nears 1, where the difference loses them."""
    a = p["a"]
    if ratio:
        with np.errstate(over="ignore"):  # 1/w of a subnormal level
            return np.maximum((1.0 + a - 1.0 / w) / a, 0.0)
    return 2.0 * w / ((1.0 + a) + np.sqrt((1.0 - a) ** 2 + 4.0 * a * (1.0 - w)))


def _identity_inverse(p, w, ratio):
    return np.zeros_like(w) if ratio else w.copy()


#: the closed-form ``_inverse_array`` (params, levels, ratio) of a family whose values rise
#: from 0 to 1, and of a family under plus-id (its hat form f + id) by that stack's name
_INVERSES = {
    "identity": _identity_inverse,
    # min(s t, 1) and t / min(s t, 1) = max(1/s, t)
    "capped": lambda p, w, ratio: np.where(w > 1.0 / p["slope"], w, 0.0) if ratio else w / p["slope"],
    "efgmhat": _efgmhat_inverse,
    "plus-id(efgmf)": _efgmhat_inverse,
}


class ClosedFormGenerator(Generator):
    """Named closed-form generator; ``poly`` takes coefficients c0, c1, ..."""

    def __init__(self, family: str, params: dict | None, declared_class: GeneratorClass):
        params = dict(params or {})
        if family == "poly":
            expected = {f"c{i}" for i in range(len(params))}
            if set(params) != expected or not params:
                raise ValueError(f"poly parameters must be c0..c{{n}}, got {sorted(params)}")
        else:
            spec = _FAMILIES.get(family)
            if spec is None:
                raise ValueError(f"unknown generator family {family!r}")
            if set(params) != set(spec.params):
                raise ValueError(
                    f"{family} expects parameters {spec.params}, got {tuple(sorted(params))}"
                )
            if spec.check is not None:
                spec.check(params)
        self.family = family
        self.params = params
        self.declared_class = declared_class

    def _eval(self, u):
        if self.family == "poly":
            return _poly_eval(self.params, u)
        return _FAMILIES[self.family].fn(self.params, u)

    def ends(self):
        if self.family != "poly":
            return _FAMILIES[self.family].ends(self.params)
        c = [self.params[f"c{k}"] for k in range(len(self.params))]
        return (c[0], c[1] if len(c) > 1 else 0.0, sum(k * ck for k, ck in enumerate(c)))

    def param_domain_violations(self):
        if self.family == "poly":
            return []
        domain = _FAMILIES[self.family].domain
        return list(domain(self.params)) if domain else []

    def _inverse_array(self, ws, ratio=False):
        inverse = _INVERSES.get(self.family)
        return inverse(self.params, ws, ratio) if inverse else super()._inverse_array(ws, ratio)

    def describe(self) -> str:
        if not self.params:
            return self.family
        args = ",".join(f"{k}={self.params[k]!r}" for k in sorted(self.params))
        return f"{self.family}:{args}"


def closed_form(family: str, declared_class: GeneratorClass, **params) -> ClosedFormGenerator:
    return ClosedFormGenerator(family, params, declared_class)


class TabulatedGenerator(Generator):
    """Piecewise-linear generator on knots spanning [0,1].

    Evaluation interpolates the points in ascending order (see
    ``distributions._in_query_order``) and inverts through a guide table
    (``distributions._level_index``); neither changes a value.
    """

    def __init__(self, us, values, declared_class: GeneratorClass):
        us = np.asarray(us, dtype=float)
        values = np.asarray(values, dtype=float)
        if us.ndim != 1 or us.shape != values.shape or us.size < 2:
            raise TableFormatError("tabulated generator needs matching u/value knots")
        if not (np.all(np.isfinite(us)) and np.all(np.isfinite(values))):
            raise TableFormatError("tabulated generator knots and values must be finite")
        if us[0] != 0.0 or us[-1] != 1.0:
            raise TableFormatError("tabulated generator knots must span [0,1]")
        if np.any(np.diff(us) <= 0):
            raise TableFormatError("tabulated generator knots must be strictly increasing")
        self.us = us
        self.values = values
        self.declared_class = declared_class

    def _eval(self, u):
        return _in_query_order(lambda q: np.interp(q, self.us, self.values), u, self.us.size)

    @property
    def grid_tol(self) -> float:
        return TABULATED_TOL

    def ends(self):
        us, v = self.us, self.values
        return (v[0], (v[1] - v[0]) / us[1], (v[-1] - v[-2]) / (1.0 - us[-2]))

    def _inverse_array(self, ws, ratio=False):
        """Solved on the segment [u0, u1] where the running maximum of h, or of t/h(t), at
        the knots first reaches w: with h = v0 + beta (t - u0) there, h(t) = w at
        t = u0 + (w - v0)/beta and t/h(t) = w at t = u0 + (w v0 - u0)/(1 - w beta)."""
        us, v = self.us, self.values
        ys = v
        if ratio:
            with np.errstate(divide="ignore", invalid="ignore"):
                ys = us / v
            # t/h(t) at 0+: 0 if h(0) > 0, else its value on the first segment, through 0
            ys[0] = 0.0 if v[0] > 0.0 else ys[1]
        reach = np.maximum.accumulate(ys)
        j = _level_index(reach, ws)  # reach[j-1] < w <= reach[j]
        k = np.clip(j, 1, us.size - 1)
        u0, u1, v0, v1 = us[k - 1], us[k], v[k - 1], v[k]
        with np.errstate(all="ignore"):
            if ratio:
                t = u0 + (ws * v0 - u0) / (1.0 - ws * (v1 - v0) / (u1 - u0))
            else:
                t = u0 + (ws - v0) / (v1 - v0) * (u1 - u0)
        return np.where(j == 0, 0.0, np.where(j == us.size, 1.0, np.clip(t, u0, u1)))

    def describe(self) -> str:
        return f"tabulated:knots={self.us.size}"


# ---------------------------------------------------------------------------
# the affine adapter: a stack of wrappers is one map
# ---------------------------------------------------------------------------

#: wrapper name -> its map (s, flip, t, c), s = +-1 and t, c integers (see AffineGenerator)
WRAPPERS = {"reflect": (1, True, 0, 0), "minus-id": (1, False, -1, 0),
            "id-minus": (-1, False, 1, 0), "plus-id": (1, False, 1, 0)}


def _affine(y, x, m):
    """s*y + t*x + c of the map m, one array operation per nonzero term: g - x rounds as written."""
    s, _, t, c = m
    if t:
        tx = x if abs(t) == 1 else abs(t) * x
        y = (y + tx if t > 0 else y - tx) if s > 0 else (tx - y if t > 0 else -(y + tx))
    elif s < 0:
        y = -y
    return y + c if c else y


class AffineGenerator(Generator):
    """u -> s*base(x) + t*x + c, x = 1-u if flip else u: a wrapper stack as one map, built
    by :func:`affine`.  The affine part is on x: reflect(minus-id(g)) is g(1-u) - (1-u)."""

    def __init__(self, base: Generator, m: tuple, declared_class: GeneratorClass):
        self.base, self.map, self.declared_class = base, m, declared_class

    def _eval(self, u):
        x = 1.0 - u if self.map[1] else u
        return _affine(self.base._eval(x), x, self.map)

    @property
    def grid_tol(self) -> float:
        return self.base.grid_tol

    def ends(self):
        s, flip, t, c = self.map
        v, a, b = self.base.ends()
        if not flip:
            return (s * v + c, s * a + t, s * b + t)
        jump = self.base.value(0.0) - v  # g(0) - g(0+): G jumps at 1 by s times it
        at_1 = -(s * a + t) if jump == 0.0 else math.copysign(math.inf, s * jump)
        return (s * self.base.value(1.0) + t + c, -(s * b + t), at_1)

    def param_domain_violations(self):
        s, _, t, c = self.map  # the base family's domain holds while its values are kept
        return self.base.param_domain_violations() if (s, t, c) == (1, 0, 0) else []

    def _inverse_array(self, ws, ratio=False):
        closed = isinstance(self.base, ClosedFormGenerator)
        inverse = closed and _INVERSES.get(_stack(*self.map, self.base.family))
        return inverse(self.base.params, ws, ratio) if inverse else super()._inverse_array(ws, ratio)

    def describe(self) -> str:
        return _stack(*self.map, self.base.describe())


def _stack(s, flip, t, c, text) -> str:
    """text in the map's canonical stack: offsets; with a flip, the offsets that make c
    over reflect(offsets); with c but no flip, reflect round that."""
    if not flip:
        if c:
            return f"reflect({_stack(s, True, t, c, text)})"
        if s < 0:
            return f"id-minus({_stack(1, False, 1 - t, 0, text)})"
        return ("plus-id(" if t > 0 else "minus-id(") * abs(t) + text + ")" * abs(t)
    out = f"reflect({_stack(s, False, t + c, 0, text)})"
    return ("plus-id(" if c > 0 else "minus-id(") * abs(c) + out + ")" * abs(c)


def affine(gen: Generator, m: tuple, declared_class: GeneratorClass) -> Generator:
    """gen under the map m of ``WRAPPERS``, tagged ``declared_class``.  A wrapped gen
    composes into one map over its base; the identity gives the base itself if it has
    ``declared_class``; a map without a flip over a table gives the table s*values + t*us + c."""
    if isinstance(gen, AffineGenerator):  # m after gen.map; if gen.map flips, m's x is 1 - x
        (s, flip, t, c), (s2, flip2, t2, c2), gen = m, gen.map, gen.base
        m = (s * s2, flip != flip2, s * t2 + (-t if flip2 else t), s * c2 + c + (t if flip2 else 0))
    if m == (1, False, 0, 0) and gen.declared_class is declared_class:
        return gen
    if isinstance(gen, TabulatedGenerator) and not m[1]:
        return TabulatedGenerator(gen.us, _affine(gen.values, gen.us, m), declared_class)
    return AffineGenerator(gen, m, declared_class)


def ReflectedGenerator(inner: Generator, declared_class: GeneratorClass | None = None) -> Generator:
    """inner(1-u), by default in the reflected class of inner's."""
    target = declared_class or CLASS_SPECS[inner.declared_class].reflected
    return affine(inner, WRAPPERS["reflect"], target)


def hat_to_f(hat: Generator, declared_class: GeneratorClass = GeneratorClass.RMM) -> Generator:
    """Subtract the identity from a hat-form generator (0 at 0, 1 at 1)."""
    h0, h1 = hat.value(0.0), hat.value(1.0)
    if h0 != 0.0 or h1 != 1.0:
        raise GeneratorValidationError(
            f"hat form must satisfy hat(0)=0 and hat(1)=1, got {h0} and {h1}"
        )
    return affine(hat, WRAPPERS["minus-id"], declared_class)


def hat_of(f: Generator) -> Generator:
    """Add the identity to a generator: the hat form used in shock reconstruction."""
    return affine(f, WRAPPERS["plus-id"], f.declared_class)


def identity_minus(g: Generator, declared_class: GeneratorClass) -> Generator:
    """u - g(u), tagged with the requested class."""
    return affine(g, WRAPPERS["id-minus"], declared_class)


def rmm_to_smm(f: Generator) -> Generator:
    """h(u) = f(1-u); requires a valid RMM generator, returns a valid SMM one."""
    return _require_valid(ReflectedGenerator(_require_valid(f, GeneratorClass.RMM)))


def smm_to_rmm(h: Generator) -> Generator:
    """f(u) = h(1-u); inverse of :func:`rmm_to_smm`, round-trip is exact."""
    return _require_valid(ReflectedGenerator(_require_valid(h, GeneratorClass.SMM)))


def _require_valid(gen: Generator, expected: GeneratorClass | None = None) -> Generator:
    """gen, once it has the expected class (its own by default) and passes validation."""
    expected = expected or gen.declared_class
    if gen.declared_class is not expected:
        raise GeneratorValidationError(
            f"expected a {expected.value} generator, got {gen.declared_class.value}"
        )
    report = validate(gen)
    if not report.passed:
        failed = "; ".join(r.render() for r in report.results if not r.passed)
        raise GeneratorValidationError(
            f"{gen.describe()} fails {expected.value} validation: {failed}", report=report
        )
    return gen


# ---------------------------------------------------------------------------
# the class table: derived maps and condition sets
# ---------------------------------------------------------------------------


def _psi_star(f, u):
    den = u - f
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(den == 0.0, np.inf, np.divide(1.0 - f, den))


class _DerivedMap(NamedTuple):
    """u -> fn(f(u), u), one formula for floats and arrays.

    ``validate`` leaves out the grid point ``end``, where the map is undefined;
    a ``limit`` map is f(u)/|u - end| and ``derived_value`` reads its one-sided
    limit there from the generator's ``ends()``.
    """

    fn: Callable
    end: float = np.nan
    limit: bool = False


DERIVED_MAPS = {
    "star": _DerivedMap(lambda f, u: f / u, end=0.0, limit=True),
    "dagger": _DerivedMap(lambda f, u: f / (1.0 - u), end=1.0, limit=True),
    "psi_star": _DerivedMap(_psi_star, end=1.0),  # +oo where psi(u) = u
    "hat": _DerivedMap(lambda f, u: f + u),
    "hat_dagger": _DerivedMap(lambda f, u: u - f),
}
_OWN_VALUES = _DerivedMap(lambda f, u: f)


class ClassSpec(NamedTuple):
    """A generator class's condition set and its reflection.

    ``ends`` are the values required at 0 and at 1.  Each rule is (condition
    id, derived map, +1 nondecreasing or -1 nonincreasing), the map None
    meaning the generator itself.  ``reflected`` is the class of u -> f(1-u);
    ``notes`` name the conditions that ``validate`` does not enforce.
    """

    ends: tuple[float, float]
    rules: tuple[tuple[str, str | None, int], ...]
    reflected: GeneratorClass
    notes: tuple[str, ...] = ()

    @property
    def kinds(self) -> set[str]:
        """The derived maps defined for the class: those its rules read."""
        return {kind for _, kind, _ in self.rules if kind is not None}


CLASS_SPECS = {
    GeneratorClass.MARSHALL: ClassSpec(
        (0.0, 1.0),
        (("nondecreasing", None, +1), ("star-nonincreasing", "star", -1)),
        GeneratorClass.MARSHALL,
    ),
    GeneratorClass.MAXMIN_PSI: ClassSpec(
        (0.0, 1.0),
        (("nondecreasing", None, +1), ("psi-star-nonincreasing", "psi_star", -1)),
        GeneratorClass.MAXMIN_PSI,
    ),
    GeneratorClass.RMM: ClassSpec(
        (0.0, 0.0),
        (("hat-nondecreasing", "hat", +1), ("star-nonincreasing", "star", -1)),
        GeneratorClass.SMM,
        ("literal zero-limit condition on f(u)/u at u=0 not enforced",),
    ),
    GeneratorClass.SMM: ClassSpec(
        (0.0, 0.0),
        (("hat-dagger-nondecreasing", "hat_dagger", +1), ("dagger-nondecreasing", "dagger", +1)),
        GeneratorClass.RMM,
        ("literal end condition on u-h(u) at u=1 not enforced",),
    ),
}


def derived_value(gen: Generator, kind: str, u: float) -> float:
    """Evaluate a derived map; divergent one-sided limits come back as +inf."""
    if kind not in CLASS_SPECS[gen.declared_class].kinds:
        raise GeneratorKindError(
            f"derived kind {kind!r} is not defined for class {gen.declared_class.value}"
        )
    if not 0.0 <= u <= 1.0:
        raise ValueError(f"argument must lie in [0,1], got {u}")
    m = DERIVED_MAPS[kind]
    if m.limit and u == m.end:
        # f(u)/|u - end| tends to the slope into the end if f vanishes there, else diverges
        v0, slope_0, slope_1 = gen.ends()
        f, slope = (v0, slope_0) if m.end == 0.0 else (gen.value(1.0), -slope_1)
        return float(slope) if f == 0.0 else math.copysign(math.inf, f)
    return float(m.fn(gen.value(u), u))


# ---------------------------------------------------------------------------
# verdicts: the one report type of every check in the package
# ---------------------------------------------------------------------------


class CheckResult(NamedTuple):
    """One condition's verdict: its worst magnitude, the point that shows it and,
    where no point can (a parameter domain, a failed hypothesis), a ``detail``."""

    check_id: str
    passed: bool
    magnitude: float
    witness: tuple[float, float] | None = None
    detail: str = ""

    def render(self) -> str:
        mark = "pass" if self.passed else "FAIL"
        where = ""
        if self.witness is not None:
            where = f" at ({self.witness[0]:.6g}, {self.witness[1]:.6g})"
        detail = f" ({self.detail})" if self.detail else ""
        return f"[{mark}] {self.check_id}: worst {self.magnitude:.3e}{where}{detail}"


class CheckSuiteReport(NamedTuple):
    """A suite's verdicts in order; ``notes`` name the conditions it does not check."""

    suite: str
    results: tuple[CheckResult, ...]
    notes: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def render_text(self) -> str:
        lines = [f"suite {self.suite}: {'pass' if self.passed else 'FAIL'}"]
        lines += ["  " + r.render() for r in self.results]
        lines += ["  note: " + n for n in self.notes]
        return "\n".join(lines)

    def csv_rows(self) -> list[str]:
        rows = ["check_id,status,magnitude,u,v"]
        for r in self.results:
            u, v = r.witness if r.witness is not None else ("", "")
            status = "pass" if r.passed else "fail"
            rows.append(f"{r.check_id},{status},{r.magnitude!r},{u},{v}")
        return rows


def _worst(check_id, gaps, us, vs, tol) -> CheckResult:
    """The result at the first largest gap in row-major order; a NaN gap counts as the
    largest and fails, a negative largest gap reports 0.  ``us`` and ``vs`` have the
    dimensions of ``gaps`` and broadcast to its shape: a length-1 axis reads index 0."""
    at = np.unravel_index(int(np.argmax(gaps)), gaps.shape)
    mag = float(gaps[at])
    mag = 0.0 if mag <= 0.0 else mag  # not max(0.0, mag), which turns NaN into 0.0
    u, v = (float(x[tuple(i if n > 1 else 0 for n, i in zip(x.shape, at))]) for x in (us, vs))
    return CheckResult(check_id, mag <= tol, mag, (u, v))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def validate(gen: Generator, grid_size: int = DEFAULT_GRID, tol: float | None = None) -> CheckSuiteReport:
    """Check the condition set of the generator's declared class on a uniform grid.

    Rows, in order: a failed row per parameter-domain violation (its text in
    ``detail``); ``boundary-at-0`` and ``boundary-at-1``, compared exactly; one
    row per class rule, whose worst step between consecutive grid points must
    stay within the additive slack ``tol`` (defaults to 1e-12 for closed forms,
    1e-9 for tabulated ones).  Witnesses are (u, 0), a step's u its right end.
    """
    if grid_size < 3:
        raise ValueError("grid_size must be at least 3")
    if tol is None:
        tol = gen.grid_tol
    us = np.linspace(0.0, 1.0, grid_size)
    vals = gen.value_array(us)
    spec = CLASS_SPECS[gen.declared_class]
    domain = gen.param_domain_violations()
    rows = [CheckResult(cond, False, np.nan, None, detail) for cond, detail in domain]
    for check_id, at, end in zip(("boundary-at-0", "boundary-at-1"), (0, -1), spec.ends):
        v = float(vals[at])
        rows.append(CheckResult(check_id, v == end, abs(v - end), (float(us[at]), 0.0)))

    for condition, kind, direction in spec.rules:
        m = DERIVED_MAPS[kind] if kind else _OWN_VALUES
        keep = slice(int(m.end == 0.0), grid_size - int(m.end == 1.0))
        ys = m.fn(vals[keep], us[keep])
        with np.errstate(invalid="ignore"):  # a step between equal infinities is flat
            steps = np.where((ys[1:] == ys[:-1]) & np.isinf(ys[1:]), 0.0, np.diff(ys))
        rows.append(_worst(condition, -direction * steps, us[keep][1:], np.zeros(1), tol))

    return CheckSuiteReport(
        f"validate[{gen.describe()} as {gen.declared_class.value}]", tuple(rows), spec.notes
    )


# ---------------------------------------------------------------------------
# construction from shock distributions
# ---------------------------------------------------------------------------

DEFAULT_RESOLUTION = 4096
_PRECHECK_TOL = 1e-9


def generator_from_shocks(
    component: DistributionFunction,
    margin: DistributionFunction,
    *,
    declared_class: GeneratorClass = GeneratorClass.MARSHALL,
    resolution: int = DEFAULT_RESOLUTION,
    points=(),
) -> TabulatedGenerator:
    """Tabulate u -> component(margin^{-1}(u)) on forward knots (margin(x), component(x)).

    A ``MARSHALL`` generator asserts margin <= component (max-type models, where
    the margin is the product of the component with a shock); a ``MAXMIN_PSI`` one
    the reverse (min-type models), checked within 1e-9 at every knot; ShockStructureError
    names the worst one, at its ladder level's exact quantile.  The knots lie at each
    x of ``points``, so the generator reads component(x) to the bit at margin(x); at
    a point interpolated near each ladder level in the margin's quantile table
    (``_place_array``); and, for each jump J of the margin, at J- and at J, so the line
    between these two spans the gap.  Knots at u = 0 or 1 give way to the ends
    (0, 0) and (1, 1); of equal u the first is kept, a point's before the ladder's.
    """
    below = {GeneratorClass.MARSHALL: True, GeneratorClass.MAXMIN_PSI: False}.get(declared_class)
    if below is None:
        raise ValueError(f"shocks give a marshall or maxmin-psi generator, not {declared_class}")
    if resolution < 8:
        raise ValueError("resolution must be at least 8")

    levels = _ladder(resolution)
    jumps = np.asarray(margin.jump_points(), dtype=float)
    points = np.asarray(points, dtype=float)
    xs = np.concatenate((points, margin._place_array(levels), jumps))
    us = np.concatenate((margin.cdf_array(xs), margin.cdf_left_array(jumps)))
    values = np.concatenate((component.cdf_array(xs), component.cdf_left_array(jumps)))
    sign = 1.0 if below else -1.0
    gap = sign * (us - values)
    worst = int(np.argmax(gap))
    if gap[worst] > _PRECHECK_TOL:
        rel = "margin > component" if below else "component > margin"
        x, excess = float(np.concatenate((xs, jumps))[worst]), gap[worst]  # left limits: x = J
        if 0 <= worst - points.size < levels.size:  # a placed knot: at its level's exact quantile
            x = float(margin.quantile(levels[worst - points.size]))
            excess = sign * (margin.cdf(x) - component.cdf(x))
        raise ShockStructureError(
            f"{rel} by {excess:.3g} at x={x:.6g} "
            f"(component {component.describe()}, margin {margin.describe()})",
            witness=x,
        )
    del gap  # peak RSS: free it before the table's own arrays are built
    inside = (us > 0.0) & (us < 1.0)
    us, first = np.unique(us[inside], return_index=True)
    values = values[inside][first]
    return TabulatedGenerator(
        np.concatenate(([0.0], us, [1.0])), np.concatenate(([0.0], values, [1.0])), declared_class
    )


@functools.lru_cache(maxsize=4)
def _ladder(resolution: int) -> np.ndarray:
    """Ascending interior knot levels; graded tails keep hat maps ~ u**beta O(resolution**-2).
    Built once per resolution and shared, so the array is read-only."""
    ladder = (np.arange(1, resolution, dtype=float) / resolution) ** 6
    levels = np.unique(np.concatenate((np.linspace(0.0, 1.0, resolution + 1), ladder, 1.0 - ladder)))
    levels = levels[(levels > 0.0) & (levels < 1.0)]
    levels.flags.writeable = False
    return levels
