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
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .distributions import DistributionFunction, _at, _in_query_order
from .errors import (
    GeneratorKindError,
    GeneratorValidationError,
    ShockStructureError,
    TableFormatError,
)

STAR_LIMIT_PROBES = (1e-9, 1e-12)
STAR_DIVERGENCE_CAP = 1e12
_STAR_GROWTH_RATIO = 1.5
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

    @property
    def grid_tol(self) -> float:
        """Monotonicity slack appropriate to the representation."""
        return CLOSED_FORM_TOL

    def param_domain_violations(self) -> list[tuple[str, str]]:
        """(condition id, detail) pairs for named-family parameter constraints."""
        return []

    @abstractmethod
    def describe(self) -> str:
        """Canonical descriptor string."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.describe()} [{self.declared_class.value}]>"


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Family:
    params: tuple[str, ...]
    fn: object
    check: object = None  # construction-time evaluability constraints
    domain: object = None  # family parameter-domain constraints, reported by validate()


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


_FAMILIES: dict[str, _Family] = {
    "power": _Family(("alpha",), lambda p, t: t ** p["alpha"] - t, _positive("alpha"), _power_domain),
    "twoparam": _Family(
        ("alpha", "beta"),
        lambda p, t: t ** p["alpha"] * (1.0 - t ** p["beta"]),
        _positive("alpha", "beta"),
        _twoparam_domain,
    ),
    "efgmhat": _Family(("a",), lambda p, t: t + p["a"] * t * (1.0 - t), None, _efgm_domain),
    "efgmf": _Family(("a",), lambda p, t: p["a"] * t * (1.0 - t), None, _efgm_domain),
    "identity": _Family((), lambda p, t: t + 0.0),
    "zero": _Family((), lambda p, t: t * 0.0),
    "fullshock": _Family((), lambda p, t: np.where(np.asarray(t) > 0.0, 1.0, 0.0)),
    "capped": _Family(("slope",), lambda p, t: np.minimum(p["slope"] * t, 1.0), _positive("slope")),
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

    def param_domain_violations(self):
        if self.family == "poly":
            return []
        domain = _FAMILIES[self.family].domain
        return list(domain(self.params)) if domain else []

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
    ``distributions._in_query_order``); a value does not depend on that order.
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

    def describe(self) -> str:
        return f"tabulated:knots={self.us.size}"


# ---------------------------------------------------------------------------
# adapters
# ---------------------------------------------------------------------------

class ReflectedGenerator(Generator):
    """Evaluates the wrapped generator at 1-u."""

    def __init__(self, inner: Generator, declared_class: GeneratorClass | None = None):
        self.inner = inner
        self.declared_class = declared_class or CLASS_SPECS[inner.declared_class].reflected

    def _eval(self, u):
        return self.inner._eval(1.0 - u)

    @property
    def grid_tol(self) -> float:
        return self.inner.grid_tol

    def param_domain_violations(self):
        return self.inner.param_domain_violations()

    def describe(self) -> str:
        return f"reflect({self.inner.describe()})"


class IdentityOffsetGenerator(Generator):
    """Combine a generator with the identity map: inner-id, id-inner, or inner+id."""

    _MODES = {
        "minus-id": lambda g, u: g - u,
        "id-minus": lambda g, u: u - g,
        "plus-id": lambda g, u: g + u,
    }

    def __init__(self, inner: Generator, mode: str, declared_class: GeneratorClass):
        if mode not in self._MODES:
            raise ValueError(f"unknown identity-offset mode {mode!r}")
        self.inner = inner
        self.mode = mode
        self.declared_class = declared_class

    def _eval(self, u):
        return self._MODES[self.mode](self.inner._eval(u), u)

    @property
    def grid_tol(self) -> float:
        return self.inner.grid_tol

    def describe(self) -> str:
        return f"{self.mode}({self.inner.describe()})"


def hat_to_f(hat: Generator, declared_class: GeneratorClass = GeneratorClass.RMM) -> Generator:
    """Subtract the identity from a hat-form generator (0 at 0, 1 at 1)."""
    h0, h1 = hat.value(0.0), hat.value(1.0)
    if h0 != 0.0 or h1 != 1.0:
        raise GeneratorValidationError(
            f"hat form must satisfy hat(0)=0 and hat(1)=1, got {h0} and {h1}"
        )
    if isinstance(hat, TabulatedGenerator):
        return TabulatedGenerator(hat.us, hat.values - hat.us, declared_class)
    return IdentityOffsetGenerator(hat, "minus-id", declared_class)


def hat_of(f: Generator) -> Generator:
    """Add the identity to a generator: the hat form used in shock reconstruction."""
    if isinstance(f, TabulatedGenerator):
        return TabulatedGenerator(f.us, f.values + f.us, f.declared_class)
    return IdentityOffsetGenerator(f, "plus-id", f.declared_class)


def identity_minus(g: Generator, declared_class: GeneratorClass) -> Generator:
    """u - g(u), tagged with the requested class."""
    if isinstance(g, TabulatedGenerator):
        return TabulatedGenerator(g.us, g.us - g.values, declared_class)
    return IdentityOffsetGenerator(g, "id-minus", declared_class)


def rmm_to_smm(f: Generator) -> Generator:
    """h(u) = f(1-u); requires a valid RMM generator, returns a valid SMM one."""
    return _reflect_valid(f, GeneratorClass.RMM)


def smm_to_rmm(h: Generator) -> Generator:
    """f(u) = h(1-u); inverse of :func:`rmm_to_smm`, round-trip is exact."""
    return _reflect_valid(h, GeneratorClass.SMM)


def _reflect_valid(gen: Generator, source: GeneratorClass) -> Generator:
    """gen(1-u) in the reflected class, unwrapping a reflection; both ends validated."""
    _require_valid(gen, source)
    out = _reflected(gen)
    _require_valid(out, CLASS_SPECS[source].reflected)
    return out


def _reflected(gen: Generator) -> Generator:
    """gen(1-u) in the reflected class, unvalidated; the reflection of a generator
    of that class unwraps to it, so reflecting twice gives gen itself."""
    target = CLASS_SPECS[gen.declared_class].reflected
    if isinstance(gen, ReflectedGenerator) and gen.inner.declared_class is target:
        return gen.inner
    return ReflectedGenerator(gen, target)


def _require_valid(gen: Generator, expected: GeneratorClass) -> None:
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


# ---------------------------------------------------------------------------
# the class table: derived maps and condition sets
# ---------------------------------------------------------------------------


def _psi_star(f, u):
    den = u - f
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(den == 0.0, np.inf, np.divide(1.0 - f, den))


@dataclass(frozen=True)
class _DerivedMap:
    """u -> fn(f(u), u), one formula for floats and arrays.

    ``validate`` leaves out the grid point ``end``, where the map is undefined;
    a ``limit`` map is f(u)/|u - end| and ``derived_value`` takes its one-sided
    limit there.
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


@dataclass(frozen=True)
class ClassSpec:
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

    @functools.cached_property
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
        return _one_sided_limit(lambda p: gen.value(abs(m.end - p)) / p)
    return float(m.fn(gen.value(u), u))


def _one_sided_limit(ratio) -> float:
    """Estimate a one-sided limit of a monotone ratio from two probe offsets.

    Reported as +inf when the closer probe exceeds the divergence cap or keeps
    growing markedly as the probe tightens (a power-law divergence too slow to
    reach the cap at representable offsets).
    """
    far = ratio(STAR_LIMIT_PROBES[0])
    near = ratio(STAR_LIMIT_PROBES[1])
    if near > STAR_DIVERGENCE_CAP:
        return math.inf
    if near > _STAR_GROWTH_RATIO * max(far, 1e-300) and near > far + 1e-9:
        return math.inf
    return near


# ---------------------------------------------------------------------------
# verdicts: the one report type of every check in the package
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
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


@dataclass(frozen=True)
class CheckSuiteReport:
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
    margin_side: str = "below",
) -> TabulatedGenerator:
    """Tabulate u -> component(margin^{-1}(u)) on forward knots (margin(x), component(x)).

    ``margin_side="below"`` asserts margin <= component (max-type models, where
    the margin is the product of the component with a shock); ``"above"`` the
    reverse (min-type models), checked within 1e-9 at every knot; ShockStructureError
    names the worst one, at its ladder level's exact quantile.  The knots lie at a
    point interpolated near each ladder level in the margin's quantile table
    (``_place_array``) and, for each jump J of the margin, at J- and at J, so the line
    between these two spans the gap.  Knots at u = 0 or 1 give way to the ends
    (0, 0) and (1, 1); of equal u the first is kept.
    """
    if margin_side not in ("below", "above"):
        raise ValueError(f"margin_side must be 'below' or 'above', got {margin_side!r}")
    if resolution < 8:
        raise ValueError("resolution must be at least 8")

    levels = _ladder(resolution)
    jumps = np.asarray(margin.jump_points(), dtype=float)
    xs = np.concatenate((margin._place_array(levels), jumps))
    us = np.concatenate((margin.cdf_array(xs), margin.cdf_left_array(jumps)))
    values = np.concatenate((component.cdf_array(xs), component.cdf_left_array(jumps)))
    sign = 1.0 if margin_side == "below" else -1.0
    gap = sign * (us - values)
    worst = int(np.argmax(gap))
    if gap[worst] > _PRECHECK_TOL:
        rel = "margin > component" if margin_side == "below" else "component > margin"
        x, excess = float(np.concatenate((xs, jumps))[worst]), gap[worst]  # left limits: x = J
        if worst < levels.size:  # a placed knot: report at its level's exact quantile
            x = float(margin.quantile(levels[worst]))
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
