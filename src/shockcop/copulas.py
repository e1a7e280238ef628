"""Evaluable copula families, rectangle volumes, the survival and sigma flips, joins.

Raw evaluation is deliberately unclamped so that axiom violations stay
observable to the check suites.

The wrappers ``survival``, ``sigma1`` and ``sigma2`` flip U and V, U, or V
(u -> 1-u); with the identity they form the group Z2 x Z2, and ``FlippedCopula``
is the one wrapper for all three.  maxmin, RMM = sigma2(maxmin) and
SMM = sigma1(maxmin) = survival(RMM) lie on one orbit of this group:
``normalize`` composes a stack of flips and, where it carries one of these
families onto RMM or SMM, returns that family with the generators of the
flipped coordinates reflected.  The bounds M and W form an orbit of their own
(a flip of one coordinate swaps them, a flip of both fixes each), and every
flip fixes independence.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from .distributions import DistributionFunction
from .errors import GeneratorValidationError
from .generators import (
    WRAPPERS,
    Generator,
    GeneratorClass,
    ReflectedGenerator,
    _require_valid,
    affine,
    closed_form,
)


class Copula(ABC):
    @abstractmethod
    def _eval(self, u, v):
        """Evaluate the family formula at floats or ndarrays."""

    def value(self, u: float, v: float) -> float:
        if not (0.0 <= u <= 1.0 and 0.0 <= v <= 1.0):
            raise ValueError(f"copula arguments must lie in [0,1]^2, got ({u}, {v})")
        return float(self.value_array(np.array([float(u)]), np.array([float(v)]))[0])

    def value_array(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        return np.asarray(self._eval(np.asarray(us, dtype=float), np.asarray(vs, dtype=float)))

    def volume(self, rect: "Rectangle") -> float:
        c = self.value_array([rect.u2, rect.u1, rect.u2, rect.u1], [rect.v2, rect.v2, rect.v1, rect.v1])
        return float(c[0] - c[1] - c[2] + c[3])

    @abstractmethod
    def describe(self) -> str:
        """Canonical descriptor string."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.describe()}>"


class Rectangle:
    """The rectangle [u1, u2] x [v1, v2] of the unit square."""

    __slots__ = ("u1", "u2", "v1", "v2")

    def __init__(self, u1: float, u2: float, v1: float, v2: float):
        if not (0.0 <= u1 <= u2 <= 1.0 and 0.0 <= v1 <= v2 <= 1.0):
            raise ValueError(
                "rectangle corners must be ordered inside the unit square: "
                f"Rectangle(u1={u1!r}, u2={u2!r}, v1={v1!r}, v2={v2!r})"
            )
        self.u1, self.u2, self.v1, self.v2 = u1, u2, v1, v2


# ---------------------------------------------------------------------------
# base families
# ---------------------------------------------------------------------------


class FrechetW(Copula):
    """Lower bound max{0, u+v-1}: the countermonotonic copula."""

    def _eval(self, u, v):
        return np.maximum(0.0, u + v - 1.0)

    def _partner(self, w):
        """The level V takes where U takes w on W's support, 1 - w, written over w."""
        return np.subtract(1.0, w, out=w)

    def describe(self) -> str:
        return "frechet-w"


class FrechetM(Copula):
    """Upper bound min{u, v}: the comonotonic copula."""

    def _eval(self, u, v):
        return np.minimum(u, v)

    def _partner(self, w):
        """The level V takes where U takes w on M's support: w itself."""
        return w

    def describe(self) -> str:
        return "frechet-m"


class Independence(Copula):
    def _eval(self, u, v):
        return u * v

    def describe(self) -> str:
        return "indep"


class ShockCopula(Copula):
    """A copula family of two generators, declared by its descriptor ``name``
    and its two (slot attribute, generator class) pairs; the generators are
    reachable as those attributes (``phi``/``psi``, ``f``/``g``, ``h``/``k``)."""

    name: str
    slots: tuple[tuple[str, GeneratorClass], tuple[str, GeneratorClass]]

    def __init__(self, first: Generator, second: Generator):
        for (slot, cls), gen in zip(self.slots, (first, second)):
            if gen.declared_class is not cls:
                raise GeneratorValidationError(
                    f"slot {slot} needs a {cls.value} generator, got {gen.declared_class.value}"
                )
            setattr(self, slot, gen)

    @classmethod
    def build(cls, first: Generator, second: Generator) -> "ShockCopula":
        """The copula, after each generator passes ``validate`` for its declared class."""
        return cls(_require_valid(first), _require_valid(second))

    def describe(self) -> str:
        args = ",".join(f"{slot}={getattr(self, slot).describe()}" for slot, _ in self.slots)
        return f"{self.name}:{args}"


class MarshallCopula(ShockCopula):
    """min{u*psi(v), v*phi(u)} from a max/max model with comonotonic shocks."""

    name = "marshall"
    slots = (("phi", GeneratorClass.MARSHALL), ("psi", GeneratorClass.MARSHALL))

    def _eval(self, u, v):
        return np.minimum(u * self.psi._eval(v), v * self.phi._eval(u))


class MaxminCopula(ShockCopula):
    """min{u, phi(u)(v-psi(v)) + u*psi(v)} from a max/min model with one shared shock."""

    name = "maxmin"
    slots = (("phi", GeneratorClass.MARSHALL), ("psi", GeneratorClass.MAXMIN_PSI))

    def _eval(self, u, v):
        psi_v = self.psi._eval(v)
        return np.minimum(u, self.phi._eval(u) * (v - psi_v) + u * psi_v)


class RmmCopula(ShockCopula):
    """max{0, uv - f(u)g(v)} from a max/max model with countermonotonic shocks."""

    name = "rmm"
    slots = (("f", GeneratorClass.RMM), ("g", GeneratorClass.RMM))

    def _eval(self, u, v):
        return np.maximum(0.0, u * v - self.f._eval(u) * self.g._eval(v))


class SmmCopula(ShockCopula):
    """max{u+v-1, uv - h(u)k(v)} from a min/min model with countermonotonic shocks."""

    name = "smm"
    slots = (("h", GeneratorClass.SMM), ("k", GeneratorClass.SMM))

    def _eval(self, u, v):
        return np.maximum(u + v - 1.0, u * v - self.h._eval(u) * self.k._eval(v))


#: the four shock-copula families by descriptor name
SHOCK_FAMILIES = {c.name: c for c in (MarshallCopula, MaxminCopula, RmmCopula, SmmCopula)}


# ---------------------------------------------------------------------------
# flips
# ---------------------------------------------------------------------------

#: wrapper name -> the coordinates (U, V) it flips; the flips form the group Z2 x Z2
FLIPS = {"survival": (True, True), "sigma1": (True, False), "sigma2": (False, True)}
_FLIP_NAMES = {flips: name for name, flips in FLIPS.items()}


class FlippedCopula(Copula):
    """The copula of the pair with the flagged coordinates negated (1-U for U):
    survival u + v - 1 + C(1-u, 1-v), sigma1 v - C(1-u, v), sigma2 u - C(u, 1-v)."""

    def __init__(self, inner: Copula, flips: tuple[bool, bool]):
        if flips not in _FLIP_NAMES:
            raise ValueError(f"flips must be one of {sorted(_FLIP_NAMES)}, got {flips!r}")
        self.inner = inner
        self.flips = flips

    def _eval(self, u, v):
        flip_u, flip_v = self.flips
        c = self.inner._eval(1.0 - u if flip_u else u, 1.0 - v if flip_v else v)
        if flip_u and flip_v:
            return u + v - 1.0 + c
        return (v if flip_u else u) - c

    def describe(self) -> str:
        return f"{_FLIP_NAMES[self.flips]}({self.inner.describe()})"


def survival(c: Copula) -> FlippedCopula:
    return FlippedCopula(c, FLIPS["survival"])


def reflect(c: Copula, which: str) -> FlippedCopula:
    if which not in ("sigma1", "sigma2"):
        raise ValueError(f"reflection must be 'sigma1' or 'sigma2', got {which!r}")
    return FlippedCopula(c, FLIPS[which])


def _xor(a: tuple[bool, bool], b: tuple[bool, bool]) -> tuple[bool, bool]:
    return (a[0] != b[0], a[1] != b[1])


#: the base each of M, W and independence becomes under a flip of one coordinate
_SWAPPED = {FrechetM: FrechetW, FrechetW: FrechetM, Independence: Independence}
#: maxmin's orbit under the flips: each family's place is the flip that carries maxmin onto it
_PLACE = {MaxminCopula: (False, False), RmmCopula: (False, True), SmmCopula: (True, False)}
_LANDS_ON = {(False, True): RmmCopula, (True, False): SmmCopula}


def normalize(c: Copula) -> Copula:
    """Compose a stack of flips into one and rewrite it by the orbit rule.

    The flips of the stack compose by XOR, so two flips of one coordinate
    cancel and a stack that flips nothing gives its base itself.  maxmin sits
    at no flip, RMM at a flip of V and SMM at a flip of U: a flip that carries
    one of these onto RMM or SMM gives that family, the generator of each
    flipped coordinate reflected.  maxmin's generators enter as phi - id (an
    RMM generator) and id - psi (an SMM one).  A flip of one coordinate swaps
    M and W and a flip of both fixes each; every flip fixes independence.
    Anything else, a Marshall copula, survival(maxmin) or another copula,
    keeps one composed flip.
    """
    flips = (False, False)
    while isinstance(c, FlippedCopula):
        flips, c = _xor(flips, c.flips), c.inner
    if flips == (False, False):
        return c
    if type(c) in _SWAPPED:
        return _SWAPPED[type(c)]() if flips[0] != flips[1] else c
    target = _LANDS_ON.get(_xor(_PLACE[type(c)], flips)) if type(c) in _PLACE else None
    if target is None:
        return FlippedCopula(c, flips)
    gens = [getattr(c, slot) for slot, _ in c.slots]
    if isinstance(c, MaxminCopula):
        gens = [
            affine(c.phi, WRAPPERS["minus-id"], GeneratorClass.RMM),
            affine(c.psi, WRAPPERS["id-minus"], GeneratorClass.SMM),
        ]
    return target(*(ReflectedGenerator(g) if flip else g for g, flip in zip(gens, flips)))


# ---------------------------------------------------------------------------
# joins and constructors
# ---------------------------------------------------------------------------


class JointDistribution:
    """H(x,y) = C(F_U(x), F_V(y)): the bivariate CDF with the given margins."""

    def __init__(self, copula: Copula, margin_u: DistributionFunction, margin_v: DistributionFunction):
        self.copula = copula
        self.margin_u = margin_u
        self.margin_v = margin_v

    def cdf(self, x, y):
        """H(x, y), broadcast over arrays; scalars, +-inf included, give a float."""
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        out = self.copula.value_array(self.margin_u.cdf_array(x), self.margin_v.cdf_array(y))
        return out if out.ndim else float(out)

    def __repr__(self) -> str:
        return (
            f"<JointDistribution {self.copula.describe()} | "
            f"{self.margin_u.describe()} , {self.margin_v.describe()}>"
        )


def sklar_join(c: Copula, margin_u: DistributionFunction, margin_v: DistributionFunction) -> JointDistribution:
    return JointDistribution(c, margin_u, margin_v)


marshall = MarshallCopula.build
maxmin = MaxminCopula.build
rmm = RmmCopula.build
smm = SmmCopula.build


def efgm(a: float) -> RmmCopula:
    """EFGM copula uv - a^2 uv(1-u)(1-v), built as RMM with f = g = a*t*(1-t)."""
    if not 0.0 < a <= 1.0:
        raise ValueError(f"EFGM weight must lie in (0,1], got {a}")
    f = closed_form("efgmf", GeneratorClass.RMM, a=a)
    g = closed_form("efgmf", GeneratorClass.RMM, a=a)
    return rmm(f, g)


def exprmm_ab(alpha: float, beta: float) -> RmmCopula:
    """RMM copula of exponential max shocks, parameterized by the exponent pair."""
    if not (0.0 < alpha <= 1.0 and 0.0 < beta <= 1.0):
        raise ValueError(f"exponents must lie in (0,1], got alpha={alpha}, beta={beta}")
    return rmm(
        closed_form("power", GeneratorClass.RMM, alpha=alpha),
        closed_form("power", GeneratorClass.RMM, alpha=beta),
    )


def exponential_rmm(l1: float, l2: float, m1: float, m2: float) -> RmmCopula:
    """RMM copula of the countermonotonic max model with exponential shock rates."""
    for name, val in (("l1", l1), ("l2", l2), ("m1", m1), ("m2", m2)):
        if not val > 0.0:
            raise ValueError(f"rate {name} must be positive, got {val}")
    return exprmm_ab(l1 / (l1 + m1), l2 / (l2 + m2))


def independence() -> Independence:
    return Independence()


def frechet_w() -> FrechetW:
    return FrechetW()


def frechet_m() -> FrechetM:
    return FrechetM()
