"""Descriptor strings: the round-trippable text forms of copulas, generators,
distributions, and shock models used by the CLI.

Grammar sketch::

    copula   := indep | frechet-w | frechet-m
              | efgm:a=0.95
              | exprmm:l1=1,l2=1,m1=1,m2=1 | exprmm-ab:alpha=0.1,beta=0.1
              | rmm:f=GEN,g=GEN | smm:h=GEN,k=GEN
              | marshall:phi=GEN,psi=GEN | maxmin:phi=GEN,psi=GEN
              | survival(COPULA) | sigma1(COPULA) | sigma2(COPULA)
    gen      := power:alpha=0.5 | twoparam:alpha=0.5,beta=0.5 | efgmhat:a=1
              | efgmf:a=1 | identity | zero | fullshock | capped:slope=2
              | poly:c0=0,c1=1 | tabulated:file=PATH
              | reflect(GEN) | minus-id(GEN) | id-minus(GEN) | plus-id(GEN)
    dist     := uniform[:a=0,b=1] | exp:rate=1 | neg-exp:rate=1
              | efgm-margin:a=1 | efgm-shock:a=1 | pointmass:x=0
              | step:file=PATH | linear:file=PATH
              | product(DIST;DIST) | survival-product(DIST;DIST) | negated(DIST)
    model    := marshall-max:fx=DIST,fy=DIST,g1=DIST,g2=DIST
              | rmm-max:... | smm-min:... | maxmin-shared:fx=,fy=,g=
              (an optional combiner=max-max|min-min|max-min field overrides the
               prefix's combiner, which can make the configuration illegal)

Commas nested inside parentheses never split fields.  A comma-separated token
that does not introduce a known field name continues the previous field if it
holds no ``=`` (a comma in a file path) or if that field holds a
``head:params`` descriptor (so generator parameters survive inside copula
descriptors).  Any other unknown name, and a duplicate or a missing one, is an
error that names it.
"""

from __future__ import annotations

import re

from . import copulas as cop
from . import shock_models as sm
from .distributions import (
    DistributionFunction,
    EfgmMargin,
    EfgmShock,
    Exponential,
    NegExponential,
    Product,
    SurvivalProduct,
    Uniform,
    load_tabulated_csv,
    negated,
    point_mass,
)
from .errors import DescriptorError, ShockcopError, TableFormatError
from .generators import (
    CLASS_SPECS,
    ClosedFormGenerator,
    Generator,
    GeneratorClass,
    IdentityOffsetGenerator,
    ReflectedGenerator,
    TabulatedGenerator,
)
from .tables import read_table, write_table

_WRAPPER = re.compile(r"^([a-z0-9-]+)\((.*)\)$")
_HAS_PARAMS = re.compile(r"\s*[a-z0-9-]+:")


def split_top_level(text: str, sep: str = ",") -> list[str]:
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise DescriptorError(f"unbalanced parentheses in {text!r}")
        elif ch == sep and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    if depth != 0:
        raise DescriptorError(f"unbalanced parentheses in {text!r}")
    parts.append(text[start:])
    return parts


def _split_head(text: str) -> tuple[str, str]:
    head, sep, body = text.partition(":")
    return head.strip(), body if sep else ""


def _parse_fields(body: str, names, context: str, optional=()) -> dict[str, str]:
    """Group comma-separated tokens into the named fields, all required but the
    ``optional``; the module docstring says where a token naming none goes."""
    fields: dict[str, str] = {}
    current = None
    for token in split_top_level(body):
        key, eq, rest = token.partition("=")
        key_l = key.strip().lower()
        if eq and key_l in names:
            if key_l in fields:
                raise DescriptorError(f"{context}: duplicate field {key_l!r}")
            fields[key_l] = rest
            current = key_l
        elif current is not None and (not eq or _HAS_PARAMS.match(fields[current])):
            fields[current] += "," + token
        else:
            raise DescriptorError(
                f"{context}: unknown field {key.strip()!r}, expected one of {sorted(names)}"
            )
    missing = [n for n in names if n not in fields and n not in optional]
    if missing:
        raise DescriptorError(f"{context}: missing field(s) {missing}")
    return fields


def _float(text: str, context: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise DescriptorError(f"{context}: bad number {text!r}") from exc


def _float_params(body: str, context: str) -> dict[str, float]:
    params = {}
    if not body:
        return params
    for token in split_top_level(body):
        key, eq, rest = token.partition("=")
        key = key.strip()
        if not eq:
            raise DescriptorError(f"{context}: expected k=v, got {token!r}")
        if key in params:
            raise DescriptorError(f"{context}: duplicate parameter {key!r}")
        params[key] = _float(rest, context)
    return params


def _build(family: str, make, defaults: dict, body: str, context: str):
    """``make`` of a ``k=v`` body's values, each key one of ``defaults`` (name ->
    default in call order, None if the body must give it)."""
    params = _float_params(body, context)
    required = {k for k, d in defaults.items() if d is None}
    if not required <= set(params) <= set(defaults):
        raise ValueError(f"{family} expects parameters {tuple(defaults)}, got {tuple(sorted(params))}")
    return make(*(params.get(k, d) for k, d in defaults.items()))


# ---------------------------------------------------------------------------
# distributions
# ---------------------------------------------------------------------------


# family -> (constructor, {parameter: default, None if required})
_DISTRIBUTION_FAMILIES = {
    "uniform": (Uniform, {"a": 0.0, "b": 1.0}),
    "exp": (Exponential, {"rate": None}),
    "exponential": (Exponential, {"rate": None}),
    "neg-exp": (NegExponential, {"rate": None}),
    "efgm-margin": (EfgmMargin, {"a": None}),
    "efgm-shock": (EfgmShock, {"a": None}),
    "pointmass": (point_mass, {"x": None}),
}


def parse_distribution(text: str) -> DistributionFunction:
    text = text.strip()
    wrapped = _WRAPPER.match(text)
    if wrapped:
        name, inner = wrapped.group(1), wrapped.group(2)
        if name == "negated":
            return negated(parse_distribution(inner))
        if name in ("product", "survival-product"):
            parts = split_top_level(inner, ";")
            if len(parts) != 2:
                raise DescriptorError(
                    f"{name} needs exactly two ';'-separated distributions, got {text!r}"
                )
            d1, d2 = (parse_distribution(p) for p in parts)
            return Product(d1, d2) if name == "product" else SurvivalProduct(d1, d2)
        raise DescriptorError(f"unknown distribution wrapper {name!r}")

    head, body = _split_head(text)
    try:
        if head in _DISTRIBUTION_FAMILIES:
            return _build(head, *_DISTRIBUTION_FAMILIES[head], body, text)
        if head in ("step", "linear"):
            return load_tabulated_csv(_parse_fields(body, ("file",), text)["file"], head)
    except DescriptorError:
        raise
    except (KeyError, ShockcopError, ValueError) as exc:
        raise DescriptorError(f"bad distribution descriptor {text!r}: {exc}") from exc
    raise DescriptorError(f"unknown distribution family {head!r} in {text!r}")


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

_OFFSET_MODES = {"minus-id", "id-minus", "plus-id"}


def parse_generator(text: str, declared_class: GeneratorClass) -> Generator:
    text = text.strip()
    wrapped = _WRAPPER.match(text)
    if wrapped:
        name, inner = wrapped.group(1), wrapped.group(2)
        if name == "reflect":
            return ReflectedGenerator(
                parse_generator(inner, CLASS_SPECS[declared_class].reflected), declared_class
            )
        if name in _OFFSET_MODES:
            return IdentityOffsetGenerator(
                parse_generator(inner, GeneratorClass.MARSHALL), name, declared_class
            )
        raise DescriptorError(f"unknown generator wrapper {name!r}")

    head, body = _split_head(text)
    try:
        if head == "tabulated":
            path = _parse_fields(body, ("file",), text)["file"]
            return load_tabulated_generator(path, declared_class)
        return ClosedFormGenerator(head, _float_params(body, text), declared_class)
    except DescriptorError:
        raise
    except (KeyError, ShockcopError, ValueError) as exc:
        raise DescriptorError(f"bad generator descriptor {text!r}: {exc}") from exc


def load_tabulated_generator(path, declared_class: GeneratorClass) -> TabulatedGenerator:
    """Load a generator table from CSV with header ``u,value``."""
    _, header, table = read_table(path)
    if header is None or header[:2] != ["u", "value"]:
        raise TableFormatError(f"{path}: expected header 'u,value'")
    return TabulatedGenerator(table[:, 0], table[:, 1], declared_class)


def write_tabulated_generator(target, gen: TabulatedGenerator, version: str = "") -> None:
    """Write a ``u,value`` table that :func:`load_tabulated_generator` reads back to the bit."""
    comment = f"shockcop={version} generator={gen.describe()}"
    write_table(target, comment, "u,value", (gen.us, gen.values))


# ---------------------------------------------------------------------------
# copulas
# ---------------------------------------------------------------------------


# family -> (constructor, {parameter: default, None if required}), as for distributions
_COPULA_FAMILIES = {
    "indep": (cop.independence, {}),
    "frechet-w": (cop.frechet_w, {}),
    "frechet-m": (cop.frechet_m, {}),
    "efgm": (cop.efgm, {"a": None}),
    "exprmm": (cop.exponential_rmm, dict.fromkeys(("l1", "l2", "m1", "m2"))),
    "exprmm-ab": (cop.exprmm_ab, dict.fromkeys(("alpha", "beta"))),
}


def parse_copula(text: str) -> cop.Copula:
    text = text.strip()
    wrapped = _WRAPPER.match(text)
    if wrapped:
        name, inner = wrapped.group(1), wrapped.group(2)
        if name == "survival":
            return cop.survival(parse_copula(inner))
        if name in ("sigma1", "sigma2"):
            return cop.reflect(parse_copula(inner), name)
        raise DescriptorError(f"unknown copula wrapper {name!r}")

    head, body = _split_head(text)
    try:
        if head in _COPULA_FAMILIES:
            return _build(head, *_COPULA_FAMILIES[head], body, text)
        if head in cop.SHOCK_FAMILIES:
            family = cop.SHOCK_FAMILIES[head]
            fields = _parse_fields(body, [slot for slot, _ in family.slots], text)
            return family.build(*(parse_generator(fields[s], c) for s, c in family.slots))
    except DescriptorError:
        raise
    except (KeyError, ShockcopError, ValueError) as exc:
        raise DescriptorError(f"bad copula descriptor {text!r}: {exc}") from exc
    raise DescriptorError(f"unknown copula family {head!r} in {text!r}")


# ---------------------------------------------------------------------------
# shock models
# ---------------------------------------------------------------------------

_MODEL_KINDS = {prefix: family for family, prefix in sm.MODEL_PREFIXES.items()}

_COMBINER_NAMES = {c.value: c for c in sm.Combiner}


def parse_model(text: str) -> sm.ShockModel:
    text = text.strip()
    head, body = _split_head(text)
    if head not in _MODEL_KINDS:
        raise DescriptorError(f"unknown model kind {head!r} in {text!r}")
    combiner, coupling_type = _MODEL_KINDS[head]
    shock_names = ("g",) if coupling_type is sm.SharedShock else ("g1", "g2")
    names = ("fx", "fy", *shock_names, "combiner")
    fields = _parse_fields(body, names, text, optional=("combiner",))
    f_x, f_y = parse_distribution(fields["fx"]), parse_distribution(fields["fy"])
    coupling = coupling_type(*(parse_distribution(fields[n]) for n in shock_names))
    if "combiner" in fields:
        override = fields["combiner"].strip().lower()
        if override not in _COMBINER_NAMES:
            raise DescriptorError(f"{text}: unknown combiner {override!r}")
        combiner = _COMBINER_NAMES[override]
    return sm.ShockModel(f_x, f_y, coupling, combiner)
