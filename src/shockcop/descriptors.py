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

Commas nested inside parentheses never split fields, and a comma-separated
token that does not introduce a known field name continues the previous field,
so generator parameters survive inside copula descriptors.
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


def _parse_fields(body: str, names: set[str], context: str) -> dict[str, str]:
    """Group comma-separated tokens into named fields; unknown tokens continue
    the previous field (they belong to a nested descriptor)."""
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
        elif current is not None:
            fields[current] += "," + token
        else:
            raise DescriptorError(f"{context}: expected one of {sorted(names)}, got {token!r}")
    return fields


def _require(fields: dict[str, str], names: tuple[str, ...], context: str) -> list[str]:
    missing = [n for n in names if n not in fields]
    if missing:
        raise DescriptorError(f"{context}: missing field(s) {missing}")
    return [fields[n] for n in names]


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
        if not eq:
            raise DescriptorError(f"{context}: expected k=v, got {token!r}")
        params[key.strip()] = _float(rest, context)
    return params


# ---------------------------------------------------------------------------
# distributions
# ---------------------------------------------------------------------------


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
        if head == "uniform":
            params = _float_params(body, text)
            return Uniform(params.pop("a", 0.0), params.pop("b", 1.0))
        if head in ("exp", "exponential"):
            return Exponential(_float_params(body, text)["rate"])
        if head == "neg-exp":
            return NegExponential(_float_params(body, text)["rate"])
        if head == "efgm-margin":
            return EfgmMargin(_float_params(body, text)["a"])
        if head == "efgm-shock":
            return EfgmShock(_float_params(body, text)["a"])
        if head == "pointmass":
            return point_mass(_float_params(body, text)["x"])
        if head in ("step", "linear"):
            fields = _parse_fields(body, {"file"}, text)
            (path,) = _require(fields, ("file",), text)
            return load_tabulated_csv(path, head)
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
            fields = _parse_fields(body, {"file"}, text)
            (path,) = _require(fields, ("file",), text)
            return load_tabulated_generator(path, declared_class)
        if head == "poly":
            return ClosedFormGenerator("poly", _float_params(body, text), declared_class)
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
        if head == "indep":
            return cop.independence()
        if head == "frechet-w":
            return cop.frechet_w()
        if head == "frechet-m":
            return cop.frechet_m()
        if head == "efgm":
            return cop.efgm(_float_params(body, text)["a"])
        if head == "exprmm":
            p = _float_params(body, text)
            return cop.exponential_rmm(p["l1"], p["l2"], p["m1"], p["m2"])
        if head == "exprmm-ab":
            p = _float_params(body, text)
            return cop.exprmm_ab(p["alpha"], p["beta"])
        if head in cop.SHOCK_FAMILIES:
            family = cop.SHOCK_FAMILIES[head]
            names = tuple(slot for slot, _ in family.slots)
            texts = _require(_parse_fields(body, set(names), text), names, text)
            return family.build(*(parse_generator(t, c) for t, (_, c) in zip(texts, family.slots)))
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
    fields = _parse_fields(body, {"fx", "fy", "combiner", *shock_names}, text)
    fx_text, fy_text = _require(fields, ("fx", "fy"), text)
    f_x = parse_distribution(fx_text)
    f_y = parse_distribution(fy_text)
    coupling = coupling_type(*(parse_distribution(t) for t in _require(fields, shock_names, text)))
    if "combiner" in fields:
        override = fields["combiner"].strip().lower()
        if override not in _COMBINER_NAMES:
            raise DescriptorError(f"{text}: unknown combiner {override!r}")
        combiner = _COMBINER_NAMES[override]
    return sm.ShockModel(f_x, f_y, coupling, combiner)
