"""Span tracer for the traced benchmark run.

The benchmark measures every layer from outside: ``install`` wraps the public
entry points of each shockcop module, so no library file changes.  Methods are
wrapped on the base classes (and, for ``cdf_array``/``cdf_left_array``, on
every subclass that overrides them); module-level functions are replaced at
every import site, e.g. ``derived_value`` inside ``shock_models`` as well as in
``generators`` and the package namespace.  Nothing is wrapped unless
``install`` is called, so the untraced run executes the library unchanged.

Spans are kept in memory as ``(name, start, end, parent, job)`` tuples and
written out when the run ends.  A span's self time is its duration minus the
time covered by its child spans.  Counters are keyed by (job, name).
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

_CDF = "distributions.cdf_array"
_QUANTILE = "distributions.quantile_array"
_VALIDATE = "generators.validate"


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: dict = defaultdict(float)
        self.job = -1

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[(self.job, name)] += value

    def current(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    def call(self, name, fn, *args, **kwargs):
        idx = len(self.spans)
        self.spans.append((name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.job))
        self.stack.append(idx)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            self.spans[idx] = (name, t0, t1, self.spans[idx][3], self.job)

    def merge(self, spans, counts, job: int, parent: int) -> None:
        """Append spans and counters recorded by a child process under span ``parent``."""
        base = len(self.spans)
        for name, t0, t1, par, _ in spans:
            self.spans.append((name, t0, t1, parent if par < 0 else base + par, job))
        for name, value in counts.items():
            self.counts[(job, name)] += value

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "counts": {name: v for (_, name), v in self.counts.items()},
        }


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus its direct children's durations."""
    own = [t1 - t0 for _, t0, t1, _, _ in spans]
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            own[parent] -= t1 - t0
    return own


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------


def _size(x) -> int:
    return int(getattr(x, "size", 1))


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _file_bytes(target) -> int:
    if isinstance(target, (str, bytes, os.PathLike)):
        return os.path.getsize(target)
    try:
        return int(target.tell())
    except (AttributeError, OSError, ValueError):
        return 0


def _span(tr, name, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        out = tr.call(name, fn, *args, **kwargs)
        if after is not None:
            after(tr, out, args, kwargs)
        return out

    return wrapper


def _counter(tr, name, fn):
    counts = tr.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[(tr.job, name)] += 1
        return fn(*args, **kwargs)

    return wrapper


def _cdf_array(tr, fn):
    @functools.wraps(fn)
    def wrapper(self, xs, *args, **kwargs):
        parent = tr.current()
        if parent != _CDF:  # composite laws call their parts; count points once
            n = _size(xs)
            tr.count(_CDF + ".points", n)
            if parent == _QUANTILE:
                tr.count(_CDF + ".points_in_quantile", n)
        return tr.call(_CDF, fn, self, xs, *args, **kwargs)

    return wrapper


def _quantile_array(tr, fn):
    @functools.wraps(fn)
    def wrapper(self, us, *args, **kwargs):
        tr.count(_QUANTILE + ".points", _size(us))
        return tr.call(_QUANTILE, fn, self, us, *args, **kwargs)

    return wrapper


def _gen_value_array(tr, fn):
    @functools.wraps(fn)
    def wrapper(self, us, *args, **kwargs):
        if tr.current() == _VALIDATE:  # the points validate actually evaluates
            tr.count(_VALIDATE + ".points", _size(us))
        return fn(self, us, *args, **kwargs)

    return wrapper


def _copula_value_array(tr, fn, empirical_cls):
    @functools.wraps(fn)
    def wrapper(self, us, vs, *args, **kwargs):
        points = max(_size(us), _size(vs))
        if isinstance(self, empirical_cls):
            tr.count("sampling.empirical_eval.points", points)
            tr.count("sampling.empirical_eval.comparisons", points * self.n)
            return tr.call("sampling.empirical_eval", fn, self, us, vs, *args, **kwargs)
        tr.count("copulas.value_array.points", points)
        return tr.call("copulas.value_array", fn, self, us, vs, *args, **kwargs)

    return wrapper


def _after_gfs(tr, gen, args, kwargs):
    tr.count("generators.generator_from_shocks.calls")
    tr.count("generators.knots", gen.us.size)


def _after_sample(tr, pairs, args, kwargs):
    tr.count("sampling.pairs", pairs.n)


def _after_write(tr, _, args, kwargs):
    tr.count("sampling.write_pairs_csv.bytes", _file_bytes(_arg(args, kwargs, 0, "target")))


def _after_read(tr, _, args, kwargs):
    tr.count("sampling.read_pairs_csv.bytes", _file_bytes(_arg(args, kwargs, 0, "source")))


def _after_check(tr, report, args, kwargs):
    tr.count("checks.results", len(report.results))
    tr.count("checks.results_failed", sum(not r.passed for r in report.results))


def _after_joint(tr, *_):
    tr.count("shock_models.joint_cdf.calls")


def _after_parse(tr, *_):
    tr.count("descriptors.parse.calls")


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(s for s in _subclasses(sub) if s not in out)
    return out


def _replace_everywhere(original, replacement, modules) -> None:
    for mod in modules:
        for attr, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, attr, replacement)


def install(tr: Tracer) -> None:
    """Wrap shockcop's public entry points so that every call reports to ``tr``.

    Callers outside the package must look functions up through a shockcop
    module (``shockcop.sample_model``), not hold their own references.
    """
    from shockcop import checks, cli, copulas, descriptors, distributions, generators
    from shockcop import sampling, shock_models

    # -- methods on the base classes --------------------------------------
    dist = distributions.DistributionFunction
    dist.quantile_array = _quantile_array(tr, dist.quantile_array)
    for name in ("cdf", "cdf_left", "quantile"):
        setattr(dist, name, _counter(tr, "distributions.scalar_calls", getattr(dist, name)))
    for cls in _subclasses(dist):
        for name in ("cdf_array", "cdf_left_array"):
            if name in vars(cls):
                setattr(cls, name, _cdf_array(tr, vars(cls)[name]))

    gen = generators.Generator
    gen.value = _counter(tr, "generators.value.calls", gen.value)
    gen.value_array = _gen_value_array(tr, gen.value_array)

    cop = copulas.Copula
    cop.value_array = _copula_value_array(tr, cop.value_array, sampling.EmpiricalCopula)

    # -- module-level functions, replaced at every import site -------------
    functions = [
        (generators.generator_from_shocks, "generators.generator_from_shocks", _after_gfs),
        (generators.validate, _VALIDATE, None),
        (copulas.normalize, "copulas.normalize", None),
        (shock_models.induced_copula, "shock_models.induced_copula", None),
        (shock_models.reconstruct, "shock_models.reconstruct", None),
        (shock_models.joint_cdf, "shock_models.joint_cdf", _after_joint),
        (sampling.sample_model, "sampling.sample_model", _after_sample),
        (sampling.empirical_copula, "sampling.empirical_copula", None),
        (sampling.sup_distance, "sampling.sup_distance", None),
        (sampling.write_pairs_csv, "sampling.write_pairs_csv", _after_write),
        (sampling.read_pairs_csv, "sampling.read_pairs_csv", _after_read),
        (checks.check_copula_axioms, "checks.check_copula_axioms", _after_check),
        (checks.check_reconstruction, "checks.check_reconstruction", _after_check),
        (checks.check_model_theorem, "checks.check_model_theorem", _after_check),
        (descriptors.parse_copula, "descriptors.parse", _after_parse),
        (descriptors.parse_distribution, "descriptors.parse", _after_parse),
        (descriptors.parse_generator, "descriptors.parse", _after_parse),
        (descriptors.parse_model, "descriptors.parse", _after_parse),
        (cli.main, "cli.command", None),
    ]
    modules = [m for n, m in sys.modules.items() if n == "shockcop" or n.startswith("shockcop.")]
    for fn, name, after in functions:
        _replace_everywhere(fn, _span(tr, name, fn, after), modules)
    _replace_everywhere(
        generators.derived_value,
        _counter(tr, "generators.derived_value.calls", generators.derived_value),
        modules,
    )
