"""Seeded shock-model sampling, empirical copulas, and sup-distance verification.

Sampling draws three uniform streams per run (one each for the X, Y, and
systemic-shock coordinates) from counter-based Philox generators spawned off a
single seed, so identical (model, n, seed) triples yield bit-identical output.
The coupling is applied on the uniform scale: the comonotonic pair shares the
systemic uniform Z (a shared shock is inverted once), the countermonotonic
pair uses Z and 1-Z.

Each stream is its own generator, so the order of the draws does not change a
bit.  The systemic stream comes first: its shocks Z1, Z2 are written into the
two columns of the preallocated (n, 2) output.  Then each idiosyncratic
coordinate is drawn, inverted and combined into its column in place, so no
more than the output and one coordinate's uniforms and quantiles are alive at
a time: with exponential shocks about 33 bytes per pair at the peak, 16 of
them the output itself.  The empirical copula likewise frees each column's
sorted copy before it builds the tie-group indices and the average ranks,
another 33 bytes per pair at the peak, and keeps its indices and each
evaluation's buckets in int32 below 2**31 pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .copulas import Copula
from .shock_models import Countermonotonic, ShockModel, _worst
from .errors import TableFormatError
from .tables import read_table, source_name, write_table

_TINY = np.nextafter(0.0, 1.0)


@dataclass(frozen=True)
class SamplePairs:
    pairs: np.ndarray  # shape (n, 2)
    seed: int
    descriptor: str

    @property
    def n(self) -> int:
        return int(self.pairs.shape[0])


def sample_model(m: ShockModel, n: int, seed: int) -> SamplePairs:
    """Draw n coupled pairs (U, V) from the model, deterministically in the seed."""
    if n < 1:
        raise ValueError(f"sample size must be at least 1, got {n}")
    stream_x, stream_y, stream_z = np.random.SeedSequence(seed).spawn(3)
    pairs = np.empty((n, 2))
    uz = _open_uniforms(stream_z, n)
    g1, g2 = m.coupling.g1, m.coupling.g2
    pairs[:, 0] = g1.quantile_array(uz)
    if isinstance(m.coupling, Countermonotonic):
        pairs[:, 1] = g2.quantile_array(np.subtract(1.0, uz, out=uz))
    else:
        pairs[:, 1] = pairs[:, 0] if g2 is g1 else g2.quantile_array(uz)
    del uz
    coordinates = ((m.f_x, stream_x), (m.f_y, stream_y))
    for column, (margin, stream), is_max in zip(pairs.T, coordinates, m.combiner.maxes):
        combine = np.maximum if is_max else np.minimum
        combine(margin.quantile_array(_open_uniforms(stream, n)), column, out=column)
    return SamplePairs(pairs, seed=seed, descriptor=m.describe())


def _open_uniforms(stream: np.random.SeedSequence, n: int) -> np.ndarray:
    us = np.random.Generator(np.random.Philox(stream)).random(n)
    us[us == 0.0] = _TINY  # keep quantile transforms off the -oo convention
    return us


def average_ranks(x: np.ndarray) -> np.ndarray:
    """Ranks 1..n with ties assigned the average of their positions."""
    avg, group = _tie_groups(x)
    return avg[group]


def _tie_groups(x) -> tuple[np.ndarray, np.ndarray]:
    """The average rank of each distinct value of x, ascending, and each element's
    index into them; NaNs sort last and, as in ``np.unique``, form one group."""
    x = np.asarray(x)
    n = x.size
    order = np.argsort(x)
    xs = x[order]
    new = np.empty(n, dtype=bool)
    new[:1] = True
    np.not_equal(xs[1:], xs[:-1], out=new[1:])
    if n and xs[-1] != xs[-1]:
        new[np.searchsorted(xs, xs[-1]) + 1 :] = False
    del xs  # peak memory: the sorted copy goes before the index arrays are built
    rank = np.cumsum(new, dtype=_index_dtype(n))
    rank -= 1
    group = np.empty_like(rank)
    group[order] = rank
    del order, rank
    # a group spans positions start+1 .. end: its average rank is (start + 1 + end) / 2
    starts = np.flatnonzero(new)
    avg = np.empty(starts.size)
    np.add(starts[1:], starts[:-1], out=avg[:-1])
    avg[-1:] = starts[-1:] + n
    avg += 1.0
    avg /= 2.0
    return avg, group


def _index_dtype(count: int) -> type:
    """int32 for indices up to ``count`` below 2**31: half the bytes of intp, and fancy
    indexing through them casts in small buffers rather than in a full copy."""
    return np.int32 if count < 2**31 else np.intp


def _buckets(ranks: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """``np.searchsorted(levels, ranks, "left")`` for sorted distinct ranks and
    levels: each level's edge in the ranks, expanded by run length."""
    edges = np.searchsorted(ranks, levels, "right")
    runs = np.diff(edges, prepend=0, append=ranks.size)
    return np.repeat(np.arange(levels.size + 1, dtype=_index_dtype(levels.size)), runs)


class EmpiricalCopula(Copula):
    """Rank-based copula estimate of a paired sample.

    Evaluation is an exact count of the normalized ranks at or below each
    query point (Deheuvels' empirical dependence function).  Construction sorts
    each column once into its distinct ranks and each pair's tie group.  An
    evaluation places the g distinct query coordinates among the sorted ranks,
    expands those edges into a bucket per tie group, gathers a bucket per pair
    and reads a 2-D cumulative sum of the bucket counts, so a g x g grid costs
    O(n + g^2) and a grid of 101 costs about as much as a grid of 21.  Values
    equal ``np.mean((ru <= u) & (rv <= v))`` bit for bit; a NaN coordinate
    gives NaN.
    """

    def __init__(self, pairs: np.ndarray):
        pairs = np.asarray(pairs, dtype=float)
        if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.shape[0] < 2:
            raise ValueError("empirical copula needs at least two (u, v) pairs")
        n = pairs.shape[0]
        # (distinct normalized ranks ascending, each pair's index into them) per column
        self._ranks_u, self._group_u = _tie_groups(pairs[:, 0])
        self._ranks_v, self._group_v = _tie_groups(pairs[:, 1])
        self._ranks_u /= n
        self._ranks_v /= n
        self.n = n

    @property
    def ru(self) -> np.ndarray:
        return self._ranks_u[self._group_u]

    @property
    def rv(self) -> np.ndarray:
        return self._ranks_v[self._group_v]

    def _eval(self, u, v):
        u, v = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(v, dtype=float))
        us, vs = u.ravel(), v.ravel()
        m = us.size
        uq, ui = np.unique(us, return_inverse=True)
        vq, vi = np.unique(vs, return_inverse=True)
        # the count table may hold no more cells than the inputs (n + m):
        # a lattice fits at once, scattered queries go in blocks of b with (b+1)^2 <= n + m
        if (uq.size + 1) * (vq.size + 1) <= self.n + m:
            counts = self._count_below(uq, ui, vq, vi)
        else:
            block = max(math.isqrt(self.n + m) - 1, 1)
            counts = np.empty(m, dtype=np.int64)
            for start in range(0, m, block):
                part = slice(start, start + block)
                counts[part] = self._count_below(
                    *np.unique(us[part], return_inverse=True),
                    *np.unique(vs[part], return_inverse=True),
                )
        out = counts / self.n
        out[np.isnan(us) | np.isnan(vs)] = np.nan
        return out.reshape(u.shape)

    def _count_below(self, uq, ui, vq, vi) -> np.ndarray:
        """#{i : ru_i <= uq[ui_j] and rv_i <= vq[vi_j]} for each query j, where uq
        and vq are sorted and distinct."""
        # bucket k holds the ranks in (q[k-1], q[k]], so r <= q[k] exactly when bucket <= k
        shape = (uq.size + 1, vq.size + 1)
        cell = np.multiply(_buckets(self._ranks_u, uq)[self._group_u], shape[1], dtype=np.intp)
        cell += _buckets(self._ranks_v, vq)[self._group_v]
        table = np.bincount(cell, minlength=shape[0] * shape[1]).reshape(shape)
        np.cumsum(table, axis=0, out=table)
        np.cumsum(table, axis=1, out=table)
        return table[ui, vi]

    def describe(self) -> str:
        return f"empirical:n={self.n}"


def empirical_copula(s: SamplePairs) -> EmpiricalCopula:
    return EmpiricalCopula(s.pairs)


def sup_distance(a: Copula, b: Copula, grid: int = 21) -> float:
    """max |A - B| over the uniform grid x grid lattice on the unit square."""
    return sup_distance_at(a, b, grid)[0]


def sup_distance_at(a: Copula, b: Copula, grid: int = 21) -> tuple[float, tuple[float, float]]:
    """:func:`sup_distance` together with the lattice point (u, v) where it is attained."""
    if grid < 2:
        raise ValueError("grid must be at least 2")
    us = np.linspace(0.0, 1.0, grid)
    uu, vv = us[:, None], us[None, :]
    gap = np.abs(a.value_array(uu, vv) - b.value_array(uu, vv))
    worst = _worst("sup-distance", gap, uu, vv, 0.0)
    return worst.magnitude, worst.witness


# ---------------------------------------------------------------------------
# CSV round-trip
# ---------------------------------------------------------------------------


def write_pairs_csv(target, s: SamplePairs, kind: str = "raw", version: str = "") -> None:
    """Write pairs as CSV with a header comment recording seed and descriptor.

    ``kind="raw"`` emits the simulated variates as ``u,v``; ``kind="ranks"``
    emits normalized average ranks as ``ru,rv``.
    """
    if kind not in ("raw", "ranks"):
        raise ValueError(f"kind must be 'raw' or 'ranks', got {kind!r}")
    comment = f"shockcop={version} descriptor={s.descriptor} seed={s.seed} n={s.n} kind={kind}"
    if kind == "raw":
        write_table(target, comment, "u,v", s.pairs.T)
    else:
        write_table(target, comment, "ru,rv", [average_ranks(col) / s.n for col in s.pairs.T])


def read_pairs_csv(source) -> SamplePairs:
    """Read pairs written by :func:`write_pairs_csv`; comment and header are optional."""
    meta, _, pairs = read_table(source)
    seed = meta.get("seed", "-1")
    try:
        seed = int(seed)
    except ValueError:
        raise TableFormatError(f"{source_name(source)}: seed={seed!r} is not an integer") from None
    return SamplePairs(pairs, seed=seed, descriptor=meta.get("descriptor", "unknown"))
