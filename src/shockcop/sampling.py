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
them the output itself.  The empirical copula keeps u sorted, v sorted, v in
u order and the u order in int32 below 2**31 pairs: 28 bytes per pair, which
is also its peak while it is built.  An evaluation adds no state and holds one
sorted u segment of v at a time beside its own query arrays: under 1 byte per
pair for a 21 x 21 lattice at n = 200k, and about 10 for 20,000 queries, most
of it the queries' own level tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .copulas import Copula
from .shock_models import Countermonotonic, ShockModel, _worst
from .errors import TableFormatError
from .tables import read_table, source_name, write_table

_TINY = 2.0**-53  # the smallest positive draw of Generator.random


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
    us[us == 0.0] = _TINY  # keep quantile transforms off the -oo convention, 1 - u below 1
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


def _bounds(xs: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """For each level q, how many of the sorted values xs have an average rank / n at
    or below q: the end of the last whole tie group admitted, found by two searches in
    xs.  A NaN level admits every group, as NaN data form the last one."""
    n = xs.size
    q = np.fmax(np.fmin(levels, 1.0), 0.0)
    # the group at positions s .. e-1 has average rank (s + 1 + e) / 2.  Let k be the
    # largest integer with k / 2n <= q, so a group is admitted when s + e + 1 <= k, and
    # c = floor(2nq) + 1 is k, k + 1 or k + 2.  Then the group holding position
    # floor(c / 2) - 1 = floor(nq - 1/2) (0 below it) decides: the group after it has
    # s + e + 1 > k and the group before it s + e + 1 <= k.
    at = xs.take((q * n - 0.5).astype(np.intp))  # truncation takes -1/2 .. 0 to 0
    start = xs.searchsorted(at, "left")
    end = xs.searchsorted(at, "right")
    return np.where((start + end + 1) / (2.0 * n) <= q, end, start)


class EmpiricalCopula(Copula):
    """Rank-based copula estimate of a paired sample.

    Evaluation is an exact count of the normalized ranks at or below each
    query point (Deheuvels' empirical dependence function).  Construction
    argsorts the u column once, sorts the v column once and keeps v in u
    order.  A query level admits whole tie groups, so on a sorted column it
    is a count boundary that two searches find.  An evaluation takes the U
    distinct u levels and V distinct v levels of its queries and counts them
    by u segment: the u boundaries cut v in u order into U segments, each
    segment is sorted and searched for the V thresholds, and the rows are
    summed.  That is O(n log(n/U) + U V log(n/U)) with one Python step per
    distinct u level.  The U x V table may hold no more cells than n + m for
    m queries.  A lattice given as a column of u and a row of v that fits, which
    the inputs' sizes tell before any level is sorted, is counted at once; any
    other query set goes in blocks of about sqrt(n + m) queries, each block a
    full pass.

    At n = 200k on a 2-core VM construction takes about 7 ms, a 21 x 21
    lattice 2 ms and a 101 x 101 lattice 3.5 ms; 20,000 scattered points take
    about 0.3 s, as each of their 43 blocks sorts every segment of v.  Values
    equal ``np.mean((ru <= u) & (rv <= v))`` bit for bit; a NaN coordinate
    gives NaN.
    """

    def __init__(self, pairs: np.ndarray):
        pairs = np.asarray(pairs, dtype=float)
        if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.shape[0] < 2:
            raise ValueError("empirical copula needs at least two (u, v) pairs")
        n = pairs.shape[0]
        u = pairs[:, 0].copy()  # argsort reads a contiguous column faster
        order = np.argsort(u)
        self._u = u[order]
        del u
        self._v_by_u = pairs[:, 1][order]
        self._order = order.astype(_index_dtype(n))  # for ru and rv in the pairs' order
        del order  # peak memory: the intp order goes before v's sorted copy is made
        self._v = np.sort(pairs[:, 1])
        self.n = n

    @property
    def ru(self) -> np.ndarray:
        return self._in_pair_order(self._u)

    @property
    def rv(self) -> np.ndarray:
        return self._in_pair_order(self._v_by_u)

    def _in_pair_order(self, by_u: np.ndarray) -> np.ndarray:
        out = np.empty(self.n)
        out[self._order] = average_ranks(by_u) / self.n
        return out

    def _eval(self, u, v):
        u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
        shape = np.broadcast_shapes(u.shape, v.shape)
        m = math.prod(shape)
        # the count table may hold no more cells than the inputs (n + m): a lattice given
        # as a column and a row that fits is one block, its levels found per column;
        # other query sets go in blocks of b with (b+1)^2 <= n + m
        if (u.size + 1) * (v.size + 1) <= self.n + m:
            (uq, ui), (vq, vi) = (np.unique(a, return_inverse=True) for a in (u, v))
            counts = self._segment_table(uq, vq)[ui.reshape(u.shape), vi.reshape(v.shape)]
        else:
            us, vs = (np.broadcast_to(a, shape).ravel() for a in (u, v))
            block = max(math.isqrt(self.n + m) - 1, 1)
            counts = np.empty(m, dtype=np.intp)
            for start in range(0, m, block):
                part = slice(start, start + block)
                (uq, ui), (vq, vi) = (np.unique(a[part], return_inverse=True) for a in (us, vs))
                counts[part] = self._segment_table(uq, vq)[ui, vi]
        out = np.asarray(counts / self.n).reshape(shape)
        out[np.isnan(u) | np.isnan(v)] = np.nan
        return out

    def _segment_table(self, uq, vq) -> np.ndarray:
        """#{i : ru_i <= uq[a] and rv_i <= vq[b]} at [a, b] for sorted distinct uq and vq,
        from v in u order cut at the u boundaries, one sorted segment at a time."""
        table = np.zeros((uq.size, vq.size), dtype=np.intp)
        bv = _bounds(self._v, vq)
        first = np.searchsorted(bv, 0, "right")  # the levels that admit no v come first
        # searching the largest admitted v counts its whole tie group, NaNs included
        thresholds = self._v[bv[first:] - 1]
        below = np.zeros(thresholds.size, dtype=np.intp)
        start = 0
        for row, stop in zip(table, _bounds(self._u, uq)):
            if stop > start:
                below += np.searchsorted(np.sort(self._v_by_u[start:stop]), thresholds, "right")
                start = stop
            row[first:] = below
        return table

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
