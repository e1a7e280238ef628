import hashlib
import io
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shockcop.copulas import efgm, exprmm_ab, frechet_m, frechet_w, independence, marshall
from shockcop.generators import GeneratorClass, closed_form
from shockcop.distributions import Exponential, TabulatedCdf, Uniform, point_mass
from shockcop.sampling import (
    EmpiricalCopula,
    SamplePairs,
    average_ranks,
    empirical_copula,
    read_pairs_csv,
    sample_model,
    sup_distance,
    sup_distance_at,
    write_pairs_csv,
)
from shockcop.shock_models import (
    induced_copula,
    marshall_model,
    maxmin_model,
    reconstruct,
    rmm_model,
    smm_model,
)

U = Uniform()
LOW = point_mass(-1.0)  # idiosyncratic shock below the systemic support


def test_sample_length_one():
    s = sample_model(marshall_model(U, U, U, U), 1, seed=3)
    assert s.n == 1 and s.pairs.shape == (1, 2)


def test_sample_rejects_nonpositive_n():
    with pytest.raises(ValueError):
        sample_model(marshall_model(U, U, U, U), 0, seed=3)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: sup_distance_at(efgm(0.5), efgm(0.5), grid=1),
                 "grid must be at least 2", id="sup-distance-grid"),
    pytest.param(lambda: write_pairs_csv(io.StringIO(), sample_model(marshall_model(U, U, U, U), 3,
                                                                      seed=1), kind="sorted"),
                 "kind must be 'raw' or 'ranks', got 'sorted'", id="csv-kind"),
])
def test_sampling_arguments_are_rejected(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_comonotonic_shocks_are_equal_in_every_pair():
    # with the idiosyncratic parts pushed below the systemic support,
    # U = Z1 and V = Z2 = Z1 exactly (same quantile of the same uniform)
    m = marshall_model(LOW, LOW, U, U)
    s = sample_model(m, 5000, seed=11)
    assert np.array_equal(s.pairs[:, 0], s.pairs[:, 1])


def test_countermonotonic_uniform_shocks_sum_to_one():
    m = rmm_model(LOW, LOW, U, U)
    s = sample_model(m, 100_000, seed=5)
    z1, z2 = s.pairs[:, 0], s.pairs[:, 1]
    np.testing.assert_allclose(z1 + z2, 1.0, atol=1e-12)
    corr = np.corrcoef(z1, z2)[0, 1]
    assert -1.0 <= corr <= -0.99


def test_countermonotonic_shock_empirical_copula_approaches_lower_bound():
    m = rmm_model(LOW, LOW, U, U)
    emp = empirical_copula(sample_model(m, 100_000, seed=5))
    assert sup_distance(emp, frechet_w(), 21) <= 0.02


def test_determinism_bit_identical():
    m = smm_model(Exponential(1.0), Exponential(1.0), Exponential(1.0), Exponential(1.0))
    s1 = sample_model(m, 4096, seed=99)
    s2 = sample_model(m, 4096, seed=99)
    assert np.array_equal(s1.pairs, s2.pairs)
    s3 = sample_model(m, 4096, seed=100)
    assert not np.array_equal(s1.pairs, s3.pairs)


@pytest.mark.parametrize("make", [rmm_model, smm_model], ids=["rmm", "smm"])
def test_a_zero_draw_keeps_the_countermonotone_partner_below_one(monkeypatch, make):
    # Generator.random returns 0.0 with probability 2**-53; mapped to 5e-324, the
    # partner level 1 - u rounded to 1.0, which quantile_array refuses
    m = make(Exponential(1.0), Exponential(2.0), Exponential(1.0), Exponential(2.0))
    clean = sample_model(m, 5, seed=1).pairs
    generator = np.random.Generator

    class FirstDrawZero:
        def __init__(self, bit_generator):
            self.inner = generator(bit_generator)

        def random(self, n):
            us = self.inner.random(n)
            us[0] = 0.0
            return us

    monkeypatch.setattr(np.random, "Generator", FirstDrawZero)
    pairs = sample_model(m, 5, seed=1).pairs
    assert np.all(np.isfinite(pairs)) and np.array_equal(pairs[1:], clean[1:])


def golden_models() -> dict:
    """Models whose quantiles are IEEE arithmetic or table lookups, so the digests below
    do not depend on the platform's log; the reconstructed ones invert through their
    parts: square roots and quotients for EFGM, quotients for the capped Marshall model."""
    step = TabulatedCdf(np.arange(1, 301) / 100.0, np.arange(1, 301) / 300.0, "step")
    cap = closed_form("capped", GeneratorClass.MARSHALL, slope=2.0)
    u = Uniform
    return {
        "rmm": rmm_model(u(0.0, 2.0), u(-0.5, 1.5), u(0.3, 1.1), u(0.2, 2.0)),
        "marshall": marshall_model(u(0.0, 1.0), u(0.25, 1.75), u(-1.0, 1.5), u(0.5, 1.0)),
        "smm": smm_model(u(-2.0, 1.0), u(0.0, 3.0), u(0.0, 1.0), u(-1.0, 0.5)),
        "maxmin": maxmin_model(u(0.0, 1.5), u(0.5, 2.5), u(0.2, 1.2)),
        "step_rmm": rmm_model(step, u(0.0, 2.0), u(1.0, 2.5), u(0.5, 3.0)),
        "reconstructed": reconstruct(efgm(0.7), u(), u()),
        "reconstructed_marshall": reconstruct(marshall(cap, cap), u(), u()),
    }


#: sha256 of sample_model(model, 5000, seed=20).pairs, recorded when the sampler still
#: stacked whole columns; 5000 levels span two blocks of the generic inverse.  The
#: reconstructed EFGM digest was recorded again when reconstructed laws came to invert
#: through their parts (each coordinate within 1.9e-14 of the bisected one); the capped
#: Marshall model's samples kept their bits then, and its digest pins them
GOLDEN_SAMPLES = {
    "rmm": "1168978d4222959d267ea0c12d15c55d9c2ad642cf0063b5f4a8de8f769c8483",
    "marshall": "2b6a0d856fa2464541c9a3633bbf55f78c71a09baf3c925f10963b4531e43bb8",
    "smm": "e1870e143b2206244391f6c9e552743be47aad3f05098790e2c8c98875ee85f5",
    "maxmin": "5806c84b8c103586ebcc09371ee91e0a6fe0259b52c032e4eb39c143714da09b",
    "step_rmm": "35c8ed788be687b976acd293a40f89e47d9c8f39e7ff0f7302aa4c1bce41de1f",
    "reconstructed": "e92f7cf567fd69091a2c8b62d73b83add964fa0e2d5ac3dcff935e433e790937",
    "reconstructed_marshall": "41834adf71263ffe3d9321f413af3f947cdfe9175c3ffc0d3d7c8bc0279206f4",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SAMPLES))
def test_seeded_sample_bytes_match_their_recorded_digest(name):
    s = sample_model(golden_models()[name], 5000, seed=20)
    assert s.pairs.flags.c_contiguous
    assert hashlib.sha256(s.pairs.tobytes()).hexdigest() == GOLDEN_SAMPLES[name]


def empirical_queries(emp: EmpiricalCopula) -> dict:
    """Two lattices, 2,000 scattered points (counted in blocks at n = 5000, a third of
    them on ranks, every 97th NaN) and a thin 1 x 300 lattice, all IEEE arithmetic."""
    g21, g101 = np.linspace(0.0, 1.0, 21), np.linspace(0.0, 1.0, 101)
    j = np.arange(2000)
    us = np.modf(j * 0.6180339887498949)[0]
    vs = np.modf(j * 0.41421356237309503)[0]
    us[1::3] = emp.ru[(j[1::3] * 7) % emp.n]
    vs[2::3] = emp.rv[(j[2::3] * 11) % emp.n]
    us[::97] = np.nan
    return {
        "grid21": (g21[:, None], g21[None, :]),
        "grid101": (g101[:, None], g101[None, :]),
        "scattered": (us, vs),
        "thin": (np.array([[0.5]]), np.linspace(0.0, 1.0, 300)[None, :]),
    }


#: sha256 of EmpiricalCopula(sample_model(model, 5000, seed=20).pairs) evaluated at each
#: of empirical_queries, and of its ru and rv, recorded when each column had its own
#: argsort and every query set was counted by a bincount of tie-group buckets
GOLDEN_EMPIRICAL = {
    "marshall": {
        "grid21": "487fa650081f10f2b5839c1f97cdd097e9bf3af68df24728e0ca08a43e0a9279",
        "grid101": "ba118cdac05a2b5c405624b73f6ce4dfed9ada8334d2ae7ef0b23dc799a2065e",
        "scattered": "3a954e8d95a6073c80b5071477e9eb9a9eb65877986c602f3e26e69c78ed133e",
        "thin": "654de14f3adea0c8a08ae0df494619bd237a5c5c81faa5880e60aebb0e54cc3d",
        "ru": "e4ae3ce5d491953ba2b9fa89d2e65821432b2b2eadc6f3fdc53d11fe6d8b9923",
        "rv": "a285219ec91d4d727faac5134aa0ce802ea2f823c0ff3f4aa46666eb83d95236",
    },
    "maxmin": {
        "grid21": "c43a1d16e037503d5913a7d413ca9d399239891c3c2158c3d38a126fc162c1fd",
        "grid101": "4e4bcf32a088728f5408d5ba85460fe780b8e7b33295e4423c850e047158cea6",
        "scattered": "399f095957b3e9068017bf97abb5ee4e3eec4a2091fc5c562e678e28a1dba07c",
        "thin": "42ea57f85111a4c74f6e6bb3e9e28cc5c188b73f9feb7d95c56fa9cdeb8cda73",
        "ru": "fbe6dc4ced831eea0d148ad2b901f25bc651ffd301fe46fd95c4a4ea31a3abaf",
        "rv": "cdd27ff5672e9cdfd9a2953a1003755f82bfc0f6f8f7add597bc30978c47ec8c",
    },
    "reconstructed": {
        "grid21": "a6907b72f29aef078197bea3b74136071b4ad1db7e368eb523195f8a054e6d3c",
        "grid101": "28aed1467b6022faa515bba57bae1df357e108837bb34fe5a9119fcccd63c29d",
        "scattered": "566addb0e91c4ceaed18e8fd78a9c9508923e6d9266e8d319ade97b5c6a2c0a8",
        "thin": "d60d7821edc0e347e81f5acfd6ee252fa0fde9bb3901ddaf52ef76fb8bda21e2",
        "ru": "5d54571b04db48ffb0e310e9c97cb953d5693f9d9a2d133e22d197e282c04dda",
        "rv": "e71bcc0ada3d47518834f14703ceeda390861cef5f32a020df236db85e3da28c",
    },
    "rmm": {
        "grid21": "5612e6921cb0c68b528313d334f7ceffdbec6ad1fba594bb2ab30b5bbf756c85",
        "grid101": "238f5dde8314ee7f874a8d62a4e2f3f90c0119b6c8fec7825b013d3e3d2c4332",
        "scattered": "be03307a871e630014de91da74c1dfbb2b5a5342471267750507f29902788ff6",
        "thin": "c12b5d09844892ee3d21a3a605ad0a66f86a9ca7f5f08b0da87e8622f6906c02",
        "ru": "79e775615f04aa4ede5ccf021ad8f6859040ad06d1e68644a3bf87b954902f83",
        "rv": "8fbf0608696a1dab8eb14c316a7a5f2e192c335d37a6e7bcf2b269cb04868b8a",
    },
    "smm": {
        "grid21": "ad598df33822b43d6d2f9a9c2806d872ea2175f028ae1ccc0e6c1da939138213",
        "grid101": "f5307e0a574bdd73d52cc01ae55de1101091ee40058745becc2b5fbbe99873ac",
        "scattered": "e6c90ad70731f9771740f752f0931f79a558a155faba4655f45500f74fe3ad38",
        "thin": "95b64f5de1823fc9a69b252a8db33db8a6b44277ed9b1956a699c48393699d6e",
        "ru": "d0e07ee341e9faa5f5b2f94a1ecfac31dd184670235eeb5be2b507d626ec1aca",
        "rv": "0f72f60dca7292b92cbae13f474ffc10f05e0462b95d48edbc2618c703d2ffea",
    },
    "step_rmm": {
        "grid21": "4ccfe5082e545c90c1c6dc150f9e1a4373a3fa43b1255be4d4d626c004e82931",
        "grid101": "5eb86081a66afd1211fb2be00c8becaad2a1dcc88dc6c3d6ac5138380c6af0a0",
        "scattered": "456a341c47e4906928d20aa6f0b60e1c02222557a8168f0dcd632a46c605437d",
        "thin": "5ac64000397f7c16c24171023512a98bd72ba9691a683d25c0b56ac8bc3396df",
        "ru": "94a7925df726206ffccfc04771179a80250f200c7a172824953e86f2cedf40d8",
        "rv": "e9d657099c1989f0207959c71fc99671e471605c172d18ebb0c38a3446dcf691",
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN_EMPIRICAL))
def test_empirical_copula_bytes_match_their_recorded_digest(name):
    emp = EmpiricalCopula(sample_model(golden_models()[name], 5000, seed=20).pairs)
    got = {k: np.ascontiguousarray(emp.value_array(*q)) for k, q in empirical_queries(emp).items()}
    got["ru"], got["rv"] = emp.ru, emp.rv
    assert {k: hashlib.sha256(a.tobytes()).hexdigest() for k, a in got.items()} == GOLDEN_EMPIRICAL[name]


def test_monte_carlo_path_memory_stays_bounded():
    # bytes per pair at n = 200k: sample_model peaked at 88 and EmpiricalCopula at 73 above
    # the live pairs while every stream, coordinate and sorted copy lived to the end of its
    # function; with the shocks written into the output and one coordinate alive at a time
    # sampling measures 33.  Construction measured 33 with a tie-group pass per column and
    # measures 28 with one argsort of u, one sort of v and the u order kept in int32; a
    # 21 x 21 lattice measured 16 with a bucket per pair and measures under 1 with one
    # sorted u segment of v at a time (Python 3.11, numpy 2.4)
    m = rmm_model(Exponential(0.7), Exponential(1.3), Exponential(1.1), Exponential(0.9))
    n = 200_000
    grid = np.linspace(0.0, 1.0, 21)
    tracemalloc.start()
    try:
        s = sample_model(m, n, seed=4)
        sampled = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        live = tracemalloc.get_traced_memory()[0]
        emp = EmpiricalCopula(s.pairs)
        built = tracemalloc.get_traced_memory()[1] - live
        tracemalloc.reset_peak()
        live = tracemalloc.get_traced_memory()[0]
        emp.value_array(grid[:, None], grid[None, :])
        evaluated = tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()
    assert sampled / n <= 60.0
    assert built / n <= 40.0
    assert evaluated / n <= 8.0


@pytest.mark.parametrize("shape", ["20000x1", "scattered"])
def test_empirical_evaluation_off_the_lattice_stays_lean_and_keeps_no_state(shape):
    # bytes per pair at n = 200k above the live copula: a bincount kernel that kept the
    # pairs' v order (4) on the copula and a cell per pair for each table measured 24.4
    # for the thin lattice and 21.7 for scattered points; counted by u segment, both
    # measure about 10, most of it the 20,000 queries' own level tables (Python 3.11,
    # numpy 2.4)
    n, m = 200_000, 20_000
    rng = np.random.default_rng(3)
    emp = EmpiricalCopula(rng.random((n, 2)))
    if shape == "20000x1":
        us, vs = np.linspace(0.0, 1.0, m)[:, None], np.array([[0.5]])
    else:
        us, vs = rng.random(m), rng.random(m)
    state = set(vars(emp))
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        emp.value_array(us, vs)
        evaluated = tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()
    assert evaluated / n <= 12.0
    assert set(vars(emp)) == state


def test_step_table_sampling_memory_stays_bounded():
    # bytes per pair at n = 200k above the 16 of the output: the step-table quantile of
    # the idiosyncratic X coordinate held its levels, their argsort order and sorted
    # copy, the search index, the gathered knots and the np.where output at once (49);
    # the clipped take, filled in place, holds one output where those two were (41)
    step = TabulatedCdf(np.arange(1, 2001) / 1000.0, np.arange(1, 2001) / 2000.0, "step")
    m = rmm_model(step, Exponential(1.3), Exponential(1.1), Exponential(0.9))
    n = 200_000
    sample_model(m, 10, seed=4)  # the modules numpy imports on first use stay out of the count
    tracemalloc.start()
    try:
        s = sample_model(m, n, seed=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - s.pairs.nbytes) / n <= 45.0


def test_average_ranks_handles_ties():
    ranks = average_ranks(np.array([1.0, 2.0, 2.0, 5.0]))
    np.testing.assert_allclose(ranks, [1.0, 2.5, 2.5, 4.0])


def reference_average_ranks(x):
    """Average ranks from ``np.unique``'s counts, which treat all NaNs as one value."""
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    return ((ends - counts + 1 + ends) / 2.0)[inverse.ravel()]


@given(
    st.lists(
        st.one_of(st.integers(-3, 3).map(float), st.sampled_from([np.nan, -0.0]), st.floats()),
        min_size=1,
        max_size=80,
    )
)
@settings(max_examples=300, deadline=None)
def test_average_ranks_match_unique_counts(values):
    x = np.array(values)
    assert average_ranks(x).tobytes() == reference_average_ranks(x).tobytes()


def test_empirical_copula_two_concordant_points():
    emp = EmpiricalCopula(np.array([[1.0, 1.0], [2.0, 2.0]]))
    assert emp.value(0.5, 0.5) == 0.5
    assert emp.value(1.0, 1.0) == 1.0


def test_empirical_copula_two_discordant_points():
    emp = EmpiricalCopula(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert emp.value(0.5, 0.5) == 0.0


def test_empirical_copula_grounded_within_one_over_n():
    emp = EmpiricalCopula(np.random.default_rng(0).random((50, 2)))
    assert emp.value(0.9, 0.0) == 0.0
    assert emp.value(0.01, 0.9) == 0.0  # below 1/n in the first coordinate


def test_empirical_copula_needs_two_points():
    with pytest.raises(ValueError):
        EmpiricalCopula(np.array([[0.5, 0.5]]))


def test_sup_distance_identical_is_zero():
    assert sup_distance(independence(), independence(), 21) == 0.0


def test_sup_distance_between_bounds_on_coarse_grid():
    assert sup_distance(frechet_w(), frechet_m(), 3) == 0.5
    assert sup_distance_at(frechet_w(), frechet_m(), 3) == (0.5, (0.5, 0.5))


def mask_definition(emp, us, vs):
    """The empirical copula by its definition, one boolean mask per query point."""
    us, vs = np.broadcast_arrays(np.asarray(us, dtype=float), np.asarray(vs, dtype=float))
    out = [
        np.nan if np.isnan(u) or np.isnan(v) else np.mean((emp.ru <= u) & (emp.rv <= v))
        for u, v in zip(us.ravel(), vs.ravel())
    ]
    return np.array(out).reshape(us.shape)


@st.composite
def tied_sample_and_queries(draw):
    # integer-valued pairs make heavy ties, NaN data form one last tie group, and a
    # column may be constant; levels j/(2n) hit average ranks exactly and their float
    # neighbours sit just off them
    value = st.one_of(st.integers(0, 4).map(float), st.sampled_from([np.nan, np.inf, -np.inf]))
    pairs = np.array(draw(st.lists(st.tuples(value, value), min_size=2, max_size=60)))
    if draw(st.booleans()):
        pairs[:, draw(st.integers(0, 1))] = draw(value)
    n = len(pairs)
    on_rank = st.integers(0, 2 * n).map(lambda j: j / (2 * n))
    level = st.one_of(
        st.sampled_from([0.0, 1.0, np.nan]),
        on_rank,
        st.tuples(on_rank, st.sampled_from([-1.0, 2.0])).map(lambda t: np.nextafter(*t)),
        st.floats(0.0, 1.0),
    )
    us = draw(st.lists(level, min_size=1, max_size=30))
    vs = draw(st.lists(level, min_size=len(us), max_size=len(us)))
    # the side of a thin lattice: more than sqrt(n) levels, of which few or many distinct
    thin = draw(st.lists(level, min_size=math.isqrt(n) + 1, max_size=2 * n + 2))
    return EmpiricalCopula(pairs), np.array(us), np.array(vs), np.array(thin)


@given(tied_sample_and_queries())
@settings(max_examples=200, deadline=None)
def test_empirical_count_equals_mask_definition(case):
    emp, us, vs, thin = case
    # unsorted, repeated 1-D queries; beyond (n + m + 1)^(1/2) distinct levels a side
    # they are counted in blocks
    np.testing.assert_array_equal(emp.value_array(us, vs), mask_definition(emp, us, vs))
    # a broadcast lattice, then thin k x 1 and 1 x k lattices: one table while it fits in
    # n + m cells, in blocks beyond that
    for uu, vv in (
        (us[:, None], vs[None, :]),
        (thin[:, None], vs[:1, None]),
        (us[:1, None], thin[None, :]),
    ):
        np.testing.assert_array_equal(emp.value_array(uu, vv), mask_definition(emp, uu, vv))
    # scalar queries (the scalar API refuses NaN and levels off [0, 1])
    if 0.0 <= us[0] <= 1.0 and 0.0 <= vs[0] <= 1.0:
        assert emp.value(us[0], vs[0]) == mask_definition(emp, us[0], vs[0])


def test_empirical_margins_count_ranks_at_large_n():
    # with u = 1 every pair passes the u test, so C(1, v) * n counts the rv at or below v;
    # levels on each distinct rank and one float either side, at an n where k / 2n rounds
    rng = np.random.default_rng(8)
    n = 20_011
    pairs = np.column_stack([rng.random(n), rng.integers(0, 3000, n) + (rng.random(n) < 0.5) * rng.random(n)])
    pairs[rng.random(n) < 0.01, 1] = np.nan
    emp, mirrored = EmpiricalCopula(pairs), EmpiricalCopula(pairs[:, ::-1])
    ranks = np.unique(emp.rv)
    levels = np.concatenate([ranks, np.nextafter(ranks, -1.0), np.nextafter(ranks, 2.0)])
    want = np.searchsorted(np.sort(emp.rv), levels, "right") / n
    # n - 2 levels fit one table, all of them go in blocks; on the mirrored sample the
    # levels are u levels, one u segment each
    for part in (slice(0, n - 2), slice(None)):
        ones = np.ones_like(levels[part])
        np.testing.assert_array_equal(emp.value_array(ones, levels[part]), want[part])
        np.testing.assert_array_equal(mirrored.value_array(levels[part], ones), want[part])


def test_empirical_count_of_scattered_queries_stays_small():
    # 20k distinct u and v values would make a 20001 x 20001 table if counted in
    # one block; blocking holds the table to n + m cells
    rng = np.random.default_rng(4)
    n, m = 1000, 20_000
    # tied pairs, and queries that hit average ranks exactly or are NaN
    emp = EmpiricalCopula(rng.integers(0, 300, (n, 2)).astype(float))
    us = np.where(rng.random(m) < 0.5, rng.random(m), rng.choice(emp.ru, m))
    vs = np.where(rng.random(m) < 0.5, rng.random(m), rng.choice(emp.rv, m))
    us[rng.random(m) < 0.01] = np.nan
    tracemalloc.start()
    try:
        got = emp.value_array(us, vs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 8 * (n + m)  # 32 float64 words per input
    np.testing.assert_array_equal(got, mask_definition(emp, us, vs))


def test_empirical_copula_nan_query_gives_nan():
    emp = EmpiricalCopula(np.random.default_rng(0).random((50, 2)))
    us, vs = np.array([np.nan, 0.5, np.nan, 0.5]), np.array([0.5, np.nan, np.nan, 0.5])
    got = emp.value_array(us, vs)
    np.testing.assert_array_equal(np.isnan(got), np.isnan(independence().value_array(us, vs)))
    assert got[3] == mask_definition(emp, 0.5, 0.5)


def test_empirical_copula_tracks_analytic_family():
    m = rmm_model(U, U, U, U)
    emp = empirical_copula(sample_model(m, 50_000, seed=7))
    analytic = induced_copula(m)
    assert sup_distance(emp, analytic, 21) <= 4.4 / np.sqrt(50_000)


def test_csv_round_trip_raw(tmp_path):
    m = marshall_model(U, U, U, U)
    s = sample_model(m, 100, seed=42)
    path = tmp_path / "pairs.csv"
    write_pairs_csv(str(path), s, kind="raw", version="0.1.0")
    text = path.read_text()
    assert text.startswith("# shockcop=0.1.0 descriptor=")
    assert "seed=42" in text.splitlines()[0]
    back = read_pairs_csv(str(path))
    assert back.seed == 42
    np.testing.assert_array_equal(back.pairs, s.pairs)


def test_csv_ranks_mode():
    m = marshall_model(U, U, U, U)
    s = sample_model(m, 50, seed=1)
    buf = io.StringIO()
    write_pairs_csv(buf, s, kind="ranks")
    lines = buf.getvalue().strip().splitlines()
    assert lines[1] == "ru,rv"
    vals = np.array([[float(t) for t in line.split(",")] for line in lines[2:]])
    assert vals.min() >= 1.0 / 50 - 1e-12
    assert vals.max() <= 1.0


def test_read_rejects_empty(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("# comment only\nu,v\n")
    from shockcop.errors import TableFormatError

    with pytest.raises(TableFormatError):
        read_pairs_csv(str(path))


def test_sampling_rejects_malformed_cdf():
    # a table capped below 1 sends interior levels to +oo under the
    # generalized inverse, which the quantile transform must refuse
    from shockcop.distributions import TabulatedCdf
    from shockcop.errors import MalformedCdfError

    capped = TabulatedCdf([0.0, 1.0], [0.3, 0.6], "step")
    m = marshall_model(U, U, capped, capped)
    with pytest.raises(MalformedCdfError):
        sample_model(m, 100, seed=1)


def test_quantile_rejects_out_of_range_levels():
    with pytest.raises(ValueError):
        U.quantile(-0.1)
    with pytest.raises(ValueError):
        U.quantile(1.5)
