import hashlib
import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shockcop.copulas import efgm, exprmm_ab, frechet_m, frechet_w, independence
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


def golden_models() -> dict:
    """Models whose quantiles are IEEE arithmetic or table lookups, so the digests below
    do not depend on the platform's log; the reconstructed one runs the generic inverse."""
    step = TabulatedCdf(np.arange(1, 301) / 100.0, np.arange(1, 301) / 300.0, "step")
    u = Uniform
    return {
        "rmm": rmm_model(u(0.0, 2.0), u(-0.5, 1.5), u(0.3, 1.1), u(0.2, 2.0)),
        "marshall": marshall_model(u(0.0, 1.0), u(0.25, 1.75), u(-1.0, 1.5), u(0.5, 1.0)),
        "smm": smm_model(u(-2.0, 1.0), u(0.0, 3.0), u(0.0, 1.0), u(-1.0, 0.5)),
        "maxmin": maxmin_model(u(0.0, 1.5), u(0.5, 2.5), u(0.2, 1.2)),
        "step_rmm": rmm_model(step, u(0.0, 2.0), u(1.0, 2.5), u(0.5, 3.0)),
        "reconstructed": reconstruct(efgm(0.7), u(), u()),
    }


#: sha256 of sample_model(model, 5000, seed=20).pairs, recorded when the sampler still
#: stacked whole columns; 5000 levels span two blocks of the generic inverse
GOLDEN_SAMPLES = {
    "rmm": "1168978d4222959d267ea0c12d15c55d9c2ad642cf0063b5f4a8de8f769c8483",
    "marshall": "2b6a0d856fa2464541c9a3633bbf55f78c71a09baf3c925f10963b4531e43bb8",
    "smm": "e1870e143b2206244391f6c9e552743be47aad3f05098790e2c8c98875ee85f5",
    "maxmin": "5806c84b8c103586ebcc09371ee91e0a6fe0259b52c032e4eb39c143714da09b",
    "step_rmm": "35c8ed788be687b976acd293a40f89e47d9c8f39e7ff0f7302aa4c1bce41de1f",
    "reconstructed": "f14dac3663b6265813afdd7cb6631d0c3b71b5a1bc1dae43dec1e3593d9e3c7d",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SAMPLES))
def test_seeded_sample_bytes_match_their_recorded_digest(name):
    s = sample_model(golden_models()[name], 5000, seed=20)
    assert s.pairs.flags.c_contiguous
    assert hashlib.sha256(s.pairs.tobytes()).hexdigest() == GOLDEN_SAMPLES[name]


def test_monte_carlo_path_memory_stays_bounded():
    # bytes per pair at n = 200k: sample_model peaked at 88 and EmpiricalCopula at 73 above
    # the live pairs while every stream, coordinate and sorted copy lived to the end of its
    # function; with the shocks written into the output, one coordinate alive at a time and
    # int32 tie-group indices both measure 33 (Python 3.11, numpy 2.4)
    m = rmm_model(Exponential(0.7), Exponential(1.3), Exponential(1.1), Exponential(0.9))
    n = 200_000
    tracemalloc.start()
    try:
        s = sample_model(m, n, seed=4)
        sampled = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        live = tracemalloc.get_traced_memory()[0]
        EmpiricalCopula(s.pairs)
        built = tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()
    assert sampled / n <= 60.0
    assert built / n <= 55.0


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
    # integer-valued pairs make heavy ties; levels j/(2n) hit average ranks exactly
    pairs = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=2, max_size=60))
    n = len(pairs)
    level = st.one_of(
        st.sampled_from([0.0, 1.0, np.nan]),
        st.integers(0, 2 * n).map(lambda j: j / (2 * n)),
        st.floats(0.0, 1.0),
    )
    us = draw(st.lists(level, min_size=1, max_size=30))
    vs = draw(st.lists(level, min_size=len(us), max_size=len(us)))
    return EmpiricalCopula(np.array(pairs, dtype=float)), np.array(us), np.array(vs)


@given(tied_sample_and_queries())
@settings(max_examples=200, deadline=None)
def test_empirical_count_equals_mask_definition(case):
    emp, us, vs = case
    # unsorted, repeated 1-D queries; beyond (n + m + 1)^(1/2) distinct levels a side
    # they are counted in blocks
    np.testing.assert_array_equal(emp.value_array(us, vs), mask_definition(emp, us, vs))
    # a broadcast lattice
    lattice = emp.value_array(us[:, None], vs[None, :])
    np.testing.assert_array_equal(lattice, mask_definition(emp, us[:, None], vs[None, :]))
    # scalar queries (the scalar API refuses NaN)
    if not np.isnan(us[0] + vs[0]):
        assert emp.value(us[0], vs[0]) == mask_definition(emp, us[0], vs[0])


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
