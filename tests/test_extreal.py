import math

from shockcop.extreal import NEG_INF, POS_INF


def test_total_ordering_against_floats():
    assert NEG_INF < -1e308 < 0.0 < 1e308 < POS_INF
    assert POS_INF > 5
    assert NEG_INF < 5
    assert not (POS_INF < 5)
    assert POS_INF >= POS_INF
    assert NEG_INF <= NEG_INF


def test_ends_are_the_ieee_infinities():
    assert POS_INF != NEG_INF
    assert POS_INF == math.inf and type(POS_INF) is float
    assert NEG_INF == -math.inf and type(NEG_INF) is float


def test_negation_flips_sign():
    assert -POS_INF == NEG_INF
    assert -NEG_INF == POS_INF
