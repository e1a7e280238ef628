import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shockcop.copulas import FlippedCopula, FrechetM, FrechetW, MaxminCopula, RmmCopula, SmmCopula
from shockcop.descriptors import (
    parse_copula,
    parse_distribution,
    parse_generator,
    parse_model,
    split_top_level,
)
from shockcop.distributions import Product, Uniform
from shockcop.errors import DescriptorError
from shockcop.generators import (
    WRAPPERS,
    AffineGenerator,
    ClosedFormGenerator,
    GeneratorClass,
    validate,
)
from shockcop.shock_models import Combiner


def test_split_top_level_respects_parens():
    assert split_top_level("a,b(c,d),e") == ["a", "b(c,d)", "e"]


def test_split_top_level_rejects_unbalanced():
    with pytest.raises(DescriptorError):
        split_top_level("a,b(c")


RMM_MODEL = "rmm-max:fx=uniform,fy=uniform,g1=uniform,g2=uniform"


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: split_top_level("a)b("), "unbalanced parentheses in 'a)b('",
                 id="close-first"),
    pytest.param(lambda: parse_model(RMM_MODEL + ",fx=uniform"),
                 f"{RMM_MODEL},fx=uniform: duplicate field 'fx'", id="duplicate-field"),
    pytest.param(lambda: parse_distribution("uniform:a"), "uniform:a: expected k=v, got 'a'",
                 id="bare-key"),
    pytest.param(lambda: parse_distribution("product(uniform)"),
                 "product needs exactly two ';'-separated distributions, got 'product(uniform)'",
                 id="product-arity"),
    pytest.param(lambda: parse_distribution("mirror(uniform)"),
                 "unknown distribution wrapper 'mirror'", id="distribution-wrapper"),
    pytest.param(lambda: parse_generator("mirror(power:alpha=0.5)", GeneratorClass.RMM),
                 "unknown generator wrapper 'mirror'", id="generator-wrapper"),
    pytest.param(lambda: parse_copula("mirror(efgm:a=0.5)"), "unknown copula wrapper 'mirror'",
                 id="copula-wrapper"),
    pytest.param(lambda: parse_model(RMM_MODEL + ",combiner=min-min"),
                 f"{RMM_MODEL},combiner=min-min: unknown field 'combiner', "
                 "expected one of ['fx', 'fy', 'g1', 'g2']", id="combiner"),
])
def test_malformed_descriptors_are_rejected(call, message):
    with pytest.raises(DescriptorError, match=re.escape(message)):
        call()


# ---------------------------------------------------------------------------
# distributions
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text",
    [
        "uniform:a=0.0,b=1.0",
        "exp:rate=2.0",
        "neg-exp:rate=0.5",
        "efgm-margin:a=0.95",
        "efgm-shock:a=0.95",
        "product(uniform:a=0.0,b=1.0;exp:rate=1.0)",
        "survival-product(exp:rate=1.0;exp:rate=3.0)",
        "negated(uniform:a=-1.0,b=0.0)",
    ],
)
def test_distribution_descriptors_round_trip(text):
    d = parse_distribution(text)
    assert d.describe() == text
    again = parse_distribution(d.describe())
    assert again.describe() == text


@pytest.mark.parametrize("rate", ["0.5", "1.0", "2.5e-07"])
def test_a_negated_exponential_is_spelled_neg_exp(rate):
    for text in (f"negated(exp:rate={rate})", f"neg-exp:rate={rate}"):
        assert parse_distribution(text).describe() == f"neg-exp:rate={rate}"
        assert parse_distribution(f"negated({text})").describe() == f"exp:rate={rate}"


def test_bare_uniform_defaults():
    d = parse_distribution("uniform")
    assert isinstance(d, Uniform) and d.a == 0.0 and d.b == 1.0


def test_pointmass_descriptor():
    d = parse_distribution("pointmass:x=0.5")
    assert d.cdf(0.5) == 1.0 and d.cdf(0.49) == 0.0


def test_tabulated_distribution_from_file(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("x,p\n0.0,0.4\n1.0,1.0\n")
    d = parse_distribution(f"step:file={path}")
    assert d.cdf(0.2) == 0.4
    assert parse_distribution(d.describe()).cdf(0.2) == 0.4


def test_comma_in_a_file_path_survives_in_a_model_field(tmp_path):
    path = tmp_path / "a,b.csv"
    path.write_text("x,p\n0.0,0.4\n1.0,1.0\n")
    m = parse_model(f"rmm-max:fx=step:file={path},fy=uniform,g1=uniform,g2=uniform")
    assert m.f_x.cdf(0.2) == 0.4


def test_unknown_distribution_rejected():
    with pytest.raises(DescriptorError):
        parse_distribution("camel:humps=2")


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text",
    [
        "power:alpha=0.5",
        "twoparam:alpha=0.5,beta=0.5",
        "efgmhat:a=0.95",
        "efgmf:a=0.95",
        "identity",
        "zero",
        "fullshock",
        "capped:slope=2.0",
        "poly:c0=0.0,c1=1.0,c2=-1.0",
    ],
)
def test_generator_descriptors_round_trip(text):
    gen = parse_generator(text, GeneratorClass.RMM)
    assert gen.describe() == text
    assert parse_generator(gen.describe(), GeneratorClass.RMM).describe() == text


def test_reflected_generator_descriptor():
    gen = parse_generator("reflect(power:alpha=0.5)", GeneratorClass.SMM)
    assert gen.declared_class is GeneratorClass.SMM
    assert gen.value(0.75) == pytest.approx(0.25, abs=1e-15)
    assert gen.describe() == "reflect(power:alpha=0.5)"


@pytest.mark.parametrize(
    "text",
    [
        "reflect(power:alpha=0.5)",
        "minus-id(efgmhat:a=0.95)",
        "id-minus(efgmhat:a=0.95)",
        "plus-id(power:alpha=0.5)",
        "reflect(minus-id(efgmhat:a=0.95))",
        "reflect(id-minus(efgmhat:a=0.95))",
        "reflect(plus-id(power:alpha=0.5))",
        "minus-id(reflect(efgmhat:a=0.95))",
        "plus-id(reflect(efgmhat:a=0.95))",
        "plus-id(reflect(id-minus(poly:c0=0.0,c1=0.0,c2=1.0)))",
    ],
)
def test_one_layer_and_reflected_offset_descriptors_keep_their_text(text):
    assert parse_generator(text, GeneratorClass.RMM).describe() == text


@pytest.mark.parametrize(
    "text, canonical",
    [
        ("reflect(reflect(power:alpha=0.5))", "power:alpha=0.5"),
        ("minus-id(plus-id(power:alpha=0.5))", "power:alpha=0.5"),
        ("id-minus(id-minus(power:alpha=0.5))", "power:alpha=0.5"),
        ("reflect(reflect(minus-id(power:alpha=0.5)))", "minus-id(power:alpha=0.5)"),
        ("plus-id(plus-id(minus-id(power:alpha=0.5)))", "plus-id(power:alpha=0.5)"),
        ("id-minus(reflect(minus-id(power:alpha=0.5)))", "plus-id(reflect(id-minus(power:alpha=0.5)))"),
        ("id-minus(reflect(power:alpha=0.5))", "plus-id(reflect(id-minus(plus-id(power:alpha=0.5))))"),
    ],
)
def test_stacks_print_their_composed_canonical_stack(text, canonical):
    assert parse_generator(text, GeneratorClass.RMM).describe() == canonical


def test_cancelling_wrappers_keep_the_requested_class():
    # the offsets parse their argument as a Marshall hat form, so the bare base would
    # carry the wrong class: the identity map stays, tagged RMM
    gen = parse_generator("minus-id(plus-id(power:alpha=0.5))", GeneratorClass.RMM)
    assert gen.declared_class is GeneratorClass.RMM
    assert gen.base.declared_class is GeneratorClass.MARSHALL
    # reflect parses its argument in the reflected class, so two give the base itself
    base = parse_generator("reflect(reflect(power:alpha=0.5))", GeneratorClass.RMM)
    assert type(base) is ClosedFormGenerator
    assert base.declared_class is GeneratorClass.RMM and base.describe() == "power:alpha=0.5"


def test_reflection_keeps_the_parameter_domain_and_an_offset_drops_it():
    report = validate(parse_generator("reflect(power:alpha=2)", GeneratorClass.SMM))
    assert [r.check_id for r in report.results if not r.passed][:1] == ["power-domain"]
    # u - (u**2 - u) = 2u - u**2 is a valid Marshall generator whatever the base's domain
    report = validate(parse_generator("id-minus(power:alpha=2)", GeneratorClass.MARSHALL))
    assert report.passed
    assert not any(r.check_id == "power-domain" for r in report.results)


def _map_of(gen):
    if isinstance(gen, AffineGenerator):
        return gen.map, gen.base.describe()
    return (1, False, 0, 0), gen.describe()


@given(
    st.sampled_from(["power:alpha=0.5", "efgmhat:a=0.95", "poly:c0=0.0,c1=0.0,c2=1.0", "zero"]),
    st.lists(st.sampled_from(sorted(WRAPPERS)), max_size=6),
    st.sampled_from(GeneratorClass),
)
@settings(max_examples=200, deadline=None)
def test_describe_reads_back_to_the_same_map(base, names, cls):
    text = base
    for name in names:
        text = f"{name}({text})"
    gen = parse_generator(text, cls)
    back = parse_generator(gen.describe(), cls)
    assert _map_of(back) == _map_of(gen)
    assert back.describe() == gen.describe()


def test_generator_bad_params_rejected():
    with pytest.raises(DescriptorError):
        parse_generator("power:beta=0.5", GeneratorClass.RMM)
    with pytest.raises(DescriptorError):
        parse_generator("power:alpha=oops", GeneratorClass.RMM)


# ---------------------------------------------------------------------------
# copulas
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text",
    [
        "indep",
        "frechet-w",
        "frechet-m",
        "efgm:a=0.95",
        "exprmm-ab:alpha=0.1,beta=0.1",
        "rmm:f=power:alpha=0.5,g=power:alpha=0.5",
        "rmm:f=twoparam:alpha=0.5,beta=0.5,g=power:alpha=0.9",
        "smm:h=reflect(power:alpha=0.5),k=reflect(power:alpha=0.5)",
        "marshall:phi=capped:slope=2.0,psi=capped:slope=2.0",
        "maxmin:phi=capped:slope=2.0,psi=poly:c0=0.0,c1=0.0,c2=1.0",
        "survival(efgm:a=0.95)",
        "sigma1(maxmin:phi=capped:slope=2.0,psi=poly:c0=0.0,c1=0.0,c2=1.0)",
        "sigma2(maxmin:phi=capped:slope=2.0,psi=poly:c0=0.0,c1=0.0,c2=1.0)",
    ],
)
def test_copula_descriptors_round_trip(text):
    c = parse_copula(text)
    again = parse_copula(c.describe())
    us = np.linspace(0.0, 1.0, 11)
    for u in us:
        for v in us:
            assert c.value(float(u), float(v)) == again.value(float(u), float(v))


def test_efgm_descriptor_normalizes_to_rmm_form():
    c = parse_copula("efgm:a=1.0")
    assert isinstance(c, RmmCopula)
    assert c.value(0.5, 0.5) == pytest.approx(0.1875, abs=1e-15)


def test_exprmm_rates_descriptor():
    c = parse_copula("exprmm:l1=1.0,l2=1.0,m1=1.0,m2=1.0")
    ref = parse_copula("exprmm-ab:alpha=0.5,beta=0.5")
    assert c.value(0.3, 0.7) == ref.value(0.3, 0.7)


def test_nested_generator_commas_survive_in_copula_descriptor():
    c = parse_copula("rmm:f=twoparam:alpha=0.5,beta=0.5,g=power:alpha=0.5")
    assert isinstance(c, RmmCopula)
    assert c.f.describe() == "twoparam:alpha=0.5,beta=0.5"
    assert c.g.describe() == "power:alpha=0.5"


def test_survival_wrapper_parses():
    c = parse_copula("survival(efgm:a=0.5)")
    assert isinstance(c, FlippedCopula) and c.flips == (True, True)


def test_copula_parse_errors():
    with pytest.raises(DescriptorError):
        parse_copula("gauss:rho=0.5")
    with pytest.raises(DescriptorError):
        parse_copula("rmm:f=power:alpha=0.5")  # missing g
    with pytest.raises(DescriptorError):
        parse_copula("efgm:a=2.0")  # out of range weight


@pytest.mark.parametrize(
    "parse, text, names",
    [
        (parse_distribution, "uniform:a=0.2,B=3", ["'B'", "('a', 'b')"]),
        (parse_distribution, "exp:rate=1,foo=2", ["'foo'", "('rate',)"]),
        (parse_distribution, "exp:rat=1", ["'rat'", "('rate',)"]),
        (parse_distribution, "exp:rate=1,rate=2", ["duplicate", "'rate'"]),
        (parse_copula, "efgm:a=0.5,b=3", ["'b'", "('a',)"]),
        (parse_copula, "exprmm-ab:alpha=0.3,beta=0.4,gamma=1", ["'gamma'", "('alpha', 'beta')"]),
        (parse_copula, "exprmm:l1=1,l2=1,m1=1", ["('l1', 'l2', 'm1', 'm2')"]),
        (parse_copula, "indep:x=1", ["'x'", "()"]),
        (parse_copula, "rmm:f=zero,g=zero,x=1", ["'x'", "['f', 'g']"]),
        (parse_copula, "rmm:f=reflect(zero),x=1,g=zero", ["'x'", "['f', 'g']"]),
        (parse_model, "rmm-max:fx=uniform,fy=uniform,g1=uniform,g2=uniform,gg=uniform",
         ["'gg'", "['fx', 'fy', 'g1', 'g2']"]),
    ],
)
def test_unknown_and_missing_names_are_reported(parse, text, names):
    with pytest.raises(DescriptorError) as err:
        parse(text)
    assert all(name in str(err.value) for name in names), str(err.value)


@pytest.mark.parametrize(
    "parse, text, name, slots",
    [
        (parse_copula, "rmm:f=power:alpha=0.5,gg=zero", "'gg'", "['f', 'g']"),
        (parse_copula, "rmm:g=zero,f=power:alpha=0.5,x=1", "'x'", "['f', 'g']"),
        (parse_copula, "maxmin:phi=twoparam:alpha=0.5,beta=0.5,ps=identity", "'ps'", "['phi', 'psi']"),
        (parse_model, "rmm-max:fx=uniform:a=0,b=2,fy=uniform,g1=exp:rate=1,g=uniform",
         "'g'", "['fx', 'fy', 'g1', 'g2']"),
    ],
)
def test_a_misspelt_slot_after_a_field_with_parameters_is_named(parse, text, name, slots):
    with pytest.raises(DescriptorError) as err:
        parse(text)
    assert f"unknown field {name}, expected one of {slots}" in str(err.value), str(err.value)


def test_parameters_of_a_nested_descriptor_stay_with_their_field(tmp_path):
    c = parse_copula("rmm:f=twoparam:alpha=0.5,beta=0.7,g=poly:c0=0,c1=0.25,c2=-0.25")
    assert c.f.params == {"alpha": 0.5, "beta": 0.7}
    assert c.g.params == {"c0": 0.0, "c1": 0.25, "c2": -0.25}
    m = parse_model("rmm-max:fx=uniform:a=0,b=2,fy=uniform,g1=uniform,g2=uniform")
    assert m.f_x.describe() == "uniform:a=0.0,b=2.0"
    path = tmp_path / "a,b.csv"
    path.write_text("u,value\n0.0,0.0\n0.5,0.1\n1.0,0.0\n")
    c = parse_copula(f"rmm:f=tabulated:file={path},g=zero")
    assert c.f.values.tolist() == [0.0, 0.1, 0.0]


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("text, combiner, coupling", [
    ("marshall-max:fx=uniform:a=0.0,b=1.0,fy=uniform:a=0.0,b=1.0,g1=exp:rate=1.0,g2=exp:rate=2.0",
     Combiner.MAX_MAX, FrechetM),
    ("rmm-max:fx=neg-exp:rate=0.7,fy=uniform:a=0.0,b=1.0,g1=negated(exp:rate=1.1),g2=uniform:a=0.0,b=1.0",
     Combiner.MAX_MAX, FrechetW),
    ("smm-min:fx=exp:rate=1.0,fy=exp:rate=2.0,g1=exp:rate=3.0,g2=product(uniform:a=0.0,b=1.0;exp:rate=0.5)",
     Combiner.MIN_MIN, FrechetW),
    ("maxmin-shared:fx=exp:rate=1.0,fy=exp:rate=2.0,g=exp:rate=1.5", Combiner.MAX_MIN, FrechetM),
])
def test_model_descriptor_round_trip(text, combiner, coupling):
    m = parse_model(text)
    assert (m.combiner, type(m.coupling)) == (combiner, coupling)
    assert m.describe() == parse_model(m.describe()).describe()
    assert m.describe().split(":")[0] == text.split(":")[0]


def test_model_descriptor_case_insensitive_fields():
    m = parse_model("rmm-max:Fx=uniform,Fy=uniform,G1=uniform,G2=uniform")
    assert m.combiner is Combiner.MAX_MAX


def test_shared_shock_model_descriptor():
    m = parse_model("maxmin-shared:fx=uniform,fy=uniform,g=uniform")
    assert isinstance(m.coupling, FrechetM) and m.g1 is m.g2
    assert parse_model(m.describe()).describe() == m.describe()


@pytest.mark.parametrize("text", [
    "marshall-max:fx=uniform,fy=uniform,g1=uniform,g2=uniform,combiner=min-min",
    "maxmin-shared:fx=uniform,fy=uniform,g=uniform,combiner=max-max",
])
def test_a_combiner_field_is_an_unknown_field(text):
    with pytest.raises(DescriptorError, match="unknown field 'combiner'"):
        parse_model(text)


def test_model_with_nested_product_margins():
    m = parse_model(
        "rmm-max:fx=product(uniform;exp:rate=1.0),fy=uniform,g1=uniform,g2=uniform"
    )
    assert isinstance(m.f_x, Product)


def test_unknown_model_kind_rejected():
    with pytest.raises(DescriptorError):
        parse_model("minmax-shared:fx=uniform,fy=uniform,g=uniform")


def test_tabulated_generator_csv_round_trip(tmp_path):
    from shockcop.descriptors import load_tabulated_generator, write_tabulated_generator
    from shockcop.generators import TabulatedGenerator

    gen = TabulatedGenerator([0.0, 0.25, 1.0], [0.0, 0.3, 0.0], GeneratorClass.RMM)
    path = tmp_path / "gen.csv"
    write_tabulated_generator(str(path), gen, version="0.1.0")
    back = load_tabulated_generator(str(path), GeneratorClass.RMM)
    assert np.array_equal(back.us, gen.us)
    assert np.array_equal(back.values, gen.values)
    viafile = parse_generator(f"tabulated:file={path}", GeneratorClass.RMM)
    assert viafile.value(0.25) == 0.3
