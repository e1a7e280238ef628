import numpy as np
import pytest

from shockcop.copulas import MaxminCopula, RmmCopula, SmmCopula, SurvivalCopula
from shockcop.descriptors import (
    parse_copula,
    parse_distribution,
    parse_generator,
    parse_model,
    split_top_level,
)
from shockcop.distributions import Product, Uniform
from shockcop.errors import DescriptorError, IllegalModelError
from shockcop.generators import GeneratorClass
from shockcop.shock_models import Combiner, Comonotonic, SharedShock


def test_split_top_level_respects_parens():
    assert split_top_level("a,b(c,d),e") == ["a", "b(c,d)", "e"]


def test_split_top_level_rejects_unbalanced():
    with pytest.raises(DescriptorError):
        split_top_level("a,b(c")


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
        "negated(exp:rate=1.0)",
    ],
)
def test_distribution_descriptors_round_trip(text):
    d = parse_distribution(text)
    assert d.describe() == text
    again = parse_distribution(d.describe())
    assert again.describe() == text


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
    assert isinstance(c, SurvivalCopula)


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
         ["'gg'", "['combiner', 'fx', 'fy', 'g1', 'g2']"]),
    ],
)
def test_unknown_and_missing_names_are_reported(parse, text, names):
    with pytest.raises(DescriptorError) as err:
        parse(text)
    assert all(name in str(err.value) for name in names), str(err.value)


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------


def test_model_descriptor_round_trip():
    text = "marshall-max:fx=uniform:a=0.0,b=1.0,fy=uniform:a=0.0,b=1.0,g1=exp:rate=1.0,g2=exp:rate=1.0"
    m = parse_model(text)
    assert m.combiner is Combiner.MAX_MAX
    assert isinstance(m.coupling, Comonotonic)
    assert parse_model(m.describe()).describe() == m.describe()


def test_model_descriptor_case_insensitive_fields():
    m = parse_model("rmm-max:Fx=uniform,Fy=uniform,G1=uniform,G2=uniform")
    assert m.combiner is Combiner.MAX_MAX


def test_shared_shock_model_descriptor():
    m = parse_model("maxmin-shared:fx=uniform,fy=uniform,g=uniform")
    assert isinstance(m.coupling, SharedShock)
    assert parse_model(m.describe()).describe() == m.describe()


def test_combiner_override_can_make_model_illegal():
    with pytest.raises(IllegalModelError):
        parse_model("marshall-max:fx=uniform,fy=uniform,g1=uniform,g2=uniform,combiner=min-min")


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
