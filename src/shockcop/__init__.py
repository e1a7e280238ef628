"""Shock-model copulas: four coupled-shock families and the calculus between them.

The package covers the full loop: build generators from shock distributions,
evaluate the induced copulas, transform between families (survival and
reflections), reconstruct explicit shock models from a copula plus margins,
and verify every claimed identity on grids and by seeded Monte Carlo.
"""

__version__ = "0.1.0"

from .copulas import (
    Copula,
    FrechetM,
    FrechetW,
    Independence,
    JointDistribution,
    MarshallCopula,
    MaxminCopula,
    Rectangle,
    RmmCopula,
    SmmCopula,
    efgm,
    exponential_rmm,
    exprmm_ab,
    marshall,
    maxmin,
    normalize,
    reflect,
    rmm,
    sklar_join,
    smm,
    survival,
    volume,
)
from .distributions import (
    DistributionFunction,
    EfgmMargin,
    EfgmShock,
    Exponential,
    NegExponential,
    Product,
    SurvivalProduct,
    TabulatedCdf,
    Uniform,
    load_tabulated_csv,
    negated,
    point_mass,
    product_cdf,
)
from .extreal import NEG_INF, POS_INF, ExtendedReal, is_finite
from .generators import (
    CheckSuiteReport,
    ClosedFormGenerator,
    Generator,
    GeneratorClass,
    ReflectedGenerator,
    TabulatedGenerator,
    closed_form,
    derived_value,
    generator_from_shocks,
    hat_of,
    hat_to_f,
    identity_minus,
    rmm_to_smm,
    smm_to_rmm,
    validate,
)
from .sampling import (
    EmpiricalCopula,
    SamplePairs,
    empirical_copula,
    sample_model,
    sup_distance,
)
from .shock_models import (
    ChiMap,
    Combiner,
    Comonotonic,
    Countermonotonic,
    ShockModel,
    SharedShock,
    exponential_marshall_model,
    exponential_rmm_model,
    exponential_smm_model,
    exprmm_ab_model,
    induced_copula,
    joint_cdf,
    margins,
    marshall_model,
    maxmin_model,
    reconstruct,
    rmm_model,
    smm_model,
)
