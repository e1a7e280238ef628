"""Shock-model copulas: four coupled-shock families and the calculus between them.

The package covers the full loop: build generators from shock distributions,
evaluate the induced copulas, transform between families (survival and
reflections), reconstruct explicit shock models from a copula plus margins,
and verify every claimed identity on grids and by seeded Monte Carlo.

The namespace is lazy (PEP 562): ``import shockcop`` loads no submodule and no
numpy; each public name imports its submodule on first use.
"""

import sys as _sys

__version__ = "0.1.0"

_EXPORTS = {
    "copulas": "Copula FrechetM FrechetW Independence JointDistribution MarshallCopula"
    " MaxminCopula Rectangle RmmCopula SmmCopula efgm exponential_rmm exprmm_ab marshall"
    " maxmin normalize reflect rmm sklar_join smm survival",
    "distributions": "DistributionFunction EfgmMargin EfgmShock Exponential Product"
    " SurvivalProduct TabulatedCdf Uniform load_tabulated_csv negated point_mass",
    "generators": "CheckSuiteReport ClosedFormGenerator Generator GeneratorClass"
    " ReflectedGenerator TabulatedGenerator closed_form derived_value generator_from_shocks"
    " hat_of hat_to_f identity_minus rmm_to_smm smm_to_rmm validate",
    "sampling": "EmpiricalCopula SamplePairs empirical_copula sample_model sup_distance",
    "shock_models": "ChiMap Combiner ShockModel exponential_marshall_model"
    " exponential_rmm_model exponential_smm_model exprmm_ab_model induced_copula joint_cdf"
    " margins marshall_model maxmin_model reconstruct rmm_model smm_model",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
# submodules that the former eager imports bound as attributes of the package
_SUBMODULES = (*_EXPORTS, "errors", "tables")

__all__ = sorted({*_HOME, *_SUBMODULES})


def _load(submodule):
    """Import a submodule, which binds it here too; ``__import__`` keeps it in ``-X importtime``."""
    __import__(f"{__name__}.{submodule}")
    return _sys.modules[f"{__name__}.{submodule}"]


def __getattr__(name):
    if name in _SUBMODULES:
        return _load(name)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_load(_HOME[name]), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
