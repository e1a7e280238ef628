"""Import-time contract: a lazy package namespace and a CLI without a BLAS thread pool.

Each test runs a fresh interpreter, so that what is already imported, cached or
set in the environment is under the test's control.
"""

import json
import os
import subprocess
import sys

import pytest

# the public attributes of ``import shockcop`` when every submodule was imported eagerly
PUBLIC = sorted("""
CheckSuiteReport ChiMap ClosedFormGenerator Combiner Comonotonic Copula Countermonotonic
DistributionFunction EfgmMargin EfgmShock EmpiricalCopula Exponential FrechetM
FrechetW Generator GeneratorClass Independence JointDistribution MarshallCopula MaxminCopula
NEG_INF NegExponential POS_INF Product Rectangle ReflectedGenerator RmmCopula SamplePairs
SharedShock ShockModel SmmCopula SurvivalProduct TabulatedCdf TabulatedGenerator Uniform
closed_form copulas derived_value distributions efgm empirical_copula errors
exponential_marshall_model exponential_rmm exponential_rmm_model exponential_smm_model exprmm_ab
exprmm_ab_model extreal generator_from_shocks generators hat_of hat_to_f identity_minus
induced_copula joint_cdf load_tabulated_csv margins marshall marshall_model maxmin
maxmin_model negated normalize point_mass product_cdf reconstruct reflect rmm rmm_model
rmm_to_smm sample_model sampling shock_models sklar_join smm smm_model smm_to_rmm sup_distance
survival tables validate volume
""".split())
SUBMODULES = ["copulas", "distributions", "errors", "extreal", "generators", "sampling",
              "shock_models", "tables"]


def child(code, **env_changes):
    """Run ``code`` in a new interpreter; return the JSON it prints last."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    env.pop("OPENBLAS_NUM_THREADS", None)
    env.update(env_changes)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_shockcop_does_not_import_numpy():
    loaded = child("import json, sys, shockcop; print(json.dumps(sorted(sys.modules)))")
    assert "numpy" not in loaded
    assert [m for m in loaded if m.startswith("shockcop.")] == []


def test_cli_defaults_openblas_to_one_thread():
    code = "import json, os, shockcop.cli; print(json.dumps(os.environ['OPENBLAS_NUM_THREADS']))"
    assert child(code) == "1"
    assert child(code, OPENBLAS_NUM_THREADS="3") == "3"


def test_library_import_leaves_openblas_unset():
    code = "import json, os, shockcop; shockcop.Copula\n"
    code += "print(json.dumps('OPENBLAS_NUM_THREADS' in os.environ))"
    assert child(code) is False


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_cli_process_runs_one_thread():
    code = "import json, os, shockcop.cli; print(json.dumps(len(os.listdir('/proc/self/task'))))"
    assert child(code) == 1


def test_public_namespace_is_whole():
    code = """
import importlib, json, shockcop
before = sorted(n for n in dir(shockcop) if not n.startswith('_'))
homes = {}
for name in before:
    value = getattr(shockcop, name)
    homes[name] = [m for m in %r
                   if getattr(importlib.import_module('shockcop.' + m), name, None) is value
                   or importlib.import_module('shockcop.' + m) is value]
try:
    shockcop.no_such_name
    missing = None
except AttributeError as exc:
    missing = str(exc)
print(json.dumps([before, sorted(shockcop.__all__), homes, missing]))
""" % (SUBMODULES,)
    before, exported, homes, missing = child(code)
    assert before == exported == PUBLIC and len(PUBLIC) == 83
    assert all(homes[name] for name in PUBLIC), [n for n in PUBLIC if not homes[n]]
    for name in SUBMODULES:
        assert homes[name] == [name]
    assert missing == "module 'shockcop' has no attribute 'no_such_name'"


def test_patching_the_namespace_reaches_cached_and_unresolved_names():
    # a tracer swaps a function in every loaded shockcop module's vars(); the package
    # must hand out the swapped object whether the name was resolved before or not
    code = """
import json, sys, shockcop
import shockcop.sampling
cached = shockcop.sample_model
swaps = {cached: 'cached', shockcop.sampling.empirical_copula: 'unresolved'}
for mod in [m for n, m in sys.modules.items() if n == 'shockcop' or n.startswith('shockcop.')]:
    for attr, val in list(vars(mod).items()):
        if any(val is orig for orig in swaps):
            setattr(mod, attr, swaps[val])
print(json.dumps([shockcop.sample_model, shockcop.empirical_copula]))
"""
    assert child(code) == ["cached", "unresolved"]
