"""The benchmark's three workloads, each a fixed cycle of jobs.

Each workload is built from the workload seed alone: the seed draws the model
parameters within fixed ranges, and the library receives only the generated
inputs.  A job has a ``run`` step (timed) and a ``check`` step (untimed) that
raises :class:`JobFailed` when an output is wrong and, when asked, returns a
fingerprint of the output for comparison with ``reference.json``.

Why these workloads (see README.md for the per-module predictions):

* ``mc_verify`` -- Monte Carlo checks of a model's copula claim.  Sampling,
  the empirical copula and the distribution primitives do the work; CSV, the
  CLI and the reconstruction audits do almost none.
* ``reconstruct_audit`` -- copula + margins -> shock model -> re-induced
  copula, with every audit.  Generators, shock models, checks, copula
  evaluation and the bisection inverse do the work; the empirical copula and
  CSV do almost none.
* ``cli_files`` -- the README commands as child processes.  Process start,
  import, descriptor parsing and CSV I/O dominate, which the library
  workloads bypass.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import shockcop as sc
from shockcop import checks
from shockcop.generators import TabulatedGenerator

DEFAULT_SEED = 1
HERE = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 150.0


class JobFailed(Exception):
    pass


@dataclass
class Job:
    kind: str
    run: Callable[[int], object]
    check: Callable[[object, bool], dict | None]


@dataclass
class Workload:
    name: str
    jobs: list[Job]
    #: fixed tail percentile; the runner keeps going until at least ten jobs
    #: lie beyond it, so the reported percentile never depends on job count
    tail_pct: float
    sizes: dict
    #: cli_files only: launch children through the tracing bootstrap
    traced: bool = False


def job_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise JobFailed(message)


def _sha256(data: bytes) -> dict:
    return {"sha256": hashlib.sha256(data).hexdigest()}


def _values(values, atol: float) -> dict:
    return {"values": [float(v) for v in np.ravel(values)], "atol": atol}


def fingerprint_matches(got: dict, ref: dict) -> bool:
    if "sha256" in ref:
        return got.get("sha256") == ref["sha256"]
    a, b = np.asarray(got["values"]), np.asarray(ref["values"])
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= ref["atol"]))


def _rates(rng, k: int) -> list[float]:
    return [float(r) for r in rng.uniform(0.5, 2.0, k)]


# ---------------------------------------------------------------------------
# mc_verify
# ---------------------------------------------------------------------------

MC_N = 200_000
MC_N_SMALL = 20_000
MC_GRID = 21
MC_GRID_FINE = 101
STEP_KNOTS = 1000
#: values compared within this tolerance where an inverse may legitimately change
INVERSE_ATOL = 1e-9


def _mc_job(kind, model, comparator, n, grid, exact_inverse: bool) -> Job:
    def run(seed):
        pairs = sc.sample_model(model, n, seed)
        return pairs, sc.sup_distance(sc.empirical_copula(pairs), comparator, grid)

    def check(out, fingerprint):
        pairs, dist = out
        bound = 4.4 / math.sqrt(n)
        _require(dist <= bound, f"{kind}: sup distance {dist:.3g} exceeds {bound:.3g}")
        if not fingerprint:
            return None
        if exact_inverse:
            return _sha256(pairs.pairs.tobytes())
        return _values(np.concatenate((pairs.pairs[:8].ravel(), pairs.pairs.mean(axis=0))), INVERSE_ATOL)

    return Job(kind, run, check)


def build_mc_verify(seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng([seed, 1])
    E = sc.Exponential
    models = {}
    for family in ("rmm", "marshall", "smm"):
        l1, l2, m1, m2 = _rates(rng, 4)
        build = {"rmm": sc.rmm_model, "marshall": sc.marshall_model, "smm": sc.smm_model}[family]
        models[family] = build(E(l1), E(l2), E(m1), E(m2))
    l1, l2, m = _rates(rng, 3)
    models["maxmin"] = sc.maxmin_model(E(l1), E(l2), E(m))
    comparators = {k: sc.induced_copula(m) for k, m in models.items()}

    xs = np.unique(rng.uniform(0.0, 3.0, STEP_KNOTS))
    step = sc.TabulatedCdf(xs, np.arange(1, xs.size + 1) / xs.size, "step")
    step_model = sc.rmm_model(step, *(E(r) for r in _rates(rng, 3)))
    step_comparator = sc.induced_copula(step_model)

    a = float(rng.uniform(0.5, 1.0))
    rec_model = sc.reconstruct(sc.efgm(a), sc.Uniform(), sc.Uniform())
    rec_comparator = sc.efgm(a)

    theorem_model = sc.rmm_model(*(E(r) for r in _rates(rng, 4)))

    jobs = [
        _mc_job(f"a_{k}", m, comparators[k], MC_N, MC_GRID, True) for k, m in models.items()
    ]
    jobs.append(_mc_job("b_rmm_grid101", models["rmm"], comparators["rmm"], MC_N_SMALL, MC_GRID_FINE, True))
    jobs.append(_mc_job("c_step_table", step_model, step_comparator, MC_N, MC_GRID, False))
    jobs.append(_mc_job("d_reconstructed", rec_model, rec_comparator, MC_N_SMALL, MC_GRID, False))

    def theorem_run(seed):
        return checks.check_model_theorem(theorem_model, seed=seed)

    def theorem_check(report, fingerprint):
        _require(report.passed, report.render_text())
        if not fingerprint:
            return None
        return _values([r.magnitude for r in report.results if r.check_id.startswith("empirical")], INVERSE_ATOL)

    jobs.append(Job("e_model_theorem", theorem_run, theorem_check))
    sizes = {
        "n": MC_N,
        "n_small": MC_N_SMALL,
        "grid": MC_GRID,
        "grid_fine": MC_GRID_FINE,
        "step_knots": int(xs.size),
        "comparator_resolution": 4096,
        "model_theorem": "check_model_theorem defaults (n=200000, grid=21, resolution=32768)",
    }
    return Workload("mc_verify", jobs, tail_pct=80.0, sizes=sizes)


# ---------------------------------------------------------------------------
# reconstruct_audit
# ---------------------------------------------------------------------------

AUDIT_RESOLUTION = 4096
#: the capped Marshall shock CDFs evaluate pointwise; 256 keeps that job short
MARSHALL_RESOLUTION = 256
#: slopes whose kink 1/slope is a multiple of 1/MARSHALL_RESOLUTION
MARSHALL_SLOPES = (8 / 7, 4 / 3, 1.6, 2.0, 8 / 3)
ROUNDTRIP_EPS = 1e-6
STEP_LEVELS = 20


def _generators(c) -> list:
    for slots in (("f", "g"), ("h", "k"), ("phi", "psi")):
        if all(hasattr(c, s) for s in slots):
            return [getattr(c, s) for s in slots]
    return []


def _audit_job(kind, c, fu, fv, resolution) -> Job:
    def run(seed):
        reports = [checks.check_copula_axioms(c, seed=seed), checks.check_reconstruction(c, fu, fv)]
        model = sc.reconstruct(c, fu, fv)
        again = sc.induced_copula(model, resolution=resolution)
        dist = sc.sup_distance(again, c, 11)
        reports.append(checks.check_copula_axioms(again, seed=seed))
        validations = [sc.validate(g) for g in _generators(again) if isinstance(g, TabulatedGenerator)]
        return reports, validations, dist, again

    def check(out, fingerprint):
        reports, validations, dist, again = out
        for r in reports:
            _require(r.passed, r.render_text())
        _require(len(validations) == 2, f"{kind}: expected two tabulated generators")
        for v in validations:
            _require(v.passed, f"{kind}: {v}")
        _require(dist <= ROUNDTRIP_EPS, f"{kind}: round trip {dist:.3g} exceeds {ROUNDTRIP_EPS}")
        if not fingerprint:
            return None
        us = np.linspace(0.05, 0.95, 7)
        uu, vv = np.meshgrid(us, us, indexing="ij")
        return _values(again.value_array(uu, vv), INVERSE_ATOL)

    return Job(kind, run, check)


def build_reconstruct_audit(seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng([seed, 2])
    U = sc.Uniform()
    a1, a2, a3 = (float(a) for a in rng.uniform(0.3, 1.0, 3))
    al1, be1, al2, be2 = (float(a) for a in rng.uniform(0.2, 0.8, 4))
    r1, r2 = _rates(rng, 2)
    xs = np.sort(rng.choice(np.arange(1, 400), STEP_LEVELS, replace=False)) / 100.0
    # levels at multiples of 1/20 put the 11-point round-trip grid inside the image
    step = sc.TabulatedCdf(xs, np.arange(1, STEP_LEVELS + 1) / STEP_LEVELS, "step")
    # the cap's kink 1/slope must sit on the knot grid of the re-induced
    # generator; off the grid it carries an O(slope/R) interpolation error
    slope = float(rng.choice(MARSHALL_SLOPES))
    cap = sc.closed_form("capped", sc.GeneratorClass.MARSHALL, slope=slope)
    cases = [
        ("efgm_uniform", sc.efgm(a1), U, U, AUDIT_RESOLUTION),
        ("efgm_native", sc.efgm(a2), sc.EfgmMargin(a2), sc.EfgmMargin(a2), AUDIT_RESOLUTION),
        ("exprmm_exponential", sc.exprmm_ab(al1, be1), sc.Exponential(r1), sc.Exponential(r2), AUDIT_RESOLUTION),
        ("survival_efgm_smm", sc.survival(sc.efgm(a3)), U, U, AUDIT_RESOLUTION),
        ("exprmm_step_table", sc.exprmm_ab(al2, be2), step, step, AUDIT_RESOLUTION),
        ("marshall_capped", sc.marshall(cap, cap), U, U, MARSHALL_RESOLUTION),
    ]
    jobs = [_audit_job(*case) for case in cases]
    sizes = {
        "resolution": AUDIT_RESOLUTION,
        "marshall_resolution": MARSHALL_RESOLUTION,
        "reconstruction_grid": 1001,
        "roundtrip_grid": 11,
        "axiom_grid": 101,
        "axiom_rectangles": 10_000,
        "step_levels": STEP_LEVELS,
    }
    return Workload("reconstruct_audit", jobs, tail_pct=90.0, sizes=sizes)


# ---------------------------------------------------------------------------
# cli_files
# ---------------------------------------------------------------------------

CLI_N = 200_000
CLI_GRID_N = 300
CLI_POINTS = 2001


@dataclass
class ChildResult:
    code: int
    stdout: str
    stderr: str
    rss_kb: int
    files: dict
    process_start_s: float = 0.0
    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)


def run_child(argv: list[str], workdir: Path, traced: bool, outputs=(), inputs=()) -> ChildResult:
    """Run one CLI command to completion and collect its exit code, output and peak RSS."""
    src = HERE.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    spans_path = workdir / "child-spans.json"
    if traced:
        cmd = [sys.executable, str(HERE / "cli_child.py"), str(spans_path), *argv]
        env["PERFBENCH_LAUNCH"] = repr(time.time())
    else:
        cmd = [sys.executable, "-m", "shockcop.cli", *argv]
    with open(workdir / "child.out", "w+b") as out, open(workdir / "child.err", "w+b") as err:
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=workdir)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        result = ChildResult(
            proc.returncode,
            out.read().decode(),
            err.read().decode(),
            usage.ru_maxrss,
            {"written": sum(os.path.getsize(p) for p in outputs if os.path.exists(p)),
             "read": sum(os.path.getsize(p) for p in inputs)},
        )
    if traced:
        with open(spans_path) as fh:
            dumped = json.load(fh)
        os.remove(spans_path)
        result.spans, result.counts = dumped["spans"], dumped["counts"]
        result.process_start_s = dumped["process_start_s"]
    return result


def build_cli_files(seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng([seed, 3])
    l1, l2, m1, m2 = _rates(rng, 4)
    model = f"rmm-max:fx=neg-exp:rate={l1!r},fy=neg-exp:rate={l2!r},g1=neg-exp:rate={m1!r},g2=neg-exp:rate={m2!r}"
    against = f"exprmm:l1={l1!r},l2={l2!r},m1={m1!r},m2={m2!r}"
    alpha, beta = (float(x) for x in rng.uniform(0.1, 0.9, 2))
    a_rec, a_check, a_eval, a_round = (float(x) for x in rng.uniform(0.3, 1.0, 4))
    u, v = (float(x) for x in rng.uniform(0.05, 0.95, 2))
    power = float(rng.uniform(0.1, 1.0))
    tp_alpha = float(rng.uniform(0.2, 0.8))
    tp_beta = float(rng.uniform(0.05, 0.95)) * (1.0 - tp_alpha)  # beta < 1 - alpha: invalid
    expected_eval = u * v - a_eval**2 * u * v * (1.0 - u) * (1.0 - v)

    pairs, ranks = workdir / "pairs.csv", workdir / "ranks.csv"
    surface, shocks = workdir / "surface.csv", workdir / "shocks.csv"
    wl = Workload("cli_files", [], tail_pct=77.0, sizes={})

    def command(kind, argv, code, outputs=(), inputs=(), check=None, fingerprint=None):
        def run(seed):
            for path in outputs:  # a stale file from the last cycle must not pass the checks
                path.unlink(missing_ok=True)
            args = [a.replace("{seed}", str(seed)) for a in argv]
            return run_child(args, workdir, wl.traced, outputs, inputs)

        def check_fn(res, want):
            _require(
                res.code == code,
                f"{kind}: exit {res.code}, expected {code}; stderr {res.stderr[-300:]!r}",
            )
            if check is not None:
                check(res)
            return fingerprint() if want and fingerprint is not None else None

        wl.jobs.append(Job(kind, run, check_fn))

    def file_digest(path):
        return lambda: _sha256(path.read_bytes())

    def passed(res):
        _require("[pass]" in res.stdout and "FAIL" not in res.stdout, res.stdout[-300:])

    def rows(path, expected):
        count = path.read_bytes().count(b"\n") - 2  # comment line and header
        _require(count == expected, f"{path.name}: {count} data rows, expected {expected}")

    def eval_check(res):
        got = float(res.stdout)
        _require(abs(got - expected_eval) <= 1e-12, f"eval {got!r} != {expected_eval!r}")

    def shocks_fingerprint():
        table = np.loadtxt(shocks, delimiter=",", comments="#", skiprows=2)
        return _values(table[::100], INVERSE_ATOL)

    command("sample_raw", ["sample", model, "-n", str(CLI_N), "--seed", "{seed}", "--out", str(pairs)],
            0, [pairs], check=lambda r: rows(pairs, CLI_N), fingerprint=file_digest(pairs))
    command("sample_ranks", ["sample", model, "-n", str(CLI_N), "--seed", "{seed}", "--out", str(ranks), "--ranks"],
            0, [ranks], check=lambda r: rows(ranks, CLI_N), fingerprint=file_digest(ranks))
    command("check_empirical", ["check-empirical", "--against", against, "--in", str(pairs)],
            0, inputs=[pairs], check=passed)
    command("grid", ["grid", f"exprmm-ab:alpha={alpha!r},beta={beta!r}", "--n", str(CLI_GRID_N), "--out", str(surface)],
            0, [surface], check=lambda r: rows(surface, (CLI_GRID_N + 1) ** 2), fingerprint=file_digest(surface))
    command("reconstruct", ["reconstruct", f"efgm:a={a_rec!r}", "--fu", "uniform", "--fv", "uniform",
                            "--out", str(shocks), "--points", str(CLI_POINTS)],
            0, [shocks], check=lambda r: (passed(r), rows(shocks, CLI_POINTS)),
            fingerprint=shocks_fingerprint)
    command("check", ["check", f"efgm:a={a_check!r}"], 0, check=passed)
    command("eval", ["eval", f"efgm:a={a_eval!r}", repr(u), repr(v)], 0, check=eval_check)
    command("roundtrip", ["roundtrip", f"efgm:a={a_round!r}", "--fu", "uniform", "--fv", "uniform"],
            0, check=passed)
    command("validate_pass", ["validate-gen", f"power:alpha={power!r}", "--class", "rmm"], 0,
            check=lambda r: _require("passed" in r.stdout, r.stdout))
    command("validate_fail", ["validate-gen", f"twoparam:alpha={tp_alpha!r},beta={tp_beta!r}", "--class", "rmm"], 1,
            check=lambda r: _require("failed" in r.stdout, r.stdout))
    command("illegal_combiner", ["sample", model + ",combiner=max-min", "-n", "10", "--seed", "{seed}"], 2)

    wl.sizes = {"n": CLI_N, "grid_n": CLI_GRID_N, "grid_rows": (CLI_GRID_N + 1) ** 2,
                "reconstruct_points": CLI_POINTS, "roundtrip_resolution": 1 << 16}
    return wl


SETUPS = {
    "mc_verify": build_mc_verify,
    "reconstruct_audit": build_reconstruct_audit,
    "cli_files": build_cli_files,
}
