"""Run one shockcop benchmark workload and print its metrics.

    python3 perfbench/run.py --workload mc_verify --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` and CLI children start as ``python -m shockcop.cli``.  Each run is a
closed loop with one client: jobs run one at a time in a fixed cycle.

``--trace 0`` reports the end-to-end metrics.  The run is split into
``SEGMENTS`` fresh processes, one after another; each sets up anew, then
repeats whole cycles until it has used its share of ``--seconds`` and run its
share of the jobs needed to put ten beyond the workload's tail percentile.
``--trace 1`` runs in one process, half the time untraced and half with the
span tracer installed (see tracing.py), and reports per-module metrics plus
the tracing overhead; its spans and a per-job-type summary go to
``perfbench/_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"
WORK = HERE / "_work"
SEGMENTS = 4
SEGMENT_STRIDE = 1_000_000  # job-index offset per segment, so job seeds never repeat
WORKLOADS = ("mc_verify", "reconstruct_audit", "cli_files")

#: per-module metrics of the traced run: (name, unit); self times and counts are per job
PER_LAYER = [
    ("distributions.quantile_array.self_s", "s/job"),
    ("distributions.quantile_array.points", "count/job"),
    ("distributions.cdf_array.self_s", "s/job"),
    ("distributions.cdf_array.points", "count/job"),
    ("distributions.cdf_points_per_quantile_point", "ratio"),
    ("distributions.scalar_calls", "count/job"),
    ("generators.generator_from_shocks.self_s", "s/job"),
    ("generators.generator_from_shocks.calls", "count/job"),
    ("generators.knots", "count/job"),
    ("generators.validate.self_s", "s/job"),
    ("generators.validate.points", "count/job"),
    ("generators.value.calls", "count/job"),
    ("generators.derived_value.calls", "count/job"),
    ("copulas.value_array.self_s", "s/job"),
    ("copulas.value_array.points", "count/job"),
    ("copulas.normalize.self_s", "s/job"),
    ("shock_models.induced_copula.self_s", "s/job"),
    ("shock_models.reconstruct.self_s", "s/job"),
    ("shock_models.joint_cdf.self_s", "s/job"),
    ("shock_models.joint_cdf.calls", "count/job"),
    ("sampling.sample_model.self_s", "s/job"),
    ("sampling.pairs", "count/job"),
    ("sampling.empirical_copula.self_s", "s/job"),
    ("sampling.empirical_eval.self_s", "s/job"),
    ("sampling.empirical_eval.points", "count/job"),
    ("sampling.empirical_eval.comparisons", "count/job"),
    ("sampling.write_pairs_csv.self_s", "s/job"),
    ("sampling.write_pairs_csv.bytes", "bytes/job"),
    ("sampling.read_pairs_csv.self_s", "s/job"),
    ("sampling.read_pairs_csv.bytes", "bytes/job"),
    ("checks.check_copula_axioms.self_s", "s/job"),
    ("checks.check_reconstruction.self_s", "s/job"),
    ("checks.check_model_theorem.self_s", "s/job"),
    ("checks.results", "count/job"),
    ("checks.results_failed", "count/job"),
    ("descriptors.parse.self_s", "s/job"),
    ("descriptors.parse.calls", "count/job"),
    ("cli.process_start_s", "s"),
    ("cli.command.self_s", "s/job"),
    ("cli.bytes_written", "bytes/job"),
    ("cli.bytes_read", "bytes/job"),
    ("trace.untraced_jobs_per_s", "1/s"),
    ("trace.traced_jobs_per_s", "1/s"),
    ("trace.jobs_per_s_ratio", "ratio"),
]


def percentile(values, pct: float) -> float:
    """Linear-interpolation percentile of a nonempty sample."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class Phase:
    """Whole cycles of a workload's jobs, timed one by one."""

    def __init__(self, wl, seed: int, tracer=None, first_index: int = 0):
        self.wl = wl
        self.seed = seed
        self.tracer = tracer
        self.first_index = first_index
        self.walls: list[float] = []
        self.kinds: list[str] = []
        self.failures: list[str] = []
        self.child_rss_kb = 0
        self.process_starts: list[float] = []
        self.bytes = defaultdict(float)
        self.cycle_rates: list[float] = []

    def run(self, seconds: float, min_jobs: int, reference: dict | None) -> None:
        from workloads import fingerprint_matches, job_seed

        tr = self.tracer
        start = time.perf_counter()
        while True:
            cycle_start, cycle_failures = time.perf_counter(), len(self.failures)
            for job in self.wl.jobs:
                index = self.first_index + len(self.walls)
                seed = job_seed(self.seed, index)
                span = -1
                if tr is not None:
                    tr.job, span = index, len(tr.spans)
                t0 = time.perf_counter()
                try:
                    out = job.run(seed) if tr is None else tr.call("job." + job.kind, job.run, seed)
                except Exception as exc:  # a failing job is counted, never fatal
                    out, error = None, f"{job.kind}: {type(exc).__name__}: {exc}"
                else:
                    error = None
                self.walls.append(time.perf_counter() - t0)
                self.kinds.append(job.kind)
                if tr is not None:
                    tr.job = -1  # checks below are not the job's work
                if error is None:
                    error = self._check(job, out, index, span, reference, fingerprint_matches)
                if error is not None:
                    self.failures.append(error)
                    print(f"FAILED job {index}: {error}", file=sys.stderr)
            now = time.perf_counter()
            passed = len(self.wl.jobs) - (len(self.failures) - cycle_failures)
            self.cycle_rates.append(passed / (now - cycle_start))
            if now - start >= seconds and len(self.walls) >= min_jobs:
                return

    def _check(self, job, out, index, span, reference, matches) -> str | None:
        first_cycle = index - self.first_index < len(self.wl.jobs)
        want = reference is not None and first_cycle
        try:
            fingerprint = job.check(out, want)
        except Exception as exc:
            return f"{job.kind}: {type(exc).__name__}: {exc}"
        if hasattr(out, "rss_kb"):
            self.child_rss_kb = max(self.child_rss_kb, out.rss_kb)
            self.bytes["cli.bytes_written"] += out.files["written"]
            self.bytes["cli.bytes_read"] += out.files["read"]
            if self.tracer is not None:
                self.process_starts.append(out.process_start_s)
                self.tracer.merge(out.spans, out.counts, index, span)
        if want and job.kind in reference:
            if fingerprint is None or not matches(fingerprint, reference[job.kind]):
                return f"{job.kind}: output differs from reference.json at the default seed"
        return None

    @property
    def jobs_per_s(self) -> float:
        """Passed jobs per second over a median cycle; robust to a slow stretch of the run."""
        return statistics.median(self.cycle_rates)


def min_jobs_for(tail_pct: float) -> int:
    return math.ceil(10.0 / (1.0 - tail_pct / 100.0) - 1e-9)


def make_workdir(workload: str) -> Path:
    path = WORK / f"{workload}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def load_workload(args, workdir: Path):
    """Build the workload and, at the default seed, load its reference fingerprints."""
    sys.path.insert(0, str(SRC))
    import workloads

    wl = workloads.SETUPS[args.workload](args.seed, workdir)
    reference = None
    if args.seed == workloads.DEFAULT_SEED:
        with open(HERE / "reference.json") as fh:
            reference = json.load(fh)[args.workload]
    return wl, reference


def run_segment(args) -> dict:
    """One fresh process's share of an untraced run: set up, then run whole cycles."""
    workdir = make_workdir(args.workload)
    try:
        wl, reference = load_workload(args, workdir)
        ready = time.time()
        min_jobs = args.min_jobs
        if min_jobs is None:
            min_jobs = math.ceil(min_jobs_for(wl.tail_pct) / SEGMENTS)
        phase = Phase(wl, args.seed, first_index=args.segment * SEGMENT_STRIDE)
        phase.run(args.seconds, min_jobs, reference if args.segment == 0 else None)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "ready": ready,
        "walls": phase.walls,
        "kinds": phase.kinds,
        "failures": phase.failures,
        "cycle_rates": phase.cycle_rates,
        "rss_kb": phase.child_rss_kb or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "sizes": wl.sizes,
        "tail_pct": wl.tail_pct,
    }


def run_segments(args):
    """Split an untraced run over fresh processes, one after another.

    Each segment sets up anew, so ``setup_s`` is sampled once per segment
    (launch to first timed job), and the speed of any one process's memory
    layout averages out across segments.
    """
    segments = []
    for k in range(SEGMENTS):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds / SEGMENTS),
               "--segment", str(k)]
        if args.min_jobs is not None:
            cmd += ["--min-jobs", str(args.min_jobs)]
        launched = time.time()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise RuntimeError(f"segment {k} exited {proc.returncode}")
        seg = json.loads(proc.stdout.strip().splitlines()[-1])
        seg["setup_s"] = seg["ready"] - launched
        segments.append(seg)
    phase = Phase(None, args.seed)
    for seg in segments:
        phase.walls += seg["walls"]
        phase.kinds += seg["kinds"]
        phase.failures += seg["failures"]
        phase.cycle_rates += seg["cycle_rates"]
        phase.child_rss_kb = max(phase.child_rss_kb, seg["rss_kb"])
    return phase, [seg["setup_s"] for seg in segments], segments[0]


def provenance(args, sizes: dict, tail_pct: float, phases) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "shockcop").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    jobs = defaultdict(int)
    for phase in phases:
        for kind in phase.kinds:
            jobs[kind] += 1
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "sizes": sizes,
        "jobs_per_kind": dict(jobs),
        "job_count": sum(jobs.values()),
        "tail_percentile": tail_pct,
        "loop": "closed, one client, fixed job cycle, whole cycles",
    }


def end_to_end(tail_pct: float, phase: Phase, setup_walls: list[float]) -> dict:
    beyond = sum(1 for w in phase.walls if w > percentile(phase.walls, tail_pct))
    print(f"job_tail_s is p{tail_pct:g} of {len(phase.walls)} jobs ({beyond} beyond it)")
    print(f"failed_frac {len(phase.failures) / len(phase.walls):.6g} "
          f"({len(phase.failures)} of {len(phase.walls)} jobs)")
    return {
        "setup_s": (statistics.median(setup_walls), "s"),
        "job_p50_s": (statistics.median(phase.walls), "s"),
        "job_tail_s": (percentile(phase.walls, tail_pct), "s"),
        "jobs_per_s": (phase.jobs_per_s, "1/s"),
        "ok_frac": (1.0 - len(phase.failures) / len(phase.walls), "ratio"),
        "peak_rss_mb": (phase.child_rss_kb / 1024.0, "MB"),
    }


def per_layer(tracer, traced: Phase, untraced: Phase) -> tuple[dict, dict]:
    from tracing import self_times

    jobs = len(traced.walls)
    kind_of = dict(enumerate(traced.kinds))
    own = self_times(tracer.spans)
    self_s = defaultdict(float)
    by_kind = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0.0]))  # calls, incl, self
    for (name, t0, t1, _, job), s in zip(tracer.spans, own):
        if job < 0:
            continue
        self_s[name] += s
        entry = by_kind[kind_of[job]][name]
        entry[0] += 1
        entry[1] += t1 - t0
        entry[2] += s
    counts = defaultdict(float)
    count_by_kind = defaultdict(lambda: defaultdict(float))
    for (job, name), value in tracer.counts.items():
        if job >= 0:
            counts[name] += value
            count_by_kind[kind_of[job]][name] += value
    counts.update(traced.bytes)

    quantile_points = counts["distributions.quantile_array.points"]
    untraced_rate = untraced.jobs_per_s
    traced_rate = traced.jobs_per_s
    special = {
        "distributions.cdf_points_per_quantile_point":
            counts["distributions.cdf_array.points_in_quantile"] / quantile_points
            if quantile_points else 0.0,
        "cli.process_start_s":
            statistics.mean(traced.process_starts) if traced.process_starts else 0.0,
        "trace.untraced_jobs_per_s": untraced_rate,
        "trace.traced_jobs_per_s": traced_rate,
        "trace.jobs_per_s_ratio": traced_rate / untraced_rate,
    }
    metrics = {}
    for name, unit in PER_LAYER:
        if name in special:
            value = special[name]
        elif name.endswith(".self_s"):
            value = self_s[name[: -len(".self_s")]] / jobs
        else:
            value = counts[name] / jobs
        metrics[name] = (value, unit)

    per_kind = {}
    for kind in sorted(set(traced.kinds)):
        n = traced.kinds.count(kind)
        walls = [w for w, k in zip(traced.walls, traced.kinds) if k == kind]
        per_kind[kind] = {
            "jobs": n,
            "median_wall_s": statistics.median(walls),
            "spans": {name: {"calls_per_job": c / n, "inclusive_s_per_job": i / n,
                             "self_s_per_job": s / n}
                      for name, (c, i, s) in sorted(by_kind[kind].items())},
            "counts_per_job": {name: v / n for name, v in sorted(count_by_kind[kind].items())},
        }
    return metrics, per_kind


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: one segment of an untraced run, and the job floor the smoke test lowers
    parser.add_argument("--segment", type=int, default=None, help=argparse.SUPPRESS)
    parser.add_argument("--min-jobs", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "shockcop" / "__init__.py").is_file():
        print(f"error: no shockcop sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.segment is not None:
        print(json.dumps(run_segment(args)))
        return 0

    if args.trace:
        import tracing

        workdir = make_workdir(args.workload)
        try:
            wl, reference = load_workload(args, workdir)
            untraced = Phase(wl, args.seed)
            untraced.run(args.seconds / 2, 0, reference)
            tracer = tracing.Tracer()
            tracing.install(tracer)
            wl.traced = True
            traced = Phase(wl, args.seed, tracer)
            traced.run(args.seconds / 2, 0, reference)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        phases = [untraced, traced]
        metrics, per_kind = per_layer(tracer, traced, untraced)
        prov = provenance(args, wl.sizes, wl.tail_pct, phases)
    else:
        phase, setup_walls, first = run_segments(args)
        phases = [phase]
        metrics = end_to_end(first["tail_pct"], phase, setup_walls)
        prov = provenance(args, first["sizes"], first["tail_pct"], phases)
        prov["segments"] = SEGMENTS
        prov["setup_walls_s"] = setup_walls
        prov["job_walls_s"] = phase.walls
        prov["job_kinds"] = phase.kinds

    attempted = sum(len(p.walls) for p in phases)
    failed = sum(len(p.failures) for p in phases)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        with open(OUT / f"trace-{stem}.json", "w") as fh:
            json.dump({"provenance": prov, "per_kind": per_kind, "spans": tracer.spans}, fh)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    with open(OUT / f"result-{stem}.json", "w") as fh:
        json.dump({"provenance": prov, "result": result}, fh, indent=1)
    print("provenance " + json.dumps({k: v for k, v in prov.items() if k not in ("job_walls_s", "job_kinds")}))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
