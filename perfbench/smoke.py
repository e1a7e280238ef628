"""Smoke test of the benchmark: a tiny run of every workload, untraced and traced.

    python3 perfbench/smoke.py

Each run must print a result whose metrics are exactly the ones BENCHMARK.json
names (end-to-end untraced, per-module traced), with the declared units, and
no job may fail.  It also checks that the benchmark refuses to run, without
printing a result, where the shockcop sources are missing.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "0", "--trace", str(trace), "--min-jobs", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_refuses_without_sources() -> None:
    (HERE / "_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "_work") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / HERE.name,
                        ignore=shutil.ignore_patterns("_out", "_work", "__pycache__"))
        cmd = [sys.executable, "perfbench/run.py", "--workload", "mc_verify", "--seed", "1",
               "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(cmd, cwd=tmp, capture_output=True, text=True, timeout=170)
    if proc.returncode == 0 or proc.stdout.strip():
        raise SystemExit(f"expected a refusal without sources, got exit {proc.returncode}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_refuses_without_sources()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run_once(workload, trace)
            expected = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected:
                raise SystemExit(f"{workload} trace={trace}: metrics {got} != {expected}")
            if result["failed"] or not result["correct"] or result["attempted"] < 1:
                raise SystemExit(f"{workload} trace={trace}: {result['failed']} jobs failed")
            if trace == 0 and result["metrics"]["ok_frac"]["value"] != 1.0:
                raise SystemExit(f"{workload}: failed_frac is not 0")
            print(f"ok {workload} trace={trace}: {result['attempted']} jobs")
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
