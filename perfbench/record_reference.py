"""Record the default-seed output fingerprints that run.py compares against.

    python3 perfbench/record_reference.py

Runs the first cycle of every workload at the default seed and writes
``reference.json``: SHA-256 digests where output must stay bit-identical
(seeded samples and CSV bytes of closed-form-inverse models, grid export) and
values with a tolerance where an inverse may legitimately change (step-table
and reconstructed models, re-induced copulas).  Re-record only when the
benchmark's own inputs change, never to absorb a change in library output.
"""

import json
import shutil
import sys

from run import HERE, SRC, WORKLOADS, make_workdir

if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    from workloads import SETUPS, DEFAULT_SEED, job_seed

    reference = {}
    for name in WORKLOADS:
        workdir = make_workdir(name)
        try:
            wl = SETUPS[name](DEFAULT_SEED, workdir)
            prints = {}
            for index, job in enumerate(wl.jobs):
                fingerprint = job.check(job.run(job_seed(DEFAULT_SEED, index)), True)
                if fingerprint is not None:
                    prints[job.kind] = fingerprint
            reference[name] = prints
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    with open(HERE / "reference.json", "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
