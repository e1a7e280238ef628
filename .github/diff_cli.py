"""Run the same CLI commands on two source trees and print, as Markdown, each command
whose exit code, stdout, stderr or written files differ.

Usage: python .github/diff_cli.py BASE_TREE HEAD_TREE

The commands are every ``shockcop`` line of the README's Command line block, as
``tests/test_readme.py``'s ``readme_commands()`` reads it from HEAD_TREE, then
``EXTRA_COMMANDS``, runs that no README line reaches: twelve file-writing runs (one
writes a Marshall shock read through chi on a negated margin, so both kinds of mapped
law are pinned byte for byte, two sample one exponential RMM model, spelled with
``neg-exp`` and with ``negated(exp:...)``, into files that hold the same bytes, and
three sample a Marshall, an SMM and a maxmin model, so every family's ``describe()``
header and sampling path is pinned) and two
``roundtrip`` runs on composite margins (the survival-product one prints a six-digit
sup distance that moves with its margin's support hint).  Each tree runs them in order
with its own ``src`` on PYTHONPATH, in its own scratch directory, so a file one line
writes is read by the next as in the README.
The script exits 0 whatever differs: the list is information, not a gate.
"""

import difflib
import importlib.util
import os
import pathlib
import shlex
import subprocess
import sys
import tempfile

UNIFORM_MARGINS = ["--fu", "uniform", "--fv", "uniform"]
EXTRA_COMMANDS = [
    ["reconstruct", "efgm:a=0.7", *UNIFORM_MARGINS, "--out", "efgm.csv"],
    ["reconstruct", "survival(efgm:a=0.7)", *UNIFORM_MARGINS, "--out", "survival.csv"],
    ["sample", "rmm-max:fx=neg-exp:rate=0.7,fy=neg-exp:rate=1.3,g1=neg-exp:rate=1.1,"
     "g2=neg-exp:rate=0.9", "-n", "2000", "--seed", "1", "--out", "negexp.csv"],
    ["sample", "rmm-max:fx=negated(exp:rate=0.7),fy=negated(exp:rate=1.3),g1=negated(exp:rate=1.1),"
     "g2=negated(exp:rate=0.9)", "-n", "2000", "--seed", "1", "--out", "negexp_spelled.csv"],
    ["sample", "marshall-max:fx=exp:rate=1.0,fy=exp:rate=2.0,g1=exp:rate=1.5,g2=exp:rate=0.5",
     "-n", "2000", "--seed", "1", "--out", "marshall_sample.csv"],
    ["sample", "smm-min:fx=exp:rate=1.0,fy=exp:rate=2.0,g1=exp:rate=3.0,g2=exp:rate=0.5",
     "-n", "2000", "--seed", "1", "--out", "smm_sample.csv"],
    ["sample", "maxmin-shared:fx=exp:rate=1.0,fy=exp:rate=2.0,g=exp:rate=1.5",
     "-n", "2000", "--seed", "1", "--out", "maxmin_sample.csv"],
    ["reconstruct", "survival(exprmm-ab:alpha=0.5,beta=0.5)", "--fu", "exp:rate=1.0",
     "--fv", "exp:rate=2.0", "--out", "smm_exp.csv"],
    ["reconstruct", "marshall:phi=capped:slope=2.0,psi=capped:slope=2.0", *UNIFORM_MARGINS,
     "--out", "marshall.csv"],
    # g1 is the Marshall shock read through chi, on a negated margin: both kinds of mapped law
    ["reconstruct", "marshall:phi=capped:slope=2.0,psi=capped:slope=2.0",
     "--fu", "negated(uniform:a=-1.0,b=0.0)", "--fv", "uniform", "--out", "marshall_negated.csv"],
    ["reconstruct", "efgm:a=0.7", "--fu", "product(uniform;uniform)",
     "--fv", "negated(uniform:a=-1.0,b=0.0)", "--out", "composite.csv"],
    ["reconstruct", "survival(efgm:a=0.6)", "--fu", "survival-product(uniform;uniform:a=0.2,b=1.2)",
     "--fv", "uniform", "--out", "survival_product.csv"],
    ["roundtrip", "survival(efgm:a=0.6)", "--fu", "survival-product(exp:rate=1.0;exp:rate=2.0)",
     "--fv", "exp:rate=1.5"],
    ["roundtrip", "efgm:a=0.7", "--fu", "product(exp:rate=1.0;exp:rate=2.0)", "--fv", "exp:rate=1.5"],
]


def readme_argvs(tree: pathlib.Path) -> list[list[str]]:
    sys.path.insert(0, str(tree / "src"))
    spec = importlib.util.spec_from_file_location("test_readme", tree / "tests" / "test_readme.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [argv for argv, _ in module.readme_commands()]


def snapshot(workdir: pathlib.Path) -> dict[str, bytes]:
    files = sorted(p for p in workdir.rglob("*") if p.is_file())
    return {str(p.relative_to(workdir)): p.read_bytes() for p in files}


def run_all(tree: pathlib.Path, argvs, workdir: pathlib.Path):
    """Per command: (exit code, stdout, stderr, {file: bytes} it wrote or changed)."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    out = []
    for argv in argvs:
        before = snapshot(workdir)
        done = subprocess.run(
            [sys.executable, "-m", "shockcop.cli", *argv], cwd=workdir, env=env, capture_output=True
        )
        written = {k: v for k, v in snapshot(workdir).items() if before.get(k) != v}
        out.append((done.returncode, done.stdout, done.stderr, written))
    return out


def text_diff(a: bytes, b: bytes, label: str) -> list[str]:
    lines = difflib.unified_diff(
        a.decode(errors="replace").splitlines(), b.decode(errors="replace").splitlines(),
        f"base {label}", f"head {label}", lineterm="", n=1,
    )
    return list(lines)[:20]


def main(base: str, head: str) -> int:
    base_tree, head_tree = pathlib.Path(base).resolve(), pathlib.Path(head).resolve()
    argvs = readme_argvs(head_tree) + EXTRA_COMMANDS
    with tempfile.TemporaryDirectory() as scratch:
        runs = []
        for name, tree in (("base", base_tree), ("head", head_tree)):
            workdir = pathlib.Path(scratch, name)
            workdir.mkdir()
            runs.append(run_all(tree, argvs, workdir))
    print("### CLI bytes: merge base against HEAD")
    differing = 0
    for argv, old, new in zip(argvs, *runs):
        if old == new:
            continue
        differing += 1
        parts = [part for part, a, b in zip(("exit code", "stdout", "stderr"), old, new) if a != b]
        files = sorted(f for f in old[3].keys() | new[3].keys() if old[3].get(f) != new[3].get(f))
        parts += [f"file {f}" for f in files]
        print(f"- `shockcop {shlex.join(argv)}`: {', '.join(parts)} differ")
        if old[0] != new[0]:
            print(f"  exit code {old[0]} at the base, {new[0]} at HEAD")
        diffs = text_diff(old[1], new[1], "stdout") + text_diff(old[2], new[2], "stderr")
        for f in files:
            diffs += text_diff(old[3].get(f, b""), new[3].get(f, b""), f)
        if diffs:
            print("  ```diff")
            print("\n".join(f"  {line}" for line in diffs))
            print("  ```")
    print(f"{differing} of {len(argvs)} commands differ.")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
