import os
import re
import subprocess
import sys

import numpy as np
import pytest

from shockcop.cli import main

MODEL = "rmm-max:fx=exp:rate=1.0,fy=exp:rate=1.0,g1=exp:rate=1.0,g2=exp:rate=1.0"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_efgm(capsys):
    code, out, _ = run(capsys, "eval", "efgm:a=1.0", "0.5", "0.5")
    assert code == 0
    assert out.strip() == "0.1875"


def test_eval_frechet_upper_bound(capsys):
    code, out, _ = run(capsys, "eval", "frechet-m", "0.3", "0.4")
    assert code == 0
    assert float(out) == 0.3


def test_eval_survival_of_symmetric_efgm(capsys):
    # the EFGM generator a*t*(1-t) is reflection-symmetric, so the survival
    # copula evaluates identically at the center point
    code, out, _ = run(capsys, "eval", "survival(efgm:a=1.0)", "0.5", "0.5")
    assert code == 0
    assert float(out) == pytest.approx(0.1875, abs=1e-15)


def test_eval_fifteen_significant_digits(capsys):
    code, out, _ = run(capsys, "eval", "efgm:a=0.95", "0.5", "0.5")
    assert code == 0
    assert out.strip() == f"{0.25 - 0.9025 * 0.0625:.15g}"


def test_eval_parse_error_exits_2(capsys):
    code, _, err = run(capsys, "eval", "nonsense:x=1", "0.5", "0.5")
    assert code == 2
    assert "nonsense" in err


def test_grid_writes_lattice(tmp_path, capsys):
    out_path = tmp_path / "g.csv"
    code, _, _ = run(capsys, "grid", "exprmm-ab:alpha=0.1,beta=0.1", "--n", "10", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0].startswith("# shockcop=")
    assert lines[1] == "u,v,C"
    assert len(lines) == 2 + 11 * 11
    # spot-check a row against eval (printed at 15 significant digits)
    u, v, val = (float(t) for t in lines[2 + 5 * 11 + 5].split(","))
    code, out, _ = run(capsys, "eval", "exprmm-ab:alpha=0.1,beta=0.1", str(u), str(v))
    assert float(out) == pytest.approx(val, rel=1e-14)


@pytest.mark.parametrize(
    "copula",
    ["exprmm-ab:alpha=0.3,beta=0.6", "efgm:a=0.7", "frechet-w", "sigma1(survival(efgm:a=0.4))",
     "rmm:f=twoparam:alpha=0.5,beta=0.5,g=power:alpha=0.9",
     "smm:h=reflect(power:alpha=0.5),k=reflect(power:alpha=0.5)",
     "maxmin:phi=capped:slope=2.0,psi=poly:c0=0.0,c1=0.0,c2=1.0"],
)
def test_grid_bytes_match_row_by_row_evaluation(tmp_path, capsys, copula):
    from shockcop import __version__
    from shockcop.descriptors import parse_copula

    out_path = tmp_path / "g.csv"
    assert run(capsys, "grid", copula, "--n", "20", "--out", str(out_path))[0] == 0
    c = parse_copula(copula)
    us = np.linspace(0.0, 1.0, 21)
    want = [f"# shockcop={__version__} descriptor={c.describe()} n=20\n", "u,v,C\n"]
    for u in us:
        row = c.value_array(np.full(us.shape, u), us)
        want += [f"{float(u)!r},{float(v)!r},{float(val)!r}\n" for v, val in zip(us, row)]
    assert out_path.read_text() == "".join(want)


def test_grid_memory_grows_with_n_not_n_squared(tmp_path, capsys):
    import tracemalloc

    tracemalloc.start()
    try:
        code, _, _ = run(capsys, "grid", "exprmm-ab:alpha=0.3,beta=0.6", "--n", "300",
                         "--out", str(tmp_path / "g.csv"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    # row blocks peak near 1.4 MiB; the whole 301 x 301 lattice at once peaked near 3.5 MiB
    assert peak < 2.5 * 2**20


def test_grid_unwritable_path_exits_1(capsys):
    code, _, err = run(capsys, "grid", "indep", "--n", "2", "--out", "/nonexistent/dir/out.csv")
    assert code == 1
    assert "cannot write" in err


def test_validate_gen_pass(capsys):
    code, out, _ = run(capsys, "validate-gen", "power:alpha=0.5", "--class", "rmm")
    assert code == 0
    assert "passed" in out


def test_validate_gen_fail(capsys):
    code, out, _ = run(capsys, "validate-gen", "twoparam:alpha=0.5,beta=0.3", "--class", "rmm")
    assert code == 1
    assert "failed" in out


def test_check_copula_axioms(capsys):
    code, out, _ = run(capsys, "check", "efgm:a=0.95", "--rectangles", "2000")
    assert code == 0
    assert "pass" in out


def test_check_reports_csv_format(capsys):
    code, out, _ = run(capsys, "check", "indep", "--rectangles", "500", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "check_id,status,magnitude,u,v"


def test_sample_deterministic(tmp_path, capsys):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for p in (p1, p2):
        code, _, _ = run(capsys, "sample", MODEL, "-n", "200", "--seed", "7", "--out", str(p))
        assert code == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_sample_illegal_configuration_exits_2(capsys):
    bad = "marshall-max:fx=uniform,fy=uniform,g1=uniform,g2=uniform,combiner=min-min"
    code, _, err = run(capsys, "sample", bad, "-n", "10", "--seed", "1")
    assert code == 2
    assert "no supported family" in err


def test_check_empirical_against_analytic(tmp_path, capsys):
    path = tmp_path / "s.csv"
    code, _, _ = run(capsys, "sample", MODEL, "-n", "20000", "--seed", "3", "--out", str(path))
    assert code == 0
    code, out, _ = run(
        capsys,
        "check-empirical",
        "--against", "exprmm-ab:alpha=0.5,beta=0.5",
        "--in", str(path),
        "--eps", "0.02",
    )
    assert code == 0
    assert "pass" in out


def test_check_empirical_detects_wrong_family(tmp_path, capsys):
    path = tmp_path / "s.csv"
    run(capsys, "sample", MODEL, "-n", "20000", "--seed", "3", "--out", str(path))
    code, out, _ = run(
        capsys, "check-empirical", "--against", "frechet-m", "--in", str(path), "--eps", "0.02"
    )
    assert code == 1
    assert "FAIL" in out
    # the worst point of the default 21-grid is printed
    u, v = (float(t) for t in re.search(r" at \(([^,]+), ([^)]+)\)", out).groups())
    assert 20 * u == pytest.approx(round(20 * u)) and 20 * v == pytest.approx(round(20 * v))


def test_reconstruct_efgm_uniform_margins(tmp_path, capsys):
    out_path = tmp_path / "recon.csv"
    code, out, _ = run(
        capsys,
        "reconstruct", "efgm:a=1.0",
        "--fu", "uniform", "--fv", "uniform",
        "--out", str(out_path),
    )
    assert code == 0
    assert "pass" in out
    lines = out_path.read_text().strip().splitlines()
    assert lines[1] == "x,f_x,f_y,g1,g2"
    # spot-check the closed forms F_X = 2x - x^2 and G1 = 1/(2 - x) at a = 1
    row = dict(zip(lines[1].split(","), (float(t) for t in lines[len(lines) // 2].split(","))))
    assert row["f_x"] == pytest.approx(2 * row["x"] - row["x"] ** 2, abs=1e-9)
    assert row["g1"] == pytest.approx(1.0 / (2.0 - row["x"]), abs=1e-9)


def test_reconstruct_with_out_reconstructs_once(tmp_path, capsys, monkeypatch):
    import shockcop.shock_models as sm

    calls = []
    audited = sm.audited_reconstruction
    monkeypatch.setattr(
        sm, "audited_reconstruction", lambda *a, **k: calls.append(a) or audited(*a, **k)
    )
    code, out, _ = run(
        capsys,
        "reconstruct", "efgm:a=0.5",
        "--fu", "uniform", "--fv", "uniform",
        "--out", str(tmp_path / "recon.csv"),
    )
    assert code == 0 and "pass" in out
    assert len(calls) == 1


def test_reconstruct_degenerate_margins_exit_1(capsys):
    code, out, err = run(
        capsys, "reconstruct", "efgm:a=1.0", "--fu", "pointmass:x=0.0", "--fv", "pointmass:x=0.0"
    )
    assert code == 1
    assert "interior-point" in out + err


def test_reconstruct_smm_reduction(capsys):
    code, out, _ = run(
        capsys,
        "reconstruct", "survival(efgm:a=0.95)",
        "--fu", "uniform", "--fv", "uniform",
        "--tol", "1e-9",
    )
    assert code == 0
    assert "pass" in out


def test_roundtrip_efgm(capsys):
    code, out, _ = run(
        capsys,
        "roundtrip", "efgm:a=1.0",
        "--fu", "uniform", "--fv", "uniform",
        "--resolution", str(1 << 14),
    )
    assert code == 0
    assert "pass" in out


def test_sample_ranks_mode(tmp_path, capsys):
    path = tmp_path / "r.csv"
    code, _, _ = run(capsys, "sample", MODEL, "-n", "100", "--seed", "2", "--ranks", "--out", str(path))
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert lines[1] == "ru,rv"
    vals = [float(t) for t in lines[2].split(",")]
    assert all(0.0 < v <= 1.0 for v in vals)


def test_usage_error_exits_2(capsys):
    assert main(["frobnicate"]) == 2


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert "shockcop" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["check-empirical", "--against", "indep", "--in", "{missing}"],
        ["sample", "marshall-max:fx=step:file={missing},fy=uniform,g1=uniform,g2=uniform",
         "-n", "10", "--seed", "1"],
        ["eval", "rmm:f=tabulated:file={missing},g=power:alpha=0.5", "0.5", "0.5"],
    ],
    ids=["check-empirical", "step", "tabulated"],
)
def test_missing_input_file_exits_2_with_one_error_line(tmp_path, capsys, argv):
    missing = str(tmp_path / "missing.csv")
    code, _, err = run(capsys, *(a.replace("{missing}", missing) for a in argv))
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert missing in err and "Traceback" not in err


def test_non_integer_seed_exits_2_with_one_error_line(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("# seed=abc\nu,v\n0.1,0.2\n")
    code, _, err = run(capsys, "check-empirical", "--against", "indep", "--in", str(path))
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(path) in err


@pytest.mark.parametrize("copula", ["efgm:a=0.5,b=3", "rmm:f=zero,g=zero,x=1"])
def test_unknown_descriptor_name_exits_2_with_one_error_line(capsys, copula):
    code, _, err = run(capsys, "eval", copula, "0.5", "0.5")
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


def test_missing_input_file_prints_no_traceback(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    missing = str(tmp_path / "missing.csv")
    proc = subprocess.run(
        [sys.executable, "-m", "shockcop.cli", "check-empirical", "--against", "indep", "--in", missing],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and missing in proc.stderr


def test_closed_pipe_exits_1_without_traceback():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.Popen(
        [sys.executable, "-m", "shockcop.cli", "grid", "indep", "--n", "300"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    try:
        first = proc.stdout.readline()
        proc.stdout.close()  # the reader goes away with ~3.6 MB of rows still to come
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=60)
    finally:
        proc.kill()
        proc.stderr.close()
    assert first.startswith(b"# shockcop=")
    assert code == 1
    assert "Traceback" not in err


def test_check_with_no_rectangles_exits_2(capsys):
    code, _, err = run(capsys, "check", "efgm:a=0.95", "--rectangles", "0")
    assert code == 2
    assert err == "error: --rectangles must be at least 1, got 0\n"


@pytest.mark.parametrize("n", ["0", "-1"])
def test_grid_below_one_exits_2_naming_n(tmp_path, capsys, n):
    out_path = tmp_path / "g.csv"
    code, _, err = run(capsys, "grid", "indep", "--n", n, "--out", str(out_path))
    assert code == 2
    assert err.startswith("error: --n must be at least 1")
    assert not out_path.exists()


@pytest.mark.parametrize("argv", [
    ["reconstruct", "--grid", "0"],
    ["reconstruct", "--grid", "-1"],
    ["roundtrip", "--grid", "0"],
    ["reconstruct", "--points", "0"],
    ["reconstruct", "--points", "-1"],
])
def test_reconstruction_counts_below_one_exit_2_naming_the_option(tmp_path, capsys, argv):
    command, option, value = argv
    out_path = tmp_path / "shocks.csv"
    extra = ["--out", str(out_path)] if command == "reconstruct" else []
    code, out, err = run(
        capsys, command, "efgm:a=1.0", "--fu", "uniform", "--fv", "uniform", option, value, *extra
    )
    assert code == 2
    assert err == f"error: {option} must be at least 1, got {value}\n"
    assert out == "" and not out_path.exists()


def test_validate_gen_prints_the_verdict_then_every_row(capsys):
    code, out, _ = run(capsys, "validate-gen", "twoparam:alpha=0.5,beta=0.3", "--class", "rmm")
    lines = out.splitlines()
    assert code == 1
    assert lines[0] == "generator twoparam:alpha=0.5,beta=0.3 as rmm: failed"
    assert lines[1] == "suite validate[twoparam:alpha=0.5,beta=0.3 as rmm]: FAIL"
    assert "[FAIL] twoparam-domain: worst nan (beta=0.3 must be >= 1-alpha=0.5)" in lines[2]
    assert [line.split(":")[0].split()[-1] for line in lines[3:7]] == [
        "boundary-at-0", "boundary-at-1", "hat-nondecreasing", "star-nonincreasing"
    ]
    assert lines[7].startswith("  note: ")


def test_reconstruct_prints_the_failed_hypothesis_message(capsys):
    code, out, _ = run(capsys, "reconstruct", "efgm:a=1.0", "--fu", "pointmass:x=0", "--fv", "uniform")
    assert code == 1
    assert "[FAIL] hypothesis:interior-point: worst nan (interior-point: margins admit no common" in out


@pytest.mark.parametrize("value", ["nan", "-1", "inf", "-inf"])
@pytest.mark.parametrize("argv, option", [
    (["check", "efgm:a=0.5"], "--tol"),
    (["check-empirical", "--against", "indep", "--in", "-"], "--eps"),
    (["roundtrip", "efgm:a=1.0", "--fu", "uniform", "--fv", "uniform"], "--eps"),
    (["roundtrip", "efgm:a=1.0", "--fu", "uniform", "--fv", "uniform"], "--tol"),
    (["reconstruct", "efgm:a=1.0", "--fu", "uniform", "--fv", "uniform"], "--tol"),
    (["validate-gen", "power:alpha=0.5", "--class", "rmm"], "--tol"),
], ids=["check-tol", "check-empirical-eps", "roundtrip-eps", "roundtrip-tol", "reconstruct-tol",
        "validate-gen-tol"])
def test_bad_tolerance_exits_2_naming_the_option(capsys, argv, option, value):
    code, out, err = run(capsys, *argv, f"{option}={value}")
    assert code == 2
    assert err == f"error: {option} must be finite and non-negative, got {float(value)}\n"
    assert out == ""


def test_zero_tolerance_is_accepted(capsys):
    code, _, err = run(capsys, "validate-gen", "power:alpha=0.5", "--class", "rmm", "--tol", "0")
    assert code == 0 and err == ""


@pytest.mark.parametrize("argv", [
    ["sample", MODEL, "-n", "5", "--seed", "-1"],
    ["check", "efgm:a=0.5", "--seed", "-1"],
], ids=["sample", "check"])
def test_negative_seed_exits_2_naming_seed(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err == "error: --seed must be at least 0, got -1\n"
    assert out == ""


@pytest.mark.parametrize("argv, option, value, low", [
    (["validate-gen", "power:alpha=0.5", "--class", "rmm"], "--grid", "0", 3),
    (["validate-gen", "power:alpha=0.5", "--class", "rmm"], "--grid", "2", 3),
    (["check", "efgm:a=0.5"], "--grid", "2", 3),
    (["check", "efgm:a=0.5"], "--rectangles", "0", 1),
    (["roundtrip", "efgm:a=1.0", "--fu", "uniform", "--fv", "uniform"], "--resolution", "4", 8),
    (["check-empirical", "--against", "indep", "--in", "-"], "--grid", "1", 2),
], ids=["validate-gen-grid-0", "validate-gen-grid-2", "check-grid", "check-rectangles",
        "roundtrip-resolution", "check-empirical-grid"])
def test_count_below_its_floor_exits_2_naming_the_option(capsys, argv, option, value, low):
    code, out, err = run(capsys, *argv, option, value)
    assert code == 2
    assert err == f"error: {option} must be at least {low}, got {value}\n"
    assert out == ""
