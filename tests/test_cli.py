"""Exit codes and output shapes of the command-line interface."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ceig
from ceig import PropertyViolation, SolverConfig, c_max_via_lift, make_piezo
from ceig.cli import main

from conftest import format_tensor_text, rand_piezo


@pytest.fixture
def single_entry_file(tmp_path):
    raw = np.zeros((3, 3, 3))
    raw[0, 0, 0] = 2.0
    p = tmp_path / "a.txt"
    p.write_text(format_tensor_text(make_piezo(3, raw, mode="strict"), name="single"))
    return p


@pytest.fixture
def random_file(tmp_path):
    p = tmp_path / "rand.txt"
    p.write_text(format_tensor_text(rand_piezo(9)))
    return p


FAST = ["--starts", "8"]


# ---------------------------------------------------------------------------
# compute


def test_compute_success(single_entry_file, capsys):
    assert main(["compute", str(single_entry_file)] + FAST) == 0
    out = capsys.readouterr().out
    assert "lambda_c  2.000000000000" in out
    assert "single" in out
    assert "residuals" in out


def test_compute_missing_file(tmp_path, capsys):
    assert main(["compute", str(tmp_path / "absent.txt")]) == 2
    assert "error:" in capsys.readouterr().err


def test_compute_malformed_file(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_text("n 3\n1 1 x 2.0\n")
    assert main(["compute", str(p)]) == 2
    assert "bad.txt:2" in capsys.readouterr().err


def test_non_utf8_file_is_a_parse_error(tmp_path, capsys):
    d = tmp_path / "mats"
    d.mkdir()
    p = d / "latin.txt"
    p.write_bytes(b"\xff\xfe\x00n 3")
    assert main(["compute", str(p)]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(experiment_args(d, tmp_path / "x.csv")) == 2
    assert "error:" in capsys.readouterr().err
    # after a byte-order mark, a bad byte is still reported on its own line
    p.write_bytes(b"\xef\xbb\xbfn 1\n\xff 1 1 1 5.0\n")
    assert main(["compute", str(p)]) == 2
    assert "latin.txt:2: not UTF-8" in capsys.readouterr().err


def test_file_with_byte_order_mark_loads(tmp_path, capsys):
    d = tmp_path / "mats"
    d.mkdir()
    p = d / "bom.txt"
    p.write_bytes(b"\xef\xbb\xbfn 1\n1 1 1 5.0\n")
    assert main(["compute", str(p)]) == 0
    assert "lambda_c  5.000000000000" in capsys.readouterr().out
    assert main(experiment_args(d, tmp_path / "x.csv")) == 0
    assert "2 rows over 1 materials" in capsys.readouterr().out


def test_compute_unallocatable_dimension(tmp_path, capsys):
    # n^3 float entries for n = 100000 are 8e15 bytes: numpy raises
    # MemoryError at once, before any of it is touched
    p = tmp_path / "huge.txt"
    p.write_text("n 100000\n")
    assert main(["compute", str(p)]) == 2
    assert "error:" in capsys.readouterr().err


def test_compute_bad_solver_flags(single_entry_file, capsys):
    assert main(["compute", str(single_entry_file), "--starts", "0"]) == 2
    capsys.readouterr()


def test_compute_non_convergence(random_file, capsys):
    rc = main(
        ["compute", str(random_file), "--starts", "4", "--max-iters", "10", "--tol", "1e-15"]
    )
    assert rc == 3
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# bounds


def test_bounds_degenerate(single_entry_file, tmp_path, capsys):
    zero = tmp_path / "zero.txt"
    zero.write_text("n 3\n")
    assert main(["bounds", str(single_entry_file), str(zero)] + FAST) == 0
    out = capsys.readouterr().out
    assert "interval_21 [2.00000000, 2.00000000]" in out
    assert "interval_25 [2.00000000, 2.00000000]" in out
    assert "nested     true" in out


@pytest.mark.parametrize("ratio", [1.0, 1e-6])
def test_bounds_of_aligned_perturbation_prints_the_exact_answer(tmp_path, capsys, ratio):
    # E = e x_A (y_A y_A^T) from A's top C-pair attains every upper end:
    # lambda(A + E) = lambda_A + e and zmax_diff = 2 e lambda_A + e^2
    a = rand_piezo(9)
    top = c_max_via_lift(a, SolverConfig(starts=8))  # what FAST selects
    e = ratio * top.value
    raw = (e * top.x)[:, None, None] * np.outer(top.y, top.y)[None]  # symmetric in (j, k)
    a_file, e_file = tmp_path / "a.txt", tmp_path / "e.txt"
    a_file.write_text(format_tensor_text(a, strict=True))
    e_file.write_text(format_tensor_text(make_piezo(3, raw, mode="strict"), strict=True))
    assert main(["bounds", str(a_file), str(e_file)] + FAST) == 0
    printed = dict(line.split(None, 1) for line in capsys.readouterr().out.splitlines())
    zmax = 2.0 * e * top.value + e * e
    # 1e-13 of zmax, plus the half unit in the last of the 13 printed digits
    half_unit = 0.5e-12 * 10.0 ** math.floor(math.log10(zmax))
    assert abs(float(printed["zmax_diff"]) - zmax) <= 1e-13 * zmax + half_unit
    for name in ("interval_21", "interval_24", "interval_25"):
        assert printed[name].endswith(f", {top.value + e:.8f}]"), (name, printed[name])


def test_bounds_dimension_mismatch(single_entry_file, tmp_path, capsys):
    one = tmp_path / "one.txt"
    one.write_text("n 1\n1 1 1 0.5\n")
    assert main(["bounds", str(single_entry_file), str(one)]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# experiment


def write_materials(tmp_path):
    d = tmp_path / "mats"
    d.mkdir()
    raw = np.zeros((3, 3, 3))
    raw[0, 0, 0] = 2.0
    (d / "m1.txt").write_text(
        format_tensor_text(make_piezo(3, raw, mode="strict"), name="m1")
    )
    (d / "m2.txt").write_text(format_tensor_text(rand_piezo(3), name="m2"))
    return d


def experiment_args(d, csv_path, extra=()):
    return [
        "experiment",
        "--materials",
        str(d),
        "--eps",
        "1e-1,1e-3",
        "--csv",
        str(csv_path),
        *FAST,
        *extra,
    ]


def test_experiment_writes_outputs(tmp_path, capsys):
    d = write_materials(tmp_path)
    csv_path = tmp_path / "out.csv"
    md_path = tmp_path / "out.md"
    rc = main(experiment_args(d, csv_path, ["--md", str(md_path)]))
    assert rc == 0
    assert "4 rows over 2 materials" in capsys.readouterr().out
    lines = csv_path.read_text().splitlines()
    assert len(lines) == 5
    assert lines[0].startswith("material,epsilon,trial,")
    assert "### m1" in md_path.read_text()


def test_experiment_deterministic_bytes(tmp_path, capsys):
    d = write_materials(tmp_path)
    c1, c2, c3 = (tmp_path / f"o{i}.csv" for i in range(3))
    assert main(experiment_args(d, c1, ["--seed", "5"])) == 0
    assert main(experiment_args(d, c2, ["--seed", "5"])) == 0
    assert main(experiment_args(d, c3, ["--seed", "5"])) == 0
    capsys.readouterr()
    assert c1.read_bytes() == c2.read_bytes() == c3.read_bytes()


def test_experiment_bad_eps_list(tmp_path, capsys):
    d = write_materials(tmp_path)
    rc = main(
        ["experiment", "--materials", str(d), "--eps", "1,zap", "--csv", str(tmp_path / "x.csv")]
    )
    assert rc == 2
    capsys.readouterr()


def test_experiment_empty_eps_list(tmp_path, capsys):
    d = write_materials(tmp_path)
    csv_path = tmp_path / "x.csv"
    rc = main(["experiment", "--materials", str(d), "--eps", "", "--csv", str(csv_path)])
    assert rc == 2
    assert "need at least one epsilon" in capsys.readouterr().err
    assert not csv_path.exists()


def test_experiment_empty_materials_dir(tmp_path, capsys):
    d = tmp_path / "empty"
    d.mkdir()
    rc = main(["experiment", "--materials", str(d), "--csv", str(tmp_path / "x.csv")])
    assert rc == 2
    capsys.readouterr()


def test_experiment_unwritable_csv(tmp_path, capsys):
    d = write_materials(tmp_path)
    rc = main(experiment_args(d, tmp_path / "nodir" / "out.csv"))
    assert rc == 2
    capsys.readouterr()


def test_experiment_non_convergence_names_first_cell(tmp_path, capsys):
    d = tmp_path / "mats"
    d.mkdir()
    (d / "r.txt").write_text(format_tensor_text(rand_piezo(9), name="rand"))
    rc = main(
        ["experiment", "--materials", str(d), "--csv", str(tmp_path / "x.csv"),
         "--starts", "4", "--max-iters", "10", "--tol", "1e-15"]
    )
    assert rc == 3
    assert "error: material 'rand', epsilon 1, trial 0: " in capsys.readouterr().err


@pytest.mark.xfail(
    strict=True,
    reason="the zmin_diff problem of cell LiBiB2O5, eps 0.01 creeps toward a "
    "near-zero top and no start stalls within max_iters (CHANGES.md FOUND on "
    "seed 17073); ROADMAP item 6's certified rescue should make this pass",
)
def test_experiment_seed_17073_exits_0(materials_dir, tmp_path, capsys):
    rc = main(["experiment", "--materials", str(materials_dir), "--seed", "17073",
               "--csv", str(tmp_path / "x.csv")])
    capsys.readouterr()
    assert rc == 0


def test_experiment_property_violation_exit_code(tmp_path, capsys, monkeypatch):
    import ceig.cli

    def boom(materials, cfg):
        raise PropertyViolation("containment failed in cell")

    monkeypatch.setattr(ceig.cli, "run_experiment", boom)
    d = write_materials(tmp_path)
    rc = main(experiment_args(d, tmp_path / "v.csv"))
    assert rc == 4
    assert "containment failed" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# oracle


def test_oracle_success(single_entry_file, capsys):
    assert main(["oracle", str(single_entry_file), "--resolution", "400"]) == 0
    out = capsys.readouterr().out
    assert "grid lambda_c" in out
    assert "1.99" in out or "2.00" in out


def test_oracle_resolution_too_small(single_entry_file, capsys):
    assert main(["oracle", str(single_entry_file), "--resolution", "10"]) == 2
    capsys.readouterr()


def test_oracle_wrong_dimension(tmp_path, capsys):
    p = tmp_path / "one.txt"
    p.write_text("n 1\n1 1 1 2.0\n")
    assert main(["oracle", str(p)]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# installed entry point


def test_console_script_smoke(single_entry_file):
    # the child imports the same ceig as this process, installed or not
    path = [str(Path(ceig.__file__).parent.parent), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-m", "ceig.cli", "compute", str(single_entry_file), "--starts", "8"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
    )
    assert proc.returncode == 0
    assert "lambda_c" in proc.stdout
