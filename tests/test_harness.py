"""Material loading, perturbation draws, experiment protocol, emitters."""

import csv

import numpy as np
import pytest

from ceig import (
    CSV_HEADER,
    ExperimentConfig,
    MaterialRecord,
    NoConvergence,
    NonFinite,
    ParseError,
    SolverConfig,
    ValidationError,
    c_max_via_lift,
    emit_csv,
    emit_markdown,
    full_report,
    gen_perturbation,
    load_material,
    load_materials,
    make_piezo,
    run_experiment,
    unfold_spectral_norm,
)
from ceig import bounds
from ceig.rng import SplitMix64, derive_seed

from conftest import rand_piezo

QUICK = SolverConfig(starts=8, tol=1e-12, max_iters=5000, seed=0)


def single_material(value=2.0, n=3, name="demo"):
    raw = np.zeros((n, n, n))
    raw[0, 0, 0] = value
    return MaterialRecord(name=name, tensor=make_piezo(n, raw, mode="strict"))


# ---------------------------------------------------------------------------
# loading


def test_load_material_minimal(tmp_path):
    p = tmp_path / "mat.txt"
    p.write_text("n 1\n1 1 1 5.0\n")
    rec = load_material(p)
    assert rec.name == "mat"  # stem fallback
    assert rec.tensor.entries[0, 0, 0] == 5.0


def test_load_material_empty_body_and_name_header(tmp_path):
    p = tmp_path / "zero.txt"
    p.write_text("n 3\nname Zero Material\n")
    rec = load_material(p)
    assert rec.name == "Zero Material"
    np.testing.assert_array_equal(rec.tensor.entries, np.zeros((3, 3, 3)))


def test_load_material_malformed_line(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("n 3\n1 1 x 2.0\n")
    with pytest.raises(ParseError, match=r"bad.txt:2"):
        load_material(p)


def test_load_materials_sorted_and_empty(tmp_path):
    (tmp_path / "b.txt").write_text("n 2\n")
    (tmp_path / "a.txt").write_text("n 2\n")
    recs = load_materials(tmp_path)
    assert [r.name for r in recs] == ["a", "b"]
    with pytest.raises(ValidationError):
        load_materials(tmp_path / "nowhere")


def test_bundled_materials_load(materials_dir):
    recs = load_materials(materials_dir)
    assert len(recs) == 8
    assert [r.name for r in recs] == [
        "VFeSb",
        "SiO2",
        "Cr2AgBiO8",
        "RbTaO3",
        "NaBiS2",
        "LiBiB2O5",
        "KBi2F7",
        "BaNiO3",
    ]
    assert all(r.tensor.n == 3 for r in recs)


def test_material_record_requires_name():
    with pytest.raises(ValidationError):
        MaterialRecord(name="", tensor=make_piezo(1, [1.0]))


# ---------------------------------------------------------------------------
# perturbation draws


def test_gen_perturbation_zero_epsilon():
    e = gen_perturbation(3, 0.0, SplitMix64(42))
    np.testing.assert_array_equal(e.entries, np.zeros((3, 3, 3)))


def test_gen_perturbation_symmetry_and_range():
    e = gen_perturbation(3, 1e-2, SplitMix64(42))
    np.testing.assert_array_equal(e.entries, e.entries.transpose(0, 2, 1))
    assert np.all(e.entries >= 0.0)
    assert np.all(e.entries < 1e-2)
    assert np.any(e.entries > 0.0)


def test_gen_perturbation_determinism():
    a = gen_perturbation(3, 1e-2, SplitMix64(42))
    b = gen_perturbation(3, 1e-2, SplitMix64(42))
    np.testing.assert_array_equal(a.entries, b.entries)
    c = gen_perturbation(3, 1e-2, SplitMix64(derive_seed(42, 0, 0, 1)))
    assert not np.array_equal(a.entries, c.entries)


def test_gen_perturbation_signed_range():
    e = gen_perturbation(3, 0.5, SplitMix64(7), signed=True)
    assert np.all(np.abs(e.entries) < 0.5)
    assert np.any(e.entries < 0.0) and np.any(e.entries > 0.0)


def test_gen_perturbation_rejects_negative_epsilon():
    with pytest.raises(ValidationError):
        gen_perturbation(3, -0.1, SplitMix64(0))


# ---------------------------------------------------------------------------
# experiment configuration


def test_experiment_config_validation():
    with pytest.raises(ValidationError):
        ExperimentConfig(epsilons=())
    with pytest.raises(ValidationError):
        ExperimentConfig(epsilons=(1.0, -0.5))
    with pytest.raises(ValidationError):
        ExperimentConfig(trials=0)
    with pytest.raises(ValidationError):
        ExperimentConfig(seed=-3)
    cfg = ExperimentConfig(epsilons=[0.0, 1e-3])  # zero epsilon is a valid cell
    assert cfg.epsilons == (0.0, 1e-3)


@pytest.mark.parametrize(
    "config, name",
    [(SolverConfig, "starts"), (SolverConfig, "max_iters"), (SolverConfig, "seed"),
     (ExperimentConfig, "trials"), (ExperimentConfig, "seed")],
)
def test_configs_reject_bool_integer_fields(config, name):
    # bool subclasses int, so True would pass as 1 and False as 0
    for flag in (True, False):
        with pytest.raises(ValidationError, match=name):
            config(**{name: flag})


def test_experiment_config_rejects_non_finite_epsilons():
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValidationError, match="finite and nonnegative"):
            ExperimentConfig(epsilons=(bad,))


def test_default_epsilons_match_protocol():
    assert ExperimentConfig().epsilons == (1.0, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5)


# ---------------------------------------------------------------------------
# running


def test_run_experiment_zero_epsilon_cell():
    rows = run_experiment(
        [single_material(2.0)],
        ExperimentConfig(epsilons=(0.0,), solver=QUICK),
    )
    assert len(rows) == 1
    r = rows[0]
    assert r.true_lambda == pytest.approx(2.0, abs=1e-9)
    for lo, hi in ((r.lo21, r.hi21), (r.lo24, r.hi24), (r.lo25, r.hi25)):
        assert lo == pytest.approx(2.0, abs=1e-9)
        assert hi == pytest.approx(2.0, abs=1e-9)
    assert r.nested and r.contained


def test_run_experiment_row_ordering():
    mats = [single_material(2.0, name="a"), single_material(3.0, name="b")]
    cfg = ExperimentConfig(epsilons=(1e-3, 1e-1), trials=2, solver=QUICK)
    rows = run_experiment(mats, cfg)
    key = [(r.material, r.epsilon, r.trial) for r in rows]
    assert key == [
        ("a", 1e-1, 0),
        ("a", 1e-1, 1),
        ("a", 1e-3, 0),
        ("a", 1e-3, 1),
        ("b", 1e-1, 0),
        ("b", 1e-1, 1),
        ("b", 1e-3, 0),
        ("b", 1e-3, 1),
    ]


def test_run_experiment_input_validation():
    with pytest.raises(ValidationError):
        run_experiment([], ExperimentConfig())
    mixed = [single_material(1.0, n=3), single_material(1.0, n=2, name="two")]
    with pytest.raises(ValidationError):
        run_experiment(mixed, ExperimentConfig())


def test_run_experiment_raises_for_first_failing_cell():
    # the single-entry cells converge within ten steps, the random one cannot
    mats = [single_material(2.0, name="clean"), MaterialRecord("rough", rand_piezo(9))]
    cfg = ExperimentConfig(
        epsilons=(0.0,), solver=SolverConfig(starts=4, tol=1e-15, max_iters=10)
    )
    with pytest.raises(NoConvergence, match=r"^material 'rough', epsilon 0, trial 0: "):
        run_experiment(mats, cfg)
    assert run_experiment(mats[:1], cfg)[0].nested


def test_failing_cell_keeps_the_error_detail():
    mats = [MaterialRecord("rough", rand_piezo(9))]
    cfg = ExperimentConfig(
        epsilons=(0.0,), solver=SolverConfig(starts=4, tol=1e-15, max_iters=10)
    )
    with pytest.raises(NoConvergence) as info:
        run_experiment(mats, cfg)
    best = info.value.best_residual
    assert best is not None
    assert str(info.value).startswith("material 'rough', epsilon 0, trial 0: ")
    assert f"{best:.3e}" in str(info.value)


NO_CONV = SolverConfig(starts=4, tol=1e-15, max_iters=10)


def test_unplannable_cell_raises_in_cell_order():
    # lift(A) of a 1e160 entry overflows; the error waits for the cells
    # before it, and the earlier of two failing cells wins
    clean, huge = single_material(2.0, name="clean"), single_material(1e160, name="huge")
    rough = MaterialRecord("rough", rand_piezo(9))
    eps = (1e-1, 0.0)
    with pytest.raises(NonFinite, match=r"^material 'huge', epsilon 0\.1, trial 0: "):
        run_experiment([clean, huge], ExperimentConfig(epsilons=eps, solver=QUICK))
    with pytest.raises(NoConvergence, match=r"^material 'rough', "):
        run_experiment([rough, huge], ExperimentConfig(epsilons=eps, solver=NO_CONV))
    with pytest.raises(NonFinite, match=r"^material 'huge', epsilon 0\.1, trial 0: "):
        run_experiment([huge, rough], ExperimentConfig(epsilons=eps, solver=NO_CONV))
    # a perturbation whose symmetrisation overflows is attributed too
    with np.errstate(over="ignore"), pytest.raises(
        NonFinite, match=r"^material 'clean', epsilon 1\.7e\+308, trial 0: "
    ):
        run_experiment([clean], ExperimentConfig(epsilons=(1.7e308,), solver=QUICK))


def test_reports_run_as_one_batch_of_the_report_layout(materials_dir, monkeypatch):
    batches, lifted = [], []
    real_batch, real_lift = bounds.z_max_batch, bounds.lift

    def recording_batch(tensors, cfg):
        batches.append(list(tensors))
        return real_batch(tensors, cfg)

    def recording_lift(t):
        lifted.append(t)
        return real_lift(t)

    monkeypatch.setattr(bounds, "z_max_batch", recording_batch)
    monkeypatch.setattr(bounds, "lift", recording_lift)
    full_report(rand_piezo(1), gen_perturbation(3, 1e-2, SplitMix64(2)), QUICK)
    assert [len(b) for b in batches] == [4]

    batches.clear()
    lifted.clear()
    mats = load_materials(materials_dir)
    cfg = ExperimentConfig()
    run_experiment(mats, cfg)
    # lift(A), lift(E), -D, D and lift(A + E) per cell, D = lift(A + E) - lift(A)
    want = []
    for m_idx, mat in enumerate(mats):
        for e_idx, eps in enumerate(cfg.epsilons):
            e = gen_perturbation(3, eps, SplitMix64(derive_seed(cfg.seed, m_idx, e_idx, 0)))
            lift_a, lift_sum = real_lift(mat.tensor), real_lift(mat.tensor + e)
            diff = lift_sum - lift_a
            want += [lift_a, real_lift(e), -diff, diff, lift_sum]
    assert len(batches) == 1 and len(batches[0]) == len(want) == 240
    assert all(np.array_equal(got.entries, w.entries) for got, w in zip(batches[0], want))
    assert len(lifted) == 91  # each distinct tensor once


def test_full_materials_run_all_rows_clean(materials_dir):
    mats = load_materials(materials_dir)
    rows = run_experiment(mats, ExperimentConfig(seed=1, solver=QUICK))
    assert len(rows) == 48
    assert all(r.contained and r.nested for r in rows)
    # per-row invariants from the table protocol
    n_factor = 3.0 ** 1.5
    lam_a = {m.name: c_max_via_lift(m.tensor, QUICK).value for m in mats}
    for r in rows:
        half24 = 0.5 * (r.hi24 - r.lo24)
        assert abs(r.true_lambda - lam_a[r.material]) <= half24 + 1e-8
        assert half24 <= r.epsilon * n_factor + 1e-10
        assert (r.hi25 - r.lo25) <= (r.hi21 - r.lo21) + 1e-8
        assert (r.hi21 - r.lo21) <= (r.hi24 - r.lo24) + 1e-8


def test_default_study_matches_committed_tables(materials_dir, tmp_path):
    rows = run_experiment(load_materials(materials_dir), ExperimentConfig())
    emit_csv(rows, tmp_path / "tables.csv")
    emit_markdown(rows, tmp_path / "tables.md")
    results = materials_dir.parent / "results"
    for name in ("tables.csv", "tables.md"):
        assert (tmp_path / name).read_bytes() == (results / name).read_bytes(), name


def test_banio3_cell_at_tightest_epsilon(materials_dir):
    mats = load_materials(materials_dir)
    banio3 = [m for m in mats if m.name == "BaNiO3"]
    rows = run_experiment(banio3, ExperimentConfig(epsilons=(1e-5,), solver=QUICK))
    r = rows[0]
    assert r.true_lambda == pytest.approx(27.46280, abs=1e-3)
    for endpoint in (r.lo21, r.hi21, r.lo24, r.hi24, r.lo25, r.hi25):
        assert endpoint == pytest.approx(r.true_lambda, abs=1e-3)


def test_shared_direction_scales_spectral_width_linearly():
    mats = [single_material(2.0)]
    cfg = ExperimentConfig(
        epsilons=(1e-1, 1e-2, 1e-3), solver=QUICK, shared_direction=True
    )
    rows = run_experiment(mats, cfg)
    half = [0.5 * (r.hi24 - r.lo24) for r in rows]
    assert half[1] == pytest.approx(half[0] / 10.0, rel=1e-10)
    assert half[2] == pytest.approx(half[0] / 100.0, rel=1e-10)


# ---------------------------------------------------------------------------
# emitters


def make_rows(count=1):
    mats = [single_material(2.0)]
    eps = (1e-1, 1e-2, 1e-3, 1e-4)[:count]
    return run_experiment(mats, ExperimentConfig(epsilons=eps, solver=QUICK))


def test_emit_csv_empty(tmp_path):
    emit_csv([], tmp_path / "out.csv")
    assert (tmp_path / "out.csv").read_bytes() == (CSV_HEADER + "\n").encode()


def test_emit_csv_row_shape_and_round_trip(tmp_path):
    rows = make_rows(2)
    dest = tmp_path / "out.csv"
    emit_csv(rows, dest)
    raw = dest.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")
    lines = raw.decode("utf-8").splitlines()
    assert len(lines) == 3
    assert lines[0] == CSV_HEADER
    with open(dest, newline="") as fh:
        parsed = list(csv.DictReader(fh))
    assert all(len(rec) == 12 for rec in parsed)
    for rec, row in zip(parsed, rows):
        assert rec["material"] == row.material
        assert float(rec["epsilon"]) == pytest.approx(row.epsilon, abs=5e-9)
        assert float(rec["true_lambda"]) == pytest.approx(row.true_lambda, abs=5e-9)
        assert float(rec["lo25"]) == pytest.approx(row.lo25, abs=5e-9)
        assert rec["nested"] == "true" and rec["contained"] == "true"


def test_emit_csv_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(make_rows(2), a)
    emit_csv(make_rows(2), b)
    assert a.read_bytes() == b.read_bytes()


def test_emit_markdown_single_cell(tmp_path):
    emit_markdown(make_rows(1), tmp_path / "out.md")
    text = (tmp_path / "out.md").read_text(encoding="utf-8")
    assert text.count("### ") == 1
    data_rows = [l for l in text.splitlines() if l.startswith("| ") and "bound" not in l]
    assert len(data_rows) == 8  # 2 sections x 4 labels
    assert "TRUE" in text and "(2.1) upper" in text and "(2.5) lower" in text
    assert "eps=0.1" in text


def test_emit_markdown_empty_and_multi_trial(tmp_path):
    dest = tmp_path / "out.md"
    emit_markdown([], dest)
    assert dest.read_bytes() == b"No experiment rows.\n"

    rows = run_experiment(
        [single_material(2.0)],
        ExperimentConfig(epsilons=(1e-2,), trials=2, solver=QUICK),
    )
    emit_markdown(rows, dest)
    text = dest.read_text(encoding="utf-8")
    assert text.startswith("Showing trial 0 of 2")
    assert text.count("| TRUE |") == 2
