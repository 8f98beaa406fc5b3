"""End-to-end acceptance checks.

Each test prints one PASS line with its headline numbers so a plain
`pytest -v tests/test_acceptance.py` run doubles as a results sheet.
Shared batches are module-scoped fixtures: the 1000-pair containment
set feeds the first two checks, the 500-instance solver set feeds the
next three.
"""

import hashlib
import time

import numpy as np
import pytest

from ceig import (
    CeigError,
    ExperimentConfig,
    SolverConfig,
    c_max_alternating,
    c_max_via_lift,
    check_nesting,
    full_reports,
    gen_perturbation,
    grid_oracle_c,
    lift,
    load_materials,
    make_piezo,
    run_experiment,
    unfold_spectral_norm,
    z_max_batch,
)
from ceig.cli import main as cli_main
from ceig.rng import SplitMix64, derive_seed
from ceig.spectral import c_pair_from_lift, held

from conftest import quartic_loops, rand_piezo, rand_unit

CFG = SolverConfig(starts=12, tol=1e-12, max_iters=5000, seed=0)

SLACK = 1e-8

# sha256 of `ceig experiment --seed 3` on the bundled materials
SEED3_CSV_SHA256 = "acda2f235699e773d59a413c09b9bc20fe6ad3e8e80b4afc94060c9ce3ffe9e0"

REFERENCE_LAMBDAS = {
    "VFeSb": 4.25139,
    "SiO2": 0.13754,
    "Cr2AgBiO8": 2.62580,
    "RbTaO3": 13.63810,
    "NaBiS2": 11.66737,
    "LiBiB2O5": 7.73763,
    "KBi2F7": 13.50215,
    "BaNiO3": 27.46280,
}

# materials whose fixture files carry a verified-status comment; the
# other five hold best-effort entries known to miss the reference value
VERIFIED_MATERIALS = ("VFeSb", "SiO2", "BaNiO3")


def announce(capsys, text):
    with capsys.disabled():
        print(f"\n[acceptance] {text}")


# ---------------------------------------------------------------------------
# shared batches


@pytest.fixture(scope="module")
def pair_batch():
    """1000 seeded (A, E) pairs cycling eps in {1, 1e-1, 1e-3}: each
    report and lambda(A + E), from one ``full_reports`` call. The time
    covers the draws and the call."""
    eps_cycle = (1.0, 1e-1, 1e-3)
    t0 = time.perf_counter()
    pairs = [
        (rand_piezo(derive_seed(101, i)),
         gen_perturbation(3, eps_cycle[i % 3], SplitMix64(derive_seed(202, i))))
        for i in range(1000)
    ]
    out = []
    for entry in full_reports(pairs, CFG):
        if isinstance(entry, CeigError):
            raise entry
        report, tilde = entry
        out.append((report, tilde.value))
    return out, time.perf_counter() - t0


@pytest.fixture(scope="module")
def solver_batch():
    """500 random A with every solver quantity the checks below need; the
    Z-problems lift(A) and -lift(A) of all 500 run as one batch."""
    tensors = [rand_piezo(derive_seed(303, i)) for i in range(500)]
    companions = [lift(a) for a in tensors]
    tops = z_max_batch(companions + [-c for c in companions], CFG)
    out = []
    for a, companion, top, neg in zip(tensors, companions, tops[:500], tops[500:]):
        out.append(
            {
                "a": a,
                "companion": companion,
                "zmin": -held(neg).value,  # min(T) = -max(-T)
                "zmax": held(top).value,
                "via_lift": c_pair_from_lift(a, top),
                "alternating": c_max_alternating(a, CFG),
            }
        )
    return out


@pytest.fixture(scope="module")
def materials(materials_dir):
    return load_materials(materials_dir)


@pytest.fixture(scope="module")
def material_lambdas(materials):
    return {m.name: c_max_via_lift(m.tensor, CFG).value for m in materials}


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_containment(pair_batch, capsys):
    pairs, elapsed = pair_batch
    worst = -np.inf
    for report, lam in pairs:
        for iv in (report.interval_21, report.interval_24, report.interval_25):
            worst = max(worst, iv.lo - lam, lam - iv.hi)
            assert iv.contains(lam, slack=SLACK)
    assert elapsed <= 60.0
    announce(
        capsys,
        f"criterion 1 (containment): PASS - 1000 pairs, worst escape "
        f"{worst:.2e} (slack {SLACK:g}), batch took {elapsed:.1f} s",
    )


def test_criterion_2_nesting(pair_batch, capsys):
    pairs, _ = pair_batch
    violations = 0
    worst = -np.inf
    for report, _ in pairs:
        r21, r24, r25 = report.interval_21, report.interval_24, report.interval_25
        worst = max(
            worst,
            r21.lo - r25.lo,
            r25.hi - r21.hi,
            r24.lo - r21.lo,
            r21.hi - r24.hi,
        )
        if not check_nesting(report, SLACK):
            violations += 1
    assert violations == 0
    announce(
        capsys,
        f"criterion 2 (nesting): PASS - 1000 reports, 0 violations, "
        f"worst endpoint overhang {worst:.2e}",
    )


def test_criterion_3_psd_floor(solver_batch, capsys):
    worst_zmin = min(rec["zmin"] for rec in solver_batch)
    assert worst_zmin >= -1e-8
    worst_quartic = np.inf
    draws = 0
    for i, rec in enumerate(solver_batch):
        for j in range(20):
            y = rand_unit(derive_seed(404, i, j))
            worst_quartic = min(worst_quartic, quartic_loops(rec["companion"].entries, y))
            draws += 1
    assert draws == 10_000
    assert worst_quartic >= -1e-10
    announce(
        capsys,
        f"criterion 3 (companion PSD): PASS - 500 tensors, min z_min "
        f"{worst_zmin:.2e}, min quartic over 10^4 unit y {worst_quartic:.2e}",
    )


def test_criterion_4_round_trip(solver_batch, capsys):
    worst_rel = 0.0
    worst_resid = 0.0
    for rec in solver_batch:
        pair = rec["via_lift"]
        rel = abs(pair.value ** 2 - rec["zmax"]) / max(1e-12, abs(rec["zmax"]))
        worst_rel = max(worst_rel, rel)
        worst_resid = max(worst_resid, pair.residual_x, pair.residual_y)
        assert rel <= 1e-9
        assert pair.residual_x <= 1e-8 and pair.residual_y <= 1e-8
    announce(
        capsys,
        f"criterion 4 (square root round-trip): PASS - 500 tensors, worst "
        f"relative gap {worst_rel:.2e}, worst residual {worst_resid:.2e}",
    )


def test_criterion_5_cross_solver_and_grid(solver_batch, capsys):
    worst_route_gap = 0.0
    for rec in solver_batch:
        gap = abs(rec["via_lift"].value - rec["alternating"].value)
        worst_route_gap = max(worst_route_gap, gap)
        assert gap <= 1e-6
    worst_grid_gap = 0.0
    for rec in solver_batch[:100]:
        grid = grid_oracle_c(rec["a"], 800)
        for route in ("via_lift", "alternating"):
            gap = abs(rec[route].value - grid)
            worst_grid_gap = max(worst_grid_gap, gap)
            assert gap <= 5e-3
    announce(
        capsys,
        f"criterion 5 (solver agreement): PASS - routes within "
        f"{worst_route_gap:.2e} on 500, grid oracle within {worst_grid_gap:.2e} "
        f"on 100 at resolution 800",
    )


def _material_params():
    for name in REFERENCE_LAMBDAS:
        if name in VERIFIED_MATERIALS:
            yield name
        else:
            yield pytest.param(
                name,
                marks=pytest.mark.xfail(
                    strict=True,
                    reason="transcribed entries for this material are "
                    "unverified and are known to miss the reference "
                    "eigenvalue; see the status comment in its fixture file",
                ),
            )


@pytest.mark.parametrize("name", list(_material_params()))
def test_criterion_6_reference_values(material_lambdas, name):
    assert material_lambdas[name] == pytest.approx(
        REFERENCE_LAMBDAS[name], abs=1e-3
    )


def test_criterion_6_substitute_checks(materials, material_lambdas, capsys):
    # every seeded cell must satisfy the containment and nesting checks
    rows = run_experiment(materials, ExperimentConfig(seed=0, solver=CFG))
    assert len(rows) == 48
    assert all(r.contained and r.nested for r in rows)

    # interval widths shrink roughly tenfold per epsilon decade
    by_mat = {}
    for r in rows:
        by_mat.setdefault(r.material, []).append(r)
    ratio_lo, ratio_hi = np.inf, -np.inf
    for rs in by_mat.values():
        rs.sort(key=lambda r: -r.epsilon)
        for prev, nxt in zip(rs, rs[1:]):
            for lo_f, hi_f in (("lo21", "hi21"), ("lo24", "hi24")):
                ratio = (getattr(prev, hi_f) - getattr(prev, lo_f)) / (
                    getattr(nxt, hi_f) - getattr(nxt, lo_f)
                )
                ratio_lo, ratio_hi = min(ratio_lo, ratio), max(ratio_hi, ratio)
                assert 5.0 <= ratio <= 20.0

    # and the underlying half-width quantities scale exactly linearly
    e = gen_perturbation(3, 1.0, SplitMix64(derive_seed(505, 0)))
    lam_e = c_max_via_lift(e, CFG).value
    norm_e = unfold_spectral_norm(e)
    for t in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5):
        te = make_piezo(3, t * e.entries, mode="strict")
        assert c_max_via_lift(te, CFG).value == pytest.approx(t * lam_e, rel=1e-10)
        assert unfold_spectral_norm(te) == pytest.approx(t * norm_e, rel=1e-10)

    verified = [
        name
        for name in VERIFIED_MATERIALS
        if abs(material_lambdas[name] - REFERENCE_LAMBDAS[name]) <= 1e-3
    ]
    announce(
        capsys,
        f"criterion 6 (reference reproduction): PARTIAL - "
        f"{len(verified)}/8 fixture tensors reproduce their reference "
        f"eigenvalue ({', '.join(verified)}); the other five are marked "
        f"expected-fail pending verifiable entries. Substitute checks "
        f"PASS: 48/48 cells contained+nested, width ratios in "
        f"[{ratio_lo:.1f}, {ratio_hi:.1f}] per decade, exact linear "
        f"scaling of both half-widths to 1e-10",
    )


def test_criterion_7_cli_determinism(materials_dir, tmp_path, capsys):
    out = []
    for i in range(3):
        csv_path = tmp_path / f"run{i}.csv"
        rc = cli_main(
            [
                "experiment",
                "--materials",
                str(materials_dir),
                "--csv",
                str(csv_path),
                "--seed",
                "3",
            ]
        )
        assert rc == 0
        out.append(csv_path.read_bytes())
    capsys.readouterr()
    assert out[0] == out[1] == out[2]
    assert hashlib.sha256(out[0]).hexdigest() == SEED3_CSV_SHA256
    announce(
        capsys,
        f"criterion 7 (determinism): PASS - byte-identical CSV across three "
        f"runs, matching the pinned seed-3 digest ({len(out[0])} bytes)",
    )


def test_criterion_8_full_experiment_runtime(materials, capsys):
    t0 = time.perf_counter()
    rows = run_experiment(materials, ExperimentConfig())
    elapsed = time.perf_counter() - t0
    assert len(rows) == 48
    assert elapsed <= 60.0
    announce(
        capsys,
        f"criterion 8 (full experiment runtime): PASS - 8 materials x 6 "
        f"epsilons in {elapsed:.1f} s (budget 60 s)",
    )
