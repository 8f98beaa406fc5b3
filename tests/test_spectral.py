"""Solver tests: hand cases, grid-oracle agreement, determinism, failure paths."""

import itertools

import numpy as np
import pytest

from ceig import (
    CEigenpair,
    NoConvergence,
    SolverConfig,
    SymTensor4,
    UnsupportedDimension,
    ValidationError,
    ZEigenpair,
    apply_cubic,
    apply_yy,
    apply_xay,
    c_max_alternating,
    c_max_via_lift,
    eval_quartic,
    grid_oracle_c,
    grid_oracle_z,
    lift,
    make_piezo,
    parse_tensor_text,
    sub,
    z_max,
    z_max_batch,
    z_min,
)
from ceig import spectral
from ceig.harness import gen_perturbation, load_material
from ceig.rng import SplitMix64

from conftest import rand_piezo

CFG = SolverConfig(starts=12, tol=1e-12, max_iters=5000, seed=0)


def single_entry_piezo(value=2.0):
    raw = np.zeros((3, 3, 3))
    raw[0, 0, 0] = value
    return make_piezo(3, raw, mode="strict")


def quartic_single(value=4.0, n=3):
    raw = np.zeros((n,) * 4)
    raw[0, 0, 0, 0] = value
    return SymTensor4(n, raw)


def rand_sym4(seed, n=3):
    """Fully symmetric but generally indefinite fourth-order tensor."""
    rng = np.random.default_rng(seed)
    raw = rng.uniform(-1.0, 1.0, size=(n,) * 4)
    out = np.empty_like(raw)
    for idx in itertools.product(range(n), repeat=4):
        out[idx] = raw[tuple(sorted(idx))]
    return SymTensor4(n, out)


def neg4(t):
    return sub(SymTensor4(t.n, np.zeros_like(t.entries)), t)


# ---------------------------------------------------------------------------
# configuration


def test_solver_config_validation():
    with pytest.raises(ValidationError):
        SolverConfig(starts=0)
    with pytest.raises(ValidationError):
        SolverConfig(tol=0.0)
    with pytest.raises(ValidationError):
        SolverConfig(tol=-1e-9)
    with pytest.raises(ValidationError):
        SolverConfig(max_iters=9)
    with pytest.raises(ValidationError):
        SolverConfig(seed=-1)
    with pytest.raises(ValidationError):
        SolverConfig(seed=1 << 64)
    SolverConfig(max_iters=10, seed=(1 << 64) - 1)  # boundary values are fine


# ---------------------------------------------------------------------------
# z_max / z_min


def test_z_max_single_entry_lift():
    pair = z_max(lift(single_entry_piezo(2.0)), CFG)
    assert isinstance(pair, ZEigenpair)
    assert pair.value == pytest.approx(4.0, abs=1e-10)
    np.testing.assert_allclose(np.abs(pair.y), [1.0, 0.0, 0.0], atol=1e-8)
    assert pair.residual <= 1e-8
    assert pair.iterations >= 1


def test_z_max_zero_tensor():
    pair = z_max(SymTensor4(3, np.zeros((3, 3, 3, 3))), CFG)
    assert pair.value == pytest.approx(0.0, abs=1e-12)
    assert np.linalg.norm(pair.y) == pytest.approx(1.0, abs=1e-12)


def test_z_max_matches_grid_oracle():
    for s in range(6):
        t = rand_sym4(s)
        lo, hi = grid_oracle_z(t, 400)
        assert z_max(t, CFG).value == pytest.approx(hi, abs=5e-3)
        assert z_min(t, CFG).value == pytest.approx(lo, abs=5e-3)


def test_z_min_is_negated_z_max():
    t = rand_sym4(42)
    a = z_min(t, CFG).value
    b = -z_max(neg4(t), CFG).value
    assert a == pytest.approx(b, abs=1e-9)


def test_z_min_psd_floor_on_lifts():
    for s in range(30):
        a = rand_piezo(500 + s)
        pair = z_min(lift(a), CFG)
        assert pair.value >= -1e-8
        # the residual invariant is against the original tensor
        res = np.linalg.norm(
            apply_cubic(lift(a), pair.y) - pair.value * pair.y
        )
        assert res <= 1e-8 * max(1.0, abs(pair.value))


def test_z_pair_satisfies_eigen_equation():
    t = rand_sym4(7)
    pair = z_max(t, CFG)
    np.testing.assert_allclose(
        apply_cubic(t, pair.y), pair.value * pair.y, atol=1e-9
    )
    assert eval_quartic(t, pair.y) == pytest.approx(pair.value, abs=1e-9)


# ---------------------------------------------------------------------------
# spherical grid oracles


def test_grid_oracle_z_known_extremes():
    lo, hi = grid_oracle_z(quartic_single(4.0), 800)
    assert hi == pytest.approx(4.0, abs=5e-3)
    assert lo == pytest.approx(0.0, abs=5e-3)


def test_grid_oracle_z_zero():
    assert grid_oracle_z(SymTensor4(3, np.zeros((3, 3, 3, 3))), 100) == (0.0, 0.0)


def test_grid_oracle_argument_checks():
    t = quartic_single()
    with pytest.raises(ValidationError):
        grid_oracle_z(t, 99)
    with pytest.raises(ValidationError):
        grid_oracle_z(t, 200.5)
    with pytest.raises(UnsupportedDimension):
        grid_oracle_z(quartic_single(n=2), 200)
    a2 = rand_piezo(1, n=2)
    with pytest.raises(UnsupportedDimension):
        grid_oracle_c(a2, 200)
    with pytest.raises(ValidationError):
        grid_oracle_c(rand_piezo(1), 10)


def test_grid_oracle_c_examples():
    assert grid_oracle_c(single_entry_piezo(2.0), 800) == pytest.approx(2.0, abs=5e-3)
    assert grid_oracle_c(make_piezo(3, np.zeros(27)), 100) == 0.0


def test_grid_oracle_c_is_sqrt_of_lifted_grid_max():
    # both oracles walk the same nodes, so the identity holds to roundoff
    for s in range(5):
        a = rand_piezo(700 + s)
        _, hi = grid_oracle_z(lift(a), 300)
        assert grid_oracle_c(a, 300) == pytest.approx(
            np.sqrt(max(hi, 0.0)), abs=1e-9
        )


# ---------------------------------------------------------------------------
# c_max routes


def test_c_max_via_lift_single_entry():
    pair = c_max_via_lift(single_entry_piezo(2.0), CFG)
    assert isinstance(pair, CEigenpair)
    assert pair.value == pytest.approx(2.0, abs=1e-10)
    np.testing.assert_allclose(pair.x, [1.0, 0.0, 0.0], atol=1e-8)
    np.testing.assert_allclose(np.abs(pair.y), [1.0, 0.0, 0.0], atol=1e-8)


def test_c_max_zero_tensor():
    pair = c_max_via_lift(make_piezo(3, np.zeros(27)), CFG)
    assert pair.value == 0.0
    assert np.linalg.norm(pair.x) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(pair.y) == pytest.approx(1.0, abs=1e-12)


def test_c_max_zero_branch_null_space():
    # a tensor whose best y leaves a rank-deficient map x -> x A y still
    # needs a unit x with x A y = 0; the zero tensor is the extreme case
    a = make_piezo(2, np.zeros(8))
    pair = c_max_via_lift(a, CFG)
    np.testing.assert_allclose(apply_xay(a, pair.x, pair.y), np.zeros(2), atol=1e-12)


def test_c_pair_defining_equations():
    for s in range(20):
        a = rand_piezo(900 + s)
        pair = c_max_via_lift(a, CFG)
        scale = max(1.0, abs(pair.value))
        np.testing.assert_allclose(
            apply_yy(a, pair.y), pair.value * pair.x, atol=1e-8 * scale
        )
        np.testing.assert_allclose(
            apply_xay(a, pair.x, pair.y), pair.value * pair.y, atol=1e-8 * scale
        )
        mu = z_max(lift(a), CFG).value
        assert pair.value ** 2 == pytest.approx(mu, rel=1e-9, abs=1e-12)


def test_c_max_alternating_examples():
    assert c_max_alternating(single_entry_piezo(2.0), CFG).value == pytest.approx(
        2.0, abs=1e-9
    )
    assert c_max_alternating(make_piezo(3, np.zeros(27)), CFG).value == 0.0


def test_routes_agree_on_random_instances():
    for s in range(40):
        a = rand_piezo(1200 + s)
        lam_lift = c_max_via_lift(a, CFG).value
        lam_alt = c_max_alternating(a, CFG).value
        assert abs(lam_lift - lam_alt) <= 1e-6


def test_c_max_against_grid_oracle():
    for s in range(5):
        a = rand_piezo(1500 + s)
        assert c_max_via_lift(a, CFG).value == pytest.approx(
            grid_oracle_c(a, 800), abs=5e-3
        )


def test_solver_handles_other_dimensions():
    for n in (1, 2, 4):
        a = rand_piezo(40 + n, n=n)
        pair = c_max_via_lift(a, CFG)
        scale = max(1.0, abs(pair.value))
        np.testing.assert_allclose(
            apply_yy(a, pair.y), pair.value * pair.x, atol=1e-8 * scale
        )
        alt = c_max_alternating(a, CFG)
        assert abs(pair.value - alt.value) <= 1e-6


def test_n1_closed_form():
    pair = c_max_via_lift(make_piezo(1, [-3.0]), CFG)
    assert pair.value == pytest.approx(3.0, abs=1e-12)


# ---------------------------------------------------------------------------
# reference material


def test_banio3_reaches_reference_value(materials_dir):
    text = (materials_dir / "08_banio3.txt").read_text()
    a, name = parse_tensor_text(text)
    assert name == "BaNiO3"
    assert c_max_via_lift(a, CFG).value == pytest.approx(27.4628, abs=1e-3)


# ---------------------------------------------------------------------------
# determinism and failure paths


def test_same_config_is_bit_deterministic():
    a = rand_piezo(2024)
    p1 = c_max_via_lift(a, CFG)
    p2 = c_max_via_lift(a, CFG)
    assert p1.value == p2.value
    np.testing.assert_array_equal(p1.x, p2.x)
    np.testing.assert_array_equal(p1.y, p2.y)


def test_different_seeds_agree_on_lambda():
    a = rand_piezo(2025)
    vals = {
        round(c_max_via_lift(a, SolverConfig(starts=12, seed=s)).value, 9)
        for s in (0, 1, 7)
    }
    assert len(vals) == 1


def test_no_convergence_reports_best_residual():
    a = rand_piezo(9)
    cfg = SolverConfig(starts=4, tol=1e-15, max_iters=10, seed=0)
    with pytest.raises(NoConvergence) as exc_info:
        z_max(lift(a), cfg)
    assert exc_info.value.exit_code == 3
    assert exc_info.value.best_residual > 0
    with pytest.raises(NoConvergence):
        c_max_via_lift(a, cfg)


def test_tight_tolerance_still_converges_with_budget():
    a = rand_piezo(9)
    pair = z_max(lift(a), SolverConfig(starts=4, tol=1e-15, max_iters=5000, seed=0))
    assert pair.residual <= 1e-12


# ---------------------------------------------------------------------------
# batching across tensors


def mixed_batch(materials_dir):
    """n = 3 tensors of very different kinds and scales, one repeated."""
    a = load_material(materials_dir / "08_banio3.txt").tensor
    e = gen_perturbation(3, 1e-5, SplitMix64(11))
    diff = lift(a + e) - lift(a)
    r = rand_piezo(77)
    return [
        lift(load_material(materials_dir / "01_vfesb.txt").tensor),
        lift(a),
        diff,
        -diff,
        SymTensor4(3, np.zeros((3,) * 4)),
        lift(r) * 1e-8,
        rand_sym4(5) * 1e3,
        lift(a),
    ]


def assert_same_result(got, want):
    if isinstance(want, NoConvergence):
        assert isinstance(got, NoConvergence)
        assert got.best_residual == want.best_residual
        return
    assert isinstance(got, ZEigenpair)
    assert got.value == want.value
    assert got.y.tobytes() == want.y.tobytes()
    assert got.residual == want.residual
    assert got.iterations == want.iterations


def solve_alone(t, cfg):
    try:
        return z_max(t, cfg)
    except NoConvergence as exc:
        return exc


@pytest.mark.parametrize("budget", [None, 2 * (50 + 3) * 9])
@pytest.mark.parametrize(
    "cfg",
    [SolverConfig(starts=50), SolverConfig(starts=4, tol=1e-15, max_iters=10)],
    ids=["default", "no-convergence"],
)
def test_z_max_batch_is_bit_identical_to_single_solves(materials_dir, monkeypatch, cfg, budget):
    if budget is not None:
        # two 53-row tensors per power pass at 50 starts, one on the retry
        monkeypatch.setattr(spectral, "_BATCH_BUDGET", budget)
    tensors = mixed_batch(materials_dir)
    alone = [solve_alone(t, cfg) for t in tensors]
    forward = z_max_batch(tensors, cfg)
    backward = z_max_batch(tensors[::-1], cfg)[::-1]
    for want, got_f, got_b in zip(alone, forward, backward):
        assert_same_result(got_f, want)
        assert_same_result(got_b, want)
    failed = [isinstance(r, NoConvergence) for r in alone]
    if cfg.max_iters == 10:
        assert any(failed) and not all(failed)  # the zero tensor still converges
    else:
        assert not any(failed)
