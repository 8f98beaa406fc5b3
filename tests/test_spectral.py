"""Solver tests: hand cases, grid-oracle agreement, determinism, failure paths."""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ceig import (
    CEigenpair,
    NoConvergence,
    NonFinite,
    PropertyViolation,
    SolverConfig,
    SymTensor4,
    UnsupportedDimension,
    ValidationError,
    ZEigenpair,
    c_max_alternating,
    c_max_via_lift,
    companion,
    full_report,
    grid_oracle_c,
    grid_oracle_z,
    lift,
    make_piezo,
    parse_tensor_text,
    z_max,
    z_max_batch,
)
from ceig import spectral
from ceig.harness import gen_perturbation, load_material
from ceig.rng import SplitMix64

from conftest import cubic_loops, quartic_loops, rand_piezo, xay_loops, yy_loops

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
# z_max (the smallest Z-eigenvalue of T is -z_max(-T))


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
        assert -z_max(-t, CFG).value == pytest.approx(lo, abs=5e-3)


def test_z_min_psd_floor_on_lifts():
    for s in range(30):
        a = rand_piezo(500 + s)
        neg = z_max(-lift(a), CFG)
        value = -neg.value  # min(T) = -max(-T)
        assert value >= -1e-8
        # the residual carries over to T: |(-T) y^3 + value y| = |T y^3 - value y|
        res = np.linalg.norm(cubic_loops(lift(a).entries, neg.y) - value * neg.y)
        assert res <= 1e-8 * max(1.0, abs(value))
        assert abs(neg.residual - res) <= 1e-12 * max(1.0, abs(value))


def test_z_pair_satisfies_eigen_equation():
    t = rand_sym4(7)
    pair = z_max(t, CFG)
    np.testing.assert_allclose(
        cubic_loops(t.entries, pair.y), pair.value * pair.y, atol=1e-9
    )
    assert quartic_loops(t.entries, pair.y) == pytest.approx(pair.value, abs=1e-9)


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
    # the zero tensor is the one tensor with lambda = 0; any unit x solves
    # x A y = 0, and both routes take x = y
    a = make_piezo(2, np.zeros(8))
    for route in (c_max_via_lift, c_max_alternating):
        pair = route(a, CFG)
        np.testing.assert_allclose(xay_loops(a.entries, pair.x, pair.y), np.zeros(2), atol=1e-12)
        np.testing.assert_array_equal(pair.x, pair.y)


def test_companion_underflow_raises_instead_of_a_zero_lambda():
    # lambda >= max|a_ijk|, but at 1e-170 the companion's entries underflow
    # to zero and its top Z-value reads 0; at 1e160 they overflow
    a = rand_piezo(5)
    tiny = 1e-170 * a
    top = f"{np.abs(tiny.entries).max():.3e}"
    message = rf"largest C-eigenvalue 0\.000e\+00 .*largest entry magnitude {top}"
    with pytest.raises(PropertyViolation, match=message):
        c_max_via_lift(tiny, CFG)
    with pytest.raises(PropertyViolation, match=message):
        full_report(tiny, rand_piezo(6, scale=1e-3), CFG)
    with pytest.raises(NonFinite):
        c_max_via_lift(1e160 * a, CFG)


@given(st.integers(1, 5), st.integers(0, 2 ** 32), st.floats(-6.0, 3.0))
@settings(max_examples=60)
def test_c_routes_reach_the_largest_entry_with_relative_residuals(n, seed, log_scale):
    # x = +-e_i with y = e_j or (e_j +- e_k)/sqrt(2) reaches every |a_ijk|;
    # at n = 1 lambda is |a_111|, which the lift route's sqrt of the
    # companion value can miss by an ulp
    a = rand_piezo(seed, n=n, scale=10.0 ** log_scale)
    top = np.abs(a.entries).max()
    for route in (c_max_via_lift, c_max_alternating):
        pair = route(a, CFG)
        assert pair.value >= top * (1.0 - 1e-15)
        assert max(pair.residual_x, pair.residual_y) <= 1e-8 * top


def test_c_pair_defining_equations():
    for s in range(20):
        a = rand_piezo(900 + s)
        pair = c_max_via_lift(a, CFG)
        scale = max(1.0, abs(pair.value))
        np.testing.assert_allclose(
            yy_loops(a.entries, pair.y), pair.value * pair.x, atol=1e-8 * scale
        )
        np.testing.assert_allclose(
            xay_loops(a.entries, pair.x, pair.y), pair.value * pair.y, atol=1e-8 * scale
        )
        mu = z_max(lift(a), CFG).value
        assert pair.value ** 2 == pytest.approx(mu, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("scale", [1e-9, 1e-11, 1e-12])
def test_small_lambda_keeps_x_along_ayy(scale):
    # lambda is compared to the tensor's largest entry, not to an absolute
    # floor: a tiny nonzero tensor still has x = A y y / lambda
    a = rand_piezo(5, scale=scale)
    pair = c_max_via_lift(a, CFG)
    v = yy_loops(a.entries, pair.y)
    assert abs(float(pair.x @ v)) / np.linalg.norm(v) >= 1.0 - 1e-12
    assert pair.value == pytest.approx(c_max_alternating(a, CFG).value, rel=1e-6)


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
            yy_loops(a.entries, pair.y), pair.value * pair.x, atol=1e-8 * scale
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


@pytest.mark.parametrize("route", [c_max_via_lift, c_max_alternating])
def test_a_failing_solve_runs_one_pass(monkeypatch, route):
    # no start of either route stalls within tol in 40 steps: the solve
    # draws its start pool once, at cfg.starts, and fails without a
    # second pass
    a = rand_piezo(4)
    seen = []
    pool = spectral._start_pool

    def recording(seed, starts, n):
        seen.append(starts)
        return pool(seed, starts, n)

    monkeypatch.setattr(spectral, "_start_pool", recording)
    with pytest.raises(NoConvergence):
        route(a, SolverConfig(starts=2, tol=1e-14, max_iters=40))
    assert seen == [2]


# ---------------------------------------------------------------------------
# batching across tensors


def mixed_batch(materials_dir):
    """Tensors of very different kinds and scales, one repeated; n = 3
    but for one n = 2 and one n = 5 tensor."""
    a = load_material(materials_dir / "08_banio3.txt").tensor
    e = gen_perturbation(3, 1e-5, SplitMix64(11))
    diff = companion(2 * a + e, e)
    r = rand_piezo(77)
    return [
        lift(load_material(materials_dir / "01_vfesb.txt").tensor),
        lift(a),
        diff,
        lift(rand_piezo(78, n=2, scale=1e-3)),
        -diff,
        SymTensor4(3, np.zeros((3,) * 4)),
        SymTensor4(3, lift(r).entries * 1e-8),
        rand_sym4(79, n=5),
        SymTensor4(3, rand_sym4(5).entries * 1e3),
        lift(a),
    ]


def mixed_piezo_batch(materials_dir):
    """Piezoelectric-type tensors of n = 2, 3 and 5, one repeated."""
    a = load_material(materials_dir / "08_banio3.txt").tensor
    return [
        load_material(materials_dir / "01_vfesb.txt").tensor,
        a,
        rand_piezo(80, n=2, scale=1e-3),
        make_piezo(3, np.zeros(27), mode="auto_symmetrize"),
        a + gen_perturbation(3, 1e-5, SplitMix64(11)),
        rand_piezo(81, n=5, scale=1e2),
        rand_piezo(77),
        a,
    ]


def assert_same_result(got, want):
    assert type(got) is type(want)
    if isinstance(want, NoConvergence):
        assert str(got) == str(want)
        assert got.best_residual == want.best_residual
        return
    for f in dataclasses.fields(want):
        g, w = getattr(got, f.name), getattr(want, f.name)
        assert g.tobytes() == w.tobytes() if isinstance(w, np.ndarray) else g == w, f.name


def solve_alone(route, t, cfg):
    try:
        return route(t, cfg)
    except NoConvergence as exc:
        return exc


def alternating_batch(tensors, cfg):
    return spectral._multistart(
        tensors, spectral._alternating_phase, spectral._c_polish, lambda *_: np.inf,
        "alternating ascent failed to reach the residual target", cfg,
    )


# None: the default budget; 954: two 53-row n = 3 tensors live at 50
# starts; 1: one slot at every n, so every later tensor of a pass enters
# by refill and counts its steps from its admission
BUDGETS = [None, 2 * (50 + 3) * 9, 1]
BATCH_CFGS = pytest.mark.parametrize(
    "cfg",
    [SolverConfig(starts=50), SolverConfig(starts=4, tol=1e-15, max_iters=10)],
    ids=["default", "no-convergence"],
)


def assert_batch_matches_alone(batch, route, tensors, cfg):
    alone = [solve_alone(route, t, cfg) for t in tensors]
    forward = batch(tensors, cfg)
    backward = batch(tensors[::-1], cfg)[::-1]
    for want, got_f, got_b in zip(alone, forward, backward):
        assert_same_result(got_f, want)
        assert_same_result(got_b, want)
    failed = [isinstance(r, NoConvergence) for r in alone]
    if cfg.max_iters == 10:
        assert any(failed) and not all(failed)  # the zero tensor still converges
    else:
        assert not any(failed)


@pytest.mark.parametrize("budget", BUDGETS)
@BATCH_CFGS
def test_z_max_batch_is_bit_identical_to_single_solves(materials_dir, monkeypatch, cfg, budget):
    if budget is not None:
        monkeypatch.setattr(spectral, "_BATCH_BUDGET", budget)
    assert_batch_matches_alone(z_max_batch, z_max, mixed_batch(materials_dir), cfg)


@pytest.mark.parametrize("budget", BUDGETS)
@BATCH_CFGS
def test_alternating_batch_is_bit_identical_to_single_solves(materials_dir, monkeypatch, cfg, budget):
    if budget is not None:
        monkeypatch.setattr(spectral, "_BATCH_BUDGET", budget)
    assert_batch_matches_alone(
        alternating_batch, c_max_alternating, mixed_piezo_batch(materials_dir), cfg
    )


# ---------------------------------------------------------------------------
# collapsing duplicate starts


def dedupe_nested(lam, Y, order):
    """Reference: the nested loop over candidates, each checked against
    every representative kept before it."""
    reps = []
    for idx in order:
        dup = False
        for j in reps:
            close = abs(lam[idx] - lam[j]) <= 1e-8 * max(1.0, abs(lam[j]))
            aligned = abs(float(Y[idx] @ Y[j])) >= 1.0 - 1e-6
            if close and aligned:
                dup = True
                break
        if not dup:
            reps.append(idx)
    return reps


def test_dedupe_non_transitive_chain():
    # a ~ b and b ~ c, but a !~ c: the representative's own band decides
    y = np.array([0.6, 0.8])
    lam = np.array([0.5, 0.5 + 0.6e-8, 0.5 + 1.2e-8])
    Y = np.array([y, -y, y])
    for order in ([0, 1, 2], [1, 0, 2], [2, 1, 0], [0, 2, 1]):
        got = spectral._dedupe_candidates(lam, Y, np.array(order))
        assert [int(g[0]) for g in got] == dedupe_nested(lam, Y, order)
    got = spectral._dedupe_candidates(lam, Y, np.array([0, 1, 2]))
    assert [g.tolist() for g in got] == [[0, 1], [2]]
    got = spectral._dedupe_candidates(lam, Y, np.array([1, 0, 2]))
    assert [g.tolist() for g in got] == [[1, 0, 2]]


def test_pick_never_falls_back_to_a_lower_cluster():
    # the lead cluster at 2 misses the residual cap while a lower converged
    # start at 1 meets it: a lower critical point is not the largest, so
    # there is no pair, and the smallest polished residual comes back
    vals = np.array([2.0, 2.0, 1.0])
    Y = np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]])
    residuals = [1e-6, 1e-7, 1e-12]
    polished = []

    def polish(i):
        polished.append(int(i))
        return vals[i], residuals[i], lambda iterations: (i, iterations)

    got = spectral._pick(vals, Y, np.array([5, 6, 7]), np.ones(3, dtype=bool), polish)
    assert got == (None, 1e-7)
    assert sorted(polished) == [0, 1]


def test_pick_reports_the_fewest_steps_of_the_winning_point():
    # starts 0 and 1 reached one critical point (y up to sign); start 0
    # ranks first by unpolished value, but start 1 got there in fewer
    # steps, so the count does not hang on rounding noise in the values
    vals = np.array([2.0, 2.0 - 1e-12, 1.0])
    Y = np.array([[0.6, 0.8], [-0.6, -0.8], [0.8, -0.6]])
    polished = []

    def polish(i):
        polished.append(int(i))
        return vals[i], 1e-14, lambda iterations: (int(i), iterations)

    got = spectral._pick(vals, Y, np.array([30, 12, 5]), np.ones(3, dtype=bool), polish)
    assert got == ((0, 12), 1e-14)
    assert polished == [0]


def test_dedupe_matches_the_nested_candidate_loop():
    rng = np.random.default_rng(8)
    for _ in range(300):
        n, s, k = rng.integers(2, 6), rng.integers(1, 60), rng.integers(1, 6)
        centers = rng.normal(size=(k, n))
        centers /= np.linalg.norm(centers, axis=1, keepdims=True)
        values = rng.normal(size=k) * 10.0 ** rng.uniform(-3, 3)
        values[rng.random(k) < 0.3] = values[0]  # distinct points, equal values
        hit = rng.integers(0, k, size=s)
        # value and angle noise straddling the 1e-8 band and 1 - 1e-6 alignment
        band = 1e-8 * np.maximum(1.0, np.abs(values[hit]))
        lam = values[hit] + band * rng.uniform(-2.0, 2.0, size=s)
        Y = centers[hit] + 10.0 ** rng.uniform(-5, -2, size=(s, 1)) * rng.normal(size=(s, n))
        Y *= rng.choice([-1.0, 1.0], size=(s, 1)) / np.linalg.norm(Y, axis=1, keepdims=True)
        for order in (np.arange(s), rng.permutation(s), np.lexsort((np.arange(s), -lam))):
            got = spectral._dedupe_candidates(lam, Y, order)
            assert [int(g[0]) for g in got] == dedupe_nested(lam, Y, order)
            assert sorted(np.concatenate(got).tolist()) == sorted(np.asarray(order).tolist())


# ---------------------------------------------------------------------------
# pinned results of both C-routes

NO_CONV = SolverConfig(starts=4, tol=1e-15, max_iters=10, seed=0)

# (index, via_lift, alternating, via_lift under NO_CONV, alternating under
# NO_CONV): a solved entry is (f"{value:.10e}", iterations), a failed one
# is the NoConvergence message, and iterations are the fewest steps among
# the starts that reached the winning point. Tensor i is
# rand_piezo(3100 + i) with n = 2 + i % 4 and entries of size
# 10^(i % 10 - 6).
# Neither route's winner rule nor its polish may move these. The
# alternating iterations count sweeps; under NO_CONV the alternating
# winners of rows 0, 6, 12 and 20 are starts that converged within the
# 10 sweeps, so none reports max_iters.
PINNED = [
    (0,
     ("7.8771675977e-07", 13),
     ("7.8771675977e-07", 5),
     "no start reached the residual target (best residual 7.112e-20)",
     ("7.8771675977e-07", 6)),
    (1,
     ("1.7892728090e-05", 28),
     ("1.7892728090e-05", 9),
     "no start reached the residual target (best residual 5.747e-15)",
     "alternating ascent failed to reach the residual target"),
    (2,
     ("2.3551345773e-04", 49),
     ("2.3551345773e-04", 21),
     "no start reached the residual target (best residual 1.616e-10)",
     "alternating ascent failed to reach the residual target"),
    (3,
     ("2.5457300278e-03", 50),
     ("2.5457300278e-03", 17),
     "no start reached the residual target (best residual 8.706e-08)",
     "alternating ascent failed to reach the residual target"),
    (4,
     ("1.1070648522e-02", 17),
     ("1.1070648522e-02", 10),
     "no start reached the residual target (best residual 8.199e-09)",
     "alternating ascent failed to reach the residual target"),
    (5,
     ("1.9315744428e-01", 50),
     ("1.9315744428e-01", 17),
     "no start reached the residual target (best residual 6.159e-04)",
     "alternating ascent failed to reach the residual target"),
    (6,
     ("1.6504480955e+00", 25),
     ("1.6504480955e+00", 8),
     "no start reached the residual target (best residual 1.762e-03)",
     ("1.6504480955e+00", 9)),
    (7,
     ("2.7945189833e+01", 61),
     ("2.7945189833e+01", 19),
     "no start reached the residual target (best residual 9.164e+00)",
     "alternating ascent failed to reach the residual target"),
    (8,
     ("7.4269549868e+01", 19),
     ("7.4269549868e+01", 13),
     "no start reached the residual target (best residual 2.039e+00)",
     "alternating ascent failed to reach the residual target"),
    (9,
     ("1.6361695269e+03", 49),
     ("1.6361695269e+03", 17),
     "no start reached the residual target (best residual 2.118e+04)",
     "alternating ascent failed to reach the residual target"),
    (10,
     ("2.3670463156e-06", 51),
     ("2.3670463156e-06", 24),
     "no start reached the residual target (best residual 4.461e-14)",
     "alternating ascent failed to reach the residual target"),
    (11,
     ("2.2308791807e-05", 105),
     ("2.2308791807e-05", 46),
     "no start reached the residual target (best residual 9.965e-12)",
     "alternating ascent failed to reach the residual target"),
    (12,
     ("1.2890005651e-04", 13),
     ("1.2890005651e-04", 4),
     "no start reached the residual target (best residual 5.814e-15)",
     ("1.2890005651e-04", 5)),
    (13,
     ("1.4192410812e-03", 53),
     ("1.4192410812e-03", 40),
     "no start reached the residual target (best residual 3.050e-13)",
     "alternating ascent failed to reach the residual target"),
    (14,
     ("1.5474208935e-02", 35),
     ("1.5474208935e-02", 14),
     "no start reached the residual target (best residual 7.507e-07)",
     "alternating ascent failed to reach the residual target"),
    (15,
     ("2.4413016676e-01", 72),
     ("2.4413016676e-01", 20),
     "no start reached the residual target (best residual 2.724e-04)",
     "alternating ascent failed to reach the residual target"),
    (16,
     ("1.3160388284e+00", 18),
     ("1.3160388284e+00", 12),
     "no start reached the residual target (best residual 1.392e-04)",
     "alternating ascent failed to reach the residual target"),
    (17,
     ("1.6911652428e+01", 42),
     ("1.6911652428e+01", 14),
     "no start reached the residual target (best residual 8.062e-01)",
     "alternating ascent failed to reach the residual target"),
    (18,
     ("1.6377190326e+02", 63),
     ("1.6377190326e+02", 21),
     "no start reached the residual target (best residual 1.863e+02)",
     "alternating ascent failed to reach the residual target"),
    (19,
     ("2.9774952740e+03", 36),
     ("2.9774952740e+03", 10),
     "no start reached the residual target (best residual 8.567e+04)",
     "alternating ascent failed to reach the residual target"),
    (20,
     ("1.3832092401e-06", 9),
     ("1.3832092401e-06", 6),
     "no start reached the residual target (best residual 1.148e-21)",
     ("1.3832092401e-06", 7)),
    (21,
     ("1.6152980932e-05", 26),
     ("1.6152980932e-05", 9),
     "no start reached the residual target (best residual 1.372e-16)",
     "alternating ascent failed to reach the residual target"),
    (22,
     ("1.9994274501e-04", 40),
     ("1.9994274501e-04", 18),
     "no start reached the residual target (best residual 2.115e-10)",
     "alternating ascent failed to reach the residual target"),
    (23,
     ("2.1106743931e-03", 66),
     ("2.1106743931e-03", 25),
     "no start reached the residual target (best residual 4.844e-08)",
     "alternating ascent failed to reach the residual target"),
]


def pinned(route, a, cfg):
    try:
        pair = route(a, cfg)
    except NoConvergence as exc:
        return str(exc)
    return (f"{pair.value:.10e}", pair.iterations)


@pytest.mark.parametrize("row", PINNED, ids=lambda row: str(row[0]))
def test_c_routes_match_pinned_results(row):
    i, lift_ok, alt_ok, lift_bad, alt_bad = row
    a = rand_piezo(3100 + i, n=2 + i % 4, scale=10.0 ** (i % 10 - 6))
    assert pinned(c_max_via_lift, a, CFG) == lift_ok
    assert pinned(c_max_alternating, a, CFG) == alt_ok
    assert pinned(c_max_via_lift, a, NO_CONV) == lift_bad
    assert pinned(c_max_alternating, a, NO_CONV) == alt_bad


def test_best_residual_is_the_eigen_residual(monkeypatch):
    # no start of any PINNED row converges under NO_CONV, so each failure
    # reports the smallest |T y^3 - (y.T y^3) y| over the pass's final
    # iterates, the quantity the residual cap measures; the loop oracle
    # rounds differently, and these residuals sit down to 1e-10 of
    # |T y^3|, hence the relative 1e-9
    phase = spectral._power_phase
    passes = []

    def recording(t, pool, tol, max_iters):
        passes.append(phase(t, pool, tol, max_iters))
        return passes[-1]

    monkeypatch.setattr(spectral, "_power_phase", recording)
    for i in range(len(PINNED)):
        t = lift(rand_piezo(3100 + i, n=2 + i % 4, scale=10.0 ** (i % 10 - 6)))
        passes.clear()
        with pytest.raises(NoConvergence) as exc_info:
            z_max(t, NO_CONV)
        (_, Y, _, conv), = passes
        assert not conv.any(), i
        want = min(np.linalg.norm(g - (y @ g) * y)
                   for y in Y[0] for g in [cubic_loops(t.entries, y)])
        assert exc_info.value.best_residual == pytest.approx(want, rel=1e-9), i


# ---------------------------------------------------------------------------
# capped configs never return a lower critical point


def capped_case_tensors():
    rng = np.random.default_rng(7)
    for i in range(120):
        n = 2 + i % 4
        raw = rng.uniform(-1.0, 1.0, n ** 3) * 10.0 ** rng.uniform(-6, 3)
        yield make_piezo(n, raw, mode="auto_symmetrize")


def test_capped_configs_fail_or_find_the_global_value():
    # a run cut short may raise, but any value it returns is the one a
    # full run finds: unconverged starts above the converged top are
    # polished instead of passed over
    capped = [NO_CONV, SolverConfig(starts=2, tol=1e-14, max_iters=40)]
    routes = [c_max_via_lift, c_max_alternating, lambda a, cfg: z_max(-lift(a), cfg)]
    for a in capped_case_tensors():
        for route in routes:
            want = route(a, CFG).value
            for cfg in capped:
                try:
                    got = route(a, cfg).value
                except NoConvergence:
                    continue
                assert abs(got - want) <= 1e-6 * abs(want), (a.entries, route, cfg)


# ---------------------------------------------------------------------------
# the (tensor, coordinate, start) kernels against row-major reference loops


def power_phase_rows(t, pool, tol, max_iters):
    """Reference: the power loop with one row per (tensor, start) and the
    coordinates last; an unconverged start reports 0 iterations."""
    k, (s, n) = t.shape[0], pool.shape
    tmats = t.reshape(k, n * n, n * n)
    lam_out = np.zeros((k, s))
    Y_out = np.empty((k, s, n))
    iters_out = np.zeros((k, s), dtype=int)
    active_out = np.ones((k, s), dtype=bool)
    live = np.arange(k)
    Y = np.tile(pool, (k, 1))
    lam_prev = np.full(k * s, np.inf)
    lam = np.zeros(k * s)
    iters = np.zeros(k * s, dtype=int)
    active = np.ones(k * s, dtype=bool)

    def retire(done):
        idx = live[done]
        for out, a in ((lam_out, lam), (Y_out, Y), (iters_out, iters), (active_out, active)):
            out[idx] = a.reshape(live.size, s, *a.shape[1:])[done]

    for it in range(1, max_iters + 1):
        pp = (Y[:, :, None] * Y[:, None, :]).reshape(-1, s, n * n)
        t2 = np.matmul(pp, tmats).reshape(-1, n, n)
        grad = np.matmul(t2, Y[:, :, None])[:, :, 0]
        lam_k = (Y * grad).sum(axis=1)
        lam[active] = lam_k[active]
        newly = active & (np.abs(lam_k - lam_prev) <= tol)
        if newly.any():
            iters[newly] = it
            active &= ~newly
            alive = active.reshape(-1, s).any(axis=1)
            if not alive.all():
                retire(~alive)
                if not alive.any():
                    break
                keep = np.repeat(alive, s)
                live, tmats = live[alive], tmats[alive]
                Y, lam, iters, active, t2, grad, lam_k = (
                    a[keep] for a in (Y, lam, iters, active, t2, grad, lam_k)
                )
        diag = np.diagonal(t2, axis1=1, axis2=2)
        off = np.abs(t2).sum(axis=2) - np.abs(diag)
        floor = 12.0 * (diag - off).min(axis=1)
        alpha = np.maximum(0.0, (spectral._SHIFT_MARGIN - floor) / 4.0)
        w = grad + alpha[:, None] * Y
        wn = np.linalg.norm(w, axis=1)
        step = active & (wn > 1e-150)
        Y[step] = w[step] / wn[step, None]
        lam_prev = lam_k
    else:
        retire(np.ones(live.size, dtype=bool))
    return lam_out, Y_out, iters_out, ~active_out


def alternating_phase_rows(a, pool, tol, max_iters):
    """Reference: the block ascent with one row per (tensor, start) and
    the coordinates last; an unconverged start reports 0 iterations."""
    k, (s, n) = a.shape[0], pool.shape
    amats = a.reshape(k, n, n * n)
    Y = np.tile(pool, (k, 1))
    X = np.tile(np.eye(n)[0], (k * s, 1))
    f_prev = np.full(k * s, -np.inf)
    f = np.zeros(k * s)
    iters = np.zeros(k * s, dtype=int)
    active = np.ones(k * s, dtype=bool)
    for it in range(1, max_iters + 1):
        pp = (Y[:, :, None] * Y[:, None, :]).reshape(k, s, n * n)
        v = np.matmul(pp, amats.transpose(0, 2, 1)).reshape(k * s, n)
        vn = np.linalg.norm(v, axis=1)
        ok = active & (vn > 1e-150)
        X[ok] = v[ok] / vn[ok, None]
        nb = np.matmul(X.reshape(k, s, n), amats).reshape(k * s, n, n)
        frob = np.linalg.norm(nb.reshape(k * s, -1), axis=1)
        b4 = np.linalg.matrix_power(nb + frob[:, None, None] * np.eye(n), 4)
        w = np.matmul(b4, Y[:, :, None])[:, :, 0]
        wn = np.linalg.norm(w, axis=1)
        step = active & (wn > 1e-150)
        Y[step] = w[step] / wn[step, None]
        f_k = (np.matmul(nb, Y[:, :, None])[:, :, 0] * Y).sum(axis=1)
        f[active] = f_k[active]
        newly = active & (np.abs(f_k - f_prev) <= tol)
        iters[newly] = it
        active &= ~newly
        if not active.any():
            break
        f_prev = f_k
    return f.reshape(k, s), Y.reshape(k, s, n), iters.reshape(k, s), ~active.reshape(k, s)


def kernel_stacks():
    """(n, piezo stack, companion stack) for n = 1..5 and k = 1..4, each
    tensor at its own scale in 1e-6..1e3."""
    rng = np.random.default_rng(12)
    for n in range(1, 6):
        for k in range(1, 5):
            tensors = [
                make_piezo(n, rng.uniform(-1.0, 1.0, n ** 3) * 10.0 ** rng.uniform(-6, 3),
                           mode="auto_symmetrize")
                for _ in range(k)
            ]
            yield (n, np.stack([a.entries for a in tensors]),
                   np.stack([lift(a).entries for a in tensors]))


@pytest.mark.parametrize("tol, max_iters", [(-1.0, 30), (1e-12, 5000)], ids=["30-steps", "converged"])
@pytest.mark.parametrize(
    "kernel, reference, lifted",
    [(spectral._power_phase, power_phase_rows, True),
     (spectral._alternating_phase, alternating_phase_rows, False)],
    ids=["power", "alternating"],
)
def test_kernels_match_the_row_major_loops(kernel, reference, lifted, tol, max_iters):
    # a negative tol disables the stall test, so every start runs
    # exactly max_iters steps; runs to convergence see max-entry
    # normalized tensors, as in the solver, since the stall test is
    # absolute
    for n, piezos, companions in kernel_stacks():
        t = companions if lifted else piezos
        if tol > 0:
            t = t / np.abs(t).max(axis=tuple(range(1, t.ndim)), keepdims=True)
        pool = spectral._start_pool(3, 8, n)
        vals, Y, iters, conv = kernel(t, pool, tol, max_iters)
        want_vals, want_Y, want_iters, want_conv = reference(t, pool, tol, max_iters)
        assert Y.shape == want_Y.shape
        np.testing.assert_array_equal(conv, want_conv)
        # a stall test decided in the last bits may fall one step apart;
        # such a start's value moved by at most about tol in that step,
        # its y by up to sqrt(tol)
        want_iters = np.where(want_conv, want_iters, max_iters)
        assert np.abs(iters - want_iters).max() <= (1 if tol > 0 else 0)
        same = iters == want_iters
        scale = np.abs(want_vals).max(axis=1, keepdims=True)
        gap = np.abs(vals - want_vals)
        assert np.all((gap <= 1e-12 * scale)[same])
        assert np.all(gap[~same] <= 10.0 * tol)
        np.testing.assert_allclose(Y[same], want_Y[same], rtol=0.0, atol=1e-10)


def test_alternating_kernel_takes_e1_where_ayy_vanishes():
    # A e_3 e_3 = 0, so the basis start e_3 has no closed-form x on its
    # first sweep: the kernel takes x = e_1 there, which the reference's
    # carried x still holds, and N(e_1) moves y off e_3
    raw = rand_piezo(41).entries.copy()
    raw[:, 2, 2] = 0.0
    a = make_piezo(3, raw, mode="strict").entries[None]
    pool = spectral._start_pool(3, 8, 3)
    vals, Y, _, _ = spectral._alternating_phase(a, pool, -1.0, 30)
    want_vals, want_Y, _, _ = alternating_phase_rows(a, pool, -1.0, 30)
    assert abs(Y[0, -1, 2]) < 1.0 - 1e-3
    np.testing.assert_allclose(vals, want_vals, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(Y, want_Y, rtol=0.0, atol=1e-10)


def test_alternating_sweeps_never_lower_the_objective(monkeypatch):
    # the x-update maximizes x A y y for fixed y, and each power step on
    # the positive semidefinite B = N(x) + ||N(x)||_F I raises y N(x) y,
    # so no start's objective falls from one sweep to the next beyond
    # rounding (at most 10 ulps of the largest entry on these stacks);
    # the tensors are not normalized, so this holds at every scale
    trace = []
    queue = spectral._queue

    def recording(mats, pool, max_iters, step):
        def traced(amats, f, *rest):
            newly = step(amats, f, *rest)
            trace.append(f.copy())
            return newly
        return queue(mats, pool, max_iters, traced)

    monkeypatch.setattr(spectral, "_queue", recording)
    for n, piezos, _ in kernel_stacks():
        trace.clear()
        spectral._alternating_phase(piezos, spectral._start_pool(5, 8, n), -1.0, 40)
        f = np.stack(trace)
        scale = np.abs(piezos).max(axis=(1, 2, 3))[:, None]
        assert np.all(np.diff(f, axis=0) >= -32 * np.finfo(float).eps * scale), n


@pytest.mark.parametrize("budget, ahead", [(None, 0), (1, 1)], ids=["step-0", "refill"])
def test_starts_at_an_eigenvector_stall_on_their_second_step(monkeypatch, budget, ahead):
    # the basis vectors are exact Z-eigenvectors of a diagonal quartic, and
    # the shifted step maps each to (d_i + alpha) e_i with d_i + alpha > 0,
    # so a basis start keeps its bits and its value stalls on the second
    # step; with one slot the diagonal tensor enters by refill behind a
    # slower tensor and counts its steps from there
    if budget is not None:
        monkeypatch.setattr(spectral, "_BATCH_BUDGET", budget)
    d = [1.0, 0.5, 0.25]
    diagonal = np.zeros((3,) * 4)
    diagonal[(np.arange(3),) * 4] = d
    slow = lift(rand_piezo(31)).entries
    stack = np.stack([slow / np.abs(slow).max()] * ahead + [diagonal])
    pool = spectral._start_pool(0, 8, 3)
    vals, Y, iters, conv = spectral._power_phase(stack, pool, 1e-12, 5000)
    assert conv.all()
    if ahead:
        assert iters[0].min() > 2
    np.testing.assert_array_equal(iters[-1, 8:], 2)
    np.testing.assert_array_equal(vals[-1, 8:], d)
    np.testing.assert_array_equal(Y[-1, 8:], np.eye(3))
    # the generic starts converge later
    assert iters[-1, :8].min() > 2

