"""Interval arithmetic, the three perturbation bounds, and their nesting."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ceig import (
    BoundReport,
    CeigError,
    DimensionMismatch,
    Interval,
    NegativeInput,
    PropertyViolation,
    RadicandNegative,
    SolverConfig,
    ValidationError,
    bound_additive,
    bound_quadratic,
    bound_spectral,
    c_max_alternating,
    c_max_via_lift,
    check_nesting,
    full_report,
    full_reports,
    gen_perturbation,
    lift,
    make_piezo,
    parse_tensor_text,
    unfold_spectral_norm,
    z_max,
)
from ceig.rng import SplitMix64

from conftest import quartic_loops, rand_piezo, rand_unit, yy_loops

CFG = SolverConfig(starts=12, tol=1e-12, max_iters=5000, seed=0)


def seeded_perturbation(seed, epsilon, n=3):
    return gen_perturbation(n, epsilon, SplitMix64(seed))


# ---------------------------------------------------------------------------
# Interval


def test_interval_accessors():
    iv = Interval(1.0, 3.5)
    assert iv.hi - iv.lo == 2.5
    assert iv.contains(1.0) and iv.contains(3.5) and iv.contains(2.0)
    assert not iv.contains(3.5 + 1e-6)
    assert iv.contains(3.5 + 1e-6, slack=1e-5)
    assert iv.nests_in(Interval(0.0, 4.0))
    assert not iv.nests_in(Interval(1.5, 4.0))
    assert iv.nests_in(Interval(1.0 + 1e-10, 4.0), slack=1e-9)


def test_interval_rejects_reversed_endpoints():
    # any reversal raises, however small against the endpoints: the
    # library never builds a reversed interval, so there is no band
    for lo, hi in [(1.0, 0.5), (1.0, 1.0 - 1e-13), (1e-6 + 5e-13, 1e-6), (1e6 * (1 + 4e-16), 1e6)]:
        with pytest.raises(PropertyViolation):
            Interval(lo, hi)
    assert Interval(1e-6, 1e-6).lo == 1e-6


# ---------------------------------------------------------------------------
# the three bounds on scalars


def test_bound_additive_examples():
    assert bound_additive(5.0, 0.0) == Interval(5.0, 5.0)
    assert bound_additive(5.0, 5.0) == Interval(0.0, 10.0)
    with pytest.raises(NegativeInput):
        bound_additive(-1.0, 0.0)
    with pytest.raises(NegativeInput):
        bound_additive(1.0, -0.1)


def test_bound_additive_lower_endpoint_not_clamped():
    iv = bound_additive(1.0, 4.0)
    assert iv.lo == -3.0


def test_bound_spectral_examples():
    assert bound_spectral(5.0, 0.0) == Interval(5.0, 5.0)
    raw = np.zeros((3, 3, 3))
    raw[0, 0, 0] = 0.3
    e = make_piezo(3, raw, mode="strict")
    iv = bound_spectral(2.0, unfold_spectral_norm(e))
    assert iv.lo == pytest.approx(1.7, abs=1e-12)
    assert iv.hi == pytest.approx(2.3, abs=1e-12)
    with pytest.raises(NegativeInput):
        bound_spectral(2.0, -0.3)


def test_bound_quadratic_examples():
    for lam in (0.0, 1.0, 27.4628):
        iv = bound_quadratic(lam, 0.0, 0.0)
        assert iv.lo == pytest.approx(lam, abs=1e-12)
        assert iv.hi == pytest.approx(lam, abs=1e-12)


def test_bound_quadratic_zero_base_tensor():
    # A = 0: the interval's upper end is exactly the C-eigenvalue of E
    e = seeded_perturbation(5, 0.7)
    s_e = lift(e)
    zmin = -z_max(-s_e, CFG).value
    zmax = z_max(s_e, CFG).value
    lam_e = c_max_via_lift(e, CFG).value
    iv = bound_quadratic(0.0, zmin, zmax)
    assert iv.lo == pytest.approx(np.sqrt(max(zmin, 0.0)), abs=1e-12)
    assert iv.hi == pytest.approx(lam_e, abs=1e-8)


def test_bound_quadratic_rejections():
    with pytest.raises(RadicandNegative):
        bound_quadratic(1.0, -1.1, 0.0)
    with pytest.raises(ValidationError):
        bound_quadratic(1.0, 0.5, 0.2)
    with pytest.raises(NegativeInput):
        bound_quadratic(-1.0, 0.0, 0.0)
    # rounding-level inversion of the extremes is forgiven
    iv = bound_quadratic(2.0, 1e-13, 0.0)
    assert iv.lo == iv.hi == 2.0


def test_bound_quadratic_clamps_inside_band():
    iv = bound_quadratic(0.0, -1e-9, 1.0)
    assert iv.lo == 0.0


def quadratic_outcome(lambda_a, zmin_diff, zmax_diff):
    try:
        iv = bound_quadratic(lambda_a, zmin_diff, zmax_diff)
    except (RadicandNegative, ValidationError) as exc:
        return type(exc)
    return iv.lo, iv.hi


@pytest.mark.parametrize(
    "inputs",
    [(1.0, -1.1, 0.0), (1.0, -2.0, 0.0), (1.0, 0.5, 0.2), (1.0, 50.0, 0.0),
     (2.0, 1e-13, 0.0), (0.0, -1e-9, 1.0), (1.0, -1.0 - 1e-9, 0.5),
     (27.4628, -3.0, 5.0), (0.0, 0.0, 0.0)],
)
def test_bound_quadratic_outcome_is_scale_free(inputs):
    # lambda_a scales like the tensors, the companion-difference extremes
    # like their square: every outcome, raise or interval, scales along
    lambda_a, zmin_diff, zmax_diff = inputs
    want = quadratic_outcome(lambda_a, zmin_diff, zmax_diff)
    for t in 10.0 ** np.arange(-6, 4):
        got = quadratic_outcome(t * lambda_a, t * t * zmin_diff, t * t * zmax_diff)
        if isinstance(want, tuple):
            assert got == pytest.approx((t * want[0], t * want[1]), rel=1e-12, abs=0.0), t
        else:
            assert got is want, t


# ---------------------------------------------------------------------------
# full_report


def test_full_report_zero_perturbation_degenerates():
    a = rand_piezo(60)
    r = full_report(a, make_piezo(3, np.zeros(27)), CFG)
    lam = c_max_via_lift(a, CFG).value
    for iv in (r.interval_21, r.interval_24, r.interval_25):
        assert iv.lo == pytest.approx(lam, abs=1e-9)
        assert iv.hi == pytest.approx(lam, abs=1e-9)
        assert iv.hi - iv.lo <= 1e-9


def test_full_report_zero_base():
    e = seeded_perturbation(6, 0.5)
    r = full_report(make_piezo(3, np.zeros(27)), e, CFG)
    assert r.lambda_a == 0.0
    assert r.interval_21.lo == pytest.approx(-r.lambda_e, abs=1e-12)
    assert r.interval_21.hi == pytest.approx(r.lambda_e, abs=1e-12)
    assert r.interval_25.hi == pytest.approx(r.lambda_e, abs=1e-8)


def test_full_report_single_entry_line():
    # one-dimensional case: the difference quartic is a single number, so
    # the quadratic interval collapses onto the perturbed eigenvalue
    a = make_piezo(1, [2.0])
    e = make_piezo(1, [0.1])
    r = full_report(a, e, CFG)
    assert c_max_via_lift(a + e, CFG).value == pytest.approx(2.1, abs=1e-12)
    assert r.interval_25.lo == pytest.approx(2.1, abs=1e-9)
    assert r.interval_25.hi == pytest.approx(2.1, abs=1e-9)


def test_full_report_single_entry_in_three_dims():
    # embedded in n=3 the difference quartic also attains zero, so the
    # lower end stays at the unperturbed eigenvalue
    raw_a = np.zeros((3, 3, 3))
    raw_a[0, 0, 0] = 2.0
    raw_e = np.zeros((3, 3, 3))
    raw_e[0, 0, 0] = 0.1
    r = full_report(
        make_piezo(3, raw_a, mode="strict"), make_piezo(3, raw_e, mode="strict"), CFG
    )
    assert r.interval_25.lo == pytest.approx(2.0, abs=1e-8)
    assert r.interval_25.hi == pytest.approx(2.1, abs=1e-8)


def test_full_report_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        full_report(rand_piezo(1, n=3), rand_piezo(2, n=2), CFG)


def test_report_invariants_reject_bad_scalars():
    kw = dict(lambda_e=0.0, norm_e2=0.0, zmin_diff=0.0, zmax_diff=0.0)
    with pytest.raises(NegativeInput):
        import ceig

        ceig.BoundReport(lambda_a=-1.0, **kw)
    with pytest.raises(RadicandNegative):
        import ceig

        ceig.BoundReport(lambda_a=1.0, **{**kw, "zmin_diff": -1.5})


def test_report_rejects_inverted_difference_extremes():
    with pytest.raises(ValidationError, match="exceeds zmax_diff"):
        BoundReport(1.0, 0.0, 0.0, zmin_diff=0.5, zmax_diff=0.2)
    # a rounding-level inversion is forgiven, as in bound_quadratic
    assert BoundReport(2.0, 0.0, 0.0, 1e-13, 0.0).interval_25 == Interval(2.0, 2.0)


def test_report_intervals_follow_from_its_scalars():
    for s in range(4):
        r = full_report(rand_piezo(130 + s), seeded_perturbation(140 + s, 10.0 ** -s), CFG)
        assert BoundReport(r.lambda_a, r.lambda_e, r.norm_e2, r.zmin_diff, r.zmax_diff) == r


@pytest.mark.parametrize("seed, scale", [(2, 1e6), (5, 1e6), (4, 1e10)])
def test_full_report_of_cancelling_perturbation_at_large_scale(seed, scale):
    # A + E = 0: the (2.5) radicand lambda_a^2 + zmin_diff is pure rounding
    # of size ~1e-16 lambda_a^2, far beyond an absolute band at this scale
    a = rand_piezo(seed, scale=scale)
    r = full_report(a, -a)
    assert r.interval_25.lo == 0.0
    assert r.interval_21.contains(0.0)


@given(
    st.integers(1, 5),
    st.sampled_from([1e-6, 1.0, 1e3]),
    st.sampled_from([1.0, 1e-3, 1e-6]),
    st.integers(0, 2 ** 32),
)
@settings(max_examples=60)
def test_aligned_perturbation_attains_every_upper_end(n, scale, ratio, seed):
    # E = e x_A (y_A y_A^T) from A's top C-pair gives lambda(A + E) =
    # lambda_A + e, lambda_E = ||E||_2 = e and zmax_diff = 2 e lambda_A + e^2,
    # so all three upper ends are attained; zmax_diff carries the
    # cancellation of lift(A + E) - lift(A)
    a = rand_piezo(seed, n=n, scale=scale)
    top = c_max_via_lift(a, CFG)
    e = ratio * top.value
    raw = (e * top.x)[:, None, None] * np.outer(top.y, top.y)[None]  # symmetric in (j, k)
    aligned = make_piezo(n, raw, mode="strict")
    [entry] = full_reports([(a, aligned)], CFG)
    if isinstance(entry, CeigError):
        raise entry
    report, tilde = entry
    want = top.value + e
    attained = [tilde.value, c_max_alternating(a + aligned, CFG).value,
                report.interval_21.hi, report.interval_24.hi, report.interval_25.hi]
    assert all(abs(v - want) <= 1e-14 * want for v in attained), attained
    assert abs(report.lambda_e - e) <= 1e-14 * e
    assert abs(report.norm_e2 - e) <= 1e-14 * e
    zmax = 2.0 * e * top.value + e * e
    assert abs(report.zmax_diff - zmax) <= 1e-9 * zmax


# ---------------------------------------------------------------------------
# containment and nesting


def test_containment_and_nesting_random_batch():
    for s in range(4):
        a = rand_piezo(70 + s)
        for epsilon in (1.0, 1e-2, 1e-4):
            e = seeded_perturbation(80 + s, epsilon)
            r = full_report(a, e, CFG)
            lam_tilde = c_max_via_lift(a + e, CFG).value
            for iv in (r.interval_21, r.interval_24, r.interval_25):
                assert iv.contains(lam_tilde, slack=1e-8)
            assert check_nesting(r)
            assert r.lambda_a ** 2 + r.zmin_diff >= -1e-8


def test_nesting_negative_control():
    a = rand_piezo(90)
    r = full_report(a, seeded_perturbation(91, 0.1), CFG)
    assert check_nesting(r)
    tampered = SimpleNamespace(
        interval_21=r.interval_21,
        interval_24=r.interval_24,
        interval_25=Interval(r.interval_25.lo, r.interval_21.hi + 1e-5),
    )
    assert not check_nesting(tampered)


def test_banio3_additive_bound_contains_perturbed_value(materials_dir):
    a, _ = parse_tensor_text((materials_dir / "08_banio3.txt").read_text())
    e = seeded_perturbation(17, 1e-1)
    lambda_a = c_max_via_lift(a, CFG).value
    lambda_e = c_max_via_lift(e, CFG).value
    iv = bound_additive(lambda_a, lambda_e)
    assert iv.hi - iv.lo == pytest.approx(2.0 * lambda_e, rel=1e-12)
    assert iv.contains(c_max_via_lift(a + e, CFG).value, slack=1e-8)


def test_spectral_interval_always_contains_additive():
    for s in range(6):
        a = rand_piezo(110 + s)
        e = seeded_perturbation(120 + s, 10.0 ** -(s % 3))
        r = full_report(a, e, CFG)
        assert r.interval_21.nests_in(r.interval_24, slack=1e-10)
        assert r.lambda_e <= r.norm_e2 + 1e-10


# ---------------------------------------------------------------------------
# structural identities behind the bounds


def test_companion_difference_expansion():
    # the difference of companions evaluates as the companion of E plus
    # twice the cross term between the two quadratic maps
    a = rand_piezo(130)
    e = seeded_perturbation(131, 0.3)
    diff = lift(a + e) - lift(a)
    for s in range(50):
        y = rand_unit(4000 + s)
        lhs = quartic_loops(diff.entries, y)
        rhs = quartic_loops(lift(e).entries, y) + 2.0 * float(
            yy_loops(a.entries, y) @ yy_loops(e.entries, y)
        )
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


def test_linear_scaling_of_interval_half_widths():
    e = seeded_perturbation(140, 1.0)
    lam1 = c_max_via_lift(e, CFG).value
    norm1 = unfold_spectral_norm(e)
    for t in (1e-1, 1e-3, 1e-5):
        te = make_piezo(3, t * e.entries, mode="strict")
        assert c_max_via_lift(te, CFG).value == pytest.approx(t * lam1, rel=1e-10)
        assert unfold_spectral_norm(te) == pytest.approx(t * norm1, rel=1e-10)


def test_widths_shrink_with_epsilon():
    a = rand_piezo(150)
    e1 = seeded_perturbation(151, 1.0)
    e2 = make_piezo(3, 0.1 * e1.entries, mode="strict")
    r1 = full_report(a, e1, CFG)
    r2 = full_report(a, e2, CFG)
    for name in ("interval_21", "interval_24"):
        iv1, iv2 = getattr(r1, name), getattr(r2, name)
        assert iv2.hi - iv2.lo <= iv1.hi - iv1.lo
