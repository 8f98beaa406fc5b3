"""Tensor-core algebra against hand values and loop-summation oracles."""

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ceig import (
    BadLength,
    DimensionMismatch,
    NonFinite,
    ParseError,
    PiezoTensor,
    SymTensor4,
    SymmetryViolation,
    lift,
    make_piezo,
    parse_tensor_text,
    unfold_spectral_norm,
)
from ceig.tensors import unfold_gram

from conftest import (
    cubic_loops,
    format_tensor_text,
    lift_loops,
    quartic_loops,
    rand_piezo,
    rand_unit,
    xay_loops,
    yy_loops,
)


def single_entry(n, i, j, k, value):
    raw = np.zeros((n, n, n))
    raw[i, j, k] = value
    raw[i, k, j] = value
    return make_piezo(n, raw, mode="strict")


@st.composite
def piezo_tensors(draw, max_n=4):
    n = draw(st.integers(min_value=1, max_value=max_n))
    vals = draw(
        st.lists(
            st.floats(min_value=-100.0, max_value=100.0),
            min_size=n ** 3,
            max_size=n ** 3,
        )
    )
    return make_piezo(n, np.array(vals), mode="auto_symmetrize")


def vectors_for(n, seed):
    return rand_unit(seed, n)


# ---------------------------------------------------------------------------
# construction


def test_make_piezo_identity_case():
    t = make_piezo(1, [5.0], mode="strict")
    assert t.entries[0, 0, 0] == 5.0


def test_make_piezo_symmetry_average():
    raw = np.zeros((2, 2, 2))
    raw[0, 0, 1] = 1.0  # raw_112 = 1, raw_121 = 0
    t = make_piezo(2, raw, mode="auto_symmetrize")
    assert t.entries[0, 0, 1] == 0.5
    assert t.entries[0, 1, 0] == 0.5


def test_make_piezo_strict_rejects_violation():
    raw = np.zeros((2, 2, 2))
    raw[0, 0, 1] = 1.0
    with pytest.raises(SymmetryViolation, match=r"raw\[1,1,2\]"):
        make_piezo(2, raw, mode="strict")


def test_make_piezo_bad_length_and_nonfinite():
    with pytest.raises(BadLength):
        make_piezo(2, [1.0, 2.0])
    with pytest.raises(NonFinite):
        make_piezo(1, [np.nan])
    with pytest.raises(BadLength):
        make_piezo(0, [])
    with pytest.raises(ValueError):
        make_piezo(1, [1.0], mode="sloppy")


def test_piezo_tensor_operators():
    a = rand_piezo(1, n=3)
    b = rand_piezo(2, n=3)
    np.testing.assert_array_equal((a + b).entries, a.entries + b.entries)
    np.testing.assert_array_equal((a - b).entries, a.entries - b.entries)
    np.testing.assert_array_equal((2.0 * a).entries, 2.0 * a.entries)
    np.testing.assert_array_equal((-a).entries, -a.entries)
    with pytest.raises(DimensionMismatch):
        a + rand_piezo(3, n=2)


def test_piezo_entries_are_immutable():
    a = rand_piezo(4)
    with pytest.raises(ValueError):
        a.entries[0, 0, 0] = 1.0


def test_sym_tensor4_rejects_asymmetric():
    bad = np.zeros((2, 2, 2, 2))
    bad[0, 0, 0, 1] = 1.0
    with pytest.raises(SymmetryViolation):
        SymTensor4(2, bad)


@given(piezo_tensors())
def test_auto_symmetrize_always_symmetric(a):
    np.testing.assert_array_equal(a.entries, a.entries.transpose(0, 2, 1))


# ---------------------------------------------------------------------------
# contractions: the loop oracles that the solver tests check against, on
# hand values and against einsum


def test_apply_yy_examples():
    a = single_entry(3, 0, 0, 0, 2.0)
    np.testing.assert_array_equal(yy_loops(a.entries, [1.0, 0.0, 0.0]), [2.0, 0.0, 0.0])

    zero = make_piezo(3, np.zeros(27))
    np.testing.assert_array_equal(yy_loops(zero.entries, [0.3, -1.0, 2.0]), np.zeros(3))

    a = single_entry(3, 0, 1, 2, 1.0)  # a_123 = a_132 = 1
    y = np.array([0.0, 1.0, 1.0]) / np.sqrt(2.0)
    np.testing.assert_allclose(yy_loops(a.entries, y), [1.0, 0.0, 0.0], atol=1e-15)


def test_apply_xay_examples():
    a = single_entry(3, 0, 0, 0, 2.0)
    e1 = np.array([1.0, 0.0, 0.0])
    np.testing.assert_array_equal(xay_loops(a.entries, e1, e1), [2.0, 0.0, 0.0])
    np.testing.assert_array_equal(xay_loops(a.entries, np.zeros(3), e1), np.zeros(3))

    a2 = single_entry(2, 0, 0, 1, 1.0)  # a_112 = a_121 = 1
    np.testing.assert_array_equal(
        xay_loops(a2.entries, [1.0, 0.0], [1.0, 0.0]), [0.0, 1.0]
    )


def test_form_xayy_examples():
    a = single_entry(3, 0, 0, 0, 2.0)
    e1 = np.array([1.0, 0.0, 0.0])
    assert e1 @ yy_loops(a.entries, e1) == 2.0
    assert np.zeros(3) @ yy_loops(a.entries, e1) == 0.0

    a = single_entry(3, 0, 1, 2, 1.0)
    y = np.array([0.0, 1.0, 1.0]) / np.sqrt(2.0)
    assert e1 @ yy_loops(a.entries, y) == pytest.approx(1.0, abs=1e-14)


@given(piezo_tensors(), st.integers(0, 2 ** 32))
@settings(max_examples=60)
def test_contractions_match_loop_oracles(a, vec_seed):
    y = vectors_for(a.n, vec_seed)
    x = vectors_for(a.n, vec_seed + 1)
    tol = 1e-10 * max(1.0, float(np.abs(a.entries).max()))
    ayy = yy_loops(a.entries, y)
    xay = xay_loops(a.entries, x, y)
    np.testing.assert_allclose(ayy, np.einsum("ijk,j,k->i", a.entries, y, y), atol=tol)
    np.testing.assert_allclose(xay, np.einsum("jki,j,k->i", a.entries, x, y), atol=tol)
    assert float(x @ ayy) == pytest.approx(float(y @ xay), abs=tol)


# ---------------------------------------------------------------------------
# lifting


def test_lift_single_entry():
    a = single_entry(2, 0, 0, 0, 3.0)
    t = lift(a)
    expected = np.zeros((2, 2, 2, 2))
    expected[0, 0, 0, 0] = 9.0
    np.testing.assert_array_equal(t.entries, expected)


def test_lift_zero():
    t = lift(make_piezo(2, np.zeros(8)))
    np.testing.assert_array_equal(t.entries, np.zeros((2, 2, 2, 2)))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_lift_matches_loop_oracle(n):
    a = rand_piezo(100 + n, n=n)
    t = lift(a)
    np.testing.assert_allclose(t.entries, lift_loops(a.entries), atol=1e-13)


def test_lift_symmetry_is_exact():
    a = rand_piezo(11, n=3)
    t = lift(a).entries
    for perm in itertools.permutations(range(4)):
        np.testing.assert_array_equal(t, t.transpose(perm))


@pytest.mark.parametrize("n", [2, 3])
def test_sym_tensor4_rejects_one_ulp_off_its_sorted_entry(n):
    t = lift(rand_piezo(18, n=n)).entries
    for idx in itertools.product(range(n), repeat=4):
        if list(idx) == sorted(idx):
            continue
        bad = t.copy()
        bad[idx] = np.nextafter(bad[idx], np.inf)
        with pytest.raises(SymmetryViolation, match=re.escape(f"entry {idx} differs")):
            SymTensor4(n, bad)


def test_lift_quartic_identity():
    # companion quartic equals the squared norm of A y y, the identity
    # that makes the lifting useful in the first place
    a = rand_piezo(12, n=3)
    t = lift(a)
    for s in range(100):
        y = rand_unit(1000 + s)
        lhs = quartic_loops(t.entries, y)
        rhs = float(np.sum(yy_loops(a.entries, y) ** 2))
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)
        assert lhs >= -1e-10


# ---------------------------------------------------------------------------
# quartic evaluation


def test_eval_quartic_examples():
    raw = np.zeros((2, 2, 2, 2))
    raw[0, 0, 0, 0] = 4.0
    t = SymTensor4(2, raw)
    assert quartic_loops(t.entries, [1.0, 0.0]) == 4.0
    assert quartic_loops(t.entries, [0.0, 0.0]) == 0.0

    a = single_entry(3, 0, 0, 0, 2.0)
    lifted = lift(a)
    for tval in (-2.0, 0.5, 3.0):
        assert quartic_loops(lifted.entries, [tval, 0.0, 0.0]) == pytest.approx(
            4.0 * tval ** 4, rel=1e-12
        )


def test_quartic_homogeneity():
    t = lift(rand_piezo(13, n=3))
    y = rand_unit(14)
    base = quartic_loops(t.entries, y)
    for s in (-2.0, 0.5, 3.0):
        assert quartic_loops(t.entries, s * y) == pytest.approx(s ** 4 * base, rel=1e-10)


def test_apply_cubic_examples():
    raw = np.zeros((2, 2, 2, 2))
    raw[0, 0, 0, 0] = 4.0
    t = SymTensor4(2, raw)
    np.testing.assert_array_equal(cubic_loops(t.entries, [1.0, 0.0]), [4.0, 0.0])
    zero = np.zeros((2, 2, 2, 2))
    np.testing.assert_array_equal(cubic_loops(zero, [1.0, 2.0]), [0.0, 0.0])


def test_cubic_quartic_consistency():
    t = lift(rand_piezo(15, n=3))
    for s in range(20):
        y = rand_unit(2000 + s)
        ty3 = cubic_loops(t.entries, y)
        np.testing.assert_allclose(
            ty3, np.einsum("ijkl,j,k,l->i", t.entries, y, y, y), atol=1e-12
        )
        assert float(y @ ty3) == pytest.approx(
            quartic_loops(t.entries, y), rel=1e-12, abs=1e-14
        )


# ---------------------------------------------------------------------------
# difference


def test_sub_trivial():
    t = lift(rand_piezo(16, n=2))
    zero = SymTensor4(2, np.zeros((2, 2, 2, 2)))
    np.testing.assert_array_equal((t - t).entries, zero.entries)
    np.testing.assert_array_equal((t - zero).entries, t.entries)
    with pytest.raises(DimensionMismatch):
        t - lift(rand_piezo(17, n=3))


def test_sub_single_entry_hand_expansion():
    # (c + e)^2 - c^2 = 2 c e + e^2 at the 1111 slot, nothing else
    c, e = 2.0, 0.1
    a = single_entry(2, 0, 0, 0, c)
    e_t = single_entry(2, 0, 0, 0, e)
    diff = lift(a + e_t) - lift(a)
    expected = np.zeros((2, 2, 2, 2))
    expected[0, 0, 0, 0] = 2.0 * c * e + e * e
    np.testing.assert_allclose(diff.entries, expected, atol=1e-15)


# ---------------------------------------------------------------------------
# slice-unfolding spectral norm


def test_unfold_norm_single_entry():
    e = single_entry(3, 0, 0, 0, 0.3)
    assert unfold_spectral_norm(e) == pytest.approx(0.3, rel=1e-12)


def test_unfold_norm_identity_slice():
    raw = np.zeros((3, 3, 3))
    raw[0] = np.eye(3)
    e = make_piezo(3, raw, mode="strict")
    assert unfold_spectral_norm(e) == pytest.approx(np.sqrt(3.0), rel=1e-12)


def test_unfold_norm_against_svd_oracle():
    for s in range(50):
        e = rand_piezo(3000 + s, n=3)
        norm = unfold_spectral_norm(e)
        sigma = np.linalg.svd(e.entries.reshape(3, 9), compute_uv=False)[0]
        assert norm == pytest.approx(float(sigma), rel=1e-10)
        fro = float(np.linalg.norm(e.entries))
        slice_max = max(
            np.linalg.norm(e.entries[i], 2) for i in range(3)
        )
        assert slice_max - 1e-10 <= norm <= fro + 1e-10


def test_unfold_norm_of_small_tensors_against_svd_oracle():
    # perturbation-sized E: the Gram entries are ~scale^2, so any
    # absolute stopping threshold on them would return a wrong norm
    for s in range(20):
        scale = 10.0 ** -(s % 10)
        e = rand_piezo(3300 + s, n=2 + s % 4, scale=scale)
        sigma = np.linalg.svd(e.entries.reshape(e.n, -1), compute_uv=False)[0]
        assert unfold_spectral_norm(e) == pytest.approx(float(sigma), rel=1e-10)


def test_unfold_gram_is_psd_and_symmetric():
    e = rand_piezo(31, n=4)
    g = unfold_gram(e)
    np.testing.assert_allclose(g, g.T, atol=1e-14)
    assert np.all(np.linalg.eigvalsh(g) >= -1e-12)


# ---------------------------------------------------------------------------
# text format


def test_parse_minimal_file():
    t, name = parse_tensor_text("n 1\n1 1 1 5.0\n")
    assert t.n == 1 and t.entries[0, 0, 0] == 5.0 and name is None


def test_parse_empty_body_is_zero_tensor():
    t, _ = parse_tensor_text("n 3\n")
    np.testing.assert_array_equal(t.entries, np.zeros((3, 3, 3)))


def test_parse_comments_name_and_symmetrization():
    text = """
# a comment
n 2
name demo   tensor
1 1 2 1.0   # single-sided entry gets averaged
"""
    t, name = parse_tensor_text(text)
    assert name == "demo   tensor"
    assert t.entries[0, 0, 1] == 0.5
    assert t.entries[0, 1, 0] == 0.5


def test_parse_strict_keeps_given_values():
    text = "n 2 strict\n1 1 2 1.0\n1 2 1 1.0\n"
    t, _ = parse_tensor_text(text)
    assert t.entries[0, 0, 1] == 1.0


def test_parse_errors():
    with pytest.raises(ParseError, match=r"f:2: expected 'i j k value'"):
        parse_tensor_text("n 3\n1 1 x\n", path="f")
    with pytest.raises(ParseError, match=r"bad index"):
        parse_tensor_text("n 3\n1 1 x 2.0\n")
    with pytest.raises(ParseError, match=r"bad value"):
        parse_tensor_text("n 3\n1 1 1 two\n")
    with pytest.raises(ParseError, match=r"out of range"):
        parse_tensor_text("n 2\n1 1 3 2.0\n")
    with pytest.raises(ParseError, match=r"duplicate"):
        parse_tensor_text("n 2\n1 1 2 2.0\n1 1 2 3.0\n")
    with pytest.raises(ParseError, match=r"missing 'n <dim>'"):
        parse_tensor_text("# nothing\n")
    with pytest.raises(ParseError, match=r"header"):
        parse_tensor_text("m 3\n")
    with pytest.raises(ParseError, match=r"unknown header flag"):
        parse_tensor_text("n 3 lax\n")
    with pytest.raises(ParseError, match=r"empty name"):
        parse_tensor_text("n 3\nname\n")
    # strict violations surface as a parse error at the header line
    with pytest.raises(ParseError, match=r"f:1: strict"):
        parse_tensor_text("n 2 strict\n1 1 2 1.0\n", path="f")


def test_parse_rejects_non_finite_value_at_its_line():
    for token in ("nan", "inf", "-inf", "1e400"):
        with pytest.raises(ParseError, match=rf"^f:3: non-finite value '{token}'$"):
            parse_tensor_text(f"n 2\n1 1 1 1.0\n1 2 2 {token}\n", path="f")


def test_format_parse_round_trip():
    a = rand_piezo(77, n=3)
    text = format_tensor_text(a, name="roundtrip")
    back, name = parse_tensor_text(text)
    assert name == "roundtrip"
    np.testing.assert_array_equal(back.entries, a.entries)


@given(piezo_tensors(max_n=3))
@settings(max_examples=40)
def test_round_trip_any_tensor(a):
    back, _ = parse_tensor_text(format_tensor_text(a))
    np.testing.assert_array_equal(back.entries, a.entries)
