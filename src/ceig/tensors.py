"""Piezoelectric-type tensors: value types, the fourth-order companion,
the slice-unfolding norm and the text format.

A piezoelectric-type tensor is an order-3 real tensor A = (a_ijk) that is
symmetric in its last two indices. The symmetric fourth-order companion
of two such tensors sums products of their horizontal slices and then
fully symmetrises; the quartic form of lift(A), A's companion with
itself, encodes the squared largest coupling constant of A on the unit
sphere (see :mod:`ceig.spectral`).

Dense row-major storage throughout: dimensions in every intended use are
tiny (n <= 5), so n^3 / n^4 arrays beat any folded scheme.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    BadLength,
    DimensionMismatch,
    NonFinite,
    ParseError,
    SymmetryViolation,
)


@lru_cache(maxsize=8)
def _sorted_index(n):
    """Flat position of each entry's index-sorted representative among
    the n^4 entries: an array is invariant under all 24 index
    permutations exactly when it equals its gather through this."""
    idx = np.indices((n,) * 4).reshape(4, -1)
    flat = np.ravel_multi_index(np.sort(idx, axis=0), (n,) * 4)
    flat.setflags(write=False)
    return flat


def _freeze(arr):
    arr = np.ascontiguousarray(arr, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class PiezoTensor:
    """Order-3, dimension-n real tensor with a_ijk == a_ikj exactly.

    Instances are immutable; construct through :func:`make_piezo` (or the
    arithmetic operators below, which preserve the symmetry bit-exactly).
    """

    n: int
    entries: np.ndarray

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise BadLength(f"dimension must be a positive integer, got {self.n!r}")
        arr = np.asarray(self.entries, dtype=float)
        if arr.shape != (self.n, self.n, self.n):
            raise BadLength(
                f"expected {self.n}^3 entries, got array of shape {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise NonFinite("tensor entries must be finite")
        if not np.array_equal(arr, arr.transpose(0, 2, 1)):
            raise SymmetryViolation("entries are not symmetric in the last two indices")
        object.__setattr__(self, "entries", _freeze(arr))

    def __add__(self, other):
        if not isinstance(other, PiezoTensor):
            return NotImplemented
        if other.n != self.n:
            raise DimensionMismatch(f"dimension mismatch: {self.n} vs {other.n}")
        return PiezoTensor(self.n, self.entries + other.entries)

    def __sub__(self, other):
        if not isinstance(other, PiezoTensor):
            return NotImplemented
        if other.n != self.n:
            raise DimensionMismatch(f"dimension mismatch: {self.n} vs {other.n}")
        return PiezoTensor(self.n, self.entries - other.entries)

    def __mul__(self, t):
        return PiezoTensor(self.n, self.entries * float(t))

    __rmul__ = __mul__

    def __neg__(self):
        return PiezoTensor(self.n, -self.entries)


@dataclass(frozen=True)
class SymTensor4:
    """Fully symmetric order-4 tensor; entries invariant under all 24
    index permutations, enforced exactly at construction."""

    n: int
    entries: np.ndarray

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise BadLength(f"dimension must be a positive integer, got {self.n!r}")
        arr = np.asarray(self.entries, dtype=float)
        if arr.shape != (self.n,) * 4:
            raise BadLength(
                f"expected {self.n}^4 entries, got array of shape {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise NonFinite("tensor entries must be finite")
        flat = arr.ravel()
        canon = flat[_sorted_index(self.n)]
        if not np.array_equal(flat, canon):
            bad = np.unravel_index(np.flatnonzero(flat != canon)[0], arr.shape)
            raise SymmetryViolation(
                f"entries are not fully symmetric: entry {tuple(int(i) for i in bad)}"
                f" differs from entry {tuple(sorted(int(i) for i in bad))}"
            )
        object.__setattr__(self, "entries", _freeze(arr))

    def __neg__(self):
        return SymTensor4(self.n, -self.entries)


def make_piezo(n, raw, mode="strict"):
    """Build a PiezoTensor from n^3 raw values in lexicographic layout.

    ``strict`` requires a_ijk == a_ikj to already hold bit-for-bit;
    ``auto_symmetrize`` averages the two orderings,
    e_ijk = (raw_ijk + raw_ikj) / 2.
    """
    if not isinstance(n, int) or n < 1:
        raise BadLength(f"dimension must be a positive integer, got {n!r}")
    arr = np.asarray(raw, dtype=float).reshape(-1)
    if arr.size != n ** 3:
        raise BadLength(f"expected {n ** 3} values for n={n}, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise NonFinite("raw entries must be finite")
    arr = arr.reshape(n, n, n)
    if mode == "strict":
        if not np.array_equal(arr, arr.transpose(0, 2, 1)):
            bad = np.argwhere(arr != arr.transpose(0, 2, 1))[0]
            i, j, k = (int(v) + 1 for v in bad)
            raise SymmetryViolation(
                f"strict mode: raw[{i},{j},{k}] != raw[{i},{k},{j}]"
            )
        return PiezoTensor(n, arr)
    if mode == "auto_symmetrize":
        return PiezoTensor(n, 0.5 * (arr + arr.transpose(0, 2, 1)))
    raise ValueError(f"unknown mode {mode!r}")


def companion(A, B):
    """Symmetric fourth-order companion Sym(sum_i a_iab b_icd) of two
    piezoelectric-type tensors; companion(2A + E, E) is lift(A + E) -
    lift(A) without the cancellation of subtracting them.

    The product b is averaged with its (ab|cd) swap, halved first so that
    companion(A, A) keeps every bit of b and its overflow threshold, then
    over the pairings (ab|cd), (ac|bd), (ad|bc); gathering each entry from
    its index-sorted representative turns ulp-level reordering noise into
    exact 24-permutation symmetry.
    """
    if A.n != B.n:
        raise DimensionMismatch(f"dimension mismatch: {A.n} vs {B.n}")
    b = np.einsum("iab,icd->abcd", A.entries, B.entries)
    b = 0.5 * b + 0.5 * b.transpose(2, 3, 0, 1)
    # transpose axes are the inverse permutations of the index maps
    # (a,b,c,d)->(a,c,b,d) and (a,b,c,d)->(a,d,b,c)
    bbar = (b + b.transpose(0, 2, 1, 3) + b.transpose(0, 2, 3, 1)) / 3.0
    return SymTensor4(A.n, bbar.ravel()[_sorted_index(A.n)].reshape(bbar.shape))


def lift(A):
    """Symmetric fourth-order companion of A with itself, companion(A, A)."""
    return companion(A, A)


def unfold_gram(E):
    """Gram matrix G_pq = sum_jk e_pjk e_qjk of the slice unfolding."""
    return np.einsum("pjk,qjk->pq", E.entries, E.entries)


def unfold_spectral_norm(E):
    """Spectral norm of the n x n^2 matrix of concatenated slices E(i,:,:).

    Computed as the root of the largest eigenvalue of the n x n Gram
    matrix of the unfolding; the Gram route is agnostic to the
    concatenation axis, which the two unfolding orientations share.
    """
    return float(np.sqrt(max(np.linalg.eigvalsh(unfold_gram(E))[-1], 0.0)))


# ---------------------------------------------------------------------------
# Tensor text format
#
# UTF-8, line-oriented. '#' starts a comment. The first non-comment line is
# 'n <dim>' optionally followed by 'strict'. Entry lines are
# 'i j k value' with 1-based indices; omitted entries are zero. A line
# 'name <text>' names the tensor. Unless 'strict' is present the loader
# symmetrises the raw values over the last two indices.


def parse_tensor_text(text, path="<string>"):
    """Parse the tensor text format. Returns (PiezoTensor, name or None)."""
    n = None
    strict = False
    name = None
    raw = None
    seen = set()
    header_line = 0
    for line_no, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        fields = body.split()
        if n is None:
            if fields[0] != "n" or len(fields) not in (2, 3):
                raise ParseError(path, line_no, "expected header 'n <dim> [strict]'")
            try:
                n = int(fields[1])
            except ValueError:
                raise ParseError(path, line_no, f"bad dimension {fields[1]!r}") from None
            if n < 1:
                raise ParseError(path, line_no, "dimension must be >= 1")
            if len(fields) == 3:
                if fields[2] != "strict":
                    raise ParseError(path, line_no, f"unknown header flag {fields[2]!r}")
                strict = True
            raw = np.zeros((n, n, n))
            header_line = line_no
            continue
        if fields[0] == "name":
            name = body[len("name"):].strip()
            if not name:
                raise ParseError(path, line_no, "empty name")
            continue
        if len(fields) != 4:
            raise ParseError(path, line_no, "expected 'i j k value'")
        try:
            i, j, k = (int(f) for f in fields[:3])
        except ValueError:
            raise ParseError(path, line_no, f"bad index in {body!r}") from None
        try:
            value = float(fields[3])
        except ValueError:
            raise ParseError(path, line_no, f"bad value {fields[3]!r}") from None
        if not np.isfinite(value):
            raise ParseError(path, line_no, f"non-finite value {fields[3]!r}")
        if not (1 <= i <= n and 1 <= j <= n and 1 <= k <= n):
            raise ParseError(path, line_no, f"index out of range for n={n}")
        if (i, j, k) in seen:
            raise ParseError(path, line_no, f"duplicate entry ({i},{j},{k})")
        seen.add((i, j, k))
        raw[i - 1, j - 1, k - 1] = value
    if n is None:
        raise ParseError(path, 0, "missing 'n <dim>' header")
    mode = "strict" if strict else "auto_symmetrize"
    try:
        tensor = make_piezo(n, raw, mode=mode)
    except SymmetryViolation as exc:
        raise ParseError(path, header_line, str(exc)) from exc
    return tensor, name

