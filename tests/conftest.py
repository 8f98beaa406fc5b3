"""Shared fixtures and independent brute-force oracles.

The oracles here deliberately use explicit Python loops over the
definitions instead of any vectorised route from the package, so a bug
in the einsum plumbing cannot hide from the tests.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from ceig import SplitMix64, make_piezo

settings.register_profile(
    "ci",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
    print_blob=True,
)
settings.load_profile("ci")


def rand_piezo(seed, n=3, scale=1.0):
    """Seeded random piezoelectric-type tensor with entries in (-scale, scale)."""
    stream = SplitMix64(seed)
    u = 2.0 * np.array(stream.uniforms(n ** 3)) - 1.0
    return make_piezo(n, scale * u, mode="auto_symmetrize")


def rand_unit(seed, n=3):
    stream = SplitMix64(seed)
    v = np.array(stream.gaussians(n))
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# Loop oracles


def yy_loops(a, y):
    n = len(y)
    out = np.zeros(n)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                out[i] += a[i, j, k] * y[j] * y[k]
    return out


def xay_loops(a, x, y):
    n = len(y)
    out = np.zeros(n)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                out[i] += a[j, k, i] * x[j] * y[k]
    return out


def quartic_loops(t, y):
    n = len(y)
    total = 0.0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    total += t[i, j, k, l] * y[i] * y[j] * y[k] * y[l]
    return total


def cubic_loops(t, y):
    n = len(y)
    out = np.zeros(n)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    out[i] += t[i, j, k, l] * y[j] * y[k] * y[l]
    return out


def lift_loops(a):
    """Companion tensor by explicit summation: product tensor then the
    average over the three index pairings."""
    n = a.shape[0]
    b = np.zeros((n, n, n, n))
    for p in range(n):
        for q in range(n):
            for r in range(n):
                for s in range(n):
                    for i in range(n):
                        b[p, q, r, s] += a[i, p, q] * a[i, r, s]
    bbar = np.zeros_like(b)
    for p in range(n):
        for q in range(n):
            for r in range(n):
                for s in range(n):
                    bbar[p, q, r, s] = (
                        b[p, q, r, s] + b[p, r, q, s] + b[p, s, q, r]
                    ) / 3.0
    return bbar


def format_tensor_text(A, name=None, strict=True):
    """Render a PiezoTensor in the text format (nonzero entries only)."""
    lines = [f"n {A.n} strict" if strict else f"n {A.n}"]
    if name:
        lines.append(f"name {name}")
    for (i, j, k), v in np.ndenumerate(A.entries):
        if v != 0.0:
            lines.append(f"{i + 1} {j + 1} {k + 1} {float(v)!r}")
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="session")
def materials_dir():
    from pathlib import Path

    d = Path(__file__).resolve().parent.parent / "materials"
    assert d.is_dir(), d
    return d
