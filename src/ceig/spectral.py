"""Extreme Z-eigenpairs of symmetric fourth-order tensors and largest
C-eigenpairs of piezoelectric-type tensors.

Two independent routes to the largest C-eigenvalue are provided:

* ``c_max_via_lift``: the largest Z-eigenvalue of the symmetric
  fourth-order companion is the square of the largest C-eigenvalue.
* ``c_max_alternating``: block ascent on the trilinear form x A y y
  itself, never touching the fourth-order companion.

Both recover x = A y y / lambda; the zero tensor, the only one with
lambda = 0, takes x = y, so no null-space vector is ever computed.

The Z-solver is shifted symmetric higher-order power iteration, batched
over tensors and starts, with a convexity shift picked adaptively from a
Gershgorin bound on the Hessian. Both routes run through one multi-start
driver (dedupe, normalization, doubled-start retry, failure report), one
winner rule and one bordered Newton polish, which pushes winning
residuals down to machine level so the residual cap (1e-8 times the
largest entry) holds with slack.

Brute-force spherical-grid oracles (n = 3 only) give answers the solvers
are tested against; they share no code path with the iterative routes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .errors import (
    NoConvergence,
    PropertyViolation,
    UnsupportedDimension,
    ValidationError,
)
from .rng import SplitMix64
from .tensors import lift

_RESIDUAL_CAP = 1e-8  # residual admitted for a returned eigenpair, per unit of max entry
_SHIFT_MARGIN = 1e-6  # convexity slack added on top of the Hessian bound
# Start rows x n^2 in one batched power pass; caps its per-step arrays near
# 100 KB. Seed-0 study on a 2-vCPU VM, median of 12 runs per budget, with
# peak RSS of the process: 6k 0.83 s / 32.0 MB, 12k 0.62 s / 32.6 MB,
# 24k 0.55 s / 33.7 MB, 48k 0.50 s / 35.5 MB. Each doubling past 12k
# buys its time with over 3 % more peak memory.
_BATCH_BUDGET = 12 * 1024


@dataclass(frozen=True)
class ZEigenpair:
    """A Z-eigenvalue with its unit eigenvector.

    ``residual`` is ||T y^3 - value * y||_2 against the tensor the pair
    was computed from; ``iterations`` counts the power steps the winning
    start ran: the step it converged at, or ``max_iters`` for a start
    that was still moving when the loop stopped and won after polish
    (polish steps are not counted).
    """

    value: float
    y: np.ndarray
    residual: float
    iterations: int

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float).reshape(-1)
        if abs(np.linalg.norm(y) - 1.0) > 1e-10:
            raise PropertyViolation("Z-eigenvector is not unit length")
        y = y.copy()
        y.setflags(write=False)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "value", float(self.value))


@dataclass(frozen=True)
class CEigenpair:
    """A C-eigentriple (value, x, y) with x, y unit vectors.

    ``residual_x`` is ||A y y - value * x||_2 and ``residual_y`` is
    ||x A y - value * y||_2 for the source tensor; ``iterations`` counts
    the power (or ascent) steps the winning start ran, as for
    ``ZEigenpair``: ``max_iters`` if it had not converged.
    """

    value: float
    x: np.ndarray
    y: np.ndarray
    residual_x: float
    residual_y: float
    iterations: int

    def __post_init__(self):
        for field in ("x", "y"):
            v = np.asarray(getattr(self, field), dtype=float).reshape(-1)
            if abs(np.linalg.norm(v) - 1.0) > 1e-10:
                raise PropertyViolation(f"C-eigenvector {field} is not unit length")
            v = v.copy()
            v.setflags(write=False)
            object.__setattr__(self, field, v)
        if self.value < 0.0:
            raise PropertyViolation("largest C-eigenvalue must be nonnegative")
        object.__setattr__(self, "value", float(self.value))


@dataclass(frozen=True)
class SolverConfig:
    starts: int = 50
    tol: float = 1e-12
    max_iters: int = 5000
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.starts, int) or self.starts < 1:
            raise ValidationError(f"starts must be a positive integer, got {self.starts!r}")
        if not (self.tol > 0.0):
            raise ValidationError(f"tol must be positive, got {self.tol!r}")
        if not isinstance(self.max_iters, int) or self.max_iters < 10:
            raise ValidationError(f"max_iters must be an integer >= 10, got {self.max_iters!r}")
        if not isinstance(self.seed, int) or not (0 <= self.seed < 2 ** 64):
            raise ValidationError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")


@lru_cache(maxsize=64)
def _start_pool(seed, starts, n):
    """Unit start vectors: `starts` seeded Gaussian directions, then the
    n canonical basis vectors. Cached read-only; the stream prefix is
    shared, so doubling `starts` keeps the original draws in place."""
    stream = SplitMix64(seed)
    g = np.array(stream.gaussians(starts * n), dtype=float).reshape(starts, n)
    norms = np.linalg.norm(g, axis=1)
    degenerate = norms < 1e-150
    if np.any(degenerate):
        g[degenerate] = 0.0
        g[degenerate, 0] = 1.0
        norms[degenerate] = 1.0
    pool = np.vstack([g / norms[:, None], np.eye(n)])
    pool.setflags(write=False)
    return pool


def _power_phase(t, pool, tol, max_iters):
    """Batched shifted power iteration on the quartic forms of a stack of
    tensors, every start of `pool` on every tensor.

    `t` has shape (k, n, n, n, n); each tensor is iterated flattened to
    n^2 x n^2 (valid by full symmetry). The iterates live in a
    (tensor, coordinate, start) = (k, n, s) layout: the pair products
    y_i y_j of all starts form an (n^2, s) block per tensor, so T y^2 is
    one matrix product per tensor and every other step reduces over the
    coordinate axis with the starts contiguous. Returns (lam, Y, iters,
    converged) with a leading tensor axis and Y as (k, s, n); `iters` of
    an unconverged start is `max_iters`. A start is converged when its
    Rayleigh value stalls within `tol` or its eigen-residual is already
    below tol * scale. The iterates of different (tensor, start) pairs
    never mix, so each tensor gets the bits it would get alone; a tensor
    leaves the working arrays once all of its starts have converged.
    """
    k, (s, n) = t.shape[0], pool.shape
    tmats = t.reshape(k, n * n, n * n)
    lam_out = np.zeros((k, s))
    Y_out = np.empty((k, s, n))
    iters_out = np.zeros((k, s), dtype=int)
    active_out = np.ones((k, s), dtype=bool)
    live = np.arange(k)
    Y = np.broadcast_to(pool.T, (k, n, s)).copy()
    lam_prev = np.full((k, s), np.inf)
    lam = np.zeros((k, s))
    iters = np.zeros((k, s), dtype=int)
    active = np.ones((k, s), dtype=bool)

    def retire(done):
        idx = live[done]
        for out, a in ((lam_out, lam), (iters_out, iters), (active_out, active)):
            out[idx] = a[done]
        Y_out[idx] = Y[done].transpose(0, 2, 1)

    for it in range(1, max_iters + 1):
        t2 = tmats @ (Y[:, :, None] * Y[:, None]).reshape(-1, n * n, s)
        grad = (t2.reshape(-1, n, n, s) * Y[:, None]).sum(axis=2)
        lam_k = (Y * grad).sum(axis=1)
        lam[active] = lam_k[active]
        resid = np.linalg.norm(grad - lam_k[:, None] * Y, axis=1)
        scale = np.maximum(1.0, np.abs(lam_k))
        newly = active & (
            (np.abs(lam_k - lam_prev) <= tol) | (resid <= tol * scale)
        )
        if newly.any():
            iters[newly] = it
            active &= ~newly
            alive = active.any(axis=1)
            if not alive.all():
                retire(~alive)
                if not alive.any():
                    break
                live, tmats = live[alive], tmats[alive]
                Y, lam, iters, active, t2, grad, lam_k = (
                    a[alive] for a in (Y, lam, iters, active, t2, grad, lam_k)
                )
        # Convexity shift from a Gershgorin floor on the Hessian 12*Ty^2.
        diag = t2[:, :: n + 1]
        off = np.abs(t2).reshape(-1, n, n, s).sum(axis=2) - np.abs(diag)
        floor = 12.0 * (diag - off).min(axis=1)
        alpha = np.maximum(0.0, (_SHIFT_MARGIN - floor) / 4.0)
        w = grad + alpha[:, None] * Y
        wn = np.linalg.norm(w, axis=1)
        step = active & (wn > 1e-150)
        np.divide(w, wn[:, None], out=Y, where=step[:, None])
        lam_prev = lam_k
    else:  # max_iters ran out with starts still active
        iters[active] = max_iters
        retire(np.ones(live.size, dtype=bool))
    return lam_out, Y_out, iters_out, ~active_out


def _entry_scale(T):
    """Largest entry magnitude of a tensor (1 for the zero tensor): the
    solvers iterate on T / scale, so shifts and stall tests are scale-free."""
    scale = float(np.abs(T.entries).max())
    return scale if scale != 0.0 else 1.0


def _z_state(tmat, y):
    """(mu, r, |r|, J) of the Z-map g(y) = T y^3: mu = y.g, r = g - mu y,
    J = 3 T y^2 the Jacobian of g."""
    n = y.size
    t2 = (tmat @ np.outer(y, y).ravel()).reshape(n, n)
    g = t2 @ y
    mu = float(y @ g)
    r = g - mu * y
    return mu, r, float(np.linalg.norm(r)), 3.0 * t2


def _newton_polish(y, state):
    """Bordered Newton refinement of (y, mu) toward g(y) = mu y, |y| = 1,
    for a map g described by ``state(y) -> (mu, r, |r|, J)``.

    Keeps the best iterate seen and returns it as (mu, y, |r|); stops
    early if the bordered system is singular (degenerate critical points).
    """
    n = y.size
    mu, r, rn, jac = state(y)
    best = (mu, y, rn)
    for _ in range(10):
        if rn <= 1e-15 * max(1.0, abs(mu)):
            break
        k = np.zeros((n + 1, n + 1))
        k[:n, :n] = jac - mu * np.eye(n)
        k[:n, n] = -y
        k[n, :n] = y
        rhs = np.concatenate([-r, [0.0]])
        try:
            sol = np.linalg.solve(k, rhs)
        except np.linalg.LinAlgError:
            break
        y_new = y + sol[:n]
        nrm = np.linalg.norm(y_new)
        if nrm < 1e-150:
            break
        y_new /= nrm
        mu_new, r_new, rn_new, jac_new = state(y_new)
        if rn_new >= best[2]:
            break
        y, mu, r, rn, jac = y_new, mu_new, r_new, rn_new, jac_new
        best = (mu, y, rn)
    return best


def _dedupe_candidates(lam, Y, order):
    """Collapse starts that converged to the same critical point (up to
    sign of y); keeps the first index in `order` as representative.

    Each representative is the first candidate still live, and it
    retires every later one within its value band whose y is aligned
    with its own.
    """
    live = np.asarray(order)
    reps = []
    while live.size:
        j, rest = live[0], live[1:]
        reps.append(j)
        close = np.abs(lam[rest] - lam[j]) <= 1e-8 * max(1.0, abs(lam[j]))
        aligned = np.abs(Y[rest] @ Y[j]) >= 1.0 - 1e-6
        live = rest[~(close & aligned)]
    return reps


def _ranked(vals, mask):
    """Indices of `mask` by descending value, ties to the lowest index."""
    idx = np.flatnonzero(mask)
    return idx[np.lexsort((idx, -vals[idx]))]


def _pick(vals, Y, iters, converged, polish):
    """Winner rule shared by both routes: polish the distinct starts of
    the lead cluster and return the one with the largest polished value
    (ties to the lowest start index) among those meeting the residual cap.

    The lead cluster is the converged starts within 1e-6 (relative) of
    the converged top, plus every unconverged start whose value lies
    above that band: a run cut short must not pass over a higher
    critical point. Lower clusters are never tried, since they would
    return a lower critical point as the largest; if no lead start meets
    the cap there is no pair, and the caller retries or raises.
    ``polish(i)`` returns (value, residual, make) for start i, where
    ``make(iterations)`` builds the eigenpair. Returns (pair or None,
    smallest polished residual); at least one start must have converged.
    """
    top = vals[converged].max()
    band = 1e-6 * max(1.0, abs(top))
    lead = _ranked(vals, (converged & (vals >= top - band)) | (~converged & (vals > top + band)))
    polished = [(*polish(i), i) for i in _dedupe_candidates(vals, Y, lead)]
    polished.sort(key=lambda p: (-p[0], p[3]))
    best_rn = min(p[1] for p in polished)
    for _, rn, make, i in polished:
        if rn <= _RESIDUAL_CAP:
            return make(int(iters[i])), best_rn
    return None, best_rn


def _batches(indices, tensors, starts):
    """Same-dimension groups of `indices` whose start rows x n^2 fit the
    batch budget (a tensor too large for it runs alone)."""
    by_n = {}
    for i in indices:
        by_n.setdefault(tensors[i].n, []).append(i)
    for n, group in by_n.items():
        size = max(1, _BATCH_BUDGET // ((starts + n) * n * n))
        for lo in range(0, len(group), size):
            yield n, group[lo:lo + size]


def _multistart(tensors, phase, polish, stuck, failure, cfg):
    """Multi-start driver of both routes; one entry per tensor: its pair,
    or a held ``NoConvergence`` with message `failure`.

    Tensors with equal entries are solved once. Each distinct tensor is
    iterated max-entry-normalized, so shift margins and stall tests are
    scale-free (a 1e-5 perturbation tensor lifts to 1e-10-sized entries,
    which would otherwise freeze under an absolute shift); values and
    residuals are scaled back. ``phase(stack, pool, tol, max_iters)``
    runs every start on a same-dimension stack of normalized entries and
    returns (vals, Y, iters, converged) with a leading tensor axis; the
    winner is picked by ``_pick`` through ``polish(t, y, scale)``, which
    builds its pair at the original scale; ``stuck(t, vals, Y)`` is the
    best residual of a tensor none of whose starts converged. Tensors
    without a pair get one doubled-start pass; the failure carries no
    residual if neither pass saw one.
    """
    distinct = {}
    for T in tensors:
        distinct.setdefault(T.entries.tobytes(), T)
    unique = list(distinct.values())
    scales = [_entry_scale(T) for T in unique]
    normed = [T.entries / scale for T, scale in zip(unique, scales)]
    pairs = [None] * len(unique)
    best = [np.inf] * len(unique)
    todo = range(len(unique))
    for starts in (cfg.starts, 2 * cfg.starts):
        # the doubled-start pass only revisits tensors that failed
        for n, batch in _batches(todo, unique, starts):
            pool = _start_pool(cfg.seed, starts, n)
            stack = np.stack([normed[i] for i in batch])
            for i, vals, Y, iters, converged in zip(
                batch, *phase(stack, pool, cfg.tol, cfg.max_iters)
            ):
                t, scale = normed[i], scales[i]
                if converged.any():
                    pairs[i], rn = _pick(
                        vals, Y, iters, converged, lambda j: polish(t, Y[j], scale)
                    )
                else:
                    rn = stuck(t, vals, Y)
                best[i] = min(best[i], rn)
        todo = [i for i in todo if pairs[i] is None]
    solved = {}
    for key, pair, rn, scale in zip(distinct, pairs, best, scales):
        if pair is None:
            rn = rn * scale if np.isfinite(rn) else None
            pair = NoConvergence(failure, best_residual=rn)
        solved[key] = pair
    return [solved[T.entries.tobytes()] for T in tensors]


def held(result):
    """Return a multi-start entry, raising it if it is a held failure."""
    if isinstance(result, NoConvergence):
        raise result
    return result


def _z_stuck(t, lam, Y):
    """Smallest eigen-residual among unconverged power starts."""
    n = Y.shape[1]
    pp = (Y[:, :, None] * Y[:, None, :]).reshape(Y.shape[0], n * n)
    grad = np.matmul((pp @ t.reshape(n * n, n * n)).reshape(-1, n, n), Y[:, :, None])[:, :, 0]
    return float(np.linalg.norm(grad - lam[:, None] * Y, axis=1).min())


def _z_polish(t, y, scale):
    """Polish on the Z-map; value and residual stay normalized for the
    winner rule, the pair is built at the original scale."""
    n = y.size
    mu, y, rn = _newton_polish(y, partial(_z_state, t.reshape(n * n, n * n)))
    return mu, rn, partial(ZEigenpair, mu * scale, y, rn * scale)


def z_max_batch(tensors, cfg=SolverConfig()):
    """Largest Z-eigenpairs of a list of symmetric fourth-order tensors.

    Returns one entry per tensor: its ``ZEigenpair``, or the
    ``NoConvergence`` that ``z_max`` would raise for it, held rather than
    raised so callers can attribute it. Tensors with equal entries are
    solved once, and each result is bit-identical to solving its tensor
    alone: the power phase runs over (tensor, start) rows that never
    mix. See ``z_max`` for the method.
    """
    return _multistart(
        tensors, _power_phase, _z_polish, _z_stuck, "no start reached the residual target", cfg
    )


def z_max(T, cfg=SolverConfig()):
    """Largest Z-eigenvalue of a symmetric fourth-order tensor.

    Multi-start shifted power iteration; the winner comes from
    ``_pick``'s lead-cluster rule: the largest polished value among the
    starts near the converged top (and any unconverged start above it)
    that meet the residual cap, ties broken by lowest start index. A
    doubled-start pass is attempted once before giving up.
    """
    return held(z_max_batch([T], cfg)[0])


def z_min(T, cfg=SolverConfig()):
    """Smallest Z-eigenvalue, via the negation identity min(T) = -max(-T).

    The residual carries over: ||(-T) y^3 + lambda y|| = ||T y^3 - lambda y||.
    """
    neg = z_max(-T, cfg)
    return ZEigenpair(-neg.value, neg.y, neg.residual, neg.iterations)


def _c_residuals(a, ayy, value, x, y):
    """||A y y - value x|| and ||x A y - value y|| for entries `a`, given
    ayy = A y y."""
    rx = ayy - value * x
    ry = np.einsum("jki,j,k->i", a, x, y) - value * y
    return float(np.linalg.norm(rx)), float(np.linalg.norm(ry))


def c_pair_from_lift(A, z):
    """Largest C-eigenpair of A from the top Z-pair `z` of its companion
    ``lift(A)``; `z` may be a held ``z_max_batch`` failure, raised here.

    The companion's largest Z-value is lambda^2 and x is recovered as
    A y y / lambda (x = y for the zero tensor). Since x = +-e_i with
    y = e_j or (e_j +- e_k)/sqrt(2) reaches every |a_ijk|, lambda is
    never below the largest entry: a smaller value means the companion's
    entries underflowed, and raises ``PropertyViolation``. Residuals are
    capped relative to the largest entry, as in ``_pick``.
    """
    z = held(z)
    value = float(np.sqrt(max(z.value, 0.0)))
    top = float(np.abs(A.entries).max())
    if value < (1.0 - 1e-8) * top:
        raise PropertyViolation(
            f"largest C-eigenvalue {value:.3e} is below the largest entry magnitude {top:.3e}"
        )
    y = z.y
    ayy = np.einsum("ijk,j,k->i", A.entries, y, y)
    if value > 0:
        x = ayy / value
        x = x / np.linalg.norm(x)
    else:
        x = y
    rx, ry = _c_residuals(A.entries, ayy, value, x, y)
    if max(rx, ry) > _RESIDUAL_CAP * top:
        raise NoConvergence(
            "C-eigenpair residuals exceed tolerance", best_residual=max(rx, ry)
        )
    return CEigenpair(value, x, y, rx, ry, z.iterations)


def c_max_via_lift(A, cfg=SolverConfig()):
    """Largest C-eigenpair through the symmetric fourth-order companion
    (see ``c_pair_from_lift``)."""
    return c_pair_from_lift(A, z_max(lift(A), cfg))


def _alternating_phase(a, pool, tol, max_iters):
    """Batched block ascent on x A y y over a (k, n, n, n) stack of
    tensors, every start of `pool` on every tensor.

    x-update is the closed-form optimum for fixed y; y-update is one
    power step on N(x) shifted by its Frobenius norm, which keeps the
    objective nondecreasing. The iterates live in the (k, n, s) layout
    of ``_power_phase``, so A y y and N(x) are one matrix product per
    tensor. Returns (f, Y, iters, converged) with a leading tensor axis
    and Y as (k, s, n); `iters` of an unconverged start is `max_iters`;
    starts never mix, as in ``_power_phase``.
    """
    k, (s, n) = a.shape[0], pool.shape
    amats = a.reshape(k, n, n * n)
    amats_t = amats.transpose(0, 2, 1)
    Y = np.broadcast_to(pool.T, (k, n, s)).copy()
    X = np.zeros((k, n, s))
    X[:, 0] = 1.0
    f_prev = np.full((k, s), -np.inf)
    f = np.zeros((k, s))
    iters = np.zeros((k, s), dtype=int)
    active = np.ones((k, s), dtype=bool)
    for it in range(1, max_iters + 1):
        v = amats @ (Y[:, :, None] * Y[:, None]).reshape(k, n * n, s)
        vn = np.linalg.norm(v, axis=1)
        ok = active & (vn > 1e-150)
        np.divide(v, vn[:, None], out=X, where=ok[:, None])
        nb = amats_t @ X
        frob = np.linalg.norm(nb, axis=1)
        nb = nb.reshape(k, n, n, s)
        w = (nb * Y[:, None]).sum(axis=2) + frob[:, None] * Y
        wn = np.linalg.norm(w, axis=1)
        step = active & (wn > 1e-150)
        np.divide(w, wn[:, None], out=Y, where=step[:, None])
        f_k = ((nb * Y[:, None]).sum(axis=2) * Y).sum(axis=1)
        f[active] = f_k[active]
        newly = active & (np.abs(f_k - f_prev) <= tol)
        iters[newly] = it
        active &= ~newly
        if not active.any():
            break
        f_prev = f_k
    iters[active] = max_iters
    return f, Y.transpose(0, 2, 1).copy(), iters, ~active


def _c_state(a, y):
    """(mu, r, |r|, J) of the lift-free cubic map g(y) = M(y)^T M(y) y,
    M(y)_ij = sum_k a_ijk y_k, whose Jacobian is J = 2 M^T M + C with
    C_lp = sum_i (A y y)_i a_ilp."""
    m = np.einsum("ijk,k->ij", a, y)
    v = m @ y
    g = m.T @ v
    mu = float(y @ g)
    r = g - mu * y
    return mu, r, float(np.linalg.norm(r)), 2.0 * (m.T @ m) + np.einsum("i,ilp->lp", v, a)


def _c_polish(a, y0, scale):
    """Polish on the lift-free cubic map, then recompute the value and
    x = A y y / value in closed form (x = y for the zero tensor)."""
    _, y, _ = _newton_polish(y0, partial(_c_state, a))
    v = np.einsum("ijk,j,k->i", a, y, y)
    value = float(np.linalg.norm(v))
    x = v / value if value > 0 else y
    rx, ry = _c_residuals(a, v, value, x, y)
    return value, max(rx, ry), partial(CEigenpair, value * scale, x, y, rx * scale, ry * scale)


def c_max_alternating(A, cfg=SolverConfig()):
    """Largest C-eigenpair by direct ascent on the trilinear form, a
    multi-start batch of one like ``z_max``."""
    return held(_multistart(
        [A], _alternating_phase, _c_polish, lambda *_: np.inf,
        "alternating ascent failed to reach the residual target", cfg,
    )[0])


# ---------------------------------------------------------------------------
# Spherical-grid oracles (n = 3)


@lru_cache(maxsize=4)
def _sphere_grid(resolution):
    az = 2.0 * np.pi * np.arange(2 * resolution) / (2 * resolution)
    pol = np.pi * (np.arange(resolution) + 0.5) / resolution
    sp, cp = np.sin(pol), np.cos(pol)
    sa, ca = np.sin(az), np.cos(az)
    dirs = np.empty((2 * resolution, resolution, 3))
    dirs[:, :, 0] = ca[:, None] * sp[None, :]
    dirs[:, :, 1] = sa[:, None] * sp[None, :]
    dirs[:, :, 2] = cp[None, :]
    dirs = dirs.reshape(-1, 3)
    dirs.setflags(write=False)
    return dirs


def _check_grid_args(n, resolution):
    if n != 3:
        raise UnsupportedDimension(f"spherical grid oracle needs n=3, got n={n}")
    if not isinstance(resolution, int) or resolution < 100:
        raise ValidationError(f"resolution must be an integer >= 100, got {resolution!r}")


def _pair_products(yc):
    # flattened outer products y_i y_j, one row per grid node
    return (yc[:, :, None] * yc[:, None, :]).reshape(yc.shape[0], -1)


def grid_oracle_z(T, resolution):
    """(min, max) of T y^4 over a dense spherical grid; error O(1/resolution)."""
    _check_grid_args(T.n, resolution)
    n = T.n
    tmat = T.entries.reshape(n * n, n * n)
    dirs = _sphere_grid(resolution)
    vmin, vmax = np.inf, -np.inf
    for lo in range(0, dirs.shape[0], 65536):
        pp = _pair_products(dirs[lo:lo + 65536])
        vals = np.einsum("pa,pa->p", pp @ tmat, pp)
        vmin = min(vmin, float(vals.min()))
        vmax = max(vmax, float(vals.max()))
    return vmin, vmax


def grid_oracle_c(A, resolution):
    """max_y ||A y y||_2 over the same spherical grid."""
    _check_grid_args(A.n, resolution)
    n = A.n
    amat = A.entries.reshape(n, n * n)
    dirs = _sphere_grid(resolution)
    best = 0.0
    for lo in range(0, dirs.shape[0], 65536):
        v = _pair_products(dirs[lo:lo + 65536]) @ amat.T
        best = max(best, float(np.einsum("pi,pi->p", v, v).max()))
    return float(np.sqrt(best))
