"""Extreme Z-eigenpairs of symmetric fourth-order tensors and largest
C-eigenpairs of piezoelectric-type tensors.

Two independent routes to the largest C-eigenvalue are provided:

* ``c_max_via_lift``: the largest Z-eigenvalue of the symmetric
  fourth-order companion is the square of the largest C-eigenvalue.
* ``c_max_alternating``: block ascent on the trilinear form x A y y
  itself, never touching the fourth-order companion. Each sweep sets x
  to the closed-form optimum for y, then takes four power steps on
  N(x) + ||N(x)||_F I, N(x)_jk = sum_i x_i a_ijk, for y.

Both recover x = A y y / lambda; the zero tensor, the only one with
lambda = 0, takes x = y, so no null-space vector is ever computed.

The Z-solver is shifted symmetric higher-order power iteration, batched
over tensors and starts, with a convexity shift picked adaptively from a
Gershgorin bound on the Hessian. Both routes run through one multi-start
driver (dedupe, normalization, one queued pass, failure report), one
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
# Start rows x n^2 live at once in a queued power pass; caps its per-step
# arrays near 100 KB. Seed-0 study on a 2-vCPU VM, median of 15 runs per
# budget, interleaved in one process, in each of two processes, with the
# peak RSS of a one-budget process: 6k 314-316 ms / 31.9 MB, 12k 309-312 ms
# / 32.3 MB, 24k 304-332 ms / 33.0 MB, 48k 335-376 ms / 34.5 MB (seed 6:
# 441, 454, 458, 465 ms). 6k to 24k are within noise of each other; 48k is
# slower and larger.
_BATCH_BUDGET = 12 * 1024


def _unit_vector(v, name):
    """Read-only flat float copy of `v`; raises unless it is unit length."""
    v = np.array(v, dtype=float).reshape(-1)
    if abs(np.linalg.norm(v) - 1.0) > 1e-10:
        raise PropertyViolation(f"{name} is not unit length")
    v.setflags(write=False)
    return v


@dataclass(frozen=True)
class ZEigenpair:
    """A Z-eigenvalue with its unit eigenvector.

    ``residual`` is ||T y^3 - value * y||_2 against the tensor the pair
    was computed from; ``iterations`` counts the power steps of the
    quickest start that reached the winning critical point: the step it
    converged at, or ``max_iters`` if the winner was still moving when
    the loop stopped and won after polish (polish steps are not counted).
    """

    value: float
    y: np.ndarray
    residual: float
    iterations: int

    def __post_init__(self):
        object.__setattr__(self, "y", _unit_vector(self.y, "Z-eigenvector"))
        object.__setattr__(self, "value", float(self.value))


@dataclass(frozen=True)
class CEigenpair:
    """A C-eigentriple (value, x, y) with x, y unit vectors.

    ``residual_x`` is ||A y y - value * x||_2 and ``residual_y`` is
    ||x A y - value * y||_2 for the source tensor; ``iterations`` counts
    the loop steps of the quickest start at the winning point, as for
    ``ZEigenpair``: power steps on the lifted route, sweeps (each an
    x-update and four power steps on y) on the alternating one;
    ``max_iters`` if it had not converged.
    """

    value: float
    x: np.ndarray
    y: np.ndarray
    residual_x: float
    residual_y: float
    iterations: int

    def __post_init__(self):
        for f in ("x", "y"):
            object.__setattr__(self, f, _unit_vector(getattr(self, f), f"C-eigenvector {f}"))
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
        # type(), not isinstance: a bool is an int
        if type(self.starts) is not int or self.starts < 1:
            raise ValidationError(f"starts must be a positive integer, got {self.starts!r}")
        if not (self.tol > 0.0):
            raise ValidationError(f"tol must be positive, got {self.tol!r}")
        if type(self.max_iters) is not int or self.max_iters < 10:
            raise ValidationError(f"max_iters must be an integer >= 10, got {self.max_iters!r}")
        if type(self.seed) is not int or not (0 <= self.seed < 2 ** 64):
            raise ValidationError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")


@lru_cache(maxsize=64)
def _start_pool(seed, starts, n):
    """Unit start vectors: `starts` seeded Gaussian directions, then the
    n canonical basis vectors. Cached read-only."""
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


def _queue(mats, pool, max_iters, step):
    """Run every start of `pool` on a stack of same-dimension tensors as
    one refilling queue; returns (vals, Y, iters, converged) with a
    leading tensor axis and Y as (k, s, n).

    At most ``_BATCH_BUDGET // (s n^2)`` tensors are live at once. A
    tensor retires once all of its starts have converged or it has run
    `max_iters` steps of its own, and the next tensor of the stack takes
    its slot; `iters` counts from the step its tensor was admitted at
    (`max_iters` for a start that had not converged). A live slot holds
    its tensor's matrix, values (inf until its first step) and active
    mask, each (slot, start), and its columns of the coordinate-major
    (n, slot, start) iterate Y, seeded from `pool`. Beside Y the queue
    keeps three scratch arrays of shape (n^2, slot, start), whose
    contents do not outlive a step: a step that allocated and freed
    arrays near 100 KB itself would let glibc trim and regrow its heap,
    page-faulting on every step. ``step(mats, vals, active, Y, *scratch)``
    advances every live start one step in place, clears the starts that
    converged from `active` and returns them. Starts never mix, so each
    (tensor, start) gets the bits it would get alone. That is also why
    converged starts keep their columns until their tensor retires:
    OpenBLAS can round a gemm column differently at different column
    counts, so compacting starts would make a tensor's bits depend on
    its batch-mates.
    """
    k, (s, n) = mats.shape[0], pool.shape
    vals_out = np.empty((k, s))
    Y_out = np.empty((k, s, n))
    iters_out = np.empty((k, s), dtype=int)
    conv_out = np.empty((k, s), dtype=bool)
    m = min(k, max(1, _BATCH_BUDGET // (s * n * n)))
    # per slot: matrix, values, active mask, step of convergence, step of
    # admission, stack index; then Y and the scratch, slot axis second
    live = [np.empty((m,) + mats.shape[1:]), np.empty((m, s)), np.empty((m, s), dtype=bool),
            np.empty((m, s), dtype=int), np.empty(m, dtype=int), np.empty(m, dtype=int)]
    state = [np.empty((n, m, s))] + [np.empty((n * n, m, s)) for _ in range(3)]
    queued = 0

    def admit(slots, it):
        nonlocal queued
        lo, queued = queued, queued + slots.size
        for a, v in zip(live, (mats[lo:queued], np.inf, True, 0, it, np.arange(lo, queued))):
            a[slots] = v
        state[0][:, slots] = pool.T[:, None]

    def retire(done, it):
        nonlocal live, state
        _, vals, active, at, born, idx = live
        ids = idx[done]
        vals_out[ids] = vals[done]
        Y_out[ids] = state[0][:, done].transpose(1, 2, 0)
        iters_out[ids] = np.where(active[done], max_iters, at[done] - born[done, None])
        conv_out[ids] = ~active[done]
        slots = np.flatnonzero(done)
        fill = slots[:k - queued]
        admit(fill, it)
        if fill.size < slots.size:  # the queue ran dry: drop the empty slots
            keep = ~done
            keep[fill] = True
            live = [a[keep] for a in live]
            state = [a[:, keep] for a in state]
        return int(live[4].min(initial=it))

    admit(np.arange(m), 0)
    oldest, it = 0, 0
    while live[0].shape[0]:
        it += 1
        live_mats, vals, active, at, born, _ = live
        newly = step(live_mats, vals, active, *state)
        capped = it - oldest >= max_iters
        if capped or newly.any():
            at[newly] = it
            done = ~active.any(axis=1)
            if capped:
                done |= born == oldest
            if done.any():
                oldest = retire(done, it)
    return vals_out, Y_out, iters_out, conv_out


def _norms(v):
    """2-norms over axis 0: np.linalg.norm's own expression for real input."""
    return np.sqrt(np.add.reduce(v * v, axis=0))


def _power_phase(t, pool, tol, max_iters):
    """Shifted power iteration on the quartic forms of a stack of tensors,
    every start of `pool` on every tensor, run through ``_queue``.

    `t` has shape (k, n, n, n, n); each tensor is iterated flattened to
    n^2 x n^2 (valid by full symmetry). The iterates live in a
    coordinate-major (coordinate, tensor, start) = (n, m, s) layout: the
    pair products y_i y_j of all starts form an (n^2, m, s) block, so
    T y^2 is one matrix product per tensor, written into scratch, and every
    other step reduces over a leading coordinate axis with the
    (tensor, start) plane contiguous. A start is converged when its
    Rayleigh value stalls within `tol`. That holds for a start that
    begins at an eigenvector too: the shift keeps lambda + alpha > 0, so
    the step maps it to itself and it stalls on its second step.
    """
    k, (s, n) = t.shape[0], pool.shape

    def step(tmats, lam, active, Y, pp, t2, prod):
        m = Y.shape[1]
        np.multiply(Y[:, None], Y, out=pp.reshape(n, n, m, s))
        np.matmul(tmats, pp.transpose(1, 0, 2), out=t2.transpose(1, 0, 2))
        prod = np.multiply(t2.reshape(n, n, m, s), Y, out=prod.reshape(n, n, m, s))
        grad = np.add.reduce(prod, axis=1)
        lam_k = np.add.reduce(Y * grad, axis=0)
        # an active start's lam is still its value of the previous step
        newly = active & (np.abs(lam_k - lam) <= tol)
        np.copyto(lam, lam_k, where=active)
        active ^= newly
        # Convexity shift from a Gershgorin floor on the Hessian 12*Ty^2.
        abs_t2 = np.abs(t2, out=prod.reshape(n * n, m, s))
        diag = t2[:: n + 1]
        off = np.add.reduce(abs_t2.reshape(n, n, m, s), axis=1) - abs_t2[:: n + 1]
        floor = 12.0 * np.minimum.reduce(diag - off, axis=0)
        alpha = np.maximum(0.0, (_SHIFT_MARGIN - floor) / 4.0)
        w = grad + alpha * Y
        wn = _norms(w)
        np.divide(w, wn, out=Y, where=active & (wn > 1e-150))
        return newly

    return _queue(t.reshape(k, n * n, n * n), pool, max_iters, step)


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
    sign of y) into groups, one per point, each led by its first index
    in `order`, the representative.

    Each representative is the first candidate still live, and it
    retires every later one within its value band whose y is aligned
    with its own.
    """
    live = np.asarray(order)
    groups = []
    while live.size:
        j, rest = live[0], live[1:]
        close = np.abs(lam[rest] - lam[j]) <= 1e-8 * max(1.0, abs(lam[j]))
        aligned = np.abs(Y[rest] @ Y[j]) >= 1.0 - 1e-6
        groups.append(np.append(j, rest[close & aligned]))
        live = rest[~(close & aligned)]
    return groups


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
    the cap there is no pair, and the caller raises.
    ``polish(i)`` returns (value, residual, make) for start i, where
    ``make(iterations)`` builds the eigenpair. The pair reports the
    fewest steps among the starts collapsed into the winner (an
    unconverged winner's group has only unconverged starts, so
    ``max_iters``). Returns (pair or None, smallest polished residual);
    at least one start must have converged.
    """
    top = vals[converged].max()
    band = 1e-6 * max(1.0, abs(top))
    lead = _ranked(vals, (converged & (vals >= top - band)) | (~converged & (vals > top + band)))
    polished = [(*polish(g[0]), g) for g in _dedupe_candidates(vals, Y, lead)]
    polished.sort(key=lambda p: (-p[0], p[3][0]))
    best_rn = min(p[1] for p in polished)
    for _, rn, make, group in polished:
        if rn <= _RESIDUAL_CAP:
            return make(int(iters[group].min())), best_rn
    return None, best_rn


def _multistart(tensors, phase, polish, stuck, failure, cfg):
    """Multi-start driver of both routes; one entry per tensor: its pair,
    or a held ``NoConvergence`` with message `failure`.

    Tensors with equal entries are solved once. Each distinct tensor is
    iterated max-entry-normalized, so shift margins and stall tests are
    scale-free (a 1e-5 perturbation tensor lifts to 1e-10-sized entries,
    which would otherwise freeze under an absolute shift); values and
    residuals are scaled back. ``phase(stack, pool, tol, max_iters)``
    runs every start on a same-dimension stack of normalized entries and
    returns (vals, Y, iters, converged) with a leading tensor axis; each
    same-dimension group goes through one ``phase`` call, a ``_queue``
    over the group, with ``cfg.starts`` starts. The winner is picked by
    ``_pick`` through ``polish(t, y, scale)``, which builds its pair at
    the original scale; ``stuck(t, Y)`` is the best residual among the
    final iterates Y of a tensor none of whose starts converged. A
    failure carries no residual if its pass saw none.
    """
    distinct = {}
    for T in tensors:
        distinct.setdefault(T.entries.tobytes(), T)
    by_n = {}
    for key, T in distinct.items():
        by_n.setdefault(T.n, []).append((key, _entry_scale(T)))
    solved = {}
    for n, group in by_n.items():
        stack = np.stack([distinct[key].entries for key, _ in group])
        for t, (_, scale) in zip(stack, group):
            t /= scale
        pool = _start_pool(cfg.seed, cfg.starts, n)
        for (key, scale), t, vals, Y, iters, converged in zip(
            group, stack, *phase(stack, pool, cfg.tol, cfg.max_iters)
        ):
            if converged.any():
                pair, rn = _pick(vals, Y, iters, converged, lambda j: polish(t, Y[j], scale))
            else:
                pair, rn = None, stuck(t, Y)
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


def _z_stuck(t, Y):
    """Smallest ``_z_state`` residual among unconverged power starts."""
    n = Y.shape[1]
    tmat = t.reshape(n * n, n * n)
    return min(_z_state(tmat, y)[2] for y in Y)


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
    alone: the power phase is one queue over the tensors of each
    dimension whose (tensor, start) rows never mix, and a tensor counts
    its ``iterations`` from the step it entered the queue. See ``z_max``
    for the method.
    """
    return _multistart(
        tensors, _power_phase, _z_polish, _z_stuck, "no start reached the residual target", cfg
    )


def z_max(T, cfg=SolverConfig()):
    """Largest Z-eigenvalue of a symmetric fourth-order tensor.

    Multi-start shifted power iteration; the winner comes from
    ``_pick``'s lead-cluster rule: the largest polished value among the
    starts near the converged top (and any unconverged start above it)
    that meet the residual cap, ties broken by lowest start index. There
    is one pass of ``cfg.starts`` starts: if it yields no pair,
    ``NoConvergence`` is raised.
    """
    return held(z_max_batch([T], cfg)[0])


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
    """Block ascent on x A y y over a (k, n, n, n) stack of tensors, every
    start of `pool` on every tensor, run through ``_queue``.

    One sweep is the closed-form x-update for fixed y, then the y-update
    y <- B^4 y / |B^4 y| with B = N(x) + ||N(x)||_F I. B is positive
    semidefinite (||N||_F >= -lambda_min(N)), so each of the four power
    steps raises y N(x) y, as the x-update does: a sweep is a monotone
    ascent whose fixed points are the C-eigenpairs. B is formed once in
    scratch and applied four times, which costs fewer operations than
    squaring it twice at every n <= 5. The iterates live in the
    (n, m, s) layout of ``_power_phase``, so A y y and N(x) are one
    matrix product per tensor. Only y is carried: each sweep writes
    x = A y y / |A y y| into the pair-product scratch, free once A y y
    is formed, and takes x = e_1 where A y y vanishes. A start is
    converged when its objective y N(x) y at the new y stalls within
    `tol`.
    """
    k, (s, n) = a.shape[0], pool.shape
    e1 = np.eye(n)[:, :1]

    def step(amats, f, active, Y, pp, nb, prod):
        m = Y.shape[1]
        v, x = prod[:n], pp[:n]
        np.multiply(Y[:, None], Y, out=pp.reshape(n, n, m, s))
        np.matmul(amats, pp.transpose(1, 0, 2), out=v.transpose(1, 0, 2))
        vn = _norms(v)
        ok = vn > 1e-150
        np.divide(v, vn, out=x, where=ok)
        if not ok.all():
            x[:, ~ok] = e1
        np.matmul(amats.transpose(0, 2, 1), x.transpose(1, 0, 2), out=nb.transpose(1, 0, 2))
        # B = N + ||N||_F I goes to the free pair-product scratch; N stays
        # in nb for the objective
        np.copyto(pp, nb)
        pp[:: n + 1] += _norms(nb)
        b = pp.reshape(n, n, m, s)
        nb = nb.reshape(n, n, m, s)
        prod = prod.reshape(n, n, m, s)
        w = Y
        for _ in range(4):
            w = np.add.reduce(np.multiply(b, w, out=prod), axis=1)
        wn = _norms(w)
        np.divide(w, wn, out=Y, where=active & (wn > 1e-150))
        f_k = np.add.reduce(np.add.reduce(np.multiply(nb, Y, out=prod), axis=1) * Y, axis=0)
        # an active start's f is still its value of the previous step
        newly = active & (np.abs(f_k - f) <= tol)
        np.copyto(f, f_k, where=active)
        active ^= newly
        return newly

    return _queue(a.reshape(k, n, n * n), pool, max_iters, step)


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
