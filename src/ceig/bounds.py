"""Two-sided perturbation intervals for the largest C-eigenvalue.

For a piezoelectric-type tensor A perturbed to A-tilde = A + E, three
intervals are guaranteed to contain the largest C-eigenvalue of the
perturbed tensor:

* ``interval_21`` (additive): lambda_a +/- lambda_Cmax(E);
* ``interval_24`` (spectral): lambda_a +/- the spectral norm of the
  n x n^2 slice unfolding of E, which dominates lambda_Cmax(E);
* ``interval_25`` (quadratic shift): square roots of lambda_a^2 shifted
  by the extreme Z-values of the difference of the fourth-order
  companions of A-tilde and A, formed directly as companion(2A + E, E).

The quadratic interval nests inside the additive one, which nests inside
the spectral one; ``check_nesting`` verifies that chain on a report.
The numeric suffixes match the column labels used in emitted tables.
A report takes four Z-solves; ``full_reports`` adds lambda(A + E) as a
fifth and batches many pairs. Only this module knows that layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import (
    CeigError,
    DimensionMismatch,
    NegativeInput,
    PropertyViolation,
    RadicandNegative,
    ValidationError,
)
from .spectral import SolverConfig, c_pair_from_lift, held, z_max_batch
from .tensors import companion, lift, unfold_spectral_norm

_NEG_BAND = 1e-8  # relative band inside which a negative radicand is clamped
SLACK = 1e-8  # absolute slack of the containment and nesting checks


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float

    def __post_init__(self):
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))
        if self.lo > self.hi:
            raise PropertyViolation(f"interval endpoints out of order: [{self.lo}, {self.hi}]")

    def contains(self, value, slack=0.0):
        return self.lo - slack <= value <= self.hi + slack

    def nests_in(self, outer, slack=0.0):
        """True when self sits inside `outer`, endpoint-wise with slack."""
        return self.lo >= outer.lo - slack and self.hi <= outer.hi + slack


def _require_nonneg(**named):
    for label, value in named.items():
        if value < 0.0:
            raise NegativeInput(f"{label} must be nonnegative, got {value!r}")


def bound_additive(lambda_a, lambda_e):
    """[lambda_a - lambda_e, lambda_a + lambda_e].

    The lower endpoint may be negative and is reported as-is.
    """
    lambda_a, lambda_e = float(lambda_a), float(lambda_e)
    _require_nonneg(lambda_a=lambda_a, lambda_e=lambda_e)
    return Interval(lambda_a - lambda_e, lambda_a + lambda_e)


def bound_spectral(lambda_a, norm_e2):
    """[lambda_a - ||E||_2, lambda_a + ||E||_2] for the slice unfolding norm."""
    lambda_a, norm_e2 = float(lambda_a), float(norm_e2)
    _require_nonneg(lambda_a=lambda_a, norm_e2=norm_e2)
    return Interval(lambda_a - norm_e2, lambda_a + norm_e2)


def bound_quadratic(lambda_a, zmin_diff, zmax_diff):
    """Square-root interval from the companion-difference Z-extremes.

    Both tolerances are relative to lambda_a^2 + max(|zmin_diff|,
    |zmax_diff|), the scale of the inputs' rounding, so the outcome does
    not depend on the tensors' scale. An inversion zmin_diff > zmax_diff
    within 1e-10 of it is forgiven, and a radicand lambda_a^2 + shift is
    clamped at zero only within 1e-8 of it; beyond those, the inputs are
    inconsistent and it raises.
    """
    lambda_a = float(lambda_a)
    zmin_diff, zmax_diff = float(zmin_diff), float(zmax_diff)
    _require_nonneg(lambda_a=lambda_a)
    sq = lambda_a * lambda_a
    scale = sq + max(abs(zmin_diff), abs(zmax_diff))
    if zmin_diff > zmax_diff:
        # tolerate solver rounding on degenerate differences, reject the rest
        if zmin_diff - zmax_diff > 1e-10 * scale:
            raise ValidationError(
                f"zmin_diff {zmin_diff!r} exceeds zmax_diff {zmax_diff!r}"
            )
        zmin_diff = zmax_diff
    endpoints = []
    for shift in (zmin_diff, zmax_diff):
        radicand = sq + shift
        if radicand < -_NEG_BAND * scale:
            raise RadicandNegative(
                f"lambda_a^2 + {shift!r} = {radicand!r} is negative beyond tolerance"
            )
        endpoints.append(math.sqrt(max(radicand, 0.0)))
    return Interval(endpoints[0], endpoints[1])


@dataclass(frozen=True)
class BoundReport:
    """The five scalars of one perturbation analysis and the three
    intervals built from them by ``bound_additive``, ``bound_spectral``
    and ``bound_quadratic``, which also validate the scalars."""

    lambda_a: float
    lambda_e: float
    norm_e2: float
    zmin_diff: float
    zmax_diff: float
    interval_21: Interval = field(init=False)
    interval_24: Interval = field(init=False)
    interval_25: Interval = field(init=False)

    def __post_init__(self):
        a = self.lambda_a
        object.__setattr__(self, "interval_21", bound_additive(a, self.lambda_e))
        object.__setattr__(self, "interval_24", bound_spectral(a, self.norm_e2))
        object.__setattr__(self, "interval_25", bound_quadratic(a, self.zmin_diff, self.zmax_diff))


def _plan(A, E):
    """The Z-problems lift(A), lift(E), -D and D of the pair's report,
    D = companion(2A + E, E) = lift(A + E) - lift(A), and the function
    that reads the BoundReport off their results. Held solver failures
    and the checks of ``c_pair_from_lift`` raise in the order a
    sequential solve meets them: lambda(A), lambda(E), D's extremes."""
    if A.n != E.n:
        raise DimensionMismatch(f"dimension mismatch: A has n={A.n}, E has n={E.n}")
    diff = companion(2.0 * A + E, E)

    def read(z_a, z_e, z_neg_diff, z_diff):
        return BoundReport(
            c_pair_from_lift(A, z_a).value,
            c_pair_from_lift(E, z_e).value,
            unfold_spectral_norm(E),
            -held(z_neg_diff).value,  # min(T) = -max(-T)
            held(z_diff).value,
        )

    return [lift(A), lift(E), -diff, diff], read


def _plan_with_truth(A, E):
    """``_plan`` and lift(A + E); the reader returns (BoundReport,
    CEigenpair of A + E), lambda(A + E) raising after the report."""
    problems, read = _plan(A, E)
    a_tilde = A + E
    return problems + [lift(a_tilde)], lambda *z: (read(*z[:4]), c_pair_from_lift(a_tilde, z[4]))


def _attempt(f, *args):
    """f(*args), or the ``CeigError`` it raised."""
    try:
        return f(*args)
    except CeigError as exc:
        return exc


def full_report(A, E, cfg=SolverConfig()):
    """The three intervals for the perturbation A -> A + E, from
    lambda_Cmax of A and of E, the unfolding norm of E and the Z-extremes
    of the companion difference lift(A+E) - lift(A); the four Z-problems
    run as one batch."""
    problems, read = _plan(A, E)
    return read(*z_max_batch(problems, cfg))


def full_reports(pairs, cfg=SolverConfig()):
    """One entry per (A, E) of `pairs`: (``full_report``, CEigenpair of
    A + E), or the ``CeigError`` the pair raised (a dimension mismatch,
    a lift that overflows, no convergence, a violated property), held so
    callers can attribute it. Every pair's five Z-problems go to one
    ``z_max_batch`` call: each result is bit-identical to solving its
    pair alone."""
    plans = [_attempt(_plan_with_truth, A, E) for A, E in pairs]
    problems = [p for plan in plans if not isinstance(plan, CeigError) for p in plan[0]]
    solved = zip(*[iter(z_max_batch(problems, cfg))] * 5)  # five per planned pair
    return [plan if isinstance(plan, CeigError) else _attempt(plan[1], *next(solved))
            for plan in plans]


def check_nesting(r, slack=SLACK):
    """True iff interval_25 is inside interval_21 is inside interval_24."""
    return r.interval_25.nests_in(r.interval_21, slack) and r.interval_21.nests_in(
        r.interval_24, slack
    )
