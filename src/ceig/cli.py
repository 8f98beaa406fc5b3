"""Command-line interface.

Subcommands::

    ceig compute <tensor-file> [--starts N --tol T --max-iters M --seed S]
    ceig bounds <A-file> <E-file> [solver flags]
    ceig experiment --materials <dir> --csv <out> [...]
    ceig oracle <tensor-file> --resolution R

Exit codes: 0 success, 2 parse or validation error, 3 solver
non-convergence, 4 violated property: containment, nesting, or a largest
C-eigenvalue below the tensor's largest entry.
"""

from __future__ import annotations

import argparse
import sys

from .bounds import check_nesting, full_report
from .errors import CeigError, ValidationError
from .harness import (
    DEFAULT_EPSILONS,
    ExperimentConfig,
    emit_csv,
    emit_markdown,
    load_material,
    load_materials,
    run_experiment,
)
from .spectral import (
    SolverConfig,
    c_max_via_lift,
    grid_oracle_c,
    grid_oracle_z,
)
from .tensors import lift


def _add_solver_flags(p):
    d = SolverConfig()
    p.add_argument("--starts", type=int, default=d.starts, help="random starts per solve")
    p.add_argument("--tol", type=float, default=d.tol, help="stall tolerance")
    p.add_argument("--seed", type=int, default=d.seed, help="PRNG seed")
    p.add_argument("--max-iters", type=int, default=d.max_iters, help="iteration cap per start")


def _solver_config(args):
    return SolverConfig(
        starts=args.starts, tol=args.tol, max_iters=args.max_iters, seed=args.seed
    )


def _fmt_vec(v):
    return "[" + ", ".join(f"{x: .12f}" for x in v) + "]"


def _cmd_compute(args):
    record = load_material(args.tensor_file)
    pair = c_max_via_lift(record.tensor, _solver_config(args))
    print(f"tensor    {record.name} (n={record.tensor.n})")
    print(f"lambda_c  {pair.value:.12f}")
    print(f"x         {_fmt_vec(pair.x)}")
    print(f"y         {_fmt_vec(pair.y)}")
    print(f"residuals |Ayy-lx|={pair.residual_x:.3e}  |xAy-ly|={pair.residual_y:.3e}")
    print(f"iterations {pair.iterations}")
    return 0


def _cmd_bounds(args):
    a = load_material(args.a_file)
    e = load_material(args.e_file)
    r = full_report(a.tensor, e.tensor, _solver_config(args))
    print(f"lambda_a   {r.lambda_a:.12f}")
    print(f"lambda_e   {r.lambda_e:.12f}")
    print(f"norm_e2    {r.norm_e2:.12f}")
    print(f"zmin_diff  {r.zmin_diff:.12e}")
    print(f"zmax_diff  {r.zmax_diff:.12e}")
    print(f"interval_21 [{r.interval_21.lo:.8f}, {r.interval_21.hi:.8f}]")
    print(f"interval_24 [{r.interval_24.lo:.8f}, {r.interval_24.hi:.8f}]")
    print(f"interval_25 [{r.interval_25.lo:.8f}, {r.interval_25.hi:.8f}]")
    print(f"nested     {str(check_nesting(r)).lower()}")
    return 0


def _parse_eps(text):
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise ValidationError(f"could not parse epsilon list {text!r}") from None


def _cmd_experiment(args):
    materials = load_materials(args.materials)
    cfg = ExperimentConfig(
        epsilons=DEFAULT_EPSILONS if args.eps is None else _parse_eps(args.eps),
        trials=args.trials,
        seed=args.seed,
        solver=_solver_config(args),
        signed=args.signed,
        shared_direction=args.shared_direction,
    )
    rows = run_experiment(materials, cfg)
    emit_csv(rows, args.csv)
    if args.md:
        emit_markdown(rows, args.md)
    print(f"{len(rows)} rows over {len(materials)} materials -> {args.csv}"
          + (f", {args.md}" if args.md else ""))
    return 0


def _cmd_oracle(args):
    record = load_material(args.tensor_file)
    lam = grid_oracle_c(record.tensor, args.resolution)
    zmin, zmax = grid_oracle_z(lift(record.tensor), args.resolution)
    print(f"grid lambda_c      {lam:.10f}")
    print(f"grid z(lift) range [{zmin:.10f}, {zmax:.10f}]")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ceig",
        description="Largest C-eigenvalues of piezoelectric-type tensors "
        "and perturbation intervals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="largest C-eigenpair of a tensor file")
    p.add_argument("tensor_file")
    _add_solver_flags(p)
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("bounds", help="perturbation intervals for A and E files")
    p.add_argument("a_file")
    p.add_argument("e_file")
    _add_solver_flags(p)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("experiment", help="seeded perturbation study over materials")
    p.add_argument("--materials", required=True, help="directory of *.txt tensors")
    p.add_argument("--eps", default=None, help="comma-separated epsilon list")
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--csv", required=True, help="CSV output path")
    p.add_argument("--md", default=None, help="markdown output path")
    p.add_argument("--signed", action="store_true",
                   help="draw entries from (-eps, eps) instead of [0, eps)")
    p.add_argument("--shared-direction", action="store_true",
                   help="scale one unit draw per (material, trial) across epsilons")
    _add_solver_flags(p)
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("oracle", help="spherical grid oracle values (n=3)")
    p.add_argument("tensor_file")
    p.add_argument("--resolution", type=int, default=800)
    p.set_defaults(func=_cmd_oracle)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CeigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
