"""Experiment harness: material fixtures, seeded perturbations, and the
table-style perturbation study.

The protocol mirrors the reference tables: for each material and each
epsilon, draw a nonnegative random perturbation with entries below
epsilon, compute the three intervals plus the true largest C-eigenvalue
of the perturbed tensor, and require containment and nesting to hold
before anything is emitted.

Sub-seeds are derived by mixing (seed, material index, epsilon index,
trial), so cells are independent: results do not depend on appending
further materials or epsilons. A study hands all its (A, E) pairs to one
``bounds.full_reports`` call, which lifts and solves each distinct
tensor once: this module knows the protocol, not a report's Z-problems.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .bounds import SLACK, check_nesting, full_reports
from .errors import CeigError, ParseError, PropertyViolation, ValidationError
from .rng import SplitMix64, derive_seed
from .spectral import SolverConfig
from .tensors import PiezoTensor, make_piezo, parse_tensor_text

DEFAULT_EPSILONS = (1.0, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5)


@dataclass(frozen=True)
class MaterialRecord:
    name: str
    tensor: PiezoTensor

    def __post_init__(self):
        if not self.name:
            raise ValidationError("material name must be non-empty")


@dataclass(frozen=True)
class ExperimentConfig:
    epsilons: tuple = DEFAULT_EPSILONS
    trials: int = 1
    seed: int = 0
    solver: SolverConfig = field(default_factory=SolverConfig)
    signed: bool = False
    shared_direction: bool = False

    def __post_init__(self):
        eps = tuple(float(e) for e in self.epsilons)
        if not eps:
            raise ValidationError("need at least one epsilon")
        if not all(np.isfinite(e) and e >= 0 for e in eps):
            raise ValidationError(f"epsilons must be finite and nonnegative, got {eps}")
        object.__setattr__(self, "epsilons", eps)
        # type(), not isinstance: a bool is an int
        if type(self.trials) is not int or self.trials < 1:
            raise ValidationError(f"trials must be a positive integer, got {self.trials!r}")
        if type(self.seed) is not int or not (0 <= self.seed < 2 ** 64):
            raise ValidationError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")


@dataclass(frozen=True)
class ResultRow:
    material: str
    epsilon: float
    trial: int
    true_lambda: float
    lo21: float
    hi21: float
    lo24: float
    hi24: float
    lo25: float
    hi25: float
    nested: bool
    contained: bool


def load_material(path):
    """Parse one UTF-8 tensor text file; the name falls back to the stem."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(str(path), exc.object.count(b"\n", 0, exc.start) + 1, "not UTF-8") from None
    tensor, name = parse_tensor_text(text, str(path))
    return MaterialRecord(name=name or path.stem, tensor=tensor)


def load_materials(directory):
    """All *.txt fixtures in a directory, sorted by filename."""
    directory = Path(directory)
    paths = sorted(directory.glob("*.txt"))
    if not paths:
        raise ValidationError(f"no *.txt material files found in {directory}")
    return [load_material(p) for p in paths]


def gen_perturbation(n, epsilon, stream, signed=False):
    """Random perturbation tensor with entries symmetrized over (j, k).

    Draws n^3 uniforms from `stream`, scales by epsilon, and averages the
    two orderings of the last index pair; entries land in [0, epsilon)
    (or (-epsilon, epsilon) with `signed`).
    """
    if epsilon < 0:
        raise ValidationError(f"epsilon must be nonnegative, got {epsilon!r}")
    u = np.array(stream.uniforms(n ** 3), dtype=float)
    if signed:
        u = 2.0 * u - 1.0
    return make_piezo(n, epsilon * u, mode="auto_symmetrize")


def _cell_perturbation(material, m_idx, epsilon, e_idx, trial, cfg):
    if cfg.shared_direction:
        stream = SplitMix64(derive_seed(cfg.seed, m_idx, trial))
        return epsilon * gen_perturbation(material.tensor.n, 1.0, stream, signed=cfg.signed)
    stream = SplitMix64(derive_seed(cfg.seed, m_idx, e_idx, trial))
    return gen_perturbation(material.tensor.n, epsilon, stream, signed=cfg.signed)


def _result_row(material, epsilon, trial, entry):
    where = f"material {material.name!r}, epsilon {epsilon:g}, trial {trial}"
    if isinstance(entry, CeigError):
        raise _in_cell(where, entry)
    report, true_pair = entry
    true_lambda = true_pair.value
    intervals = report.interval_21, report.interval_24, report.interval_25
    contained = all(iv.contains(true_lambda, SLACK) for iv in intervals)
    nested = check_nesting(report)
    if not (contained and nested):
        raise PropertyViolation(
            f"{where}: containment={contained} nesting={nested}, "
            f"true={true_lambda!r}, report={report!r}"
        )
    ends = (end for iv in intervals for end in (iv.lo, iv.hi))
    return ResultRow(material.name, epsilon, trial, true_lambda, *ends, nested, contained)


def _in_cell(where, exc):
    """`exc` itself, its message prefixed in place with the cell's
    coordinates, so its type and attributes (``best_residual``) stay."""
    exc.args = (f"{where}: {exc}",)
    return exc


def run_experiment(materials, cfg=ExperimentConfig()):
    """All (material, epsilon, trial) cells, epsilon descending per material.

    Every cell's perturbation is drawn (up to one that overflows), then
    one ``full_reports`` call solves all cells. The first failing cell
    raises, prefixed with its coordinates, as if cells ran one by one:
    PropertyViolation if its true value escapes an interval or the
    nesting chain breaks. Rows are only returned for clean runs.
    """
    if not materials:
        raise ValidationError("no materials given")
    dims = {m.tensor.n for m in materials}
    if len(dims) != 1:
        raise ValidationError(f"materials mix dimensions {sorted(dims)}")
    eps_sorted = tuple(sorted(cfg.epsilons, reverse=True))
    cells = [
        (mat, m_idx, eps, e_idx, trial)
        for m_idx, mat in enumerate(materials)
        for e_idx, eps in enumerate(eps_sorted)
        for trial in range(cfg.trials)
    ]
    pairs, undrawn = [], []
    for mat, m_idx, eps, e_idx, trial in cells:
        try:
            pairs.append((mat.tensor, _cell_perturbation(mat, m_idx, eps, e_idx, trial, cfg)))
        except CeigError as exc:  # a draw that overflows fails after the cells before it
            undrawn = [exc]
            break
    entries = zip(cells, full_reports(pairs, cfg.solver) + undrawn)
    return [_result_row(mat, eps, trial, entry) for (mat, _, eps, _, trial), entry in entries]


_COLUMNS = tuple(f.name for f in fields(ResultRow))
CSV_HEADER = ",".join(_COLUMNS)


def _csv_cell(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.8f}"
    return str(value)


def emit_csv(rows, path):
    """Write rows as CSV, one column per ``ResultRow`` field: floats with
    8 decimals, booleans as true/false, LF line endings."""
    with open(path, "w", encoding="utf-8", newline="\n") as out:
        out.write(CSV_HEADER + "\n")
        for r in rows:
            out.write(",".join(_csv_cell(getattr(r, c)) for c in _COLUMNS) + "\n")


def emit_markdown(rows, path):
    """Table per material: epsilon columns, an upper-endpoint section and
    a lower-endpoint section, mirroring the reference layout.

    Only trial 0 is rendered; other trials stay CSV-only.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as out:
        if not rows:
            out.write("No experiment rows.\n")
            return
        n_trials = max(r.trial for r in rows) + 1
        shown = [r for r in rows if r.trial == 0]
        materials = []
        for r in shown:
            if r.material not in materials:
                materials.append(r.material)
        if n_trials > 1:
            out.write(f"Showing trial 0 of {n_trials}; all trials are in the CSV output.\n\n")
        for name in materials:
            mine = [r for r in shown if r.material == name]
            mine.sort(key=lambda r: -r.epsilon)
            eps_hdr = " | ".join(f"eps={r.epsilon:g}" for r in mine)
            out.write(f"### {name}\n\n")
            out.write(f"| bound | {eps_hdr} |\n")
            out.write("|---" * (len(mine) + 1) + "|\n")
            sections = (
                ("upper", [("TRUE", "true_lambda"), ("(2.1)", "hi21"), ("(2.4)", "hi24"), ("(2.5)", "hi25")]),
                ("lower", [("TRUE", "true_lambda"), ("(2.1)", "lo21"), ("(2.4)", "lo24"), ("(2.5)", "lo25")]),
            )
            for section, spec_rows in sections:
                for label, attr in spec_rows:
                    cells = " | ".join(f"{getattr(r, attr):.8f}" for r in mine)
                    tag = label if label == "TRUE" else f"{label} {section}"
                    out.write(f"| {tag} | {cells} |\n")
            out.write("\n")
