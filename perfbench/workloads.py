"""The benchmark's workloads: seeded inputs, one op, and an independent check.

Each workload is built from the package (imported by the caller) and the
workload seed. `op` drives ceig only through its public API; `check`
verifies an op's answer by a route other than the one the op used and
raises `CheckFailed` on a miss. Checks run outside the timed region.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
from types import SimpleNamespace

import numpy as np

SLACK = 1e-8  # containment / nesting slack, as in the experiment harness
CSV_ROUND = 5e-9  # half a unit in the 8th decimal printed by the CSV
AGREE = 1e-6  # relative agreement required between the two solver routes


class CheckFailed(Exception):
    """An op's answer disagreed with the independent route."""


class OpFailed(Exception):
    """An op reported failure without raising (nonzero CLI exit code)."""


def _agree(a, b, tol=AGREE, absolute=0.0):
    return abs(a - b) <= tol * max(abs(a), abs(b)) + absolute


def _check_intervals(ceig, lam, intervals, slack, nest_slack):
    """`lam` lies in each of (i21, i24, i25) and i25 ⊆ i21 ⊆ i24."""
    for label, iv in zip(("2.1", "2.4", "2.5"), intervals):
        if not iv.contains(lam, slack):
            raise CheckFailed(f"lambda {lam!r} outside interval ({label}) [{iv.lo!r}, {iv.hi!r}]")
    i21, i24, i25 = intervals
    report = SimpleNamespace(interval_21=i21, interval_24=i24, interval_25=i25)
    if not ceig.check_nesting(report, nest_slack):
        raise CheckFailed(f"intervals not nested: {i25} in {i21} in {i24}")


def _random_piezo(ceig, rng, n, low, high, scale=1.0):
    raw = rng.uniform(low, high, n ** 3) * scale
    return ceig.make_piezo(n, raw, mode="auto_symmetrize")


class MaterialsStudy:
    """One op is the paper's table run: `ceig experiment` on the bundled
    materials with the default epsilons, 1 trial and 50 starts, each op
    under a new study seed (1000 * seed + op index). The warm-up study
    uses one fixed seed that no op uses, so set-up does the same work
    whatever the workload seed."""

    name = "materials-study"
    trace_ops = 1

    def __init__(self, ceig, root, seed, workdir):
        self.ceig = ceig
        self.materials_dir = str(root / "materials")
        self.csv_path = workdir / "study.csv"
        self.md_path = workdir / "study.md"
        self.materials = ceig.load_materials(self.materials_dir)
        self.inputs = range(1000 * seed, 1000 * seed + 999)
        self.warmup = 999_999

    def op(self, study_seed):
        argv = ["experiment", "--materials", self.materials_dir,
                "--csv", str(self.csv_path), "--md", str(self.md_path),
                "--seed", str(study_seed)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.ceig.cli.main(argv)
        if code != 0:
            raise OpFailed(f"ceig experiment --seed {study_seed} exited with {code}")
        return self.csv_path.read_bytes(), self.md_path.read_bytes()

    @staticmethod
    def digest(out):
        return hashlib.sha256(out[0]).hexdigest()

    def check(self, study_seed, out):
        ceig = self.ceig
        csv_bytes, md_bytes = out
        rows = list(csv.reader(io.StringIO(csv_bytes.decode("utf-8"))))
        eps_sorted = sorted(ceig.DEFAULT_EPSILONS, reverse=True)
        if rows[0] != ceig.CSV_HEADER.split(","):
            raise CheckFailed(f"unexpected CSV header {rows[0]}")
        if len(rows) - 1 != len(self.materials) * len(eps_sorted):
            raise CheckFailed(f"expected {len(self.materials) * len(eps_sorted)} rows, got {len(rows) - 1}")
        md = md_bytes.decode("utf-8")
        cfg = ceig.SolverConfig(starts=50, seed=study_seed)
        for r_idx, row in enumerate(rows[1:]):
            m_idx, e_idx = divmod(r_idx, len(eps_sorted))
            mat, eps = self.materials[m_idx], eps_sorted[e_idx]
            where = f"seed {study_seed}, {mat.name}, eps {eps:g}"
            if row[:3] != [mat.name, f"{eps:.8f}", "0"] or row[10:] != ["true", "true"]:
                raise CheckFailed(f"{where}: unexpected row {row}")
            if f"### {mat.name}" not in md:
                raise CheckFailed(f"{where}: material missing from markdown")
            stream = ceig.SplitMix64(ceig.derive_seed(study_seed, m_idx, e_idx, 0))
            e = ceig.gen_perturbation(mat.tensor.n, eps, stream)
            lam = ceig.c_max_alternating(mat.tensor + e, cfg).value
            true_lambda, lo21, hi21, lo24, hi24, lo25, hi25 = (float(v) for v in row[3:10])
            if not _agree(lam, true_lambda, absolute=CSV_ROUND):
                raise CheckFailed(f"{where}: true_lambda {true_lambda!r} vs alternating {lam!r}")
            intervals = (ceig.Interval(lo21, hi21), ceig.Interval(lo24, hi24), ceig.Interval(lo25, hi25))
            try:
                _check_intervals(ceig, lam, intervals, SLACK + CSV_ROUND, SLACK + 2 * CSV_ROUND)
            except CheckFailed as exc:
                raise CheckFailed(f"{where}: {exc}") from None


class RandomPairs:
    """One op is `full_report(A, E)` plus `c_max_via_lift(A + E)` on a new
    random n = 3 pair, 12 starts, eps cycling through {1, 1e-1, 1e-3}.
    The warm-up pair comes from a stream of its own that no workload seed
    gives, so set-up does the same work whatever the seed."""

    name = "random-pairs"
    trace_ops = 100
    count = 4000
    eps_cycle = (1.0, 1e-1, 1e-3)

    def __init__(self, ceig, root, seed, workdir):
        self.ceig = ceig
        self.cfg = ceig.SolverConfig(starts=12)
        rng = np.random.default_rng([seed, 1])
        self.inputs = [self._pair(rng, i) for i in range(self.count)]
        self.warmup = self._pair(np.random.default_rng([1]), 0)

    def _pair(self, rng, i):
        return (_random_piezo(self.ceig, rng, 3, -1.0, 1.0),
                _random_piezo(self.ceig, rng, 3, 0.0, 1.0, self.eps_cycle[i % 3]))

    def op(self, pair):
        a, e = pair
        report = self.ceig.full_report(a, e, self.cfg)
        return report, self.ceig.c_max_via_lift(a + e, self.cfg).value

    @staticmethod
    def digest(out):
        report, lam = out
        return repr((report, lam))

    def check(self, pair, out):
        ceig = self.ceig
        a, e = pair
        report, lam = out
        alt = ceig.c_max_alternating(a + e, self.cfg).value
        if not _agree(lam, alt):
            raise CheckFailed(f"via lift {lam!r} vs alternating {alt!r}")
        intervals = (report.interval_21, report.interval_24, report.interval_25)
        _check_intervals(ceig, alt, intervals, SLACK, SLACK)


class SolverRoutes:
    """One op is `c_max_via_lift(A)` and `c_max_alternating(A)` on one
    random tensor, 50 starts, n cycling 2..5, scale log-uniform over
    1e-6..1e3. The warm-up tensor comes from a stream of its own, as in
    `RandomPairs`."""

    name = "solver-routes"
    trace_ops = 100
    count = 4000

    def __init__(self, ceig, root, seed, workdir):
        self.ceig = ceig
        self.cfg = ceig.SolverConfig(starts=50)
        rng = np.random.default_rng([seed, 2])
        self.inputs = [self._tensor(rng, i) for i in range(self.count)]
        self.warmup = self._tensor(np.random.default_rng([2]), 0)

    def _tensor(self, rng, i):
        return _random_piezo(self.ceig, rng, 2 + i % 4, -1.0, 1.0, 10.0 ** rng.uniform(-6.0, 3.0))

    def op(self, a):
        via = self.ceig.c_max_via_lift(a, self.cfg).value
        return via, self.ceig.c_max_alternating(a, self.cfg).value

    @staticmethod
    def digest(out):
        return repr(out)

    def check(self, a, out):
        via, alt = out
        if not _agree(via, alt):
            raise CheckFailed(f"n={a.n}: via lift {via!r} vs alternating {alt!r}")


WORKLOADS = {w.name: w for w in (MaterialsStudy, RandomPairs, SolverRoutes)}
