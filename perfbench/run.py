"""ceig benchmark: one workload per process, single-threaded BLAS.

    python3 perfbench/run.py --workload materials-study --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout; ceig is imported from ./src.
With ``--trace 0`` it measures the end-to-end metrics with tracing off;
with ``--trace 1`` it runs the same ops untraced and then traced, and
reports per-op layer metrics from the traced ops plus the tracing
overhead. The last line of stdout is the JSON result; the line before it
is an informational JSON block (environment, sample counts, digests).
A traced run also writes its spans to perfbench/out/ as JSON lines.
See perfbench/README.md for the metrics and workloads.
"""

import os

# Pin every BLAS / OpenMP pool to one thread before numpy can load; the
# setup probes inherit the same environment.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# extra fresh-interpreter set-ups per workload (numpy must not be imported
# before set-up is timed, so this lives here rather than in workloads.py);
# a materials-study set-up runs a whole warm-up study
SETUP_PROBES = {"materials-study": 2, "random-pairs": 4, "solver-routes": 4}
PROBE_TIMEOUT_S = 60


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(SETUP_PROBES))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0,
                   help="length of the timed phase (split in two when tracing)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="(internal) set up once, print setup_s and exit")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    return args


def percentile(sorted_values, q):
    """Linear-interpolated percentile of an ascending list, q in [0, 1]."""
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail_quantile(n):
    """p90 from 100 samples on; below that the highest quantile with at
    least ten samples above it, but never below the median."""
    return 0.9 if n >= 100 else max(0.5, 1.0 - 10.0 / n)


def setup_probe(args):
    """setup_s of a fresh interpreter, measured by a child process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def blas_threads():
    """Thread count of the loaded OpenBLAS, asked of the library itself;
    None when no OpenBLAS with that query is mapped into the process."""
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="replace") as fh:
            fields = (line.split(maxsplit=5) for line in fh)
            paths = sorted({f[5].strip() for f in fields
                            if len(f) == 6 and "openblas" in f[5].lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            query = getattr(lib, symbol, None)
            if query is not None:
                query.restype = ctypes.c_int
                return query()
    return None


def environment(numpy, ceig):
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except Exception:  # numpy without the dict config: report, do not fail
        blas_name = "unknown"
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            threads = int(next(line.split()[1] for line in fh if line.startswith("Threads:")))
    except (OSError, StopIteration):
        threads = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "ceig": getattr(ceig, "__version__", "unknown"),
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "blas_threads_requested": os.environ["OPENBLAS_NUM_THREADS"],
        "os_threads": threads,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
    }


def run_phase(workload, errors, seconds, min_ops, tracer=None):
    """Run ops in input order until `seconds` have passed and at least
    `min_ops` are done. Returns ([(seconds, out, error)], wall, cpu)."""
    records = []
    cpu0 = time.process_time()
    start = time.perf_counter()
    for index, x in enumerate(workload.inputs):
        if tracer is not None:
            tracer.op = index
        t = time.perf_counter()
        try:
            out, err = workload.op(x), None
        except errors as exc:
            out, err = None, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t
        records.append((dt, out, err))
        if len(records) >= min_ops and time.perf_counter() - start >= seconds:
            break
    return records, time.perf_counter() - start, time.process_time() - cpu0


def check_records(workload, records, check_failed):
    """Independent checks of every op; returns failure messages."""
    failures = []
    for index, (x, (_, out, err)) in enumerate(zip(workload.inputs, records)):
        if err is not None:
            failures.append(f"op {index}: {err}")
            continue
        try:
            workload.check(x, out)
        except check_failed as exc:
            failures.append(f"op {index}: check failed: {exc}")
    return failures


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "ceig" / "__init__.py").is_file() or not (ROOT / "materials").is_dir():
        print(f"error: no ceig source tree (src/ceig, materials/) under {ROOT}", file=sys.stderr)
        return 2
    probes = []
    if not args.setup_only and not args.trace:
        probes = [setup_probe(args) for _ in range(SETUP_PROBES[args.workload])]

    with tempfile.TemporaryDirectory(dir=HERE, prefix=".work-") as workdir:
        # -- set-up: from before `import ceig` to after one warm-up op --
        t0 = time.perf_counter()
        sys.path.insert(0, str(SRC))
        import ceig
        import ceig.cli  # noqa: F401  (the materials-study op calls ceig.cli.main)
        import numpy

        if Path(ceig.__file__).resolve().parent != SRC / "ceig":
            print(f"error: imported ceig from {ceig.__file__}, not {SRC}", file=sys.stderr)
            return 2
        import workloads

        workload = workloads.WORKLOADS[args.workload](ceig, ROOT, args.seed, Path(workdir))
        workload.op(workload.warmup)
        setup_s = time.perf_counter() - t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        errors = (ceig.CeigError, workloads.OpFailed)
        info = {"workload": args.workload, "seed": args.seed, "env": environment(numpy, ceig)}
        mismatches = []
        if args.trace:
            records, metrics, mismatches = traced_run(args, workload, errors, ceig, info)
        else:
            records, wall, cpu = run_phase(workload, errors, args.seconds, 1)
            metrics = timing_metrics(records, wall, info)
            info["busy_ratio"] = cpu / wall
            setups = sorted(probes + [setup_s])
            info["setup_samples_s"] = setups
            metrics["setup_s"] = (statistics.median(setups), "s")
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")

        failures = mismatches + check_records(
            workload, records, workloads.CheckFailed)
        attempted = len(records)
        info["failed_ratio"] = len(failures) / attempted
        info["failures"] = failures[:10]
        if not args.trace:
            metrics["ok_ratio"] = (1.0 - len(failures) / attempted, "1")
        if isinstance(workload, workloads.MaterialsStudy):
            info["csv_sha256"] = {
                str(seed): workload.digest(out)
                for seed, (_, out, err) in zip(workload.inputs, records) if err is None
            }

    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def timing_metrics(records, wall, info):
    times_ms = sorted(dt * 1e3 for dt, _, _ in records)
    q = tail_quantile(len(times_ms))
    info["ops"] = len(times_ms)
    info["wall_s"] = wall
    info["op_ms_tail_quantile"] = q
    return {
        "ops_per_s": (len(times_ms) / wall, "ops/s"),
        "op_ms.p50": (percentile(times_ms, 0.5), "ms"),
        "op_ms.p90": (percentile(times_ms, q), "ms"),
    }


def traced_run(args, workload, errors, ceig, info):
    """Untraced then traced pass over the same leading ops.

    Layer metrics come from the first `trace_ops` traced ops, a fixed
    set, so their counts repeat exactly. Returns the traced records, the
    metrics and one message per op whose answers differ between passes.
    """
    from spans import Tracer, layer_metrics

    half = args.seconds / 2.0
    plain, wall_plain, cpu_plain = run_phase(workload, errors, half, workload.trace_ops)
    tracer = Tracer().install(ceig)
    try:
        traced, wall_traced, cpu_traced = run_phase(
            workload, errors, half, workload.trace_ops, tracer)
    finally:
        tracer.uninstall()
    mismatches = [
        f"op {i}: traced answer differs from untraced"
        for i, (a, b) in enumerate(zip(plain, traced))
        if (a[2] is None) != (b[2] is None)
        or (a[2] is None and workload.digest(a[1]) != workload.digest(b[1]))
    ]
    metrics = layer_metrics(tracer, range(workload.trace_ops))
    spans_file = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
    spans_file.parent.mkdir(exist_ok=True)
    tracer.write(spans_file)
    overhead = (len(traced) / wall_traced) / (len(plain) / wall_plain)
    metrics["trace.overhead_ratio"] = (overhead, "1")
    info.update({
        "ops": len(traced),
        "untraced_ops": len(plain),
        "trace_ops": workload.trace_ops,
        "spans": len(tracer.spans),
        "spans_file": str(spans_file.relative_to(ROOT)),
        "missing_targets": tracer.missing,
        "busy_ratio": cpu_traced / wall_traced,
        "untraced_busy_ratio": cpu_plain / wall_plain,
    })
    return traced, metrics, mismatches


if __name__ == "__main__":
    sys.exit(main())
