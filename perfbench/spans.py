"""In-memory span tracing of ceig's public functions, for the traced run.

`Tracer.install(ceig)` replaces each traced function at every module
binding inside the package that refers to it (``ceig.spectral.z_max``,
``ceig.bounds.z_max``, ``ceig.z_max``, ...), so calls between modules and
inside one module (``z_min`` calling ``z_max``) are caught alike.
Constructors and methods (``SymTensor4``, ``SplitMix64.uniforms``) are
wrapped on their class. The tracer is installed only around the traced
ops, so set-up and the benchmark's own checks stay out of the figures.
Spans stay in memory until `Tracer.write` dumps them at the end of a run.

A span is (name, start, end, parent, op). Self time is a span's duration
minus the time covered by its direct children.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from collections import defaultdict

# span name -> (module, attribute) of the function to wrap
FUNCTIONS = {
    "spectral.z_max": ("ceig.spectral", "z_max"),
    "spectral.z_min": ("ceig.spectral", "z_min"),
    "spectral.c_max_via_lift": ("ceig.spectral", "c_max_via_lift"),
    "spectral.c_max_alternating": ("ceig.spectral", "c_max_alternating"),
    "tensors.lift": ("ceig.tensors", "lift"),
    "tensors.unfold_spectral_norm": ("ceig.tensors", "unfold_spectral_norm"),
    "tensors.parse": ("ceig.tensors", "parse_tensor_text"),
    "bounds.full_report": ("ceig.bounds", "full_report"),
    "harness.run_experiment": ("ceig.harness", "run_experiment"),
    "harness.gen_perturbation": ("ceig.harness", "gen_perturbation"),
    "harness.emit": ("ceig.harness", "emit_csv"),
    "harness.emit_md": ("ceig.harness", "emit_markdown"),
    "harness.load_materials": ("ceig.harness", "load_materials"),
    "jacobi.eigh": ("ceig.jacobi", "jacobi_eigh"),
    "cli.main": ("ceig.cli", "main"),
}

# span name -> (module, class, method) wrapped on the class itself
METHODS = {
    "tensors.sym4": ("ceig.tensors", "SymTensor4", "__init__"),
    "rng.uniforms": ("ceig.rng", "SplitMix64", "uniforms"),
    "rng.gaussians": ("ceig.rng", "SplitMix64", "gaussians"),
}

# spans whose first argument's entries are hashed to count distinct inputs
_DISTINCT = ("spectral.z_max", "tensors.lift")
# solvers whose returned pair carries `.iterations`
_ITERATING = ("spectral.z_max", "spectral.c_max_alternating")


def _entries_key(tensor):
    return hashlib.blake2b(tensor.entries.tobytes(), digest_size=16).digest()


class Tracer:
    """Records spans and counters, each tagged with the current `op`."""

    def __init__(self):
        self.op = -1
        self.spans = []  # [name, start, end, parent index or -1, op]
        self._stack = []
        self._patches = []
        self.missing = []
        # (op, name) -> set of input keys / summed counters
        self.keys = defaultdict(set)
        self.counts = defaultdict(int)
        self._no_convergence = ()

    # -- installation -------------------------------------------------

    def install(self, ceig):
        """Wrap every traced function and method found in the package."""
        self._no_convergence = ceig.NoConvergence
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "ceig" or k.startswith("ceig."))]
        for name, (mod, attr) in FUNCTIONS.items():
            fn = getattr(sys.modules.get(mod), attr, None)
            if fn is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, fn)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        self._patches.append((m, key, value))
                        setattr(m, key, wrapper)
        for name, (mod, cls_name, attr) in METHODS.items():
            cls = getattr(sys.modules.get(mod), cls_name, None)
            if cls is None or attr not in vars(cls):
                self.missing.append(name)
                continue
            fn = vars(cls)[attr]
            self._patches.append((cls, attr, fn))
            setattr(cls, attr, self._wrap(name, fn))
        return self

    def uninstall(self):
        for owner, key, value in reversed(self._patches):
            setattr(owner, key, value)
        self._patches.clear()

    def _wrap(self, name, fn):
        tracer = self
        distinct = name in _DISTINCT
        iterating = name in _ITERATING
        spectral = name.startswith("spectral.")
        draws = name.startswith("rng.")

        def traced(*args, **kwargs):
            op = tracer.op
            if distinct:
                tracer.keys[op, name].add(_entries_key(args[0]))
            if draws:
                tracer.counts[op, "rng.draws"] += int(args[1] if len(args) > 1 else kwargs["count"])
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, time.perf_counter(), None, parent, op]
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                out = fn(*args, **kwargs)
            except tracer._no_convergence as exc:
                if spectral and not getattr(exc, "_perfbench_counted", False):
                    exc._perfbench_counted = True
                    tracer.counts[op, "spectral.no_convergence"] += 1
                raise
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if iterating:
                tracer.counts[op, "spectral.winner_iters"] += int(out.iterations)
            return out

        return traced

    def write(self, path):
        """Write every span as one JSON line; times in seconds from the first."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": name, "start_s": start - t0,
                                     "end_s": end - t0, "parent": parent, "op": op}) + "\n")

    # -- reduction ----------------------------------------------------

    def layer_totals(self, ops):
        """Per-name totals over the given op indices.

        Returns {name: {"calls", "ms", "self_ms", "distinct"}} plus the
        raw counters, both summed over `ops`.
        """
        ops = set(ops)
        child_s = defaultdict(float)
        for name, start, end, parent, op in self.spans:
            if parent >= 0 and op in ops:
                child_s[parent] += end - start
        totals = defaultdict(lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0, "distinct": 0})
        for index, (name, start, end, parent, op) in enumerate(self.spans):
            if op not in ops:
                continue
            t = totals[name]
            t["calls"] += 1
            t["ms"] += (end - start) * 1e3
            t["self_ms"] += (end - start - child_s[index]) * 1e3
        for (op, name), keys in self.keys.items():
            if op in ops:
                totals[name]["distinct"] += len(keys)
        counts = defaultdict(int)
        for (op, name), value in self.counts.items():
            if op in ops:
                counts[name] += value
        return totals, counts


def layer_metrics(tracer, ops):
    """The per-layer metrics, each divided by the number of ops."""
    totals, counts = tracer.layer_totals(ops)
    k = float(len(ops))

    def calls(name):
        return totals[name]["calls"] / k if name in totals else 0.0

    def ms(name, key="ms"):
        return totals[name][key] / k if name in totals else 0.0

    def distinct_ratio(name):
        t = totals.get(name)
        return t["distinct"] / t["calls"] if t and t["calls"] else 0.0

    count, msu, ratio = "count", "ms", "1"
    return {
        "spectral.z_max.calls": (calls("spectral.z_max"), count),
        "spectral.z_max.ms": (ms("spectral.z_max"), msu),
        "spectral.z_max.distinct_ratio": (distinct_ratio("spectral.z_max"), ratio),
        "spectral.z_min.calls": (calls("spectral.z_min"), count),
        "spectral.c_max_via_lift.calls": (calls("spectral.c_max_via_lift"), count),
        "spectral.c_max_via_lift.self_ms": (ms("spectral.c_max_via_lift", "self_ms"), msu),
        "spectral.c_max_alternating.calls": (calls("spectral.c_max_alternating"), count),
        "spectral.c_max_alternating.ms": (ms("spectral.c_max_alternating"), msu),
        "spectral.winner_iters": (counts["spectral.winner_iters"] / k, count),
        "spectral.no_convergence": (counts["spectral.no_convergence"] / k, count),
        "tensors.lift.calls": (calls("tensors.lift"), count),
        "tensors.lift.ms": (ms("tensors.lift"), msu),
        "tensors.lift.distinct_ratio": (distinct_ratio("tensors.lift"), ratio),
        "tensors.sym4.constructions": (calls("tensors.sym4"), count),
        "tensors.sym4.ms": (ms("tensors.sym4"), msu),
        "tensors.unfold_spectral_norm.ms": (ms("tensors.unfold_spectral_norm"), msu),
        "tensors.parse.ms": (ms("tensors.parse"), msu),
        "bounds.full_report.calls": (calls("bounds.full_report"), count),
        "bounds.full_report.self_ms": (ms("bounds.full_report", "self_ms"), msu),
        "harness.run_experiment.self_ms": (ms("harness.run_experiment", "self_ms"), msu),
        "harness.gen_perturbation.ms": (ms("harness.gen_perturbation"), msu),
        "harness.emit.ms": (ms("harness.emit") + ms("harness.emit_md"), msu),
        "harness.load_materials.ms": (ms("harness.load_materials"), msu),
        "rng.draws": (counts["rng.draws"] / k, count),
        "rng.ms": (ms("rng.uniforms") + ms("rng.gaussians"), msu),
        "jacobi.eigh.calls": (calls("jacobi.eigh"), count),
        "jacobi.eigh.ms": (ms("jacobi.eigh"), msu),
        "cli.main.self_ms": (ms("cli.main", "self_ms"), msu),
    }
