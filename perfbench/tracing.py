"""Span tracing of pairdeg layers, installed from outside the package.

``Tracer.install`` wraps the traced public functions in every ``pairdeg``
module namespace that holds them (so both ``from .spectra import
eigendecompose`` call sites and module-internal calls are seen), wraps
``numpy.linalg.eig``/``eigvals`` as the LAPACK kernel, and wraps the CLI's
two file writers.  ``uninstall`` puts the originals back, so untraced passes
run the unmodified code.

Spans are kept in memory as ``(name, start, end, parent)`` tuples, parent
being the index of the enclosing span or -1, and written out once at the end.
Counters that turn into ratios are recorded in the same wrappers, at the
layer boundary where the work happens.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import time
from collections import defaultdict

import numpy as np

from workloads import CERTIFY_GAP_TOL

# (module defining the function, function name) -> span name
TRACED = {
    ("pairdeg.model", "build_operator_matrices"): "model.build_operator_matrices",
    ("pairdeg.spectra", "eigendecompose"): "spectra.eigendecompose",
    ("pairdeg.spectra", "c_normalize"): "spectra.c_normalize",
    ("pairdeg.spectra", "match_states"): "spectra.match_states",
    ("pairdeg.spectra", "continue_spectrum"): "spectra.continue_spectrum",
    ("pairdeg.discriminant", "discriminant_poly"): "discriminant.discriminant_poly",
    ("pairdeg.discriminant", "find_degeneracies"): "discriminant.find_degeneracies",
    ("pairdeg.discriminant", "discriminant_grid"): "discriminant.discriminant_grid",
    ("pairdeg.atlas", "classify"): "atlas.classify",
    ("pairdeg.atlas", "sweep_gamma"): "atlas.sweep_gamma",
    ("pairdeg.monodromy", "trace_loop"): "monodromy.trace_loop",
    ("pairdeg.observables", "pairing_energy_cut"): "observables.pairing_energy_cut",
    ("pairdeg.observables", "coefficient_extract"): "observables.coefficient_extract",
    ("pairdeg.observables", "ladder_spectra"): "observables.ladder_spectra",
    ("pairdeg._csvio", "write_csv"): "cli.write",
    ("pairdeg.cli", "_write_json"): "cli.write",
}
LAPACK = {"eig": "lapack.eig", "eigvals": "lapack.eigvals"}


def _requested_radius(args, kwargs):
    if "radius" in kwargs:
        return kwargs["radius"]
    if len(args) > 1:
        return args[1]
    from pairdeg.discriminant import DEFAULT_RADIUS

    return DEFAULT_RADIUS


def _count_match(counts, args, kwargs, result):
    counts["spectra.match_states.ambiguous"] += bool(result.ambiguous)
    # The exhaustive matcher (n <= 7) always finds a runner-up; the scipy
    # fallback above that returns margin = inf, i.e. ambiguity unchecked.
    counts["spectra.match_states.unchecked"] += math.isinf(result.margin)


def _count_poly(counts, args, kwargs, result):
    if result.radius != _requested_radius(args, kwargs):
        counts["discriminant.discriminant_poly.retried"] += 1


def _count_roots(counts, args, kwargs, result):
    from pairdeg.model import as_family

    roots = result[0] if isinstance(result, tuple) else result
    if not roots:
        return
    family = as_family(args[0])
    for r in roots:
        counts["discriminant.find_degeneracies.roots"] += r.multiplicity
        scale = np.linalg.norm(family.matrix(r.g0))
        if r.min_gap <= CERTIFY_GAP_TOL * scale:
            counts["discriminant.find_degeneracies.certified"] += r.multiplicity


def _count_classify(counts, args, kwargs, result):
    counts["atlas.classify.unresolved"] += result.kind.value == "UNRESOLVED"


def _count_bytes(counts, args, kwargs, result):
    counts["cli.write.bytes"] += os.path.getsize(args[0])


# ratio metric -> (numerator counter, base counter or span name)
RATIOS = {
    "spectra.match_states.ambiguous_ratio":
        ("spectra.match_states.ambiguous", "spectra.match_states"),
    "spectra.match_states.unchecked_ratio":
        ("spectra.match_states.unchecked", "spectra.match_states"),
    "discriminant.find_degeneracies.certified_ratio":
        ("discriminant.find_degeneracies.certified",
         "discriminant.find_degeneracies.roots"),
    "atlas.classify.unresolved_ratio":
        ("atlas.classify.unresolved", "atlas.classify"),
}

AFTER = {
    "spectra.match_states": _count_match,
    "discriminant.discriminant_poly": _count_poly,
    "discriminant.find_degeneracies": _count_roots,
    "atlas.classify": _count_classify,
    "cli.write": _count_bytes,
}


class Tracer:
    """Records spans and counters while installed."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        after = AFTER.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts[name + ".raised"] += 1
                raise
            finally:
                spans[index] = (name, start, clock(), parent)
                stack.pop()
            if after is not None:
                after(counts, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every traced function; returns nothing, undo with uninstall."""
        modules = {k: m for k, m in sys.modules.items()
                   if k == "pairdeg" or k.startswith("pairdeg.")}
        for (home, attr), name in TRACED.items():
            original = getattr(modules[home], attr)
            wrapped = self._wrap(name, original)
            for module in modules.values():
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapped)
                    self._restore.append((module, attr, original))
        for attr, name in LAPACK.items():
            original = getattr(np.linalg, attr)
            setattr(np.linalg, attr, self._wrap(name, original))
            self._restore.append((np.linalg, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def mark(self):
        """Position in the span and counter record, for per-pass summaries."""
        return len(self.spans), dict(self.counts)

    def summarize(self, since, wall_s):
        """Per-layer metrics of the spans and counters recorded since ``mark()``.

        Returns ``(metrics, self_s, total_s)``: ``metrics`` maps a metric name
        to ``(value, unit)``; ``self_s`` and ``total_s`` map every span name to
        its self and inclusive time (a recursive span counts once).
        Per-function self time is given as a share of ``wall_s``, because a
        function that a workload never calls would otherwise report a time
        that is exactly 0 on every run.
        """
        first, counts_before = since
        spans = self.spans[first:]
        calls = defaultdict(int)
        self_s = defaultdict(float)
        total_s = defaultdict(float)
        covered = 0.0
        for name, start, end, parent in spans:
            calls[name] += 1
            self_s[name] += end - start
            ancestor = parent
            while ancestor >= first and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][3]
            if ancestor < first:
                total_s[name] += end - start
            if parent >= first:
                self_s[self.spans[parent][0]] -= end - start
            else:
                covered += end - start
        counts = defaultdict(int, {k: v - counts_before.get(k, 0)
                                   for k, v in self.counts.items()})

        metrics = {}
        for name in dict.fromkeys(list(TRACED.values()) + list(LAPACK.values())):
            metrics[f"{name}.calls"] = (calls[name], "count")
            metrics[f"{name}.self_share"] = (self_s[name] / wall_s, "1")
        lapack_s = sum(self_s[name] for name in LAPACK.values())
        metrics["lapack.self_s"] = (lapack_s, "s")
        metrics["lapack.share"] = (lapack_s / wall_s, "1")
        metrics["cli.write.self_s"] = (self_s["cli.write"], "s")
        metrics["cli.write.bytes"] = (counts["cli.write.bytes"], "B")
        metrics["python.self_s"] = (wall_s - covered, "s")
        for metric, (numerator, base) in RATIOS.items():
            b = counts[base] if base in counts else calls[base]
            metrics[metric] = (counts[numerator] / b if b else 0.0, "1")
        metrics["discriminant.discriminant_poly.failed"] = (
            counts["discriminant.discriminant_poly.raised"], "count")
        metrics["discriminant.discriminant_poly.retried"] = (
            counts["discriminant.discriminant_poly.retried"], "count")
        metrics["discriminant.find_degeneracies.roots"] = (
            counts["discriminant.find_degeneracies.roots"], "count")
        return metrics, dict(self_s), dict(total_s)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh, separators=(",", ":"))
