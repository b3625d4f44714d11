"""pairdeg benchmark: time every CLI pipeline in-process and check its output.

Usage (from the repository root):

    python3 perfbench/run.py --workload reference --seed 0 --seconds 30 --trace 0

Workloads (see ``workloads.py``): ``reference`` runs every subcommand on the
paper's dim-4 model, and ``midsize`` runs ``atlas`` on models of dim 5 to 7
plus loop transport and cuts around simple exceptional points of the dim-6
and dim-7 models.

A run imports pairdeg from ``src/``, generates the inputs from the seed, and
sets up several times (input generation plus one warm-up pass each).  It then
repeats passes over the workload's ops, single-threaded in this process,
until ``--seconds`` have elapsed, checking every op's output.  An op fails
on a non-zero exit, an exception, or a failed output check.

After every op, fixed calibration units (see ``calibrate``) run for about
``CAL_SHARE`` of the op's time.  On a shared 2-vCPU x86-64 VM the wall time
of the same op swung by 1.5x within seconds, and the mean pass time of
20-s runs spread by 14-19% (quartile distance over median, 10 runs).
Gated times therefore use reference-speed seconds: wall seconds times
``CAL_UNIT_REF_S`` over the mean unit time measured in the same stretch of
the run, which brought the spread of 30-s runs down to 5-9%.  Wall-clock
figures are printed too.

End-to-end metrics (``--trace 0``):

* ``pass_s``: time of one pass over every op of the workload, in
  reference-speed seconds: the ops' total wall time per pass over the run,
  divided by the mean calibration unit of the run and multiplied by
  ``CAL_UNIT_REF_S``.
* ``peak_rss_mb``: peak resident set size of the process, less the 32 MB
  calibration table.
* ``setup_s``: median over ``SETUP_REPS`` set-ups of import time plus input
  generation plus one warm-up pass, which holds every op's first call, in
  reference-speed seconds (the wall times are printed).  The first set-up is
  the run's own; each other one runs in a fresh interpreter
  (``--setup-only``), so that it starts as cold.  Warm-up ops count towards
  ``attempted`` and ``failed``.

The report above the JSON line also gives per-subcommand and per-op medians,
the fail ratio with each failing op, and certified roots per atlas second.
With ``--trace 1`` every op runs untraced and then traced; the JSON metrics
are then the per-layer ones from ``tracing.py`` (medians over traced passes)
plus the tracing overhead, and the spans are written to ``.perfbench_out/``.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

# workloads.py and tracing.py import numpy, so they are imported only after
# import_pairdeg() has timed the package import.

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPS = 3
# One calibration unit takes about this long on a 2-vCPU x86-64 VM (Python
# 3.11, numpy 2.4 with OpenBLAS); it defines the reference-speed second.
CAL_UNIT_REF_S = 0.02
# Calibration time after an op as a share of the op's time (at least one unit).
CAL_SHARE = 0.3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


@dataclass
class OpResult:
    name: str
    subcommand: str
    seconds: float
    ok: bool
    error: str = ""
    certified_roots: int = 0
    numpy_repr_values: int = 0
    cal_s: float = CAL_UNIT_REF_S     # mean calibration unit time after the op
    cal_units: int = 0


def import_pairdeg():
    """Import the package from this checkout's ``src/``; exit 1 if absent.

    Runs before anything else imports numpy, so the time includes it.
    """
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    start = time.perf_counter()
    try:
        import pairdeg
        import pairdeg.cli
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import pairdeg from {src}: {exc}")
    elapsed = time.perf_counter() - start
    if not os.path.abspath(pairdeg.__file__).startswith(src + os.sep):
        sys.exit(f"perfbench: pairdeg imported from {pairdeg.__file__}, not {src}")
    return pairdeg.cli, elapsed


@functools.lru_cache(maxsize=None)
def _calibration_inputs():
    import numpy as np

    rng = np.random.default_rng(1)
    matrix = rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24))
    table = rng.standard_normal(1 << 22)
    return matrix, table, rng.integers(0, table.size, 1 << 16)


def calibrate(units=1):
    """Seconds for ``units`` fixed calibration units.

    A unit has two halves of about equal time.  One is 20 eigensolves of a
    24x24 complex matrix plus a 12,500-step Python loop, a mix like the ops'
    own (LAPACK calls driven from Python).  The other is random reads from a
    32 MB table, which slow down more than the first half when other tenants
    of the host contend for caches and memory.  Against the ops, both halves
    together tracked the machine's speed better than either alone.
    """
    import numpy as np

    matrix, table, index = _calibration_inputs()
    start = time.perf_counter()
    for _ in range(units):
        for _ in range(20):
            np.linalg.eigvals(matrix)
        acc = 0.0
        for k in range(12_500):
            acc += k * 1e-9
        for _ in range(24):
            table[index].sum()
    return time.perf_counter() - start


def environment():
    import numpy as np
    import scipy

    blas = {}
    try:
        config = np.show_config(mode="dicts")
        deps = config.get("Build Dependencies", {})
        blas = {k: deps.get(k, {}).get("name") for k in ("blas", "lapack")}
    except (TypeError, AttributeError):
        pass
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "nproc": affinity,
        "machine": platform.machine(),
    }


def _digest(op):
    h = hashlib.sha256()
    for name in op.files:
        with open(os.path.join(op.out_dir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


class Runner:
    """Runs ops through ``pairdeg.cli.main`` and checks their outputs.

    Calibration units for about ``CAL_SHARE`` of the op's time run after it.
    """

    def __init__(self, cli, sym):
        self.cli = cli
        self.sym = sym
        self.digests = {}

    def run(self, op, tracer=None) -> OpResult:
        from workloads import CheckFailed, cli_args

        args = cli_args(op)
        sink = io.StringIO()
        error = ""
        if tracer is not None:
            tracer.install()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                self.cli.main.main(args=args, prog_name="pairdeg",
                                   standalone_mode=False)
        except SystemExit as exc:
            if exc.code not in (0, None):
                error = f"exit {exc.code}: {sink.getvalue().strip()[-200:]}"
        except Exception as exc:  # a traceback the CLI would have shown
            error = f"{type(exc).__name__}: {str(exc)[:200]}"
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
        result = OpResult(op.name, op.subcommand, elapsed, ok=not error, error=error)
        if result.ok:
            try:
                outcome = op.check(op.out_dir, self.sym)
                digest = _digest(op)
                if self.digests.setdefault(op.name, digest) != digest:
                    raise CheckFailed("output files differ from the first run")
                result.certified_roots = outcome.certified_roots
                result.numpy_repr_values = outcome.numpy_repr_values
            except (CheckFailed, OSError, ValueError, KeyError, IndexError,
                    TypeError) as exc:
                result.ok, result.error = False, f"check: {exc}"[:300]
        units = max(1, round(CAL_SHARE * elapsed / CAL_UNIT_REF_S))
        result.cal_s, result.cal_units = calibrate(units) / units, units
        return result


def tail_percentile(values):
    """Highest percentile above the median with >= 10 samples beyond it.

    Returns (p, value), or None when there are too few samples.
    """
    n = len(values)
    k = n - 11                     # index with exactly 10 samples above it
    if k < n // 2:
        return None
    return round(100.0 * (k + 1) / n, 1), sorted(values)[k]


def _fmt_timing(name, values, unit="s"):
    line = f"{name}: median {statistics.median(values):.6g} {unit} (n={len(values)})"
    tail = tail_percentile(values)
    if tail is not None:
        line += f", p{tail[0]:g} {tail[1]:.6g} {unit}"
    else:
        line += ", no percentile with 10 samples beyond it"
    return line


def measure(runner, ops, seconds, tracer=None):
    """Passes until ``seconds`` have elapsed.

    With a tracer every op runs untraced and then traced, back to back, so
    that machine-speed drift hits both alike; a traced pass yields
    ``(results, pass summary, {op name: op summary})``.
    """
    deadline = time.perf_counter() + seconds
    plain, traced = [], []
    while True:
        results, traced_results, by_op = [], [], {}
        start = tracer.mark() if tracer is not None else None
        for op in ops:
            results.append(runner.run(op))
            if tracer is not None:
                mark = tracer.mark()
                traced_results.append(runner.run(op, tracer))
                by_op[op.name] = tracer.summarize(mark, traced_results[-1].seconds)
        plain.append(results)
        if tracer is not None:
            traced.append((traced_results,
                           tracer.summarize(start, _pass_s(traced_results)), by_op))
        if time.perf_counter() >= deadline:
            return plain, traced


def _pass_s(results):
    return sum(r.seconds for r in results)


def median_pass_s(passes):
    """Sum over ops of each op's median wall time."""
    by_op = {}
    for results in passes:
        for r in results:
            by_op.setdefault(r.name, []).append(r.seconds)
    return sum(statistics.median(times) for times in by_op.values())


def ref_speed(wall_s, results):
    """``wall_s`` in reference-speed seconds, by the calibration after ``results``."""
    unit = (sum(r.cal_s * r.cal_units for r in results)
            / sum(r.cal_units for r in results))
    return wall_s * CAL_UNIT_REF_S / unit


def ref_pass_s(passes):
    """Mean pass time in reference-speed seconds over all passes."""
    results = [r for rs in passes for r in rs]
    return ref_speed(_pass_s(results) / len(passes), results)


def setup(runner, workload, sym, out_dir, import_s):
    """Input generation plus one warm-up pass, which holds every op's first call.

    Returns the ops, the warm-up results and ``(wall s, reference-speed s)``
    of the whole set-up, import included.
    """
    from workloads import build_ops

    start = time.perf_counter()
    ops = build_ops(workload, sym, out_dir)
    before_ops = import_s + time.perf_counter() - start
    warm = [runner.run(op) for op in ops]
    wall = before_ops + _pass_s(warm)
    return ops, warm, (wall, ref_speed(wall, warm))


def fresh_setup(args, rep):
    """Set up once more in a new interpreter, so that it is as cold as the first.

    Returns ``((wall s, reference-speed s), ops attempted, ops failed)``.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only", str(rep)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        sys.exit(f"perfbench: set-up {rep} failed: {proc.stderr.strip()[-500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return tuple(result["times"]), result["attempted"], result["failed"]


def peak_rss_mb():
    """Peak resident set size, less the calibration table that stays resident."""
    table = _calibration_inputs()[1]
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
            - table.nbytes) / 2**20


def end_to_end(plain, setup_times):
    all_results = [r for results in plain for r in results]
    attempted = len(all_results)
    ok = sum(r.ok for r in all_results)
    return {
        "setup_s": (statistics.median(ref for _, ref in setup_times), "s"),
        "pass_s": (ref_pass_s(plain), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }, attempted, attempted - ok


def report_passes(plain, ops):
    """Human-readable per-subcommand timings, failures and root rates."""
    lines = [_fmt_timing("wall pass_s", [_pass_s(rs) for rs in plain])
             + f"; sum of per-op medians {median_pass_s(plain):.6g} s wall, "
             f"mean pass {ref_pass_s(plain):.6g} s reference-speed",
             _fmt_timing("calibration_unit_s", [r.cal_s for rs in plain for r in rs])]
    for sub in dict.fromkeys(op.subcommand for op in ops):
        lines.append(_fmt_timing(f"{sub}_s", [
            sum(r.seconds for r in rs if r.subcommand == sub) for rs in plain]))
    for op in ops:
        lines.append(_fmt_timing(f"op.{op.name}_s", [
            r.seconds for rs in plain for r in rs if r.name == op.name]))
    if any(op.subcommand == "atlas" for op in ops):
        lines.append(_fmt_timing("certified_roots_per_s", [
            sum(r.certified_roots for r in rs)
            / sum(r.seconds for r in rs if r.subcommand == "atlas")
            for rs in plain], unit="1/s"))
    all_results = [r for rs in plain for r in rs]
    failed = sum(not r.ok for r in all_results)
    lines.append(f"fail_ratio: {failed}/{len(all_results)} = "
                 f"{failed / len(all_results):.6g} (ops failed / ops attempted)")
    errors = {}
    for r in all_results:
        if not r.ok:
            errors.setdefault(r.name, r.error)
    for name, error in errors.items():
        lines.append(f"  failed op {name}: {error}")
    for op in ops:
        reprs = max(r.numpy_repr_values for r in all_results if r.name == op.name)
        if reprs:
            lines.append(f"note: op.{op.name} wrote {reprs} CSV values as "
                         f"np.float64(...) instead of a plain number")
    return lines


def per_layer(traced, plain):
    """Medians over traced passes of every per-layer metric, plus overhead."""
    rows = [summary[0] for _, summary, _ in traced]
    metrics = {}
    for name, (_, unit) in rows[0].items():
        median = statistics.median_low if unit in ("count", "B") else statistics.median
        metrics[name] = (median(row[name][0] for row in rows), unit)
    traced_s = median_pass_s([results for results, _, _ in traced])
    untraced_s = median_pass_s(plain)
    metrics["trace.pass_s"] = (traced_s, "s")
    metrics["trace.untraced_pass_s"] = (untraced_s, "s")
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s - 1, "1")
    return metrics


def report_layers(traced):
    """Human-readable self and inclusive time per layer, per op and per pass."""
    lines = []
    for op_name in traced[0][2]:
        summaries = [by_op[op_name] for _, _, by_op in traced]
        wall = statistics.median(r.seconds for results, _, _ in traced
                                 for r in results if r.name == op_name)
        for kind, index, count in (("self", 1, 4), ("inclusive", 2, 3)):
            times = _median_times(summaries, index)
            top = sorted(times.items(), key=lambda kv: -kv[1])[:count]
            lines.append(f"op.{op_name} {kind} ({wall:.4g} s traced): " + ", ".join(
                f"{name} {value:.4g} s ({100 * value / wall:.3g}%)"
                for name, value in top))
    for name, value in sorted(_median_times([s for _, s, _ in traced], 1).items(),
                              key=lambda kv: -kv[1]):
        lines.append(f"self_s {name}: {value:.6g} s per traced pass")
    return lines


def _median_times(summaries, index):
    """Median self (index 1) or inclusive (2) time per layer over summaries.

    ``python`` is the time outside every span.
    """
    rows = [dict(summary[index], python=summary[0]["python.self_s"][0])
            for summary in summaries]
    names = dict.fromkeys(name for row in rows for name in row)
    return {name: statistics.median(row.get(name, 0.0) for row in rows)
            for name in names}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Set up only, as repetition N of a run's set-up, and print its times.
    parser.add_argument("--setup-only", type=int, default=0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    cli, import_s = import_pairdeg()
    from workloads import WORKLOADS, Symmetry

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    run_name = (f"setup{args.setup_only}" if args.setup_only else f"trace{args.trace}")
    out_dir = os.path.join(OUT_ROOT, f"{args.workload}-seed{args.seed}-{run_name}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)

    sym = Symmetry.from_seed(args.seed)
    runner = Runner(cli, sym)
    ops, first_calls, times = setup(runner, args.workload, sym, out_dir, import_s)
    setup_failed = sum(not r.ok for r in first_calls)
    if args.setup_only:
        print(json.dumps({"times": times, "attempted": len(ops), "failed": setup_failed}))
        return
    setup_times, setup_attempted = [times], len(ops)
    for rep in range(1, SETUP_REPS):
        times, attempted, failed = fresh_setup(args, rep)
        setup_times.append(times)
        setup_attempted += attempted
        setup_failed += failed
    calib_before = calibrate(10)

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    plain, traced = measure(runner, ops, args.seconds, tracer)
    calib_after = calibrate(10)

    print(f"workload {args.workload} seed {args.seed}: level energies -> "
          f"s*eps + c with s = {sym.s!r}, c = {sym.c!r}; g-plane lengths scaled by s")
    print("environment: " + json.dumps(environment(), sort_keys=True))
    print(f"calibration_s (10 units): before {calib_before:.6g}, "
          f"after {calib_after:.6g}")
    print(f"import_s: {import_s:.6g} (wall); setup per repetition, wall / "
          f"reference-speed s: " + ", ".join(f"{w:.6g} / {r:.6g}" for w, r in setup_times))
    for r in first_calls:
        steady = statistics.median(x.seconds for rs in plain for x in rs if x.name == r.name)
        print(f"first call op.{r.name}: {r.seconds:.6g} s (steady median {steady:.6g} s)")
    for line in report_passes(plain, ops):
        print(line)

    metrics, attempted, failed = end_to_end(plain, setup_times)
    if args.trace:
        for name, (value, unit) in metrics.items():
            print(f"end-to-end {name} = {value:.6g} {unit} (untraced passes)")
        metrics = per_layer(traced, plain)
        tracer.write(os.path.join(out_dir, "spans.json"))
        print(f"tracing overhead: traced pass {metrics['trace.pass_s'][0]:.6g} s vs "
              f"untraced {metrics['trace.untraced_pass_s'][0]:.6g} s "
              f"({100 * metrics['trace.overhead_ratio'][0]:.3g}%), "
              f"{len(traced)} traced passes")
        for line in report_layers(traced):
            print(line)
        results = [r for rs in plain for r in rs] + [r for rs, _, _ in traced for r in rs]
        attempted = len(results)
        failed = sum(not r.ok for r in results)
    if setup_failed:
        print(f"set-up: {setup_failed} of {setup_attempted} warm-up ops failed")
    attempted += setup_attempted
    failed += setup_failed
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
