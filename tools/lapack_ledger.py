"""Count the matrices each stage of a benchmark workload hands to LAPACK.

Usage: python3 tools/lapack_ledger.py WORKLOAD [--seed S]

Builds the ops of a ``perfbench`` workload (``perfbench/workloads.py``,
imported as it is) in a temporary directory and runs each op twice through
``pairdeg.cli``: a warm-up, then the counted run.  During the counted run
``np.linalg.eig``, ``np.linalg.eigvals`` and the ``eigvals`` that
``numpy.lib._polynomial_impl`` binds at import (the solve behind
``np.roots``) are wrapped.  For each op and calling stage it prints the
calls, the matrices, and the matrices whose bits repeat one that the same
routine already solved earlier in the op.  The stage is the innermost
``pairdeg`` function on the stack that is not one of the shared solve
helpers.  Nothing is changed under ``perfbench/``; pairdeg is imported from
this checkout's ``src/``.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import io
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import numpy as np  # noqa: E402
import numpy.lib._polynomial_impl as polynomial  # noqa: E402

import pairdeg.cli  # noqa: E402
from workloads import WORKLOADS, Symmetry, build_ops, cli_args  # noqa: E402

# Helpers every stage solves through; the stage is the caller behind them.
SHARED = {"_lapack", "_eig_stack", "_eigvals_at", "_in_stacks", "eigendecompose"}
PACKAGE = os.path.dirname(os.path.abspath(pairdeg.cli.__file__)) + os.sep


def _stage() -> str:
    frame = sys._getframe(2)
    while frame is not None:
        code = frame.f_code
        if code.co_filename.startswith(PACKAGE) and code.co_name not in SHARED:
            module = os.path.splitext(os.path.basename(code.co_filename))[0]
            return f"{module}.{code.co_qualname}"
        frame = frame.f_back
    return "(outside pairdeg)"


class Ledger:
    """Per-(routine, stage) calls, matrices and repeated matrices of one op."""

    def __init__(self):
        self.rows = collections.defaultdict(lambda: [0, 0, 0])
        self.seen = set()

    def wrap(self, name, solve):
        def counted(H, *args, **kwargs):
            stack = np.asarray(H)
            stack = stack.reshape(-1, *stack.shape[-2:])
            row = self.rows[name, _stage()]
            row[0] += 1
            row[1] += len(stack)
            for matrix in stack:
                key = name, matrix.dtype.str, matrix.shape, matrix.tobytes()
                row[2] += key in self.seen
                self.seen.add(key)
            return solve(H, *args, **kwargs)
        return counted


@contextlib.contextmanager
def counting(ledger):
    eig, eigvals, roots_eigvals = np.linalg.eig, np.linalg.eigvals, polynomial.eigvals
    np.linalg.eig = ledger.wrap("eig", eig)
    np.linalg.eigvals = ledger.wrap("eigvals", eigvals)
    polynomial.eigvals = ledger.wrap("roots", roots_eigvals)
    try:
        yield ledger
    finally:
        np.linalg.eig, np.linalg.eigvals, polynomial.eigvals = eig, eigvals, roots_eigvals


def run_op(op) -> str:
    """Run one op through the CLI; '' on success, else the error."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            pairdeg.cli.main.main(args=cli_args(op), prog_name="pairdeg",
                                  standalone_mode=False)
    except SystemExit as exc:
        if exc.code not in (0, None):
            return f"exit {exc.code}: {sink.getvalue().strip()[-200:]}"
    return ""


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    totals = collections.defaultdict(lambda: [0, 0, 0])
    with tempfile.TemporaryDirectory() as root:
        for op in build_ops(args.workload, Symmetry.from_seed(args.seed), root):
            run_op(op)  # warm-up
            with counting(Ledger()) as ledger:
                error = run_op(op)
            print(f"op {op.name}" + (f"  FAILED {error}" if error else ""))
            print(f"  {'routine':8} {'stage':48} {'calls':>6} {'matrices':>9} "
                  f"{'repeats':>8}")
            for (name, stage), row in sorted(ledger.rows.items()):
                print(f"  {name:8} {stage:48} {row[0]:6} {row[1]:9} {row[2]:8}")
                totals[name] = [t + x for t, x in zip(totals[name], row)]
    for name, (calls, matrices, repeats) in sorted(totals.items()):
        print(f"workload {args.workload} seed {args.seed} {name}: {calls} calls, "
              f"{matrices} matrices, {repeats} repeats")


if __name__ == "__main__":
    main()
