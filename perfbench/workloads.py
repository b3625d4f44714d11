"""Seeded inputs and output checks for the pairdeg benchmark workloads.

Every workload is a list of ops; an op is one ``pairdeg`` CLI invocation
(subcommand plus an INI config) and a check of the files it writes.  All
models use gamma = -1/2.

The seed picks an exact symmetry of H(g) = T + g*(P + gamma*Q): every level
energy becomes ``s*eps + c``.  The constant c shifts every eigenvalue by the
same amount (the pair number is fixed), and the scale s maps H(g) to
s*H(g/s), so every degeneracy moves from g to s*g and gamma* is unchanged.
Every g-plane length in the configs (centres, radii, cut ends, windows,
``interp_radius``, ``loop_radius``, ``merge_radius``) is scaled by s, so the
expected values below hold for every seed.  Seed 0 is s = 1, c = 0.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

GAMMA = -0.5
PDP_IM = 1 / (4 * math.sqrt(2))      # reference pseudo-DP at g = +-i/(4*sqrt 2)
CERTIFY_GAP_TOL = 1e-6                # certified: closest gap <= tol * ||H||_F

REFERENCE = ((0, 1, 2), (2, 6, 2), 2)
# The size ladder holds only models on which every op passes its checks.
# The larger rungs still fail: L8a (eps 0..3, omegas 2,6,2,4, 2 pairs)
# reports uncertified roots, L8b (0,1,2; 4,6,4; 3) and L11 (0..3; 2,6,2,4;
# 3) raise InterpolationError, and L22 (0..4; 2,4,4,4,2; 3) dies with a raw
# LinAlgError.  Add each back once the solver handles it.
LADDER = {
    "L5": ((0, 1, 2), (2, 4, 4), 2),
    "L6": ((0, 1, 2), (4, 2, 6), 3),
    "L7": ((0, 1, 2), (6, 2, 6), 3),
}
# Simple exceptional points of the mid-size models that the midsize
# workload encircles and cuts past.
L6_EP = complex(0.06302036302547563, -0.047235926406500366)
L7_EP = complex(0.05954458461558047, -0.04167167369755475)
CUT_IM_OFFSET = 0.003
CUT_HALF_WIDTH = 0.05
NUMPY_REPR = "np.float64("


@dataclass(frozen=True)
class Symmetry:
    """Level-energy map eps -> s*eps + c chosen by the seed."""

    s: float
    c: float

    @classmethod
    def from_seed(cls, seed: int) -> "Symmetry":
        """Seed 0 is the identity; other seeds shift the energies by c in [-1, 1].

        The scale stays 1: the solver's results depend on s (absolute floors
        such as ``max(1, |g|)`` in its step sizes and tolerances are likely
        causes).  L7 reports uncertified roots for s <= 0.9 and the reference
        pseudo-DP moves by more than 1e-8*s at s = 0.83, so which ops fail
        would depend on the seed.  Once results are scale-invariant, draw s
        here too.
        """
        if seed == 0:
            return cls(1.0, 0.0)
        return cls(1.0, random.Random(seed).uniform(-1.0, 1.0))


class CheckFailed(Exception):
    """An op's output contradicts the expected result."""


@dataclass
class Outcome:
    """What a passing op produced beyond its files."""

    certified_roots: int = 0
    numpy_repr_values: int = 0      # CSV values written as np.float64(...)


@dataclass
class Op:
    name: str
    subcommand: str
    config: str = ""
    check: Callable = None
    files: tuple = ()
    out_dir: str = ""
    config_path: str = ""


def _fmt(x: float) -> str:
    return repr(float(x))


def _model_section(levels, sym: Symmetry) -> str:
    eps, omegas, n_pairs = levels
    return (
        "[model]\n"
        f"epsilons = {', '.join(_fmt(sym.s * e + sym.c) for e in eps)}\n"
        f"omegas = {', '.join(str(w) for w in omegas)}\n"
        f"n_pairs = {n_pairs}\n"
        f"gamma = {GAMMA}\n"
    )


def _precision_section(sym: Symmetry) -> str:
    return (
        "[precision]\n"
        f"interp_radius = {_fmt(0.5 * sym.s)}\n"
        f"loop_radius = {_fmt(0.01 * sym.s)}\n"
    )


def _encircle_section(center: complex, sym: Symmetry) -> str:
    g = center * sym.s
    return (
        "[encircle]\n"
        f"center_re = {_fmt(g.real)}\ncenter_im = {_fmt(g.imag)}\n"
        f"radius = {_fmt(0.01 * sym.s)}\nsteps = 256\nloops = 4\n"
    )


def _cut_section(start: complex, stop: complex, samples: int, sym: Symmetry) -> str:
    a, b = start * sym.s, stop * sym.s
    return (
        "[cut]\n"
        f"start_re = {_fmt(a.real)}\nstart_im = {_fmt(a.imag)}\n"
        f"stop_re = {_fmt(b.real)}\nstop_im = {_fmt(b.imag)}\n"
        f"samples = {samples}\npairing = true\n"
    )


def _atlas_section(half_width: float, points: int, sym: Symmetry) -> str:
    w = half_width * sym.s
    return f"[atlas]\nwindow = {_fmt(-w)}, {_fmt(w)}, {_fmt(-w)}, {_fmt(w)}\n" \
           f"heatmap_points = {points}\n"


# ---------------------------------------------------------------- file readers

def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _read_csv_rows(path):
    with open(path, encoding="utf-8", newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    rows = list(csv.reader(lines))
    return rows[0], rows[1:]


def _require(condition, message):
    if not condition:
        raise CheckFailed(message)


def _number(token: str) -> float:
    """CSV value; numpy scalars are currently written as ``np.float64(x)``."""
    if token.startswith(NUMPY_REPR) and token.endswith(")"):
        token = token[len(NUMPY_REPR):-1]
    return float(token)


def _check_finite_rows(path, expected):
    header, rows = _read_csv_rows(path)
    _require(len(rows) == expected,
             f"{os.path.basename(path)}: {len(rows)} rows, expected {expected}")
    _require(all(len(row) == len(header) for row in rows),
             f"{os.path.basename(path)}: ragged rows")
    values = np.array([[_number(x) for x in row] for row in rows])
    _require(np.all(np.isfinite(values)), f"{os.path.basename(path)}: non-finite rows")
    return sum(x.startswith(NUMPY_REPR) for row in rows for x in row)


def _model_matrix(levels, sym: Symmetry, g: complex) -> np.ndarray:
    from pairdeg import ModelSpec

    eps, omegas, n_pairs = levels
    model = ModelSpec.from_arrays([sym.s * e + sym.c for e in eps], omegas,
                                  n_pairs, GAMMA)
    return model.family().matrix(g)


# ---------------------------------------------------------------- checks

def _check_reference_atlas(out, sym):
    points = _read_json(os.path.join(out, "degeneracies.json"))["degeneracies"]
    _require(len(points) == 9, f"{len(points)} roots, expected 9")
    total = sum(p["multiplicity"] for p in points)
    _require(total == 12, f"multiplicities sum to {total}, expected 12")
    for sign in (1, -1):
        target = 1j * sign * sym.s * PDP_IM
        hits = [p for p in points if p["kind"] == "PSEUDO_DP"
                and abs(complex(p["g_re"], p["g_im"]) - target) <= 1e-8 * sym.s]
        _require(hits, f"no PSEUDO_DP within 1e-8*s of {target}")
    reprs = _check_finite_rows(os.path.join(out, "heatmap.csv"), 101 * 101)
    return Outcome(certified_roots=total, numpy_repr_values=reprs)


def _check_reference_sweep(out, sym):
    events = _read_json(os.path.join(out, "events.json"))["events"]
    merge_radius = 1e-4 * sym.s
    hits = [e for e in events
            if abs(e["gamma"] - GAMMA) <= 1e-6
            and min(abs(complex(e["g_re"], e["g_im"]) - 1j * sgn * sym.s * PDP_IM)
                    for sgn in (1, -1)) <= merge_radius
            and e["pair_distance"] <= merge_radius]
    _require(hits, f"no merge event at gamma* = -0.5 near the pseudo-DP: {events}")
    _, rows = _read_csv_rows(os.path.join(out, "trajectory.csv"))
    _require(len(rows) >= 21 * 9, f"trajectory.csv: only {len(rows)} rows")
    return Outcome()


def _encircle_checker(periods, alternating):
    def check(out, sym):
        summary = _read_json(os.path.join(out, "encircle_summary.json"))
        got = (summary["eigenvalue_period"], summary["phase_period"])
        _require(got == periods, f"periods {got}, expected {periods}")
        perms = summary["permutations"]
        if alternating:
            odd, even = perms[0::2], perms[1::2]
            _require(all(p.count("(") == 1 and p.count(" ") == 1 for p in odd)
                     and all(p == "identity" for p in even),
                     f"permutations {perms} do not alternate transposition/identity")
        reprs = _check_finite_rows(os.path.join(out, "phases.csv"), 256 * 4 + 1)
        return Outcome(numpy_repr_values=reprs)
    return check


def _cut_checker(samples):
    def check(out, sym):
        reprs = sum(_check_finite_rows(os.path.join(out, name), samples)
                    for name in ("spectrum_cut.csv", "pairing_cut.csv"))
        return Outcome(numpy_repr_values=reprs)
    return check


def _check_selftest(out, sym):
    results = _read_json(os.path.join(out, "selftest.json"))["results"]
    failed = [r["criterion"] for r in results if not r["passed"]]
    _require(len(results) == 10 and not failed, f"criteria failed: {failed}")
    return Outcome()


def _ladder_checker(levels):
    def check(out, sym):
        points = _read_json(os.path.join(out, "degeneracies.json"))["degeneracies"]
        _require(points, "no roots reported")
        roots = [complex(p["g_re"], p["g_im"]) for p in points]
        uncertified = 0
        for g in roots:
            H = _model_matrix(levels, sym, g)
            e = np.linalg.eigvals(H)
            gaps = np.abs(e[:, None] - e[None, :])
            np.fill_diagonal(gaps, np.inf)
            if not gaps.min() <= CERTIFY_GAP_TOL * np.linalg.norm(H):
                uncertified += 1
        _require(uncertified == 0,
                 f"{uncertified} of {len(roots)} roots have a closest gap "
                 f"above {CERTIFY_GAP_TOL:g}*||H||_F")
        for p, g in zip(points, roots):
            tol = 1e-6 * max(sym.s, abs(g))
            mirror = [q for q, h in zip(points, roots)
                      if abs(h - g.conjugate()) <= tol
                      and q["multiplicity"] == p["multiplicity"]]
            _require(mirror, f"root {g} has no conjugate partner")
        reprs = _check_finite_rows(os.path.join(out, "heatmap.csv"), 21 * 21)
        return Outcome(certified_roots=sum(p["multiplicity"] for p in points),
                       numpy_repr_values=reprs)
    return check


# ---------------------------------------------------------------- workloads

def _reference_ops(sym):
    model = _model_section(REFERENCE, sym) + _precision_section(sym)
    pdp = complex(0.0, -PDP_IM)
    return [
        Op("atlas", "atlas", model + _atlas_section(0.3, 101, sym),
           _check_reference_atlas, ("degeneracies.json", "heatmap.csv")),
        Op("sweep", "sweep",
           model + f"[sweep]\nmerge_radius = {_fmt(1e-4 * sym.s)}\n",
           _check_reference_sweep, ("trajectory.csv", "events.json")),
        Op("encircle", "encircle", model + _encircle_section(pdp, sym),
           _encircle_checker((1, 2), alternating=False),
           ("phases.csv", "encircle_summary.json")),
        Op("cut", "cut",
           model + _cut_section(pdp - CUT_HALF_WIDTH, pdp + CUT_HALF_WIDTH, 200, sym),
           _cut_checker(200), ("spectrum_cut.csv", "pairing_cut.csv")),
        Op("selftest", "selftest", "", _check_selftest, ("selftest.json",)),
    ]


def _midsize_ops(sym):
    """Atlas on every ladder model, then loop transport and cuts at L6 and L7.

    The atlas ops load the degeneracy solver at discriminant degrees 20 to
    42 (a small heatmap keeps the grid cheap); the encircle and cuts load
    continuation and the exhaustive state matcher.  One workload rather
    than two, so that each run can measure longer.
    """
    ops = [
        Op(f"atlas_{name}", "atlas",
           _model_section(levels, sym) + _precision_section(sym)
           + _atlas_section(6.0, 21, sym),
           _ladder_checker(levels), ("degeneracies.json", "heatmap.csv"))
        for name, levels in LADDER.items()
    ]
    ops.append(Op(
        "encircle_L6", "encircle",
        _model_section(LADDER["L6"], sym) + _precision_section(sym)
        + _encircle_section(L6_EP, sym),
        _encircle_checker((2, 4), alternating=True),
        ("phases.csv", "encircle_summary.json")))
    for name, ep, samples in (("L6", L6_EP, 200), ("L7", L7_EP, 40)):
        mid = ep + 1j * CUT_IM_OFFSET
        ops.append(Op(
            f"cut_{name}", "cut",
            _model_section(LADDER[name], sym) + _precision_section(sym)
            + _cut_section(mid - CUT_HALF_WIDTH, mid + CUT_HALF_WIDTH, samples, sym),
            _cut_checker(samples), ("spectrum_cut.csv", "pairing_cut.csv")))
    return ops


WORKLOADS = {
    "reference": _reference_ops,
    "midsize": _midsize_ops,
}


def build_ops(workload: str, sym: Symmetry, root: str) -> list:
    """Write each op's config under ``root`` and return the ops."""
    ops = WORKLOADS[workload](sym)
    for op in ops:
        op.out_dir = os.path.join(root, op.name)
        os.makedirs(op.out_dir, exist_ok=True)
        if op.config:
            op.config_path = os.path.join(root, f"{op.name}.ini")
            with open(op.config_path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(op.config)
    return ops


def cli_args(op: Op) -> list:
    args = [op.subcommand]
    if op.config:
        args += ["--config", op.config_path]
    return args + ["--out", op.out_dir]
