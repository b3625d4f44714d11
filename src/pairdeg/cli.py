"""Command-line front end: every pipeline as a subcommand with file outputs.

Runs are driven by an INI-style configuration file (sections and key = value
pairs); unknown sections or keys are rejected so that archived configs stay
unambiguous.  Curves go to CSV, structured results to JSON, and every output
records the SHA-256 of the config file plus the tool version, so repeated
runs with the same config are byte-identical.

Subcommands: atlas, sweep, encircle, cut, selftest.
Exit codes: 0 success, 1 numeric failure, 2 configuration error.
"""

from __future__ import annotations

import configparser
import functools
import hashlib
import json
import math
import os
import sys

import click

from . import __version__
from ._csvio import format_value, write_csv
from .atlas import (DEFAULT_LOOP_RADIUS, DEFAULT_LOOP_STEPS, DEFAULT_MERGE_RADIUS,
                    _check_loop_settings, _gamma_grid, classify_all, sweep_gamma)
from .discriminant import (DEFAULT_CLUSTER_FACTOR, DEFAULT_RADIUS, discriminant_grid,
                           find_degeneracies)
from .errors import ConfigError, PairdegError
from .model import ModelSpec, enumerate_basis
from .monodromy import LoopSpec, RestoreResult, _restore_periods, trace_loop
from .observables import _pair_labels, pairing_energy_cut
from .spectra import DEFAULT_TAU_C, CutTable, _segment, spectrum_along

# Every key of every section with its default, None where there is none.
# The library's defaults are spelled by repr, which reads back as the same
# number.  Every [model] key is required.
KEYS = {
    "model": {"epsilons": None, "omegas": None, "n_pairs": None, "gamma": None},
    "atlas": {"window": "-0.3, 0.3, -0.3, 0.3", "heatmap_points": "101"},
    "sweep": {"gamma_start": "-0.6", "gamma_stop": "-0.4", "samples": "21",
              "classify": "true", "merge_radius": repr(DEFAULT_MERGE_RADIUS)},
    "encircle": {"center_re": None, "center_im": None, "radius": "0.01",
                 "steps": "256", "loops": "4"},
    "cut": {"start_re": None, "start_im": None, "stop_re": None, "stop_im": None,
            "samples": "200", "pairing": "true", "pair": "2, 3"},
    "precision": {"tau_c": repr(DEFAULT_TAU_C), "interp_radius": repr(DEFAULT_RADIUS),
                  "cluster_factor": repr(DEFAULT_CLUSTER_FACTOR),
                  "loop_steps": repr(DEFAULT_LOOP_STEPS),
                  "loop_radius": repr(DEFAULT_LOOP_RADIUS)},
}


class RunConfig:
    """Validated run configuration with documented defaults."""

    def __init__(self, path):
        with open(path, "rb") as fh:
            raw = fh.read()
        self.sha256 = hashlib.sha256(raw).hexdigest()
        parser = configparser.ConfigParser()
        try:
            parser.read_string(raw.decode("utf-8"))
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot parse config file: {exc}") from exc

        for section in parser.sections():
            if section not in KEYS:
                raise ConfigError(f"unknown config section [{section}]")
            for key in parser[section]:
                if key not in KEYS[section]:
                    raise ConfigError(f"unknown key '{key}' in section [{section}]")
        if "model" not in parser:
            raise ConfigError("config must contain a [model] section")
        for key in KEYS["model"]:
            if key not in parser["model"]:
                raise ConfigError(f"[model] is missing required key '{key}'")
        self._parser = parser

    def _get(self, section, key):
        if section in self._parser and key in self._parser[section]:
            return self._parser[section][key]
        if KEYS[section][key] is not None:
            return KEYS[section][key]
        raise ConfigError(f"[{section}] requires key '{key}' (no default)")

    def floats(self, section, key):
        try:
            vals = [float(x) for x in self._get(section, key).split(",")]
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key}: expected numbers") from exc
        if not all(math.isfinite(v) for v in vals):
            raise ConfigError(f"[{section}] {key} {', '.join(map(str, vals))}: "
                              "expected finite numbers")
        return vals

    def float(self, section, key):
        vals = self.floats(section, key)
        if len(vals) != 1:
            raise ConfigError(f"[{section}] {key}: expected one number")
        return vals[0]

    def int(self, section, key):
        self.float(section, key)  # exactly one number
        return self.ints(section, key)[0]

    def ints(self, section, key):
        vals = self.floats(section, key)
        for v in vals:
            if v != int(v):
                raise ConfigError(f"[{section}] {key}: expected an integer")
            # sys.maxsize is numpy's largest index (intp) too.
            if abs(v) > sys.maxsize:
                raise ConfigError(f"[{section}] {key}: {v:g} is too large")
        return [int(v) for v in vals]

    def positive(self, section, key):
        value = self.float(section, key)
        if value <= 0:
            raise ConfigError(f"[{section}] {key} must be positive, got {value:g}")
        return value

    def bool(self, section, key):
        v = self._get(section, key).strip().lower()
        if v in ("true", "yes", "1", "on"):
            return True
        if v in ("false", "no", "0", "off"):
            return False
        raise ConfigError(f"[{section}] {key}: expected a boolean, got {v!r}")

    def precision(self) -> dict:
        """The [precision] values as the keywords of classify_all and sweep_gamma."""
        values = {"tau_c": self.positive("precision", "tau_c"),
                  "radius": self.positive("precision", "interp_radius"),
                  "cluster_factor": self.positive("precision", "cluster_factor"),
                  "loop_radius": self.float("precision", "loop_radius"),
                  "loop_steps": self.int("precision", "loop_steps")}
        _checked("precision", _check_loop_settings, values["loop_radius"],
                 values["loop_steps"])
        return values

    def model(self) -> ModelSpec:
        from .errors import InvalidModelError

        values = (self.floats("model", "epsilons"), self.ints("model", "omegas"),
                  self.int("model", "n_pairs"), self.float("model", "gamma"))
        try:
            return ModelSpec.from_arrays(*values)
        except (InvalidModelError, ValueError) as exc:
            raise ConfigError(f"invalid [model] section: {exc}") from exc

    def meta_lines(self):
        return [f"config_sha256={self.sha256}", f"version={__version__}"]

    def meta_dict(self):
        return {"config_sha256": self.sha256, "version": __version__}


def _checked(section, build, *args, **kwargs):
    """``build(*args, **kwargs)``: the library's own check of [section]'s
    values, its PairdegError reported as a ConfigError."""
    try:
        return build(*args, **kwargs)
    except PairdegError as exc:
        raise ConfigError(f"[{section}] {exc}") from exc


def _write_json(path, meta, payload):
    doc = {"meta": meta}
    doc.update(payload)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(doc, indent=2) + "\n")


def _guarded(command):
    """``command`` exiting 2 on a ConfigError and 1 on any other PairdegError,
    with the message on stderr and no traceback."""
    @functools.wraps(command)
    def guarded(*args, **kwargs):
        try:
            command(*args, **kwargs)
        except ConfigError as exc:
            click.echo(f"config error: {exc}", err=True)
            sys.exit(2)
        except PairdegError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)
    return guarded


def _common(fn):
    fn = click.option("--config", "config_path", required=True,
                      type=click.Path(exists=True, dir_okay=False),
                      help="Run configuration file (INI).")(fn)
    fn = click.option("--out", "out_dir", default=".", show_default=True,
                      type=click.Path(file_okay=False),
                      help="Output directory.")(fn)
    return fn


@click.group()
@click.version_option(__version__)
def main():
    """Degeneracy atlas of complex-coupled pairing Hamiltonians."""


@main.command()
@_common
@_guarded
def atlas(config_path, out_dir):
    """Locate and classify all degeneracies; write JSON list and |D| heatmap."""
    cfg = RunConfig(config_path)
    model = cfg.model()
    window = cfg.floats("atlas", "window")
    if len(window) != 4:
        raise ConfigError("[atlas] window needs four numbers")
    spans = [window[1] - window[0], window[3] - window[2]]
    if not all(math.isfinite(x) for x in spans):
        raise ConfigError(f"[atlas] window {', '.join(map(str, window))} "
                          "has a non-finite span or sample grid")
    if window[0] > window[1] or window[2] > window[3]:
        raise ConfigError(f"[atlas] window {', '.join(map(str, window))} is reversed: "
                          "needs re_min <= re_max and im_min <= im_max")
    n = cfg.int("atlas", "heatmap_points")
    if n < 1:
        raise ConfigError("[atlas] heatmap_points must be at least 1")
    settings = cfg.precision()
    os.makedirs(out_dir, exist_ok=True)
    family = model.family()  # T, P and Q built once for both outputs
    points = classify_all(family, **settings)
    points = [p for p in points
              if window[0] <= p.g0.real <= window[1]
              and window[2] <= p.g0.imag <= window[3]]
    _write_json(
        os.path.join(out_dir, "degeneracies.json"), cfg.meta_dict(),
        {"degeneracies": [p.as_dict() for p in points]},
    )
    res, ims, grid = discriminant_grid(family, window, n, n)
    # Each coordinate repeats along the grid: format it once.
    re_tokens = [format_value(x) for x in res.tolist()]
    im_tokens = [format_value(y) for y in ims.tolist()]
    write_csv(os.path.join(out_dir, "heatmap.csv"), ["g_re", "g_im", "abs_D"],
              [re_tokens * len(ims), [t for t in im_tokens for _ in re_tokens],
               grid.ravel()], meta=cfg.meta_lines())
    click.echo(f"{len(points)} degeneracies -> degeneracies.json, heatmap.csv")


@main.command()
@_common
@_guarded
def sweep(config_path, out_dir):
    """Track degeneracies over a gamma interval; write trajectory and events."""
    cfg = RunConfig(config_path)
    model = cfg.model()
    span = (cfg.float("sweep", "gamma_start"), cfg.float("sweep", "gamma_stop"),
            cfg.int("sweep", "samples"))
    _checked("sweep", _gamma_grid, *span)
    settings = dict(classify_points=cfg.bool("sweep", "classify"),
                    merge_radius=cfg.positive("sweep", "merge_radius"),
                    **cfg.precision())
    os.makedirs(out_dir, exist_ok=True)
    traj = sweep_gamma(model, *span, **settings)
    traj.to_csv(os.path.join(out_dir, "trajectory.csv"),
                meta=cfg.meta_lines())
    _write_json(os.path.join(out_dir, "events.json"), cfg.meta_dict(),
                traj.as_dict())
    click.echo(f"{len(traj.events)} merge event(s) -> trajectory.csv, events.json")


@main.command()
@_common
@_guarded
def encircle(config_path, out_dir):
    """Trace eigenpairs around a loop; write phases CSV and period summary."""
    cfg = RunConfig(config_path)
    model = cfg.model()
    center = complex(cfg.float("encircle", "center_re"),
                     cfg.float("encircle", "center_im"))
    loop = _checked("encircle", LoopSpec, center, cfg.float("encircle", "radius"),
                    steps=cfg.int("encircle", "steps"),
                    loops=cfg.int("encircle", "loops"))
    tau_c = cfg.positive("precision", "tau_c")
    radius = cfg.positive("precision", "interp_radius")
    cluster_factor = cfg.positive("precision", "cluster_factor")
    os.makedirs(out_dir, exist_ok=True)
    family = model.family()
    # The loop is checked against the roots that atlas finds with these settings.
    roots = find_degeneracies(family, radius=radius, cluster_factor=cluster_factor)
    # Every requested turn is written, not only those up to the periods.
    trace = trace_loop(family, loop, degeneracies=roots, tau_c=tau_c)
    trace.to_csv(os.path.join(out_dir, "phases.csv"), meta=cfg.meta_lines())
    result = RestoreResult(*_restore_periods(trace.loop_permutations,
                                             trace.loop_re_theta), trace)
    summary = trace.summary()
    summary["eigenvalue_period"] = result.eigenvalue_period
    summary["phase_period"] = result.phase_period
    summary["restored"] = result.restored
    _write_json(os.path.join(out_dir, "encircle_summary.json"),
                cfg.meta_dict(), summary)
    click.echo(
        f"periods (eigenvalue, phase) = ({result.eigenvalue_period}, "
        f"{result.phase_period}) -> phases.csv, encircle_summary.json"
    )


@main.command()
@_common
@_guarded
def cut(config_path, out_dir):
    """Sample eigenvalues (and pairing energies) along a straight cut."""
    cfg = RunConfig(config_path)
    model = cfg.model()
    start = complex(cfg.float("cut", "start_re"), cfg.float("cut", "start_im"))
    stop = complex(cfg.float("cut", "stop_re"), cfg.float("cut", "stop_im"))
    n = cfg.int("cut", "samples")
    _checked("cut", _segment, start, stop, n)
    tau_c = cfg.positive("precision", "tau_c")
    pairing = cfg.bool("cut", "pairing")
    if pairing:
        pair = _checked("cut", _pair_labels, cfg.ints("cut", "pair"),
                        len(enumerate_basis(model)))
    os.makedirs(out_dir, exist_ok=True)
    written = ["spectrum_cut.csv"]
    if pairing:
        # One continuation with vectors serves both files: its
        # eigenvalues are those of a continuation without vectors.
        pcut = pairing_energy_cut(model, start, stop, n, pair=pair, tau_c=tau_c)
        pcut.to_csv(os.path.join(out_dir, "pairing_cut.csv"),
                    meta=cfg.meta_lines())
        written.append("pairing_cut.csv")
        table = CutTable(gs=pcut.gs, energies=pcut.energies)
    else:
        table = spectrum_along(model, start, stop, n)
    table.to_csv(os.path.join(out_dir, "spectrum_cut.csv"),
                 meta=cfg.meta_lines())
    click.echo(" , ".join(written) + " written")


@main.command()
@click.option("--out", "out_dir", default=None,
              type=click.Path(file_okay=False),
              help="Optional directory for selftest.json.")
@_guarded
def selftest(out_dir):
    """Run the reference-model acceptance suite; print pass/fail per criterion."""
    from .selftest import run_all

    results = run_all(echo=click.echo)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        _write_json(
            os.path.join(out_dir, "selftest.json"),
            {"version": __version__},
            {"results": [
                {"criterion": r.number, "name": r.name,
                 "passed": r.passed, "details": r.details}
                for r in results
            ]},
        )
    if not all(r.passed for r in results):
        sys.exit(1)


if __name__ == "__main__":
    main()
