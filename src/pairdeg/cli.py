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
import hashlib
import json
import math
import os
import sys

import click

from . import __version__
from ._csvio import format_value, write_csv
from .atlas import classify_all, sweep_gamma
from .discriminant import discriminant_grid
from .errors import ConfigError, PairdegError
from .model import ModelSpec
from .monodromy import LoopSpec, _restore_periods, trace_loop
from .observables import pairing_energy_cut
from .spectra import CutTable, spectrum_along

SCHEMA = {
    "model": {"epsilons", "omegas", "n_pairs", "gamma"},
    "atlas": {"window", "heatmap_points"},
    "sweep": {"gamma_start", "gamma_stop", "samples", "classify", "merge_radius"},
    "encircle": {"center_re", "center_im", "radius", "steps", "loops"},
    "cut": {"start_re", "start_im", "stop_re", "stop_im", "samples",
            "pairing", "pair"},
    "precision": {"tau_c", "interp_radius", "cluster_factor", "loop_steps",
                  "loop_radius"},
}

DEFAULTS = {
    "atlas": {"window": "-0.3, 0.3, -0.3, 0.3", "heatmap_points": "101"},
    "sweep": {"gamma_start": "-0.6", "gamma_stop": "-0.4", "samples": "21",
              "classify": "true", "merge_radius": "1e-4"},
    "encircle": {"radius": "0.01", "steps": "256", "loops": "4"},
    "cut": {"samples": "200", "pairing": "true", "pair": "2, 3"},
    "precision": {"tau_c": "1e-6", "interp_radius": "0.5",
                  "cluster_factor": "1e-4", "loop_steps": "64",
                  "loop_radius": "0.01"},
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
            if section not in SCHEMA:
                raise ConfigError(f"unknown config section [{section}]")
            for key in parser[section]:
                if key not in SCHEMA[section]:
                    raise ConfigError(f"unknown key '{key}' in section [{section}]")
        if "model" not in parser:
            raise ConfigError("config must contain a [model] section")
        for key in SCHEMA["model"]:
            if key not in parser["model"]:
                raise ConfigError(f"[model] is missing required key '{key}'")
        self._parser = parser

    def _get(self, section, key):
        if section in self._parser and key in self._parser[section]:
            return self._parser[section][key]
        if section in DEFAULTS and key in DEFAULTS[section]:
            return DEFAULTS[section][key]
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
        v = self.float(section, key)
        if v != int(v):
            raise ConfigError(f"[{section}] {key}: expected an integer")
        return int(v)

    def ints(self, section, key):
        return [int(x) for x in self.floats(section, key)]

    def bool(self, section, key):
        v = self._get(section, key).strip().lower()
        if v in ("true", "yes", "1", "on"):
            return True
        if v in ("false", "no", "0", "off"):
            return False
        raise ConfigError(f"[{section}] {key}: expected a boolean, got {v!r}")

    def model(self) -> ModelSpec:
        from .errors import InvalidModelError

        try:
            return ModelSpec.from_arrays(
                self.floats("model", "epsilons"),
                self.ints("model", "omegas"),
                self.int("model", "n_pairs"),
                self.float("model", "gamma"),
            )
        except (InvalidModelError, ValueError) as exc:
            raise ConfigError(f"invalid [model] section: {exc}") from exc

    def meta_lines(self):
        return [f"config_sha256={self.sha256}", f"version={__version__}"]

    def meta_dict(self):
        return {"config_sha256": self.sha256, "version": __version__}


def _write_json(path, meta, payload):
    doc = {"meta": meta}
    doc.update(payload)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _run(body):
    try:
        body()
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(2)
    except PairdegError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)


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
def atlas(config_path, out_dir):
    """Locate and classify all degeneracies; write JSON list and |D| heatmap."""

    def body():
        cfg = RunConfig(config_path)
        model = cfg.model()
        os.makedirs(out_dir, exist_ok=True)
        window = cfg.floats("atlas", "window")
        if len(window) != 4:
            raise ConfigError("[atlas] window needs four numbers")
        spans = [window[1] - window[0], window[3] - window[2]]
        if not all(math.isfinite(x) for x in spans):
            raise ConfigError(f"[atlas] window {', '.join(map(str, window))} "
                              "has a non-finite span or sample grid")
        points = classify_all(
            model,
            tau_c=cfg.float("precision", "tau_c"),
            radius=cfg.float("precision", "interp_radius"),
            cluster_factor=cfg.float("precision", "cluster_factor"),
            loop_radius=cfg.float("precision", "loop_radius"),
            loop_steps=cfg.int("precision", "loop_steps"),
        )
        points = [p for p in points
                  if window[0] <= p.g0.real <= window[1]
                  and window[2] <= p.g0.imag <= window[3]]
        _write_json(
            os.path.join(out_dir, "degeneracies.json"), cfg.meta_dict(),
            {"degeneracies": [p.as_dict() for p in points]},
        )
        n = cfg.int("atlas", "heatmap_points")
        res, ims, grid = discriminant_grid(model, window, n, n)
        # Each coordinate repeats along the grid: format it once.
        re_tokens = [format_value(x) for x in res.tolist()]
        im_tokens = [format_value(y) for y in ims.tolist()]
        write_csv(os.path.join(out_dir, "heatmap.csv"), ["g_re", "g_im", "abs_D"],
                  [re_tokens * len(ims), [t for t in im_tokens for _ in re_tokens],
                   grid.ravel().tolist()], meta=cfg.meta_lines())
        click.echo(f"{len(points)} degeneracies -> degeneracies.json, heatmap.csv")

    _run(body)


@main.command()
@_common
def sweep(config_path, out_dir):
    """Track degeneracies over a gamma interval; write trajectory and events."""

    def body():
        cfg = RunConfig(config_path)
        model = cfg.model()
        os.makedirs(out_dir, exist_ok=True)
        traj = sweep_gamma(
            model,
            cfg.float("sweep", "gamma_start"),
            cfg.float("sweep", "gamma_stop"),
            cfg.int("sweep", "samples"),
            classify_points=cfg.bool("sweep", "classify"),
            merge_radius=cfg.float("sweep", "merge_radius"),
            radius=cfg.float("precision", "interp_radius"),
            cluster_factor=cfg.float("precision", "cluster_factor"),
            tau_c=cfg.float("precision", "tau_c"),
        )
        traj.to_csv(os.path.join(out_dir, "trajectory.csv"),
                    meta=cfg.meta_lines())
        _write_json(os.path.join(out_dir, "events.json"), cfg.meta_dict(),
                    traj.as_dict())
        click.echo(f"{len(traj.events)} merge event(s) -> trajectory.csv, events.json")

    _run(body)


@main.command()
@_common
def encircle(config_path, out_dir):
    """Trace eigenpairs around a loop; write phases CSV and period summary."""

    def body():
        cfg = RunConfig(config_path)
        model = cfg.model()
        os.makedirs(out_dir, exist_ok=True)
        center = complex(cfg.float("encircle", "center_re"),
                         cfg.float("encircle", "center_im"))
        loops = cfg.int("encircle", "loops")
        loop = LoopSpec(center, cfg.float("encircle", "radius"),
                        steps=cfg.int("encircle", "steps"), loops=loops)
        # Every requested turn is written, not only those up to the periods.
        trace = trace_loop(model, loop, tau_c=cfg.float("precision", "tau_c"))
        trace.to_csv(os.path.join(out_dir, "phases.csv"), meta=cfg.meta_lines())
        eigenvalue_period, phase_period = _restore_periods(trace.loop_permutations,
                                                           trace.loop_re_theta)
        summary = trace.summary()
        summary["eigenvalue_period"] = eigenvalue_period
        summary["phase_period"] = phase_period
        summary["restored"] = eigenvalue_period is not None and phase_period is not None
        _write_json(os.path.join(out_dir, "encircle_summary.json"),
                    cfg.meta_dict(), summary)
        click.echo(
            f"periods (eigenvalue, phase) = ({eigenvalue_period}, {phase_period}) "
            f"-> phases.csv, encircle_summary.json"
        )

    _run(body)


@main.command()
@_common
def cut(config_path, out_dir):
    """Sample eigenvalues (and pairing energies) along a straight cut."""

    def body():
        cfg = RunConfig(config_path)
        model = cfg.model()
        os.makedirs(out_dir, exist_ok=True)
        start = complex(cfg.float("cut", "start_re"), cfg.float("cut", "start_im"))
        stop = complex(cfg.float("cut", "stop_re"), cfg.float("cut", "stop_im"))
        n = cfg.int("cut", "samples")
        if n < 2:
            raise ConfigError("[cut] samples must be at least 2")
        written = ["spectrum_cut.csv"]
        if cfg.bool("cut", "pairing"):
            pair = cfg.ints("cut", "pair")
            if len(pair) != 2:
                raise ConfigError("[cut] pair needs two state labels")
            # One continuation with vectors serves both files: its
            # eigenvalues are those of a continuation without vectors.
            pcut = pairing_energy_cut(model, start, stop, n, pair=tuple(pair),
                                      tau_c=cfg.float("precision", "tau_c"))
            pcut.to_csv(os.path.join(out_dir, "pairing_cut.csv"),
                        meta=cfg.meta_lines())
            written.append("pairing_cut.csv")
            table = CutTable(gs=pcut.gs, energies=pcut.energies)
        else:
            table = spectrum_along(model, start, stop, n)
        table.to_csv(os.path.join(out_dir, "spectrum_cut.csv"),
                     meta=cfg.meta_lines())
        click.echo(" , ".join(written) + " written")

    _run(body)


@main.command()
@click.option("--out", "out_dir", default=None,
              type=click.Path(file_okay=False),
              help="Optional directory for selftest.json.")
def selftest(out_dir):
    """Run the reference-model acceptance suite; print pass/fail per criterion."""

    def body():
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

    _run(body)


if __name__ == "__main__":
    main()
