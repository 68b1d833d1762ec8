"""Command-line front end: config validation, orchestration, artifacts.

Subcommands read one JSON config file, validate it against a strict schema
(unknown keys are rejected), run the requested experiment, and write CSV/JSON
artifacts plus a manifest into the output directory.  Identical configs and
seeds produce byte-identical data artifacts; the manifest additionally
records wall-clock runtimes, which depend on the host, and therefore is not
byte-reproducible; it also records the bytes the star's Poisson kernel
table holds (null for the scans).

The ``eos`` and ``rotation`` sections are read by
``EquationOfState.from_config`` and ``RotationSpec.from_config``: each
rotation form takes only its own class's parameters plus its amplitude
(``kappa`` for a law, ``eps`` for a momentum distribution), and any other
key is a config error.  A saved star bundle's ``meta.json`` holds the same
two sections, so its ``eos``, ``rotation`` and ``mu`` replay as a config.

Each command reads only the config sections ``COMMANDS`` lists for it
(``bb1974`` fixes its own star, grid and basis and reads none); any other
section is a config error before any compute, not silently ignored.  A
section listed key by key (``evolve`` reads ``spectrum.ring_knots``) rejects
its other keys the same way.

Exit codes, one per error type of ``rotstar.errors``, each failure leaving
a machine-readable error.json:

* 0 success;
* 2 ``ConfigError``: an invalid config, or an analysis the star's rotation
  does not admit (``stability`` or ``tpp-scan`` on a Rayleigh-unstable
  star, ``spectrum`` or ``evolve`` on a Rayleigh-stable one, a momentum
  distribution not vanishing at the axis, a descending, flat or too short
  ``mu_grid``);
* 3 ``SolverError``: no SCF convergence or divergence, a grid too small
  for the star, a star with no surface, no converged scan point;
* 4 ``AmbiguousClassificationError``: a strict spectrum that cannot
  classify an eigenvalue.

Any other exception is a bug: it propagates with its traceback (exit 1)
and no error.json is written.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time

import numpy as np
import jsonschema
import scipy

import rotstar
from rotstar.eos import EquationOfState
from rotstar.equilibria import save_axistar, solve_fixed_j, solve_fixed_omega
from rotstar.errors import AmbiguousClassificationError, ConfigError, SolverError
from rotstar.families import bb1974_example, scan_fixed_j, scan_fixed_omega
from rotstar.radial import family_scan_radial
from rotstar.rotlaw import FORMS, RotationSpec
from rotstar.spectral import (
    assemble_meridional_form,
    evolve_second_order,
    spectrum_report,
    velocity_basis,
)
from rotstar.stability import stability_report
from rotstar.bases import perturbation_basis

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_AMBIGUOUS = 4

_EOS_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["kind", "c_minus", "gamma0"],
    "properties": {
        "kind": {"enum": ["polytropic", "asymptotically-polytropic"]},
        "c_minus": {"type": "number", "exclusiveMinimum": 0},
        "gamma0": {"type": "number"},
        "c_plus": {"type": "number"},
        "gamma_inf": {"type": "number"},
        "blend": {
            "type": "array",
            "items": {"type": "number"},
            "minItems": 2,
            "maxItems": 2,
        },
    },
}

_ROTATION_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["form"],
    "properties": {
        "form": {"enum": sorted(FORMS)},
        "omega_c": {"type": "number"},
        "r_c": {"type": "number", "exclusiveMinimum": 0},
        "p": {"type": "number"},
        "path": {"type": "string"},
        "r": {"type": "array", "items": {"type": "number"}},
        "omega": {"type": "array", "items": {"type": "number"}},
        "coeff": {"type": "number"},
        "exponent": {"type": "number"},
        "kappa": {"type": "number"},
        "eps": {"type": "number"},
    },
}

_GRID_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "nr": {"type": "integer", "minimum": 16, "maximum": 256},
        "nz": {"type": "integer", "minimum": 16, "maximum": 256},
        "pad": {"type": "number", "exclusiveMinimum": 1.0},
    },
}

_MU_GRID_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["start", "stop", "num"],
    "properties": {
        "start": {"type": "number", "exclusiveMinimum": 0},
        "stop": {"type": "number", "exclusiveMinimum": 0},
        "num": {"type": "integer", "minimum": 2},
        "spacing": {"enum": ["linear", "geometric"]},
    },
}

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "eos": _EOS_SCHEMA,
        "rotation": _ROTATION_SCHEMA,
        "grid": _GRID_SCHEMA,
        "mu": {"type": "number", "exclusiveMinimum": 0},
        "mu_grid": _MU_GRID_SCHEMA,
        "solver": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "tol": {"type": "number", "exclusiveMinimum": 0},
                "max_iter": {"type": "integer", "minimum": 1},
            },
        },
        "basis": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "deg_r": {"type": "integer", "minimum": 1, "maximum": 20},
                "deg_z": {"type": "integer", "minimum": 1, "maximum": 12},
            },
        },
        "spectrum": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "levels": {"type": "integer", "minimum": 2, "maximum": 5},
                "ring_knots": {"type": "integer", "minimum": 4, "maximum": 128},
                "strict": {"type": "boolean"},
            },
        },
        "evolve": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "T": {"type": "number", "exclusiveMinimum": 0},
                "dt_factor": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
                "mode": {"enum": ["eigenmode", "random"]},
            },
        },
        "with_generator": {"type": "boolean"},
    },
}

DEFAULTS = {
    "grid": {"nr": 96, "nz": 96, "pad": 1.35},
    "solver": {"tol": 1e-10, "max_iter": 400},
    "basis": {"deg_r": 10, "deg_z": 6},
    "spectrum": {"levels": 3, "ring_knots": 10, "strict": False},
    "evolve": {"T": 30.0, "dt_factor": 0.05, "mode": "random"},
    "with_generator": False,
}


#: built once; ``jsonschema.validate`` would check CONFIG_SCHEMA itself against
#: the metaschema on every call, which costs far more than validating a config
_CONFIG_VALIDATOR = jsonschema.validators.validator_for(CONFIG_SCHEMA)(CONFIG_SCHEMA)


def _finite_float(text: str) -> float:
    """A config number; json's NaN, +-Infinity and overflowing literals are errors."""
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"config number {text} is not finite")
    return value


def load_config(path: str) -> dict:
    """Read and validate a config file; the keys it sets, without defaults."""
    try:
        with open(path) as fh:
            cfg = json.load(fh, parse_constant=_finite_float, parse_float=_finite_float)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    error = jsonschema.exceptions.best_match(_CONFIG_VALIDATOR.iter_errors(cfg))
    if error is not None:
        raise ConfigError(f"config validation failed: {error.message}")
    return cfg


def _with_defaults(cfg: dict) -> dict:
    """A validated config with DEFAULTS filled in under the keys it omits."""
    merged = json.loads(json.dumps(DEFAULTS))
    for key, value in cfg.items():
        if isinstance(value, dict) and key in merged:
            merged[key].update(value)
        else:
            merged[key] = value
    return merged


def build_eos(cfg: dict) -> EquationOfState:
    if "eos" not in cfg:
        raise ConfigError("config requires an 'eos' section")
    try:
        return EquationOfState.from_config(cfg["eos"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid eos: {exc}") from exc


def build_mu_grid(cfg: dict) -> np.ndarray:
    spec = cfg.get("mu_grid")
    if spec is None:
        raise ConfigError("config requires a 'mu_grid' section")
    if spec["stop"] <= spec["start"]:
        raise ConfigError(f"mu_grid stop {spec['stop']:g} must exceed start {spec['start']:g}")
    fn = np.geomspace if spec.get("spacing", "geometric") == "geometric" else np.linspace
    return fn(spec["start"], spec["stop"], spec["num"])


def solve_configured_star(cfg: dict):
    spec = _rotation(cfg)
    eos = build_eos(cfg)
    mu = cfg.get("mu")
    if mu is None:
        raise ConfigError("config requires 'mu'")
    solve = solve_fixed_omega if spec.kind == "fixed_omega" else solve_fixed_j
    return solve(eos, spec.profile, spec.amplitude, mu, **_solve_kwargs(cfg))


def _solve_kwargs(cfg: dict) -> dict:
    """The grid and solver keys of a defaulted config, as solve keywords."""
    g, s = cfg["grid"], cfg["solver"]
    return dict(
        nr=g["nr"], nz=g["nz"], pad=g["pad"],
        tol=s["tol"], max_iter=s["max_iter"],
    )


def _rotation(cfg: dict) -> RotationSpec:
    """The rotation of the config's rotation section; a missing section or
    amplitude is an error, not a static star."""
    if "rotation" not in cfg:
        raise ConfigError("config requires a 'rotation' section")
    try:
        return RotationSpec.from_config(cfg["rotation"])
    except (OSError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid rotation: {exc}") from exc


def _config_hash(cfg: dict) -> str:
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


class _Runner:
    def __init__(self, given: dict, out_dir: str, seed: int, jobs: int):
        self.cfg = _with_defaults(given)
        self.out = out_dir
        self.seed = seed
        self.jobs = jobs
        self.artifacts = []
        #: bytes of the run's Poisson kernel table (None: no single star)
        self.poisson_table_bytes = None
        self.t0 = time.time()

    def path(self, name: str) -> str:
        self.artifacts.append(name)
        return os.path.join(self.out, name)

    def solve_star(self):
        star = solve_configured_star(self.cfg)
        self.poisson_table_bytes = star.kernel.table_bytes
        return star

    def manifest(self) -> None:
        _write_json(
            os.path.join(self.out, "manifest.json"),
            {
                "config_hash": _config_hash(self.cfg),
                "seed": self.seed,
                "versions": {
                    "rotstar": rotstar.__version__,
                    "numpy": np.__version__,
                    "scipy": scipy.__version__,
                },
                "artifacts": sorted(self.artifacts),
                "poisson_table_bytes": self.poisson_table_bytes,
                "runtime_seconds": time.time() - self.t0,
            },
        )


def cmd_radial_scan(run: _Runner) -> int:
    eos = build_eos(run.cfg)
    curves = family_scan_radial(eos, build_mu_grid(run.cfg))
    curves.to_csv(run.path("radial_scan.csv"))
    _write_json(
        run.path("radial_scan_summary.json"),
        {
            "mass_extrema": curves.mass_extrema,
            "mu_tilde": curves.mu_tilde if math.isfinite(curves.mu_tilde) else "inf",
        },
    )
    return EXIT_OK


def cmd_equilibrium(run: _Runner) -> int:
    star = run.solve_star()
    save_axistar(star, run.path("star"))
    _write_json(
        run.path("equilibrium.json"),
        {
            "mu": star.mu,
            "mass": star.mass,
            "support_radius": star.support_radius,
            "support_height": star.support_height,
            "c_const": star.c_const,
            "residual": star.residual,
            "sweeps": star.sweeps,
        },
    )
    return EXIT_OK


def cmd_stability(run: _Runner) -> int:
    star = run.solve_star()
    b = run.cfg["basis"]
    basis = perturbation_basis(star, deg_r=b["deg_r"], deg_z=b["deg_z"])
    report = stability_report(basis, with_generator=run.cfg.get("with_generator", False))
    _write_json(run.path("stability.json"), report)
    return EXIT_OK


def cmd_spectrum(run: _Runner) -> int:
    star = run.solve_star()
    sp = run.cfg["spectrum"]
    report = spectrum_report(
        star,
        levels=sp["levels"],
        ring_knots0=sp["ring_knots"],
        strict=sp["strict"],
    )
    _write_json(run.path("spectrum.json"), report.as_dict())
    return EXIT_OK


def cmd_evolve(run: _Runner) -> int:
    star = run.solve_star()
    vb = velocity_basis(star, ring_knots=run.cfg["spectrum"]["ring_knots"] * 2)
    form = assemble_meridional_form(vb)
    ev = run.cfg["evolve"]
    n = form.eigenvalues.size
    if ev["mode"] == "eigenmode":
        u0 = np.zeros(n)
        u0[0] = 1.0
        v0 = np.zeros(n)
        lam0 = form.eigenvalues[0]
        if lam0 < 0:
            v0[0] = math.sqrt(-lam0)
    else:
        rng = np.random.default_rng(run.seed)
        u0 = rng.standard_normal(n)
        u0 /= np.linalg.norm(u0)
        v0 = np.zeros(n)
    traj = evolve_second_order(form, u0, v0, T=ev["T"], dt_factor=ev["dt_factor"])
    with open(run.path("trajectory.csv"), "w") as fh:
        fh.write("t,Y_norm,E\n")
        for t, nn, e in zip(traj.times, traj.norms, traj.energies):
            fh.write(f"{t:.11e},{nn:.11e},{e:.11e}\n")
    _write_json(
        run.path("evolve.json"),
        {
            "growth_rate": traj.growth_rate(),
            "energy_drift": traj.energy_drift,
            "eta0": float(form.eigenvalues[0]),
        },
    )
    return EXIT_OK


def cmd_tpp_scan(run: _Runner) -> int:
    spec = _rotation(run.cfg)
    eos = build_eos(run.cfg)
    mu_grid = build_mu_grid(run.cfg)
    b = run.cfg["basis"]
    scan_family = scan_fixed_omega if spec.kind == "fixed_omega" else scan_fixed_j
    scan = scan_family(
        eos, spec.profile, spec.amplitude, mu_grid, **_solve_kwargs(run.cfg),
        deg_r=b["deg_r"], deg_z=b["deg_z"], jobs=run.jobs,
    )
    _finish_scan(run, scan)
    if all(p.failed for p in scan.points):
        # the artifacts stay, but a scan with no converged point is a failure
        raise SolverError(f"no scan point converged (first cause: {scan.points[0].error})")
    return EXIT_OK


def cmd_bb1974(run: _Runner) -> int:
    _finish_scan(run, bb1974_example(jobs=run.jobs))
    return EXIT_OK


def _finish_scan(run: _Runner, scan) -> None:
    scan.to_csv(run.path("scan.csv"))
    with open(run.path("plot_data.csv"), "w") as fh:
        fh.write("mu,M\n")
        for mu, M, _, _, _ in scan.table():
            fh.write(f"{mu:.11e},{M:.11e}\n")
    _write_json(run.path("summary.json"), scan.summary())


_STAR = ("eos", "rotation", "mu", "grid", "solver")

#: command -> (handler, the config sections it reads, or 'section.key' for
#: one key of a section it reads only in part)
COMMANDS = {
    "radial-scan": (cmd_radial_scan, ("eos", "mu_grid")),
    "equilibrium": (cmd_equilibrium, _STAR),
    "stability": (cmd_stability, _STAR + ("basis", "with_generator")),
    "spectrum": (cmd_spectrum, _STAR + ("spectrum",)),
    "evolve": (cmd_evolve, _STAR + ("spectrum.ring_knots", "evolve")),
    "tpp-scan": (cmd_tpp_scan, ("eos", "rotation", "mu_grid", "grid", "solver", "basis")),
    "bb1974": (cmd_bb1974, ()),
}


def _unread(cfg: dict, reads) -> list:
    """The sections of ``cfg`` a command reading ``reads`` never reads, and
    'section.key' for each key of a section it reads only key by key."""
    unread = []
    for section, value in cfg.items():
        keys = {key for sec, _, key in (r.partition(".") for r in reads) if sec == section}
        if not keys:
            unread.append(section)
        elif "" not in keys:
            unread += [f"{section}.{key}" for key in value if key not in keys]
    return sorted(unread)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rotstar",
        description="Rotating-star equilibria, stability scans, and spectra.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS) + ["print-defaults"])
    parser.add_argument("config", nargs="?", help="JSON configuration file")
    parser.add_argument("--out-dir", default="rotstar_out")
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    if args.command == "print-defaults":
        json.dump(DEFAULTS, sys.stdout, indent=1, sort_keys=True)
        sys.stdout.write("\n")
        return EXIT_OK

    def fail(code: int, kind: str, message: str) -> int:
        payload = {"error": kind, "message": message, "exit_code": code}
        try:
            os.makedirs(args.out_dir, exist_ok=True)
            _write_json(os.path.join(args.out_dir, "error.json"), payload)
        except OSError:
            pass
        print(f"error ({kind}): {message}", file=sys.stderr)
        return code

    if args.config is None:
        return fail(EXIT_CONFIG, "config", "missing config file argument")
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        return fail(EXIT_CONFIG, "config", str(exc))

    command, reads = COMMANDS[args.command]
    unread = _unread(cfg, reads)
    if unread:
        return fail(EXIT_CONFIG, "config", f"{args.command} does not read config {unread}")
    if args.jobs < 1:
        return fail(EXIT_CONFIG, "config", f"--jobs must be at least 1, got {args.jobs}")
    if args.seed < 0:
        return fail(EXIT_CONFIG, "config", f"--seed must be nonnegative, got {args.seed}")
    try:
        os.makedirs(args.out_dir, exist_ok=True)
    except OSError as exc:
        return fail(EXIT_CONFIG, "config", f"cannot create --out-dir {args.out_dir}: {exc.strerror}")
    run = _Runner(cfg, args.out_dir, args.seed, args.jobs)
    try:
        code = command(run)
    except ConfigError as exc:
        return fail(EXIT_CONFIG, "config", str(exc))
    except SolverError as exc:
        return fail(EXIT_SOLVER, "solver", str(exc))
    except AmbiguousClassificationError as exc:
        return fail(EXIT_AMBIGUOUS, "classification", str(exc))
    run.manifest()
    return code


if __name__ == "__main__":
    sys.exit(main())
