"""Command-line front end: config validation, orchestration, artifacts.

Subcommands read one JSON config file, check it, run the requested
experiment, and write CSV/JSON artifacts plus a manifest into the output
directory; a command handler only writes, and ``main`` returns the exit
code.  Every CSV goes through ``_write_csv``, and a star's JSON record is
its ``summary()``.  Identical configs and seeds produce byte-identical data
artifacts; the manifest additionally records wall-clock runtimes, which
depend on the host, and therefore is not byte-reproducible; it also records
the bytes the star's Poisson kernel table holds (null for the scans), and
the package versions the run used: scipy's only when the run loaded scipy
(``radial-scan`` and the ``table`` rotation form do), null otherwise.

Every scalar knob's type, range and default are one entry of ``KNOBS``;
a key it does not list, a wrong type (an integer knob takes a JSON
integer, a number is never a bool) or a value out of range is a config
error naming the key path.  The ``eos`` and ``rotation`` sections are read
by ``EquationOfState.from_config`` and ``RotationSpec.from_config``, which
own their keys and bounds: each rotation form takes only its own class's
parameters plus its amplitude (``kappa`` for a law, ``eps`` for a momentum
distribution), and any other key is a config error.  Here each of their
values is checked only for its kind: ``kind``, ``form`` and ``path`` are
strings, ``blend``, ``r`` and ``omega`` lists of numbers, any other key a
number.  A saved star bundle's ``meta.json`` holds the same two sections,
so its ``eos``, ``rotation`` and ``mu`` replay as a config.

Each command reads only the config sections ``COMMANDS`` lists for it
(``bb1974`` fixes its own star, grid and basis and reads none); any other
section is a config error before any compute, not silently ignored.  A
section listed key by key (``evolve`` reads ``spectrum.ring_knots``) rejects
its other keys the same way.

Exit codes, one per error type of ``rotstar.errors``, each failure leaving
a machine-readable error.json:

* 0 success;
* 2 ``ConfigError``: an invalid config, or an analysis the star's rotation
  does not admit (``stability`` or ``tpp-scan`` on a star that is not
  ``StarContext.rayleigh_stable``, ``spectrum`` or ``evolve`` on a static
  or Rayleigh-stable one, a momentum distribution not vanishing at the
  axis, a descending, flat or too short ``mu_grid``);
* 3 ``SolverError``: no SCF convergence or divergence, a grid too small
  for the star, a star with no surface, an evolve run past float range,
  no converged scan point;
* 4 ``AmbiguousClassificationError``: a strict spectrum that cannot
  classify an eigenvalue.

Any other exception is a bug: it propagates with its traceback (exit 1)
and no error.json is written.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

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


def _is_number(value) -> bool:
    """A JSON number: an int or a float, never a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _integer(lo: int, hi: float = math.inf):
    """The rule of an integer knob in [lo, hi]: a JSON integer, never 24.0."""
    want = f"an integer >= {lo}" if hi == math.inf else f"an integer in [{lo}, {hi}]"
    return (lambda v: type(v) is int and lo <= v <= hi), want


def _real(lo: float, hi: float = math.inf):
    """The rule of a real knob in (lo, hi]."""
    want = f"a number > {lo:g}" if hi == math.inf else f"a number in ({lo:g}, {hi:g}]"
    return (lambda v: _is_number(v) and lo < v <= hi), want


def _one_of(*choices):
    """The rule of a knob that takes one of ``choices``."""
    return (lambda v: v in choices), f"one of {list(choices)}"


_BOOL = (lambda v: isinstance(v, bool)), "true or false"
_NUMBER = _is_number, "a number"
_STRING = (lambda v: isinstance(v, str)), "a string"
_NUMBERS = (lambda v: isinstance(v, list) and all(map(_is_number, v))), "a list of numbers"

#: every scalar config knob: key path -> (rule, default).  A rule is a test
#: of the value and what it wants, for the message.  No default (None): the
#: commands that read the knob require it, or (``mu_grid.spacing``) default
#: it where they read it, and ``print-defaults`` leaves it out.
KNOBS = {
    "grid.nr": (_integer(16, 512), 96),
    "grid.nz": (_integer(16, 512), 96),
    "grid.pad": (_real(1.0), 1.35),
    "solver.tol": (_real(0.0), 1e-10),
    "solver.max_iter": (_integer(1), 400),
    "basis.deg_r": (_integer(1, 20), 10),
    "basis.deg_z": (_integer(1, 12), 6),
    "spectrum.levels": (_integer(2, 5), 3),
    "spectrum.ring_knots": (_integer(4, 128), 10),
    "spectrum.strict": (_BOOL, False),
    "evolve.T": (_real(0.0), 30.0),
    "evolve.dt_factor": (_real(0.0, 1.0), 0.05),
    "evolve.mode": (_one_of("eigenmode", "random"), "random"),
    "with_generator": (_BOOL, False),
    "mu": (_real(0.0), None),
    "mu_grid.start": (_real(0.0), None),
    "mu_grid.stop": (_real(0.0), None),
    "mu_grid.num": (_integer(2), None),
    "mu_grid.spacing": (_one_of("linear", "geometric"), None),
}

#: the value kind of an ``eos`` or ``rotation`` key, a real number unless
#: listed; which keys exist, which are required and their bounds are the
#: classes' to check
_CLASS_KEYS = {"kind": _STRING, "form": _STRING, "path": _STRING,
               "blend": _NUMBERS, "r": _NUMBERS, "omega": _NUMBERS}

_SECTIONS = {path.partition(".")[0] for path in KNOBS if "." in path} | {"eos", "rotation"}


def check_config(cfg) -> None:
    """Raise ConfigError, naming the key path, unless every key ``cfg``
    gives is a knob within its rule or an eos or rotation key of its kind."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"config must be a JSON object, got {json.dumps(cfg)}")
    for key, value in cfg.items():
        if key not in _SECTIONS:
            _check_value("", key, value)
        elif not isinstance(value, dict):
            raise ConfigError(f"config {key} must be an object, got {json.dumps(value)}")
        else:
            for sub, v in value.items():
                _check_value(key, sub, v)


def _check_value(section: str, key: str, value) -> None:
    path = f"{section}.{key}" if section else key
    if section in ("eos", "rotation"):
        test, want = _CLASS_KEYS.get(key, _NUMBER)
    elif path in KNOBS and "." not in key:  # a top-level "grid.nr" is no knob
        test, want = KNOBS[path][0]
    else:
        raise ConfigError(f"unknown config key {path}")
    if not test(value):
        raise ConfigError(f"config {path} must be {want}, got {json.dumps(value)}")


def _finite_float(text: str) -> float:
    """A config number; json's NaN, +-Infinity and literals overflowing a
    float are errors."""
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"config number {text} is not finite")
    return value


def _finite_int(text: str) -> int:
    """An integer literal; one a float cannot hold is an error, as the code
    computes with it as a float."""
    _finite_float(text)
    return int(text)


def load_config(path: str) -> dict:
    """Read and check a config file; the keys it sets, without defaults."""
    try:
        with open(path) as fh:
            cfg = json.load(fh, parse_constant=_finite_float, parse_float=_finite_float,
                            parse_int=_finite_int)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    check_config(cfg)
    return cfg


def _with_defaults(cfg: dict) -> dict:
    """A checked config with the KNOBS defaults under the keys it omits; of
    the empty config, the defaults ``print-defaults`` prints."""
    merged = {key: dict(value) if isinstance(value, dict) else value for key, value in cfg.items()}
    for path, (_, default) in KNOBS.items():
        section, _, key = path.rpartition(".")
        if default is not None:
            (merged.setdefault(section, {}) if section else merged).setdefault(key, default)
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
    for key in ("start", "stop", "num"):
        if key not in spec:
            raise ConfigError(f"config requires 'mu_grid.{key}'")
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
    """The grid and solver keys of a defaulted config, which are the solve
    keywords of the same names."""
    return {**cfg["grid"], **cfg["solver"]}


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
    """sha256 of the config's sorted JSON.  hashlib is imported here, when
    a manifest is written: its OpenSSL backend costs every command 3.7 MB
    of resident memory and about 5 ms of import."""
    import hashlib

    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _write_csv(path: str, header: str, rows) -> None:
    """The one CSV format: the header line, then one line per row, a float
    written as %.11e and any other value with str."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.11e}" if isinstance(v, float) else str(v) for v in row) + "\n")


class _Runner:
    def __init__(self, given: dict, out_dir: str, seed: int, jobs: int):
        self.cfg = _with_defaults(given)
        self.out = out_dir
        self.seed = seed
        self.jobs = jobs
        self.artifacts = []
        #: bytes of the run's Poisson kernel table and whether it was
        #: "built" or "stored" (None: no single star)
        self.poisson_table_bytes = self.poisson_table_source = None
        self.t0 = time.time()

    def path(self, name: str) -> str:
        self.artifacts.append(name)
        return os.path.join(self.out, name)

    def solve_star(self):
        star = solve_configured_star(self.cfg)
        self.poisson_table_bytes = star.kernel.table_bytes
        self.poisson_table_source = star.kernel.table_source
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
                    # only radial-scan and the table rotation form load scipy
                    "scipy": getattr(sys.modules.get("scipy"), "__version__", None),
                },
                "artifacts": sorted(self.artifacts),
                "poisson_table_bytes": self.poisson_table_bytes,
                "poisson_table_source": self.poisson_table_source,
                "runtime_seconds": time.time() - self.t0,
            },
        )


def cmd_radial_scan(run: _Runner) -> None:
    eos = build_eos(run.cfg)
    curves = family_scan_radial(eos, build_mu_grid(run.cfg))
    _write_csv(run.path("radial_scan.csv"), "mu,R,M,dMdmu,MoverR",
               zip(curves.mu, curves.radius, curves.mass, curves.dM_dmu, curves.mass_over_radius))
    _write_json(
        run.path("radial_scan_summary.json"),
        {
            "mass_extrema": curves.mass_extrema,
            "mu_tilde": curves.mu_tilde if math.isfinite(curves.mu_tilde) else "inf",
        },
    )


def cmd_equilibrium(run: _Runner) -> None:
    star = run.solve_star()
    save_axistar(star, run.path("star"))
    _write_json(run.path("equilibrium.json"), {**star.summary(), "sweeps": star.sweeps})


def cmd_stability(run: _Runner) -> None:
    star = run.solve_star()
    b = run.cfg["basis"]
    basis = perturbation_basis(star, deg_r=b["deg_r"], deg_z=b["deg_z"])
    report = stability_report(basis, with_generator=run.cfg.get("with_generator", False))
    _write_json(run.path("stability.json"), report)


def cmd_spectrum(run: _Runner) -> None:
    star = run.solve_star()
    sp = run.cfg["spectrum"]
    report = spectrum_report(
        star,
        levels=sp["levels"],
        ring_knots0=sp["ring_knots"],
        strict=sp["strict"],
    )
    _write_json(run.path("spectrum.json"), report.summary())


def cmd_evolve(run: _Runner) -> None:
    star = run.solve_star()
    vb = velocity_basis(star, ring_knots=run.cfg["spectrum"]["ring_knots"] * 2)
    form = assemble_meridional_form(vb)
    ev = run.cfg["evolve"]
    n = form.eigenvalues.size
    if ev["mode"] == "eigenmode":
        u0 = np.zeros(n)
        u0[0] = 1.0
        v0 = np.zeros(n)
        v0[0] = math.sqrt(max(-form.eigenvalues[0], 0.0))
    else:
        rng = np.random.default_rng(run.seed)
        u0 = rng.standard_normal(n)
        u0 /= np.linalg.norm(u0)
        v0 = np.zeros(n)
    traj = evolve_second_order(form, u0, v0, T=ev["T"], dt_factor=ev["dt_factor"])
    _write_csv(run.path("trajectory.csv"), "t,Y_norm,E",
               zip(traj.times, traj.norms, traj.energies))
    _write_json(
        run.path("evolve.json"),
        {
            "growth_rate": traj.growth_rate(),
            "energy_drift": traj.energy_drift,
            "eta0": float(form.eigenvalues[0]),
        },
    )


def cmd_tpp_scan(run: _Runner) -> None:
    spec = _rotation(run.cfg)
    eos = build_eos(run.cfg)
    mu_grid = build_mu_grid(run.cfg)
    scan_family = scan_fixed_omega if spec.kind == "fixed_omega" else scan_fixed_j
    scan = scan_family(eos, spec.profile, spec.amplitude, mu_grid, **_solve_kwargs(run.cfg),
                       **run.cfg["basis"], jobs=run.jobs)
    _finish_scan(run, scan)
    if all(p.failed for p in scan.points):
        # the artifacts stay, but a scan with no converged point is a failure
        raise SolverError(f"no scan point converged (first cause: {scan.points[0].error})")


def cmd_bb1974(run: _Runner) -> None:
    _finish_scan(run, bb1974_example(jobs=run.jobs))


def _finish_scan(run: _Runner, scan) -> None:
    rows = scan.table()
    _write_csv(run.path("scan.csv"), "mu,M,dMdmu,n_u,verdict", rows)
    _write_csv(run.path("plot_data.csv"), "mu,M", (row[:2] for row in rows))
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
        json.dump(_with_defaults({}), sys.stdout, indent=1, sort_keys=True)
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
        command(run)
    except ConfigError as exc:
        return fail(EXIT_CONFIG, "config", str(exc))
    except SolverError as exc:
        return fail(EXIT_SOLVER, "solver", str(exc))
    except AmbiguousClassificationError as exc:
        return fail(EXIT_AMBIGUOUS, "classification", str(exc))
    run.manifest()
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
