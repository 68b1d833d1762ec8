"""The four benchmark workloads: inputs, command lines and correctness gates.

Every workload is one ``rotstar`` command on a fixed config.  Its gate reads
the artifacts the command wrote and returns a list of problems; an empty
list means the invocation produced the seed commit's verdicts.  Reference
values were recorded on the seed commit (see NOTES.md).  Counts must match
exactly; continuous values use relative tolerances tighter than the ones in
tests/test_acceptance.py.

The inputs do not depend on the benchmark seed.  Every gate pins values of
one specific star, and moving mu would move both those references and the
work (SCF sweep counts) a run measures.  The seed is passed on to the
command as ``--seed``; ``bb1974`` ignores its config altogether.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

#: relative tolerance on continuous reference values (acceptance criteria
#: use 1e-4 and looser)
REL_TOL = 1e-6

README_STAR = {
    "eos": {"kind": "polytropic", "c_minus": 1.0, "gamma0": 1.6666666666666667},
    "rotation": {"form": "rigid", "omega_c": 1.0, "kappa": 0.05},
    "mu": 1.0,
    "grid": {"nr": 96, "nz": 96},
    "basis": {"deg_r": 10, "deg_z": 6},
    "with_generator": True,
}

RAYLEIGH_UNSTABLE_STAR = {
    "eos": {"kind": "polytropic", "c_minus": 1.0, "gamma0": 1.3},
    "rotation": {"form": "power_tail", "omega_c": 1.0, "r_c": 0.4, "p": 2.0, "kappa": 0.25},
    "mu": 1.0,
    "grid": {"nr": 96, "nz": 96},
    # ring_knots 40 at 96^2 flags an ambiguous eigenvalue (exit 4); keep 20
    "spectrum": {"levels": 3, "ring_knots": 20, "strict": True},
}

BLEND_STAR_256 = {
    "eos": {
        "kind": "asymptotically-polytropic",
        "c_minus": 1.0,
        "gamma0": 1.6666666666666667,
        "c_plus": 1.0,
        "gamma_inf": 1.25,
        "blend": [1.0, 3.0],
    },
    "rotation": {"form": "rigid", "omega_c": 1.0, "kappa": 0.4},
    "mu": 10.0,
    "grid": {"nr": 256, "nz": 256},
}


def _load(out_dir, name):
    with open(os.path.join(out_dir, name)) as fh:
        return json.load(fh)


def _expect(problems, label, got, want):
    if got != want:
        problems.append(f"{label}: got {got!r}, want {want!r}")


def _close(problems, label, got, want, rel=REL_TOL):
    if not (isinstance(got, (int, float)) and math.isfinite(got)
            and abs(got - want) <= rel * abs(want)):
        problems.append(f"{label}: got {got!r}, want {want!r} (rel {rel:g})")


def gate_stability(out_dir):
    rep = _load(out_dir, "stability.json")
    problems = []
    for key, want in (
        ("n_minus_L", 1),
        ("n_minus_K_constrained", 0),
        ("n_zero", 1),
        ("verdict", "stable"),
        ("generator_unstable_count", 0),
    ):
        _expect(problems, key, rep.get(key), want)
    return problems


def gate_spectrum(out_dir):
    rep = _load(out_dir, "spectrum.json")
    problems = []
    _expect(problems, "flags", rep.get("flags"), [])
    below = rep.get("discrete_below") or []
    _expect(problems, "len(discrete_below)", len(below), 1)
    eta0 = -0.09191479647530311
    _close(problems, "eta0", rep.get("eta0"), eta0)
    if below:
        _close(problems, "discrete_below[0]", below[0], eta0)
    _close(problems, "a", rep.get("a"), 0.0012755208571670871)
    _close(problems, "b", rep.get("b"), 0.25)
    return problems


def gate_equilibrium(out_dir):
    rep = _load(out_dir, "equilibrium.json")
    problems = []
    residual = rep.get("residual")
    if not (isinstance(residual, float) and residual < 1e-8):
        problems.append(f"residual: got {residual!r}, want < 1e-8")
    _close(problems, "mass", rep.get("mass"), 3.912111441357717)
    _close(problems, "support_radius", rep.get("support_radius"), 1.2104413630481652)
    if not os.path.isfile(os.path.join(out_dir, "star", "density.csv")):
        problems.append("star/density.csv missing")
    return problems


BB1974_N_U = [1, 1, 1, 0, 0, 0, 0, 0, 0]


def gate_bb1974(out_dir):
    summary = _load(out_dir, "summary.json")
    problems = []
    _expect(problems, "tpp_verdict", summary.get("tpp_verdict"), "TPP-holds")
    _expect(problems, "mu_star_kind", summary.get("mu_star_kind"), "min")
    _close(problems, "mu_star", summary.get("mu_star"), 2338.769282208895)
    _expect(problems, "partial", summary.get("partial"), False)
    trans = summary.get("transitions") or []
    _expect(problems, "transition counts", [t[2:] for t in trans], [[1, 0]])
    with open(os.path.join(out_dir, "scan.csv")) as fh:
        rows = list(csv.DictReader(fh))
    # a failed point drops out of scan.csv, so nine rows means none failed
    _expect(problems, "n_u per point", [int(r["n_u"]) for r in rows], BB1974_N_U)
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    config: dict
    gate: Callable[[str], list]

    def argv(self, config_path, out_dir, seed):
        return [self.command, config_path, "--out-dir", out_dir, "--jobs", "1",
                "--seed", str(seed)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("stability_readme", "stability", README_STAR, gate_stability),
        Workload("spectrum_unstable", "spectrum", RAYLEIGH_UNSTABLE_STAR, gate_spectrum),
        Workload("bb1974_scan", "bb1974", {}, gate_bb1974),
        Workload("equilibrium_256", "equilibrium", BLEND_STAR_256, gate_equilibrium),
    )
}
