import json
import os
import subprocess
import sys

import jsonschema
import numpy as np
import pytest

from rotstar import cli, poisson, radial
from rotstar.cli import EXIT_AMBIGUOUS, EXIT_CONFIG, EXIT_OK, EXIT_SOLVER, ConfigError, main
from rotstar.families import FamilyPoint, FamilyScanResult
from rotstar.rotlaw import FixedTotalMomentum, RotationSpec


SRC = os.path.dirname(os.path.dirname(cli.__file__))


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


RADIAL_CFG = {
    "eos": {"kind": "polytropic", "c_minus": 1.0, "gamma0": 1.6666666666666667},
    "mu_grid": {"start": 0.5, "stop": 2.0, "num": 10, "spacing": "geometric"},
}


def test_radial_scan_monotone_mass(tmp_path):
    cfg = write(tmp_path, "cfg.json", RADIAL_CFG)
    out = tmp_path / "out"
    assert main(["radial-scan", cfg, "--out-dir", str(out)]) == EXIT_OK
    rows = (out / "radial_scan.csv").read_text().strip().splitlines()[1:]
    masses = [float(r.split(",")[2]) for r in rows]
    assert all(b > a for a, b in zip(masses, masses[1:]))
    manifest = json.loads((out / "manifest.json").read_text())
    assert "config_hash" in manifest and "versions" in manifest
    assert "radial_scan.csv" in manifest["artifacts"]
    assert manifest["poisson_parts"] is None  # no Poisson solve


def test_unknown_key_rejected_before_compute(tmp_path):
    cfg = write(tmp_path, "cfg.json", {**RADIAL_CFG, "mystery": 1})
    out = tmp_path / "out"
    assert main(["radial-scan", cfg, "--out-dir", str(out)]) == EXIT_CONFIG
    err = json.loads((out / "error.json").read_text())
    assert err["exit_code"] == EXIT_CONFIG
    assert not (out / "radial_scan.csv").exists()


def test_config_schema_is_a_valid_schema():
    jsonschema.validators.validator_for(cli.CONFIG_SCHEMA).check_schema(cli.CONFIG_SCHEMA)


@pytest.mark.parametrize(
    "payload",
    [
        {**RADIAL_CFG, "mystery": 1},
        {**RADIAL_CFG, "eos": {**RADIAL_CFG["eos"], "kind": "liquid"}},
        {**RADIAL_CFG, "eos": {**RADIAL_CFG["eos"], "gamma0": "soft"}},
        {**RADIAL_CFG, "mu_grid": {**RADIAL_CFG["mu_grid"], "num": -3, "spacing": "odd"}},
    ],
)
def test_config_error_message_matches_jsonschema_validate(tmp_path, payload):
    with pytest.raises(jsonschema.ValidationError) as expected:
        jsonschema.validate(payload, cli.CONFIG_SCHEMA)
    with pytest.raises(ConfigError) as got:
        cli.load_config(write(tmp_path, "cfg.json", payload))
    assert str(got.value) == f"config validation failed: {expected.value.message}"


def test_missing_eos_is_config_error(tmp_path):
    cfg = write(tmp_path, "cfg.json", {"mu_grid": {"start": 1, "stop": 2, "num": 5}})
    assert main(["radial-scan", cfg, "--out-dir", str(tmp_path / "o")]) == EXIT_CONFIG


@pytest.mark.parametrize("c_plus", [-1.0, 0.0])
def test_nonpositive_c_plus_names_the_key(tmp_path, c_plus):
    eos = {"kind": "asymptotically-polytropic", "c_minus": 1.0, "gamma0": 1.6666666666666667,
           "c_plus": c_plus, "gamma_inf": 1.25, "blend": [1.0, 3.0]}
    cfg = write(tmp_path, "cfg.json", {**RADIAL_CFG, "eos": eos})
    out = tmp_path / "out"
    assert main(["radial-scan", cfg, "--out-dir", str(out)]) == EXIT_CONFIG
    err = json.loads((out / "error.json").read_text())
    assert err["message"] == "invalid eos: c_plus must be positive"


def test_solver_failure_exit_code(tmp_path):
    """A star with no surface and a center density whose profile overflows
    float range are solver failures."""
    no_surface = {
        "eos": {"kind": "polytropic", "c_minus": 1.0, "gamma0": 1.2000001},
        "mu_grid": {"start": 0.5, "stop": 2.0, "num": 5},
    }
    for command, payload in [("radial-scan", no_surface), ("equilibrium", {**EQ_CFG, "mu": 1e300})]:
        cfg = write(tmp_path, "cfg.json", payload)
        out = tmp_path / command
        assert main([command, cfg, "--out-dir", str(out)]) == EXIT_SOLVER
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "solver"


def test_equilibrium_records_its_sweeps(tmp_path):
    """Anderson mixing: the README star at 96^2 (50 damped sweeps) takes at
    most 15, and equilibrium.json records the count."""
    star = {
        "eos": {"kind": "polytropic", "c_minus": 1.0, "gamma0": 1.6666666666666667},
        "rotation": {"form": "rigid", "omega_c": 1.0, "kappa": 0.05},
        "mu": 1.0,
        "grid": {"nr": 96, "nz": 96},
    }
    out = tmp_path / "eq"
    assert main(["equilibrium", write(tmp_path, "eq.json", star), "--out-dir", str(out)]) == EXIT_OK
    meta = json.loads((out / "equilibrium.json").read_text())
    assert 0 < meta["sweeps"] <= 15
    assert meta["residual"] < 1e-9


def test_equilibrium_and_stability_commands(tmp_path):
    star = {
        "eos": {"kind": "polytropic", "c_minus": 1.0, "gamma0": 1.6666666666666667},
        "rotation": {"form": "rigid", "omega_c": 1.0, "kappa": 0.05},
        "mu": 1.0,
        "grid": {"nr": 56, "nz": 56},
    }
    cfg = write(tmp_path, "eq.json", star)
    out1 = tmp_path / "eq"
    assert main(["equilibrium", cfg, "--out-dir", str(out1)]) == EXIT_OK
    meta = json.loads((out1 / "equilibrium.json").read_text())
    assert meta["residual"] < 1e-8
    assert (out1 / "star" / "density.csv").exists()
    # a 56^2 table is far below one part: the solves ran on this thread
    assert json.loads((out1 / "manifest.json").read_text())["poisson_parts"] == 1

    cfg = write(tmp_path, "st.json", {**star, "basis": {"deg_r": 8, "deg_z": 4}})
    out2 = tmp_path / "st"
    assert main(["stability", cfg, "--out-dir", str(out2)]) == EXIT_OK
    rep = json.loads((out2 / "stability.json").read_text())
    assert rep["verdict"] == "stable"
    assert rep["n_minus_L"] == 1


@pytest.mark.parametrize(
    "rotation",
    [
        {"form": "rigid", "omega_c": 1.0, "kappa": 0.0},
        {"form": "power_j", "coeff": 1.0, "exponent": 2.0, "eps": 0.0},
    ],
    ids=["kappa0", "eps0"],
)
def test_static_star_skips_generator(tmp_path, rotation):
    """A rotating family at zero amplitude is a static star: its generator
    is skipped, as for any non-rotating star, instead of failing."""
    cfg = write(
        tmp_path,
        "cfg.json",
        {
            "eos": {"kind": "polytropic", "c_minus": 1.0, "gamma0": 1.6666666666666667},
            "rotation": rotation,
            "mu": 1.0,
            "grid": {"nr": 48, "nz": 48},
            "basis": {"deg_r": 6, "deg_z": 2},
            "with_generator": True,
        },
    )
    out = tmp_path / "st"
    assert main(["stability", cfg, "--out-dir", str(out)]) == EXIT_OK
    rep = json.loads((out / "stability.json").read_text())
    assert rep["n_minus_L"] == 1
    assert "generator_unstable_count" not in rep and "growth_rate" not in rep


def test_generator_accepts_a_star_with_no_rotation_on_the_axis(tmp_path):
    """power_j with exponent 2 has dj/dp(0) = 0, so Upsilon is zero on the
    axis only; the rotation is Rayleigh stable and the generator agrees
    with the reduced form."""
    cfg = write(
        tmp_path,
        "cfg.json",
        {
            "eos": {"kind": "polytropic", "c_minus": 1.0, "gamma0": 1.6666666666666667},
            "rotation": {"form": "power_j", "coeff": 1.0, "exponent": 2.0, "eps": 0.4},
            "mu": 1.0,
            "grid": {"nr": 48, "nz": 48},
            "basis": {"deg_r": 8, "deg_z": 4},
            "with_generator": True,
        },
    )
    out = tmp_path / "st"
    assert main(["stability", cfg, "--out-dir", str(out)]) == EXIT_OK
    rep = json.loads((out / "stability.json").read_text())
    assert rep["verdict"] == "stable"
    assert rep["generator_unstable_count"] == rep["n_minus_K_constrained"] == 0


def test_spectrum_and_evolve_commands(tmp_path):
    star = {
        "eos": {"kind": "polytropic", "c_minus": 1.0, "gamma0": 1.3},
        "rotation": {"form": "power_tail", "omega_c": 1.0, "r_c": 0.4, "p": 2.0, "kappa": 0.25},
        "mu": 1.0,
        "grid": {"nr": 64, "nz": 64},
        "spectrum": {"levels": 2, "ring_knots": 10},
    }
    cfg = write(tmp_path, "sp.json", star)
    out = tmp_path / "sp"
    assert main(["spectrum", cfg, "--out-dir", str(out)]) == EXIT_OK
    rep = json.loads((out / "spectrum.json").read_text())
    assert rep["a"] > 0
    assert rep["eta0"] <= -rep["a"] + 1e-9

    evolve = {"T": 20.0, "dt_factor": 0.05, "mode": "eigenmode"}
    cfg = write(tmp_path, "ev.json", {**star, "evolve": evolve})
    out2 = tmp_path / "ev"
    assert main(["evolve", cfg, "--out-dir", str(out2)]) == EXIT_OK
    lines = (out2 / "trajectory.csv").read_text().strip().splitlines()
    assert lines[0] == "t,Y_norm,E"
    info = json.loads((out2 / "evolve.json").read_text())
    assert info["eta0"] < 0
    assert info["growth_rate"] > 0


TPP_CFG = {
    "eos": {"kind": "polytropic", "c_minus": 1.0, "gamma0": 1.6666666666666667},
    "rotation": {"form": "power_j", "coeff": 1.0, "exponent": 2.0, "eps": 0.2},
    "mu_grid": {"start": 0.9, "stop": 1.2, "num": 5, "spacing": "linear"},
    "grid": {"nr": 56, "nz": 56},
    "basis": {"deg_r": 8, "deg_z": 4},
}


def test_tpp_scan_command(tmp_path):
    cfg = write(tmp_path, "cfg.json", TPP_CFG)
    out = tmp_path / "tpp"
    assert main(["tpp-scan", cfg, "--out-dir", str(out)]) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["kind"] == "fixed_j"
    assert summary["tpp_verdict"] == "no-extremum"
    rows = (out / "scan.csv").read_text().strip().splitlines()
    assert rows[0] == "mu,M,dMdmu,n_u,verdict"
    assert len(rows) == 6


def test_tpp_scan_honours_solver_max_iter(tmp_path):
    cfg = write(tmp_path, "cfg.json", {**TPP_CFG, "solver": {"max_iter": 1}})
    out = tmp_path / "tpp"
    # no point converges in one sweep: the scan's artifacts are written,
    # then the run fails with the first point's cause
    assert main(["tpp-scan", cfg, "--out-dir", str(out)]) == EXIT_SOLVER
    summary = json.loads((out / "summary.json").read_text())
    assert summary["partial"] and summary["tpp_verdict"] == "partial"
    rows = (out / "scan.csv").read_text().strip().splitlines()
    assert rows == ["mu,M,dMdmu,n_u,verdict"]
    failed = summary["failed_points"]
    assert len(failed) == TPP_CFG["mu_grid"]["num"]
    for point in failed:
        assert f"mu={point['mu']:g}:" in point["error"]
        assert "no convergence" in point["error"]
    error = json.loads((out / "error.json").read_text())
    assert error["exit_code"] == EXIT_SOLVER
    assert failed[0]["error"] in error["message"]


def test_partial_tpp_scan_exits_ok(tmp_path, monkeypatch):
    points = [
        FamilyPoint(mu=1.0, mass=1.0, n_u=0),
        FamilyPoint(mu=1.1, error="mu=1.1: no convergence"),
    ]
    scan = FamilyScanResult(RotationSpec(FixedTotalMomentum(), 0.2), points)
    monkeypatch.setattr(cli, "scan_fixed_j", lambda *args, **kwargs: scan)
    cfg = write(tmp_path, "cfg.json", TPP_CFG)
    out = tmp_path / "tpp"
    assert main(["tpp-scan", cfg, "--out-dir", str(out)]) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["tpp_verdict"] == "partial"
    assert summary["failed_points"] == [{"mu": 1.1, "error": "mu=1.1: no convergence"}]
    assert not (out / "error.json").exists()


_FAMILY_GLOBALS = ("scan_fixed_j", "scan_fixed_omega", "solve_fixed_j", "solve_fixed_omega")


@pytest.mark.parametrize(
    "form, name",
    [
        ("power_j", "scan_fixed_j"),
        ("rigid", "scan_fixed_omega"),
        ("power_j", "solve_fixed_j"),
        ("rigid", "solve_fixed_omega"),
    ],
)
def test_tpp_scan_passes_grid_and_solver_keys(tmp_path, monkeypatch, form, name):
    """tpp-scan (scan_*) and equilibrium (solve_*) hand the grid and solver
    keys to the family-named module global, looked up when called."""
    seen = {}

    def fake(*args, **kwargs):
        seen.update(kwargs)
        raise ConfigError("stop before compute")

    def wrong(*args, **kwargs):
        raise AssertionError("the other family's entry point was called")

    for other in _FAMILY_GLOBALS:
        monkeypatch.setattr(cli, other, fake if other == name else wrong)
    rigid = {"form": form, "omega_c": 1.0, "kappa": 0.05}
    rotation = rigid if form == "rigid" else TPP_CFG["rotation"]
    payload = {
        **TPP_CFG,
        "rotation": rotation,
        "grid": {"nr": 40, "nz": 44, "pad": 1.6},
        "solver": {"tol": 1e-7, "max_iter": 17, "damping": 0.3},
    }
    if name.startswith("solve"):
        command = "equilibrium"
        payload = {**{k: v for k, v in payload.items() if k not in ("mu_grid", "basis")}, "mu": 1.0}
    else:
        command = "tpp-scan"
    cfg = write(tmp_path, "cfg.json", payload)
    assert main([command, cfg, "--out-dir", str(tmp_path / "o")]) == EXIT_CONFIG
    expected = dict(nr=40, nz=44, pad=1.6, tol=1e-7, max_iter=17, damping=0.3)
    assert {k: seen[k] for k in expected} == expected


def test_determinism_byte_identical(tmp_path):
    cfg = write(tmp_path, "cfg.json", RADIAL_CFG)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["radial-scan", cfg, "--out-dir", str(out), "--seed", "7"]) == EXIT_OK
        outs.append(out)
    for fname in ("radial_scan.csv", "radial_scan_summary.json"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


STABILITY_CFG = {
    "eos": {"kind": "polytropic", "c_minus": 1.0, "gamma0": 1.6666666666666667},
    "rotation": {"form": "rigid", "omega_c": 1.0, "kappa": 0.05},
    "mu": 1.0,
    "grid": {"nr": 48, "nz": 48},
    "basis": {"deg_r": 8, "deg_z": 4},
    "with_generator": True,
}


def test_stability_byte_identical_across_processes(tmp_path):
    cfg = write(tmp_path, "cfg.json", STABILITY_CFG)
    path = [SRC, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        cmd = [sys.executable, "-m", "rotstar.cli", "stability", cfg, "--out-dir", str(out)]
        assert subprocess.run(cmd, env=env).returncode == EXIT_OK
        outs.append((out / "stability.json").read_bytes())
    assert outs[0] == outs[1]


def test_tpp_scan_jobs_do_not_change_scan_csv(tmp_path, monkeypatch):
    mu_grid = {"start": 0.9, "stop": 1.1, "num": 3, "spacing": "linear"}
    cfg = write(tmp_path, "cfg.json", {**TPP_CFG, "mu_grid": mu_grid})
    outs = []
    for jobs in ("1", "2"):
        # start cold, so every worker builds the kernel table of its own first point
        monkeypatch.setattr(poisson, "_unit_table", None)
        monkeypatch.setattr(radial, "_lane_emden", None)
        out = tmp_path / f"jobs{jobs}"
        assert main(["tpp-scan", cfg, "--out-dir", str(out), "--jobs", jobs]) == EXIT_OK
        outs.append((out / "scan.csv").read_bytes())
    assert len(outs[0].splitlines()) == 4
    assert outs[0] == outs[1]


def test_print_defaults():
    assert main(["print-defaults"]) == EXIT_OK


def test_bb1974_command_reports_turning_point(tmp_path):
    cfg = write(tmp_path, "cfg.json", {})
    out = tmp_path / "bb"
    assert main(["bb1974", cfg, "--out-dir", str(out)]) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["tpp_verdict"] == "TPP-holds"
    assert summary["mu_star_kind"] == "min"
    curve = (out / "plot_data.csv").read_text().strip().splitlines()
    masses = [float(r.split(",")[1]) for r in curve[1:]]
    assert min(masses) < masses[0] and min(masses) < masses[-1]


def test_bb1974_rejects_config_keys(tmp_path, monkeypatch):
    """bb1974 fixes its own star, grid and basis; a key it would ignore is a
    config error before any compute."""
    monkeypatch.setattr(cli, "bb1974_example", lambda **kw: pytest.fail("scan ran"))
    for name, payload in (("grid", {"grid": {"nr": 96}}), ("mu", {"mu": 2.0})):
        cfg = write(tmp_path, f"{name}.json", payload)
        out = tmp_path / name
        assert main(["bb1974", cfg, "--out-dir", str(out)]) == EXIT_CONFIG
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "config"
        assert name in err["message"]
        assert not (out / "summary.json").exists()


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_nonpositive_jobs_rejected(tmp_path, jobs):
    cfg = write(tmp_path, "cfg.json", RADIAL_CFG)
    out = tmp_path / "out"
    assert main(["radial-scan", cfg, "--out-dir", str(out), "--jobs", jobs]) == EXIT_CONFIG
    err = json.loads((out / "error.json").read_text())
    assert err["exit_code"] == EXIT_CONFIG
    assert f"--jobs must be at least 1, got {jobs}" in err["message"]
    assert not (out / "radial_scan.csv").exists()


_POWER_J = {"form": "power_j", "coeff": 1.0, "exponent": 2.0}
#: the STABILITY_CFG star on a 24^2 grid, with only the sections equilibrium reads
EQ_CFG = {**{k: STABILITY_CFG[k] for k in ("eos", "rotation", "mu")}, "grid": {"nr": 24, "nz": 24}}


@pytest.mark.parametrize(
    "command, payload, key",
    [
        ("stability", {**STABILITY_CFG, "rotation": {"form": "rigid", "omega_c": 1.0}}, "kappa"),
        ("equilibrium", {**EQ_CFG, "rotation": _POWER_J}, "eps"),
        ("tpp-scan", {**TPP_CFG, "rotation": {"form": "rigid", "omega_c": 1.0}}, "kappa"),
        ("tpp-scan", {**TPP_CFG, "rotation": _POWER_J}, "eps"),
    ],
)
def test_missing_rotation_amplitude_rejected(tmp_path, command, payload, key):
    """A rotation section without kappa or eps is an error, not a static star."""
    cfg = write(tmp_path, "cfg.json", payload)
    out = tmp_path / "out"
    assert main([command, cfg, "--out-dir", str(out)]) == EXIT_CONFIG
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "config"
    assert f"requires {key!r}" in err["message"]


@pytest.mark.parametrize(
    "key, literal",
    [("kappa", "NaN"), ("mu", "NaN"), ("mu", "Infinity"), ("kappa", "-Infinity"), ("mu", "1e400")],
)
def test_non_finite_config_numbers_rejected(tmp_path, key, literal):
    """json reads NaN, +-Infinity and an overflowing literal as floats the
    schema's number checks accept; each is a config error before any
    compute (a NaN kappa used to solve to a collapsed star and exit 0)."""
    payload = {**EQ_CFG, "rotation": dict(EQ_CFG["rotation"])}
    (payload["rotation"] if key == "kappa" else payload)[key] = "@"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload).replace('"@"', literal))
    out = tmp_path / "out"
    assert main(["equilibrium", str(path), "--out-dir", str(out)]) == EXIT_CONFIG
    err = json.loads((out / "error.json").read_text())
    assert err["message"] == f"config number {literal} is not finite"
    assert not (out / "equilibrium.json").exists()


def test_negative_seed_rejected_before_compute(tmp_path):
    cfg = write(tmp_path, "cfg.json", EQ_CFG)
    out = tmp_path / "out"
    assert main(["equilibrium", cfg, "--out-dir", str(out), "--seed", "-1"]) == EXIT_CONFIG
    err = json.loads((out / "error.json").read_text())
    assert err["message"] == "--seed must be nonnegative, got -1"
    assert not (out / "equilibrium.json").exists()


def _table_csv(tmp_path, rows):
    path = tmp_path / "law.csv"
    np.savetxt(path, np.column_stack([np.linspace(0.0, 3.0, rows), np.ones(rows)]), delimiter=",")
    return str(path)


@pytest.mark.parametrize(
    "change, needle",
    [
        (lambda tmp: {"rotation": {"form": "bb_j", "eps": 0.4, "kappa": 0.1}}, "kappa"),
        (lambda tmp: {"rotation": {**_POWER_J, "eps": 0.2, "omega_c": 1.0}}, "omega_c"),
        (lambda tmp: {"rotation": {**STABILITY_CFG["rotation"], "coeff": 2.0}}, "coeff"),
        (
            lambda tmp: {"eos": {**STABILITY_CFG["eos"], "c_plus": 1.0, "blend": [1.0, 3.0]}},
            "c_plus",
        ),
        (
            lambda tmp: {"rotation": {"form": "table", "path": str(tmp / "absent.csv"),
                                      "kappa": 0.05}},
            "absent.csv",
        ),
        (
            lambda tmp: {"rotation": {"form": "table", "path": _table_csv(tmp, 2),
                                      "kappa": 0.05}},
            "need >= 4",
        ),
        (lambda tmp: {"scan": {"family": "fixed_j"}}, "scan"),
    ],
    ids=["kappa_on_bb_j", "omega_c_on_power_j", "coeff_on_rigid", "blend_on_polytrope",
         "missing_table_path", "two_sample_table", "scan_section"],
)
def test_config_keys_a_form_does_not_take_are_rejected(tmp_path, change, needle):
    """A key the eos kind or rotation form does not read, an unreadable or
    too short table and the unread ``scan`` section are config errors."""
    cfg = write(tmp_path, "cfg.json", {**EQ_CFG, **change(tmp_path)})
    out = tmp_path / "out"
    assert main(["equilibrium", cfg, "--out-dir", str(out)]) == EXIT_CONFIG
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "config"
    assert needle in err["message"]
    assert not (out / "equilibrium.json").exists()


def test_bundle_replays_as_config(tmp_path):
    """A star bundle's eos, rotation and mu are a valid config that solves
    to the same density; a table law read from a file is saved inline."""
    rotation = {"form": "table", "path": _table_csv(tmp_path, 40), "kappa": 0.05}
    first = tmp_path / "first"
    cfg = write(tmp_path, "cfg.json", {**EQ_CFG, "rotation": rotation})
    assert main(["equilibrium", cfg, "--out-dir", str(first)]) == EXIT_OK
    meta = json.loads((first / "star" / "meta.json").read_text())
    replay = {key: meta[key] for key in ("eos", "rotation", "mu")}
    assert replay["rotation"]["form"] == "table" and "path" not in replay["rotation"]
    cli._CONFIG_VALIDATOR.validate(replay)
    second = tmp_path / "second"
    cfg = write(tmp_path, "replay.json", {**replay, "grid": EQ_CFG["grid"]})
    assert main(["equilibrium", cfg, "--out-dir", str(second)]) == EXIT_OK
    density = [(out / "star" / "density.csv").read_bytes() for out in (first, second)]
    assert density[0] == density[1]


@pytest.mark.parametrize(
    "command, base, section, value",
    [
        ("equilibrium", "eq", "basis", {"deg_r": 20}),
        ("equilibrium", "eq", "spectrum", {"levels": 5}),
        ("equilibrium", "eq", "with_generator", True),
        ("equilibrium", "eq", "mu_grid", {"start": 1.0, "stop": 2.0, "num": 3}),
        ("stability", "eq", "spectrum", {"levels": 5}),
        ("spectrum", "eq", "evolve", {"T": 1.0}),
        ("radial-scan", "radial", "grid", {"nr": 24}),
        ("tpp-scan", "tpp", "mu", 1.0),
    ],
)
def test_sections_a_command_does_not_read_are_rejected(
    tmp_path, monkeypatch, command, base, section, value
):
    """A whole section the command never reads is a config error before any
    compute, not silently ignored."""
    for name in _FAMILY_GLOBALS + ("family_scan_radial",):
        monkeypatch.setattr(cli, name, lambda *a, **kw: pytest.fail("compute ran"))
    given = {"eq": EQ_CFG, "radial": RADIAL_CFG, "tpp": TPP_CFG}[base]
    cfg = write(tmp_path, "cfg.json", {**given, section: value})
    out = tmp_path / "out"
    assert main([command, cfg, "--out-dir", str(out)]) == EXIT_CONFIG
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "config"
    assert repr(section) in err["message"]
    assert sorted(os.listdir(out)) == ["error.json"]


#: the Rayleigh-unstable power-tail star of test_spectrum_and_evolve_commands
POWER_TAIL_CFG = {
    "eos": {"kind": "polytropic", "c_minus": 1.0, "gamma0": 1.3},
    "rotation": {"form": "power_tail", "omega_c": 1.0, "r_c": 0.4, "p": 2.0, "kappa": 0.25},
}


@pytest.mark.parametrize(
    "command, payload, needle",
    [
        ("spectrum", EQ_CFG, "Rayleigh stable on this star"),
        (
            "stability",
            {**POWER_TAIL_CFG, "mu": 1.0, "grid": {"nr": 32, "nz": 32},
             "basis": {"deg_r": 4, "deg_z": 2}},
            "Rayleigh unstable on this star",
        ),
        (
            "tpp-scan",
            {**POWER_TAIL_CFG, "grid": {"nr": 24, "nz": 24}, "basis": {"deg_r": 4, "deg_z": 2},
             "mu_grid": {"start": 1.0, "stop": 1.1, "num": 2}},
            "Rayleigh unstable on this star",
        ),
        ("radial-scan", {**RADIAL_CFG, "mu_grid": {**RADIAL_CFG["mu_grid"], "num": 3}}, ">= 5 points"),
    ],
    ids=["spectrum_rayleigh_stable", "stability_rayleigh_unstable",
         "tpp_scan_rayleigh_unstable", "radial_scan_short_grid"],
)
def test_analysis_the_star_does_not_admit_is_config_error(tmp_path, command, payload, needle):
    """A request the analysis does not apply to exits 2 with the analysis's
    own reason, not 3 as if a solve had failed."""
    cfg = write(tmp_path, "cfg.json", payload)
    out = tmp_path / "out"
    assert main([command, cfg, "--out-dir", str(out)]) == EXIT_CONFIG
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "config" and err["exit_code"] == EXIT_CONFIG
    assert needle in err["message"]


def test_generator_runs_at_the_basis_degree(tmp_path):
    """The generator reads every tensor row of the basis, whatever its
    degree: a 6x2 basis runs it and the report carries its in-band pairs."""
    cfg = write(tmp_path, "cfg.json",
                {**EQ_CFG, "basis": {"deg_r": 6, "deg_z": 2}, "with_generator": True})
    out = tmp_path / "out"
    assert main(["stability", cfg, "--out-dir", str(out)]) == EXIT_OK
    rep = json.loads((out / "stability.json").read_text())
    assert rep["generator_unstable_count"] == rep["n_minus_K_constrained"] == 0
    assert rep["generator_n_zero"] == 0


@pytest.mark.parametrize("command, base", [("radial-scan", RADIAL_CFG), ("tpp-scan", TPP_CFG)])
@pytest.mark.parametrize("stop", [0.5, 1.0])
def test_descending_or_flat_mu_grid_rejected(tmp_path, monkeypatch, command, base, stop):
    """A scan's verdict must not depend on the order of its grid, so a grid
    that does not ascend is a config error before any compute."""
    for name in _FAMILY_GLOBALS + ("family_scan_radial",):
        monkeypatch.setattr(cli, name, lambda *a, **kw: pytest.fail("compute ran"))
    mu_grid = {"start": 1.0, "stop": stop, "num": 5, "spacing": "linear"}
    cfg = write(tmp_path, "cfg.json", {**base, "mu_grid": mu_grid})
    out = tmp_path / "out"
    assert main([command, cfg, "--out-dir", str(out)]) == EXIT_CONFIG
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "config"
    assert f"mu_grid stop {stop:g} must exceed start 1" in err["message"]


@pytest.mark.parametrize(
    "table, needle",
    [
        ({"r": [0.0, 1.0, 2.0, 3.0]}, "needs both 'r' and 'omega', or 'path'"),
        ({"omega": [1.0, 1.0, 1.0, 1.0]}, "needs both 'r' and 'omega', or 'path'"),
        (
            {"r": [0.0, 1.0, 2.0, 3.0, 4.0], "omega": [1.0, 1.0, 1.0, 1.0]},
            "'r' has 5 samples but 'omega' has 4",
        ),
        ({"path": "one_column.csv"}, "one_column.csv has 1 column(s)"),
    ],
    ids=["r_without_omega", "omega_without_r", "length_mismatch", "one_column_file"],
)
def test_table_law_messages_name_the_keys(tmp_path, table, needle):
    if "path" in table:
        path = tmp_path / table["path"]
        np.savetxt(path, np.linspace(0.0, 3.0, 8), delimiter=",")
        table = {"path": str(path)}
    rotation = {"form": "table", **table, "kappa": 0.05}
    cfg = write(tmp_path, "cfg.json", {**EQ_CFG, "rotation": rotation})
    out = tmp_path / "out"
    assert main(["equilibrium", cfg, "--out-dir", str(out)]) == EXIT_CONFIG
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "config"
    assert needle in err["message"]


@pytest.mark.parametrize("exc_type", [ValueError, TypeError])
def test_programming_error_is_not_a_solver_failure(tmp_path, monkeypatch, exc_type):
    """An exception that is not one of the package's error types is a bug:
    it propagates with its traceback and leaves no error.json."""

    def broken(*args, **kwargs):
        raise exc_type("injected bug")

    monkeypatch.setattr(cli, "perturbation_basis", broken)
    cfg = write(tmp_path, "cfg.json", {**EQ_CFG, "basis": {"deg_r": 4, "deg_z": 2}})
    out = tmp_path / "out"
    with pytest.raises(exc_type, match="injected bug"):
        main(["stability", cfg, "--out-dir", str(out)])
    assert not (out / "error.json").exists()


@pytest.mark.parametrize("blocker", ["file", "file/sub"])
def test_out_dir_that_cannot_be_created_is_config_error(tmp_path, monkeypatch, capsys, blocker):
    """An --out-dir that is a file, or lies under one, exits 2 before any
    compute, naming the directory."""
    monkeypatch.setattr(cli, "family_scan_radial", lambda *a, **kw: pytest.fail("compute ran"))
    (tmp_path / "file").write_text("")
    out = str(tmp_path / blocker)
    assert main(["radial-scan", write(tmp_path, "cfg.json", RADIAL_CFG), "--out-dir", out]) == EXIT_CONFIG
    assert f"cannot create --out-dir {out}" in capsys.readouterr().err
