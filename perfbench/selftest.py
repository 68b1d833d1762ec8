"""Test of the benchmark itself.

    python3 perfbench/selftest.py [workload ...]      (default: all four)

For each workload, one fresh process runs the command once with the tracer
installed and checks:

1. wrapping is complete: no loaded rotstar namespace still binds an
   unwrapped target, and a ``sys.setprofile`` count of calls into each
   target's code object equals the number of spans the tracer recorded;
2. the traced counts reproduce the seed commit's table exactly (kernel
   builds, ``RingKernel.potential`` calls, SCF solve spans);
3. the workload's gate passes on the artifacts, and fails on every
   corrupted copy in MUTATIONS, so a gate that can no longer fail is caught.

A change that deliberately alters those call counts (batched Poisson
solves, a kernel cache) updates SEED_COUNTS together with NOTES.md.
Exit code 0 when every check passes.  Takes about a minute on 2 cores.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

#: (kernel builds, potential calls, solve spans) on the seed commit
SEED_COUNTS = {
    "stability_readme": (1, 254, 1),
    "spectrum_unstable": (1, 90, 1),
    "bb1974_scan": (9, 897, 9),
    "equilibrium_256": (1, 55, 1),
}


def set_key(key, value):
    def mutate(text):
        data = json.loads(text)
        data[key] = value(data[key]) if callable(value) else value
        return json.dumps(data)
    return mutate


def flip_csv_cell(row, column, value):
    def mutate(text):
        lines = text.splitlines()
        col = lines[0].split(",").index(column)
        cells = lines[row + 1].split(",")
        cells[col] = value
        lines[row + 1] = ",".join(cells)
        return "\n".join(lines) + "\n"
    return mutate


def drop_csv_row(row):
    def mutate(text):
        lines = text.splitlines()
        del lines[row + 1]
        return "\n".join(lines) + "\n"
    return mutate


def nudge(rel):
    return lambda v: v * (1.0 + rel)


#: corrupted artifacts each gate must reject: (file, mutation)
MUTATIONS = {
    "stability_readme": [
        ("stability.json", set_key("n_minus_L", 0)),
        ("stability.json", set_key("n_minus_K_constrained", 1)),
        ("stability.json", set_key("n_zero", 2)),
        ("stability.json", set_key("verdict", "unstable")),
        ("stability.json", set_key("generator_unstable_count", 1)),
    ],
    "spectrum_unstable": [
        ("spectrum.json", set_key("flags", [-0.05])),
        ("spectrum.json", set_key("discrete_below", [])),
        ("spectrum.json", set_key("discrete_below", [-0.0919, -0.05])),
        ("spectrum.json", set_key("eta0", nudge(1e-5))),
        ("spectrum.json", set_key("a", nudge(1e-5))),
        ("spectrum.json", set_key("b", nudge(1e-5))),
    ],
    "bb1974_scan": [
        ("summary.json", set_key("tpp_verdict", "TPP-fails")),
        ("summary.json", set_key("mu_star_kind", "max")),
        ("summary.json", set_key("partial", True)),
        ("summary.json", set_key("transitions", lambda t: t + t)),
        ("scan.csv", flip_csv_cell(3, "n_u", "1")),
        ("scan.csv", drop_csv_row(4)),
    ],
    "equilibrium_256": [
        ("equilibrium.json", set_key("residual", 2e-8)),
        ("equilibrium.json", set_key("mass", nudge(1e-5))),
        ("equilibrium.json", set_key("support_radius", nudge(-1e-5))),
    ],
}


def run_one(name: str, work: Path) -> list:
    """Traced run of one workload in this process; returns problems found."""
    import rotstar.cli

    import tracer as tracer_mod

    workload = WORKLOADS[name]
    tracer = tracer_mod.Tracer()
    patched = tracer_mod.install(tracer)
    problems = [f"unwrapped reference {r}" for r in tracer_mod.unwrapped_references()]

    # ground truth: calls entering each target's code object, however reached
    code_names = {}
    for label, module_name, path in tracer_mod.TARGETS:
        owner, attr = tracer_mod.resolve(module_name, path)
        code_names[getattr(owner, attr).__wrapped__.__code__] = label
    calls = {}

    def profile(frame, event, arg):
        if event == "call":
            label = code_names.get(frame.f_code)
            if label is not None:
                calls[label] = calls.get(label, 0) + 1

    config = work / "config.json"
    config.write_text(json.dumps(workload.config))
    out = work / "out"
    sys.setprofile(profile)
    try:
        code = rotstar.cli.main(workload.argv(str(config), str(out), 0))
    finally:
        sys.setprofile(None)
        tracer_mod.uninstall(patched)
    if code != 0:
        return problems + [f"exit code {code}"]

    spans = {}
    for span in tracer.spans:
        label = span[1]
        spans[label] = spans.get(label, 0) + 1
    for label in sorted(set(calls) | set(spans)):
        if calls.get(label, 0) != spans.get(label, 0):
            problems.append(f"{label}: {calls.get(label, 0)} calls but "
                            f"{spans.get(label, 0)} spans")

    lay = tracer.layers()
    got = (lay["poisson.kernel_builds"], lay["poisson.potential_calls"],
           lay["equilibria.solves"])
    if got != SEED_COUNTS[name]:
        problems.append(f"(kernel builds, potential calls, solves) = {got}, "
                        f"seed table {SEED_COUNTS[name]}")
    print(f"{name}: kernel builds {got[0]}, potential calls {got[1]}, solves {got[2]}")

    good = workload.gate(str(out))
    problems += [f"gate on good artifacts: {p}" for p in good]
    rejected = 0
    for i, (fname, mutate) in enumerate(MUTATIONS[name]):
        bad = work / f"mutant{i}"
        shutil.copytree(out, bad)
        path = bad / fname
        path.write_text(mutate(path.read_text()))
        if workload.gate(str(bad)):
            rejected += 1
        else:
            problems.append(f"gate accepted mutation {i} of {fname}")
    print(f"{name}: gate {'passed' if not good else 'FAILED'} the run and rejected "
          f"{rejected} of {len(MUTATIONS[name])} corruptions")
    return problems


def main(argv) -> int:
    if argv[:1] == ["--one"]:
        name = argv[1]
        work = ROOT / ".perfbench_out" / "selftest" / name
        if work.exists():
            shutil.rmtree(work)
        work.mkdir(parents=True)
        problems = run_one(name, work)
        for p in problems:
            print(f"{name}: FAIL {p}")
        return 1 if problems else 0

    if not (ROOT / "src" / "rotstar" / "cli.py").is_file():
        print(f"error: no rotstar sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = argv or list(WORKLOADS)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    failed = []
    for name in names:  # one at a time: equilibrium_256 alone peaks near 2.5 GB
        proc = subprocess.run([sys.executable, __file__, "--one", name], env=env,
                              cwd=str(ROOT), check=False)
        if proc.returncode != 0:
            failed.append(name)
    print("selftest: " + (f"FAILED {failed}" if failed else "all checks passed"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
