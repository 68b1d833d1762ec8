"""Outside-in tracer: span and counter wrappers around rotstar's public callables.

Nothing under ``src/`` is edited.  ``install()`` replaces each target
callable with a wrapper that records a span (id, name, parent id, start,
end) in memory.  A target is replaced on its class, or on every loaded
``rotstar`` module namespace that bound the same function object by name
(``cli`` and ``families`` import ``solve_fixed_*`` and
``perturbation_basis`` that way), so no call site bypasses the wrapper.

Spans stay in a list until ``Tracer.dump`` writes them once; ``layers``
turns them into the per-layer metrics the benchmark reports.
"""

from __future__ import annotations

import functools
import json
import math
import resource
import statistics
import sys
import time

# (span name, module, attribute path) of every wrapped callable.
TARGETS = (
    ("cli.config", "rotstar.cli", "load_config"),
    ("poisson.kernel_build", "rotstar.poisson", "RingKernel.__init__"),
    ("poisson.potential", "rotstar.poisson", "RingKernel.potential"),
    ("radial.solve", "rotstar.radial", "solve_radial"),
    ("eos.enthalpy_inverse", "rotstar.eos", "EquationOfState.enthalpy_inverse"),
    ("equilibria.solve", "rotstar.equilibria", "solve_fixed_omega"),
    ("equilibria.solve", "rotstar.equilibria", "solve_fixed_j"),
    ("equilibria.save", "rotstar.equilibria", "save_axistar"),
    ("bases.build", "rotstar.bases", "perturbation_basis"),
    ("stability.energy_assembly", "rotstar.stability", "assemble_perturbation_energy"),
    ("stability.reduced_assembly", "rotstar.stability", "assemble_reduced_energy"),
    ("stability.restrict_mass_zero", "rotstar.stability", "restrict_mass_zero"),
    ("stability.generator", "rotstar.stability", "assemble_generator"),
    ("stability.generator_eig", "rotstar.stability", "generator_unstable_count"),
    ("stability.report", "rotstar.stability", "stability_report"),
    ("forms.pencil", "rotstar.forms", "QuadraticForm.__post_init__"),
    ("spectral.velocity_basis", "rotstar.spectral", "velocity_basis"),
    ("spectral.meridional", "rotstar.spectral", "assemble_meridional_form"),
    ("spectral.report", "rotstar.spectral", "spectrum_report"),
    ("families.point", "rotstar.families", "_ScanJob.run"),
    ("families.scan", "rotstar.families", "scan_fixed_j"),
    ("families.scan", "rotstar.families", "scan_fixed_omega"),
    ("families.bb1974", "rotstar.families", "bb1974_example"),
)

#: unit of every per-layer metric; ``Tracer.layers`` computes all but the last
#: two, which the benchmark adds from the out-dir and the untraced runs
LAYER_UNITS = {
    "poisson.kernel_builds": "count",
    "poisson.kernel_build_s": "s",
    "poisson.kernel_build_rss_mb": "MB",
    "poisson.potential_calls": "count",
    "poisson.potential_fields": "count",
    "poisson.potential_s": "s",
    "poisson.ms_per_field": "ms",
    "radial.solves": "count",
    "radial.solve_s": "s",
    "eos.enthalpy_inverse_calls": "count",
    "eos.enthalpy_inverse_s": "s",
    "equilibria.solves": "count",
    "equilibria.scf_self_s": "s",
    "equilibria.sweeps": "count",
    "equilibria.residual_max": "1",
    "equilibria.save_s": "s",
    "bases.builds": "count",
    "bases.build_s": "s",
    "bases.fields": "count",
    "stability.energy_assemblies": "count",
    "stability.assembly_self_s": "s",
    "stability.generator_s": "s",
    "stability.generator_eig_s": "s",
    "forms.pencil_eigs": "count",
    "forms.pencil_s": "s",
    "forms.retained_rank": "count",
    "spectral.velocity_basis_s": "s",
    "spectral.meridional_self_s": "s",
    "spectral.potential_fields": "count",
    "families.points": "count",
    "families.points_failed": "count",
    "families.point_s": "s",
    "cli.config_s": "s",
    "cli.artifact_bytes": "bytes",
    "trace.overhead_s": "s",
}

ASSEMBLY_SPANS = ("stability.energy_assembly", "stability.reduced_assembly")
SPECTRAL_SPANS = ("spectral.velocity_basis", "spectral.meridional", "spectral.report")


def _rss_high_water_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """In-memory span recorder.  A span is a list
    ``[id, name, parent_id, start, end, attrs]``; ``attrs`` holds the
    per-call facts a layer metric needs (fields carried, rank, residual)."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.kernel_build_rss_mb = None

    def wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(tracer.spans), name, tracer._stack[-1] if tracer._stack else None,
                    0.0, 0.0, None]
            tracer.spans.append(span)
            tracer._stack.append(span[0])
            first_build = name == "poisson.kernel_build" and tracer.kernel_build_rss_mb is None
            if first_build:
                rss0 = _rss_high_water_mb()
            span[3] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                tracer._stack.pop()
            if first_build:
                tracer.kernel_build_rss_mb = _rss_high_water_mb() - rss0
            span[5] = _attrs(name, args, kwargs, out)
            return out

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "name", "parent", "start", "end", "attrs"],
                       "spans": self.spans}, fh)

    def layers(self) -> dict:
        """Per-layer counts and times of one traced invocation."""
        spans = self.spans
        busy = [s[4] - s[3] for s in spans]
        child = [0.0] * len(spans)
        for s, b in zip(spans, busy):
            if s[2] is not None:
                child[s[2]] += b
        self_time = [b - c for b, c in zip(busy, child)]

        def named(name):
            return [i for i, s in enumerate(spans) if s[1] == name]

        def total(name, times=busy):
            return sum(times[i] for i in named(name))

        def inside(i, roots):
            p = spans[i][2]
            while p is not None:
                if spans[p][1] in roots:
                    return True
                p = spans[p][2]
            return False

        pots = named("poisson.potential")
        fields = sum(spans[i][5]["fields"] for i in pots)
        solves = named("equilibria.solve")
        residuals = [spans[i][5]["residual"] for i in solves if spans[i][5]]
        points = named("families.point")
        point_s = [busy[i] for i in points]
        constrained = named("stability.restrict_mass_zero")
        bases = named("bases.build")
        return {
            "poisson.kernel_builds": len(named("poisson.kernel_build")),
            "poisson.kernel_build_s": total("poisson.kernel_build"),
            "poisson.kernel_build_rss_mb": self.kernel_build_rss_mb or 0.0,
            "poisson.potential_calls": len(pots),
            "poisson.potential_fields": fields,
            "poisson.potential_s": total("poisson.potential"),
            "poisson.ms_per_field": 1e3 * total("poisson.potential") / fields if fields else 0.0,
            "radial.solves": len(named("radial.solve")),
            "radial.solve_s": total("radial.solve"),
            "eos.enthalpy_inverse_calls": len(named("eos.enthalpy_inverse")),
            "eos.enthalpy_inverse_s": total("eos.enthalpy_inverse"),
            "equilibria.solves": len(solves),
            "equilibria.scf_self_s": total("equilibria.solve", self_time),
            "equilibria.sweeps": sum(1 for i in pots if inside(i, ("equilibria.solve",)))
            - len(solves),
            "equilibria.residual_max": max(residuals, default=0.0),
            "equilibria.save_s": total("equilibria.save"),
            "bases.builds": len(bases),
            "bases.build_s": total("bases.build"),
            "bases.fields": sum(spans[i][5]["fields"] for i in bases),
            "stability.energy_assemblies": len(named("stability.energy_assembly")),
            "stability.assembly_self_s": sum(total(n, self_time) for n in ASSEMBLY_SPANS),
            "stability.generator_s": total("stability.generator"),
            "stability.generator_eig_s": total("stability.generator_eig"),
            "forms.pencil_eigs": len(named("forms.pencil")),
            "forms.pencil_s": total("forms.pencil"),
            "forms.retained_rank": sum(spans[i][5]["rank"] for i in constrained),
            "spectral.velocity_basis_s": total("spectral.velocity_basis"),
            "spectral.meridional_self_s": total("spectral.meridional", self_time),
            "spectral.potential_fields": sum(
                spans[i][5]["fields"] for i in pots if inside(i, SPECTRAL_SPANS)
            ),
            "families.points": len(points),
            "families.points_failed": sum(1 for i in points if spans[i][5]["failed"]),
            "families.point_s": statistics.median(point_s) if point_s else 0.0,
            "cli.config_s": total("cli.config"),
        }


def _attrs(name, args, kwargs, out):
    if name == "poisson.potential":
        source = args[1] if len(args) > 1 else kwargs["source"]
        # a batched (n, nr, nz) stack carries n fields; a plain field carries one
        return {"fields": math.prod(source.shape[:-2])}
    if name == "equilibria.solve":
        return {"residual": float(out.residual)}
    if name == "bases.build":
        return {"fields": int(out.count)}
    if name == "stability.restrict_mass_zero":
        return {"rank": int(out.rank)}
    if name == "families.point":
        return {"failed": bool(out.failed)}
    return None


def resolve(module_name, path):
    owner = sys.modules[module_name]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def install(tracer: Tracer) -> list:
    """Wrap every target; returns (owner, attr, original) triples for ``uninstall``."""
    import rotstar.cli  # noqa: F401  (loads every module that binds a target)

    patched = []
    for name, module_name, path in TARGETS:
        owner, attr = resolve(module_name, path)
        original = getattr(owner, attr)
        wrapper = tracer.wrap(name, original)
        setattr(owner, attr, wrapper)
        patched.append((owner, attr, original))
        if isinstance(owner, type):
            continue
        for _, mod in _rotstar_modules():
            if mod is owner:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    patched.append((mod, key, original))
    return patched


def uninstall(patched: list) -> None:
    for owner, attr, original in reversed(patched):
        setattr(owner, attr, original)


def unwrapped_references() -> list:
    """Names in loaded rotstar namespaces that still bind an unwrapped target."""
    originals = set()
    for _, module_name, path in TARGETS:
        owner, attr = resolve(module_name, path)
        fn = getattr(owner, attr)
        originals.add(id(getattr(fn, "__wrapped__", fn)))
    return [f"{mod_name}.{key}" for mod_name, mod in _rotstar_modules()
            for key, value in vars(mod).items() if id(value) in originals]


def _rotstar_modules():
    return [(n, m) for n, m in list(sys.modules.items())
            if n == "rotstar" or n.startswith("rotstar.")]
