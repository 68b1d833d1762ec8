"""rotstar benchmark: time-to-verdict, set-up time and peak memory of the CLI.

Usage (from the root of a rotstar checkout):

    python3 perfbench/run.py --workload stability_readme --seed 1 --seconds 20 --trace 0

Each repetition runs ``rotstar.cli.main`` once in a fresh Python process
(``perfbench/child.py``) on the sources under ``src/``, with BLAS pinned to
one thread and ``--jobs 1``, closed loop: one command at a time.  Every
invocation's artifacts pass the workload's correctness gate or the
invocation counts as failed and is not timed.

``--trace 0`` reports the end-to-end metrics (medians over the run):
    time_to_verdict_s  wall time of one main() call
    setup_s            process start until rotstar.cli is imported, over every
                       invocation and import-only probes (SETUP_SAMPLES)
    peak_rss_mb        peak resident memory of the invocation's process
``--trace 1`` alternates untraced and traced invocations and reports the
per-layer metrics of the traced ones (see tracer.py) plus trace.overhead_s.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  The full record
(machine block, every sample) is written to .perfbench_out/<workload>/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import LAYER_UNITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = HERE.parent
CHILD = HERE / "child.py"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1
JOBS = 1
#: per-invocation limit; the slowest workload takes about 20 s on 2 cores
CHILD_TIMEOUT_S = 150.0
#: no new invocation starts after this much of the run has passed
RUN_DEADLINE_S = 110.0
#: set-up times per run: every invocation's, topped up with import-only probes
SETUP_SAMPLES = 10

END_TO_END_UNITS = {"time_to_verdict_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class SetupError(RuntimeError):
    pass


def machine_block(versions: dict) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
        **versions,
        "blas_env": {v: str(BLAS_THREADS) for v in BLAS_VARS},
        "jobs": JOBS,
    }


class Invoker:
    """Spawns child processes in a scratch directory inside the checkout."""

    def __init__(self, work: Path):
        self.work = work
        self.env = dict(os.environ)
        self.env.update({v: str(BLAS_THREADS) for v in BLAS_VARS})
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.env["TMPDIR"] = str(work / "tmp")
        (work / "tmp").mkdir(parents=True, exist_ok=True)
        self.versions = {}

    def spawn(self, opts: list, cli_argv: list) -> tuple[dict | None, float, str]:
        """Run one child; returns (record or None, its set-up seconds, stderr tail)."""
        result = self.work / "child.json"
        result.unlink(missing_ok=True)
        log = self.work / "child.log"
        cmd = [sys.executable, str(CHILD), "--result", str(result), *opts, "--", *cli_argv]
        t_spawn = time.monotonic()
        with open(log, "w") as fh:
            try:
                subprocess.run(cmd, env=self.env, cwd=str(self.work), stdout=fh,
                               stderr=subprocess.STDOUT, timeout=CHILD_TIMEOUT_S, check=False)
            except subprocess.TimeoutExpired:
                return None, 0.0, f"timed out after {CHILD_TIMEOUT_S:g} s"
        tail = log.read_text()[-2000:]
        if not result.is_file():
            return None, 0.0, tail
        rec = json.loads(result.read_text())
        src = Path(rec["rotstar_file"]).resolve()
        if ROOT / "src" not in src.parents:
            raise SetupError(f"rotstar imported from {src}, not from {ROOT / 'src'}")
        self.versions = rec["versions"]
        return rec, rec["ready_at"] - t_spawn, tail


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def tail_percentile(samples: list):
    """Highest whole percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    p = int(100 * (1 - 10 / n)) if n else 0
    if p <= 50:
        return None
    return p, statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


def run(args) -> dict:
    workload = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_out" / args.workload
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(workload.config, indent=1) + "\n")
    out_dir = work / "out"
    inv = Invoker(work)

    def probe():
        rec, s, tail = inv.spawn(["--import-only"], [])
        if rec is None:
            raise SetupError(f"import of rotstar.cli failed:\n{tail}")
        return s

    probe()  # warms the byte-code and file caches; not counted
    setup = []

    t_begin = time.monotonic()
    walls, samples = [], {"plain": [], "traced": []}
    rss, layers, problems_seen = [], [], []
    attempted = failed = 0
    while True:
        elapsed = time.monotonic() - t_begin
        per_round = statistics.median(walls) * (2 if args.trace else 1) if walls else 0.0
        if attempted and (elapsed + per_round > args.seconds or elapsed > RUN_DEADLINE_S):
            break
        for traced in ((False, True) if args.trace else (False,)):
            if out_dir.exists():
                shutil.rmtree(out_dir)
            opts = ["--trace", "--spans", str(work / "spans.json")] if traced else []
            t0 = time.monotonic()
            rec, s, tail = inv.spawn(opts, workload.argv(str(config_path), str(out_dir), args.seed))
            walls.append(time.monotonic() - t0)
            attempted += 1
            if rec is None:
                problems = [f"no result: {tail.strip()}"]
            elif rec["exit_code"] != 0:
                problems = [f"exit code {rec['exit_code']}: {tail.strip()}"]
            else:
                try:
                    problems = workload.gate(str(out_dir))
                except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                    problems = [f"unreadable artifacts: {exc!r}"]
            tag = "traced" if traced else "plain"
            if problems:
                failed += 1
                problems_seen.append(problems)
                print(f"#{attempted} {tag} FAILED: " + "; ".join(problems), file=sys.stderr)
                continue
            samples[tag].append(rec["verdict_s"])
            if traced:
                rec["layers"]["cli.artifact_bytes"] = dir_bytes(out_dir)
                layers.append(rec["layers"])
            else:
                setup.append(s)
                rss.append(rec["rss_mb"])
            print(f"#{attempted} {tag} ok  {rec['verdict_s']:.4f} s  "
                  f"setup {s:.4f} s  rss {rec['rss_mb']:.1f} MB", flush=True)
    while not args.trace and len(setup) < SETUP_SAMPLES:
        setup.append(probe())

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_block(inv.versions),
        "attempted": attempted,
        "failed": failed,
        "problems": problems_seen,
        "samples": {"time_to_verdict_s": samples["plain"], "traced_time_to_verdict_s":
                    samples["traced"], "setup_s": setup, "peak_rss_mb": rss},
        "layers": layers,
    }


def summarize(record: dict) -> dict:
    s = record["samples"]
    metrics = {}
    if record["trace"]:
        if record["layers"]:
            for name in LAYER_UNITS:
                if name != "trace.overhead_s":
                    # median_low keeps counts whole: it is one invocation's value
                    metrics[name] = statistics.median_low(lay[name] for lay in record["layers"])
        if s["time_to_verdict_s"] and s["traced_time_to_verdict_s"]:
            metrics["trace.overhead_s"] = (statistics.median(s["traced_time_to_verdict_s"])
                                           - statistics.median(s["time_to_verdict_s"]))
        units = LAYER_UNITS
    else:
        for name in END_TO_END_UNITS:
            if s[name]:
                metrics[name] = statistics.median(s[name])
        units = END_TO_END_UNITS
    return {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}


def print_report(record: dict, metrics: dict) -> None:
    print("machine: " + json.dumps(record["machine"], sort_keys=True))
    attempted, failed = record["attempted"], record["failed"]
    for name, m in metrics.items():
        line = f"{name:32s} {m['value']!r:>24} {m['unit']}"
        samples = record["samples"].get(name)
        if samples:
            line += f"  (median of n={len(samples)}"
            tail = tail_percentile(samples)
            line += f", p{tail[0]} {tail[1]!r})" if tail else ")"
        print(line)
    print(f"{'failed_ratio':32s} {failed / attempted!r:>24} 1  ({failed} of {attempted})")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "rotstar" / "cli.py").is_file():
        print(f"error: no rotstar sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    if BLAS_THREADS > nproc:
        print(f"error: {BLAS_THREADS} BLAS threads exceed nproc={nproc}", file=sys.stderr)
        return 2
    try:
        record = run(args)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    metrics = summarize(record)
    record["metrics"] = metrics
    (ROOT / ".perfbench_out" / args.workload / "result.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print_report(record, metrics)
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
