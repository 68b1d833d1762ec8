"""One benchmark invocation, in a fresh process.

Imports ``rotstar.cli`` (the set-up the user pays on every command), then
optionally installs the tracer and calls ``rotstar.cli.main`` once with the
argv given after ``--``.  Writes one JSON record to ``--result``:

    ready_at      time.monotonic() when rotstar.cli was imported and ready
    exit_code     return value of main (absent with --import-only)
    verdict_s     wall time of the main() call
    rss_mb        peak resident memory of this process
    versions      python / numpy / scipy versions as imported
    layers        per-layer metrics (with --trace only)

Run by perfbench/run.py; not meant to be run by hand.
"""

import json
import resource
import sys
import time


def main(argv):
    sep = argv.index("--") if "--" in argv else len(argv)
    opts, cli_argv = argv[:sep], argv[sep + 1:]
    result_path = opts[opts.index("--result") + 1]

    import rotstar.cli

    record = {"ready_at": time.monotonic(), "rotstar_file": rotstar.cli.__file__}
    if "--import-only" not in opts:
        tracer = None
        if "--trace" in opts:
            import tracer as tracer_mod

            tracer = tracer_mod.Tracer()
            tracer_mod.install(tracer)
        t0 = time.perf_counter()
        code = rotstar.cli.main(cli_argv)
        record["verdict_s"] = time.perf_counter() - t0
        record["exit_code"] = code
        if tracer is not None:
            record["layers"] = tracer.layers()
            tracer.dump(opts[opts.index("--spans") + 1])
    import numpy
    import scipy

    record["versions"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    record["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
