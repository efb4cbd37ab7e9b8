"""One fresh-interpreter iteration: import edgemig.cli, run CLI commands.

Usage: python3 child.py JOB.json

The job names the source tree, the commands (argv lists for
``edgemig.cli.main``), the tracing level (``off``, ``rows`` or ``full``) and
where to write the result and the spans. Clock readings are
``time.perf_counter`` (CLOCK_MONOTONIC on Linux), which the parent shares,
so the parent can subtract its own spawn time from ``t_done``.
"""

import json
import os
import resource
import sys
import time
import traceback


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        job = json.load(fh)
    src = job["src"]
    sys.path.insert(0, src)
    before = len(sys.modules)
    t_import = time.perf_counter()
    import edgemig.cli as cli
    t_ready = time.perf_counter()
    modules_loaded = len(sys.modules) - before
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"edgemig imported from {cli.__file__}, not {src}",
              file=sys.stderr)
        return 2

    tracer = None
    if job["trace"] != "off":
        from tracer import Tracer
        tracer = Tracer()
        if job["trace"] == "full":
            import edgemig
            tracer.install(edgemig)
        else:
            tracer.install_rows(cli)

    codes = []
    for argv in job["commands"]:
        try:
            codes.append(cli.main(argv))
        except SystemExit as exc:
            codes.append(exc.code if isinstance(exc.code, int) else 1)
        except Exception:  # the harness reports it as a failed iteration
            traceback.print_exc()
            codes.append(-1)
    t_done = time.perf_counter()

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    import numpy
    import scipy
    result = {
        "t_import": t_import, "t_ready": t_ready, "t_done": t_done,
        "codes": codes,
        "modules_loaded": modules_loaded,
        "peak_rss_kib": max(own, workers),
        "csv_header": cli.CSV_HEADER,
        "versions": {"python": sys.version.split()[0],
                     "numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if tracer is not None:
        tracer.dump(job["spans"])
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
