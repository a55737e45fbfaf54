"""One workload iteration in a fresh interpreter.

Usage: python3 perfbench/child.py JOB.json

The job file lists the CLI commands to run and where to write the
result.  The child imports `renflow.cli` from the checkout's `src/`
(timed: that is the set-up a user pays on every run), optionally
installs the tracer, then calls `renflow.cli.main` for each command
back to back in this one process and thread.  It records every
command's return code or exception, the wall time of the command
sequence and its own peak resident set size.
"""

import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    sys.path.insert(0, str(HERE.parent / "src"))
    started = time.perf_counter()
    import renflow.cli

    import_s = time.perf_counter() - started
    tracer = None
    if job.get("trace_out"):
        from spans import Tracer  # perfbench/ is sys.path[0]

        tracer = Tracer()
        tracer.install()

    outcomes = []
    started = time.perf_counter()
    for argv in job["commands"]:
        try:
            outcomes.append({"rc": renflow.cli.main(argv), "error": None})
        except Exception:  # a failing command is counted, and the rest still run
            outcomes.append({"rc": None, "error": traceback.format_exc(limit=3)})
    wall_s = time.perf_counter() - started

    if tracer is not None:
        tracer.dump(job["trace_out"])
    result = {
        "import_s": import_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "outcomes": outcomes,
    }
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
