"""One benchmark process: set a workload up, print ``READY``, then either
stop (a cold-start sample for ``setup_s``), run it timed, or run it traced.

    python3 perfbench/child.py --workload classify --seed 1 --role work --seconds 22

The result goes to stdout as one ``RESULT {json}`` line.  ``run.py`` starts
this script; it is not meant to be run by hand except when debugging.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from common import WORK_DIR  # noqa: E402
from tracing import SpanRecorder  # noqa: E402

WORKLOADS = {
    "classify": ("workload_classify", "Classify"),
    "census": ("workload_census", "Census"),
    "serve": ("workload_serve", "Serve"),
    "monitor": ("workload_monitor", "Monitor"),
}


def versions() -> dict[str, str]:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--role", choices=["setup", "work", "traced"], required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args()

    module_name, class_name = WORKLOADS[args.workload]
    workload_class = getattr(importlib.import_module(module_name), class_name)
    recorder = SpanRecorder() if args.role == "traced" else None
    workload = workload_class(args.seed, recorder)
    try:
        print("READY", flush=True)
        if args.role == "setup":
            return 0
        if args.role == "work":
            result = workload.run(args.seconds)
        else:
            result = workload.run_traced(args.seconds, recorder)
            recorder.dump(WORK_DIR / f"spans-{args.workload}-{args.seed}.jsonl")
    finally:
        workload.close()
    result["versions"] = versions()
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
