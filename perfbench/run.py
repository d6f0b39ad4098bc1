"""The corpus benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload classify --seed 1 --seconds 22 --trace 0

Workloads (see README.md in this directory for why each exists):
``classify``, ``census``, ``serve`` and ``monitor``.  With ``--trace 0``
the last stdout line carries the end-to-end metrics; with ``--trace 1`` it
carries the per-layer metrics of a separate traced run.  The line before it
is a stamp (seed, versions, CPU count, commit, calibration-loop times) so
that two runs that disagree can be traced to machine drift.

Every answer is checked: classifications against the committed census
baseline, fleet verdicts against scalar monitors.  A wrong answer makes the
result's ``correct`` false and the exit code 1; a run that cannot be made
(no ``src/`` or ``formulas/`` next to this directory, a child that dies)
exits 2 without printing a result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
WORKLOADS = ("classify", "census", "serve", "monitor")

#: Cold starts per untraced run; the working process is the middle one.
SETUP_SAMPLES = 5
#: Fresh-interpreter import timings per traced run (median reported).
IMPORT_SAMPLES = 3
#: Every run ends inside this many seconds, children included.
TIME_LIMIT_S = 170.0

#: What each workload's working process imports, for ``repro.import_s``;
#: ``repro.fastpath.vector`` is the first use of numpy and scipy.
IMPORTS = {
    "classify": "repro.engine.cache, repro.logic.parser, repro.core.classifier",
    "census": "repro.census.run, repro.census.corpus",
    "serve": "repro.__main__, repro.serve.server",
    "monitor": "repro.fleet.stream, repro.fleet.compile",
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "p50_ms": "ms",
    "p99_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_ratio": "1",
}


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class BenchError(RuntimeError):
    """The run could not be made; no result is printed."""


class Runner:
    """Starts child processes in their own process groups and kills every
    group still alive when the run ends or overruns its time limit."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.deadline = time.perf_counter() + TIME_LIMIT_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
        )
        # The hash seed follows the workload seed: a seed replays exactly,
        # and different seeds still see different hash orders.
        self.env["PYTHONHASHSEED"] = str(seed % 2**32)
        self.live: list[subprocess.Popen] = []

    def _start(self, argv: list[str]) -> subprocess.Popen:
        proc = subprocess.Popen(
            argv,
            cwd=ROOT,
            env=self.env,
            stdout=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        self.live.append(proc)
        return proc

    def _finish(self, proc: subprocess.Popen) -> int:
        remaining = self.deadline - time.perf_counter()
        try:
            code = proc.wait(timeout=max(remaining, 0.1))
        except subprocess.TimeoutExpired:
            self.kill_all()
            raise BenchError(f"{self.workload}: a child overran the time limit") from None
        self.live.remove(proc)
        return code

    def kill_all(self) -> None:
        for proc in self.live:
            _kill_group(proc)
            proc.wait()
        self.live.clear()

    def child(self, role: str, seconds: float) -> tuple[float, dict | None]:
        """Run one child; returns (seconds from spawn to READY, its result)."""
        start = time.perf_counter()
        proc = self._start(
            [
                sys.executable,
                str(CHILD),
                "--workload",
                self.workload,
                "--seed",
                str(self.seed),
                "--role",
                role,
                "--seconds",
                str(seconds),
            ]
        )
        watchdog = threading.Timer(
            max(self.deadline - time.perf_counter(), 0.1), _kill_group, (proc,)
        )
        watchdog.start()
        ready_s = None
        result = None
        try:
            for line in proc.stdout:
                if line == "READY\n" and ready_s is None:
                    ready_s = time.perf_counter() - start
                elif line.startswith("RESULT "):
                    result = json.loads(line[len("RESULT ") :])
            code = self._finish(proc)
        finally:
            watchdog.cancel()
        if code != 0 or ready_s is None or (role != "setup" and result is None):
            raise BenchError(f"{self.workload} {role} child failed (exit code {code})")
        return ready_s, result

    def import_seconds(self) -> float:
        """Median fresh-interpreter import time of the workload's modules."""
        code = (
            "import time; t = time.perf_counter(); "
            f"import repro, {IMPORTS[self.workload]}, repro.fastpath.vector; "
            "print(time.perf_counter() - t)"
        )
        samples = []
        for _ in range(IMPORT_SAMPLES):
            proc = self._start([sys.executable, "-c", code])
            output = proc.stdout.read()
            if self._finish(proc) != 0:
                raise BenchError("importing the package failed")
            samples.append(float(output))
        return statistics.median(samples)


def calibration_ms() -> float:
    """Median time of a fixed pure-Python loop: a gauge of machine speed."""
    samples = []
    for _ in range(7):
        start = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i % 7
        samples.append((time.perf_counter() - start) * 1e3)
    return statistics.median(samples)


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    return proc.stdout.strip() or None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def measure(args: argparse.Namespace, runner: Runner) -> tuple[dict, dict, dict]:
    """Returns (metric values, the working child's result, stamp extras)."""
    if args.trace:
        _, result = runner.child("traced", args.seconds)
        values = dict(result["per_layer"])
        values["repro.import_s"] = runner.import_seconds()
        return values, result, {}
    # Cold starts before and after the working child, so that the samples
    # span the run rather than one stretch of the machine's speed.
    before = (SETUP_SAMPLES - 1) // 2
    setups = [runner.child("setup", 0)[0] for _ in range(before)]
    ready_s, result = runner.child("work", args.seconds)
    setups.append(ready_s)
    setups += [runner.child("setup", 0)[0] for _ in range(SETUP_SAMPLES - 1 - before)]
    values = dict(result["metrics"])
    values["setup_s"] = statistics.median(setups)
    values["ok_ratio"] = 1.0 - result["failed"] / result["attempted"]
    return values, result, {"setup_samples_s": setups}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    for needed in (ROOT / "src" / "repro", ROOT / "formulas" / "census_baseline.csv"):
        if not needed.exists():
            print(f"error: {needed.relative_to(ROOT)} is missing", file=sys.stderr)
            return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(2))
    runner = Runner(args.workload, args.seed)
    calibration_before = calibration_ms()
    try:
        values, result, extra = measure(args, runner)
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        runner.kill_all()
    calibration_after = calibration_ms()

    if args.trace:
        sys.path.insert(0, str(HERE))
        from tracing import per_layer_metrics

        metrics = per_layer_metrics(values)
    else:
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }
    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **result["versions"],
        "nproc": os.cpu_count(),
        "commit": commit(),
        "src_sha256": source_digest(),
        "calibration_ms_before": calibration_before,
        "calibration_ms_after": calibration_after,
        "notes": result.get("notes", {}),
        **extra,
    }
    for failure in result["failures"][:20]:
        print(f"wrong answer: {failure}", file=sys.stderr)
    print(json.dumps({"stamp": stamp}))
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
