"""``serve``: ``python -m repro serve`` in its own process, shipped defaults,
a fresh store, and closed-loop clients on one connection each.

The request sequence walks the corpus in a seeded shuffled order and
follows every formula (after the first) with a repeat of a formula sent
earlier, so misses (engine work and store writes) and repeats (store reads,
and engine-cache hits when the repeat is still in the 512-entry bank)
alternate about 1:1.  The loop is closed because the service's callers
(``classify --remote``, the smokes) wait for each reply.  When the
sequence ends before the timed window does, a fresh server with a fresh
store replays it from the start; its start is not timed.  A request
position is the same operation in every replay (the same formula, a miss
or a repeat alike), so latency is each position's fastest round trip, and
every run covers the same mix of misses and repeats.
"""

from __future__ import annotations

import http.client
import os
import re
import resource
import shutil
import subprocess
import sys
import threading
import time

from common import (
    ROOT,
    WARMUP_FORMULA,
    WORK_DIR,
    BestOf,
    check_answer,
    latency_metrics,
    load_baseline,
    load_entries,
    payload_cells,
    peak_rss_mb,
    rng_for,
)

#: Closed-loop connections: two callers, never more than the CPU count.
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))
STAGES = ("decode", "admission", "store", "engine", "encode")


class Server:
    """One ``repro serve`` process on an ephemeral port with its own store."""

    def __init__(self, store_dir, traced: bool) -> None:
        from repro.serve.client import ServeClient

        shutil.rmtree(store_dir, ignore_errors=True)
        store_dir.mkdir(parents=True)
        argv = [sys.executable, "-m", "repro", "serve", "--port", "0"]
        argv += ["--store", str(store_dir / "store.db")]
        if traced:
            argv += ["--telemetry-port", "0", "--trace"]
        self.store_dir = store_dir
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, stdout=subprocess.PIPE, text=True
        )
        line = self.proc.stdout.readline()
        match = re.match(r"serving on .*:(\d+)", line)
        if not match:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        port = int(match.group(1))
        self.sidecar = None
        if traced:
            match = re.search(r":(\d+)\s", self.proc.stdout.readline())
            self.sidecar = int(match.group(1))
        self.clients = [
            ServeClient.connect(port=port, trace=False) for _ in range(CONNECTIONS)
        ]
        self.clients[0].classify(WARMUP_FORMULA)

    def metrics_page(self) -> dict[str, float]:
        """``_sum``/``_count`` samples from the sidecar's Prometheus page."""
        connection = http.client.HTTPConnection("127.0.0.1", self.sidecar, timeout=10)
        try:
            connection.request("GET", "/metrics")
            body = connection.getresponse().read().decode()
        finally:
            connection.close()
        values = {}
        for line in body.splitlines():
            name, _, value = line.partition(" ")
            if name.endswith(("_sum", "_count")) and not line.startswith("#"):
                values[name] = float(value)
        return values

    def stop(self) -> None:
        for client in getattr(self, "clients", []):
            client.close()
        self.proc.terminate()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        shutil.rmtree(self.store_dir, ignore_errors=True)


class Serve:
    def __init__(self, seed: int, recorder=None) -> None:
        self.seed = seed
        self.entries = load_entries()
        self.baseline = load_baseline()
        self.work_dir = WORK_DIR / f"serve-{os.getpid()}"
        self.server = Server(self.work_dir / "0", traced=False)
        self.servers_started = 1

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None
        shutil.rmtree(self.work_dir, ignore_errors=True)

    def sequence(self) -> list[str]:
        rng = rng_for(self.seed, "serve")
        texts = [entry.text for entry in self.entries]
        rng.shuffle(texts)
        requests = []
        for position, text in enumerate(texts):
            requests.append(text)
            if position:
                requests.append(texts[rng.randrange(position)])
        return requests

    def drive(self, requests: list[str], budget_s: float):
        """Send ``requests`` over every connection, closed loop, until they
        run out or ``budget_s`` passes; returns (wall, [(position, seconds)],
        answers, errors)."""
        from repro.serve.client import ServeError

        lock = threading.Lock()
        cursor = enumerate(requests)
        latencies: list[tuple[int, float]] = []
        answers: list[tuple[str, dict]] = []
        errors: list[str] = []
        clock = time.perf_counter
        start = clock()
        deadline = start + budget_s

        def loop(client) -> None:
            while True:
                with lock:
                    position, text = next(cursor, (None, None))
                began = clock()
                if text is None or began >= deadline:
                    return
                try:
                    payload = client.classify(text)
                except ServeError as error:
                    errors.append(f"{text}: {error}")
                    continue
                latencies.append((position, clock() - began))
                answers.append((text, payload))

        threads = [
            threading.Thread(target=loop, args=(client,)) for client in self.server.clients
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return clock() - start, latencies, answers, errors

    def replace_server(self, traced: bool = False) -> None:
        self.server.stop()
        self.server = Server(self.work_dir / str(self.servers_started), traced)
        self.servers_started += 1

    def check(self, answers) -> list[str]:
        return [
            message
            for text, payload in answers
            if (message := check_answer(text, payload_cells(payload), self.baseline))
        ]

    def run(self, seconds: float) -> dict:
        best = BestOf()
        requests = self.sequence()
        failures: list[str] = []
        wall = 0.0
        attempted = completed = 0
        replays = 0
        while wall < seconds:
            if replays:
                self.replace_server()
            pass_wall, latencies, answers, errors = self.drive(requests, seconds - wall)
            for position, latency in latencies:
                best.add(position, latency)
            wall += pass_wall
            attempted += len(answers) + len(errors)
            completed += len(latencies)
            failures.extend(errors + self.check(answers))
            replays += 1
        self.close()  # the servers must have exited for RUSAGE_CHILDREN
        return {
            "attempted": attempted,
            "failed": len(failures),
            "failures": failures,
            "metrics": {
                **latency_metrics(best.best.values(), completed / wall),
                # Every child of this process is a server.
                "peak_rss_mb": peak_rss_mb(resource.RUSAGE_CHILDREN),
            },
            "notes": {"replays": replays, "positions": len(best.best)},
        }

    def run_traced(self, seconds: float, recorder) -> dict:
        """Half the time on an untraced server, half on a server with
        ``--trace`` and the telemetry sidecar, same request sequence.

        Stage means come from the server's ``serve.stage_ms.*`` histograms
        (deltas over the timed window), hit ratios from the ``stats`` verb."""
        requests = self.sequence()
        plain_wall, plain_latencies, answers, errors = self.drive(requests, seconds / 2)
        failures = errors + self.check(answers)
        attempted = len(answers) + len(errors)
        self.replace_server(traced=True)
        server = self.server
        stats_before = server.clients[0].stats()
        page_before = server.metrics_page()
        wall, latencies, answers, errors = self.drive(requests, seconds / 2)
        page_after = server.metrics_page()
        stats_after = server.clients[0].stats()
        failures += errors + self.check(answers)
        attempted += len(answers) + len(errors)

        def mean_of(prefix: str) -> float:
            total = page_after[f"{prefix}_sum"] - page_before.get(f"{prefix}_sum", 0.0)
            count = page_after[f"{prefix}_count"] - page_before.get(f"{prefix}_count", 0.0)
            return total / count if count else 0.0

        values = {
            f"serve.server.{stage}_ms": mean_of(f"repro_serve_stage_ms_{stage}") for stage in STAGES
        }
        values["serve.server.batch_size_mean"] = mean_of("repro_serve_batch_size")
        round_trip_ms = sum(seconds for _, seconds in latencies) / len(latencies) * 1e3
        staged_ms = sum(values[f"serve.server.{stage}_ms"] for stage in STAGES)
        values["serve.server.unstaged_ms"] = round_trip_ms - staged_ms
        values["unattributed_ratio"] = (round_trip_ms - staged_ms) / round_trip_ms
        values["engine.cache.hit_ratio"] = _hit_ratio(
            stats_before["caches"]["classification"], stats_after["caches"]["classification"]
        )
        values["serve.store.hit_ratio"] = _hit_ratio(stats_before["store"], stats_after["store"])
        # Both halves send the same prefix, so request rates compare.
        values["obs.trace_overhead_ratio"] = (len(plain_latencies) / plain_wall) / (
            len(latencies) / wall
        ) - 1.0
        return {
            "per_layer": values,
            "attempted": attempted,
            "failed": len(failures),
            "failures": failures,
            "notes": {"requests": len(latencies), "plain_requests": len(plain_latencies)},
        }


def _hit_ratio(before: dict, after: dict) -> float:
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    return hits / (hits + misses) if hits + misses else 0.0
