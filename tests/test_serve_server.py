"""End-to-end tests of the classification server over real sockets.

Covers the satellite checklist for the protocol layer — malformed frames,
oversized requests, mid-request disconnects, quota exhaustion, graceful-
shutdown draining — plus the acceptance criteria: backpressure answers
with a well-formed retryable frame, and a restarted server answers from
the persistent store without re-deriving GPVW/Safra work.
"""

import json
import os
import socket
import threading
import time

import pytest

from repro.engine.metrics import METRICS, MetricsRegistry
from repro.serve.client import ServeClient, ServeConnectionError, ServeError
from repro.serve.protocol import MAX_FRAME_BYTES, PROTOCOL_VERSION
from repro.serve.server import ServerConfig, start_in_thread


def _derivations():
    timers = METRICS.snapshot()["timers"]
    return (
        timers.get("gpvw.translate", {}).get("count", 0),
        timers.get("safra.determinize", {}).get("count", 0),
    )


def raw_connect(port):
    return socket.create_connection(("127.0.0.1", port), timeout=10)


@pytest.fixture(scope="module")
def server():
    handle = start_in_thread(
        ServerConfig(port=0, window_ms=2.0), metrics=MetricsRegistry()
    )
    yield handle
    handle.stop()


@pytest.fixture()
def client(server):
    with ServeClient.connect(port=server.port) as client:
        yield client


class TestVerbs:
    def test_classify_formula(self, client):
        result = client.classify("G p")
        assert result["kind"] == "classification"
        assert result["class"] == "safety"
        assert "safety" in result["memberships"]
        assert result["automaton"]["states"] >= 1

    def test_classify_with_props(self, client):
        result = client.classify("G p", props=["p", "q"])
        assert result["class"] == "safety"

    def test_classify_expression(self, client):
        result = client.classify(expression="(a+b)*.(a)w", letters="ab")
        assert result["kind"] == "classification"
        assert result["subject"].startswith("omega")

    def test_explain_formula(self, client):
        result = client.explain("F p")
        assert result["kind"] == "explanation"
        assert result["class"] == "guarantee"
        assert result["reasons"]

    def test_health(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["inflight"] == 0

    def test_stats_shape(self, client):
        stats = client.stats()
        assert "caches" in stats and "health" in stats and "counters" in stats

    def test_bad_formula_is_bad_request(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.classify("G (p ->")
        assert excinfo.value.code == "bad-request"
        assert not excinfo.value.retryable

    def test_unknown_verb(self, client):
        request_id = client.send("determinize", formula="G p")
        frame = client.recv_for(request_id)
        assert frame["ok"] is False
        assert frame["error"]["code"] == "unknown-verb"

    def test_connection_survives_a_bad_request(self, client):
        with pytest.raises(ServeError):
            client.classify("((((")
        assert client.classify("F p")["class"] == "guarantee"


class TestProtocolAbuse:
    def test_malformed_frame_gets_error_and_connection_survives(self, server):
        with raw_connect(server.port) as sock:
            file = sock.makefile("rwb")
            file.write(b"this is not json\n")
            file.flush()
            frame = json.loads(file.readline())
            assert frame["ok"] is False
            assert frame["id"] is None
            assert frame["error"]["code"] == "bad-frame"
            assert frame["error"]["retryable"] is False
            # The connection is still usable afterwards.
            file.write(
                json.dumps({"v": PROTOCOL_VERSION, "id": 1, "verb": "health"}).encode()
                + b"\n"
            )
            file.flush()
            frame = json.loads(file.readline())
            assert frame["ok"] is True

    def test_wrong_protocol_version(self, server):
        with raw_connect(server.port) as sock:
            file = sock.makefile("rwb")
            file.write(json.dumps({"v": 99, "id": 5, "verb": "health"}).encode() + b"\n")
            file.flush()
            frame = json.loads(file.readline())
            assert frame["ok"] is False
            assert frame["id"] == 5
            assert frame["error"]["code"] == "bad-frame"

    def test_oversized_frame_answered_then_disconnected(self, server):
        with raw_connect(server.port) as sock:
            file = sock.makefile("rwb")
            file.write(b'{"pad": "' + b"a" * (MAX_FRAME_BYTES + 1024) + b'"}\n')
            file.flush()
            frame = json.loads(file.readline())
            assert frame["ok"] is False
            assert frame["error"]["code"] == "oversized"
            # Framing is unrecoverable mid-line: the server hangs up.
            assert file.readline() == b""

    def test_mid_request_disconnect_does_not_wedge_the_server(self, server):
        before = server.server.metrics.counter("serve.client_gone").value
        sock = raw_connect(server.port)
        sock.sendall(
            json.dumps(
                {"v": PROTOCOL_VERSION, "id": 1, "verb": "classify", "formula": "G F p"}
            ).encode()
            + b"\n"
        )
        sock.close()
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            if server.server.metrics.counter("serve.client_gone").value > before:
                break
            time.sleep(0.02)
        else:
            pytest.fail("server never noticed the disconnected client")
        # The server keeps serving other clients.
        with ServeClient.connect(port=server.port) as client:
            assert client.health()["status"] == "ok"


class TestAdmissionControl:
    def test_quota_exhaustion_is_retryable(self):
        handle = start_in_thread(
            ServerConfig(port=0, client_quota=0), metrics=MetricsRegistry()
        )
        try:
            with ServeClient.connect(port=handle.port) as client:
                with pytest.raises(ServeError) as excinfo:
                    client.classify("G p")
                assert excinfo.value.code == "quota"
                assert excinfo.value.retryable
                # Control verbs bypass admission and still work.
                assert client.health()["status"] == "ok"
        finally:
            handle.stop()

    def test_backpressure_returns_retryable_overloaded_frame(self):
        # max_inflight=1 and a long window: the first request parks in the
        # batching window, so the second is deterministically rejected.
        handle = start_in_thread(
            ServerConfig(port=0, max_inflight=1, window_ms=300.0),
            metrics=MetricsRegistry(),
        )
        try:
            with ServeClient.connect(port=handle.port) as client:
                first = client.send("classify", formula="G p")
                second = client.send("classify", formula="F p")
                rejected = client.recv_for(second)
                assert rejected["ok"] is False
                assert rejected["id"] == second
                assert rejected["error"]["code"] == "overloaded"
                assert rejected["error"]["retryable"] is True
                # The admitted request still completes normally.
                accepted = client.recv_for(first)
                assert accepted["ok"] is True
                assert accepted["result"]["class"] == "safety"
        finally:
            handle.stop()


class TestGracefulShutdown:
    def test_drain_answers_inflight_and_rejects_new(self):
        handle = start_in_thread(
            ServerConfig(port=0, window_ms=1000.0), metrics=MetricsRegistry()
        )
        port = handle.port
        with ServeClient.connect(port=port) as client:
            inflight = client.send("classify", formula="G (p -> F q)")
            time.sleep(0.2)  # let the request enter the batching window
            stopper = threading.Thread(target=handle.stop)
            stopper.start()
            time.sleep(0.2)  # let stop() flip the draining flag
            late = client.send("classify", formula="F p")
            late_frame = client.recv_for(late)
            assert late_frame["ok"] is False
            assert late_frame["error"]["code"] == "draining"
            assert late_frame["error"]["retryable"] is True
            # The in-flight request is drained, not dropped.
            done = client.recv_for(inflight)
            assert done["ok"] is True
            assert done["result"]["class"] == "recurrence"
            stopper.join(timeout=30)
        assert not handle.thread.is_alive()
        with pytest.raises(OSError):
            raw_connect(port)

    def test_stop_is_idempotent(self):
        handle = start_in_thread(ServerConfig(port=0), metrics=MetricsRegistry())
        handle.stop()
        handle.stop()


class TestUnixSocket:
    def test_serves_over_unix_domain_socket(self, tmp_path):
        path = str(tmp_path / "serve.sock")
        handle = start_in_thread(
            ServerConfig(port=None, socket_path=path), metrics=MetricsRegistry()
        )
        try:
            with ServeClient.connect(socket_path=path) as client:
                assert client.classify("F G p")["class"] == "persistence"
                assert client.health()["status"] == "ok"
        finally:
            handle.stop()


class TestRestartDurability:
    FORMULAS = ("G p", "F p", "G (p -> F q)", "p U q")

    def _run_lifetime(self, store_path):
        """One server lifetime: classify+explain the corpus, return stats."""
        handle = start_in_thread(
            ServerConfig(port=0, store_path=str(store_path), window_ms=2.0),
            metrics=MetricsRegistry(),
        )
        try:
            with ServeClient.connect(port=handle.port) as client:
                for formula in self.FORMULAS:
                    client.classify(formula)
                    client.explain(formula)
                return client.stats()
        finally:
            handle.stop()

    def test_restart_answers_from_store_without_rederivation(self, tmp_path):
        store_path = tmp_path / "store.db"
        self._run_lifetime(store_path)

        gpvw_before, safra_before = _derivations()
        stats = self._run_lifetime(store_path)
        gpvw_after, safra_after = _derivations()

        store = stats["store"]
        total = store["hits"] + store["misses"]
        assert total == 2 * len(self.FORMULAS)
        assert store["hits"] / total >= 0.9
        # The restarted server must not re-run GPVW or Safra: every answer
        # comes off disk, not from re-derivation.
        assert gpvw_after == gpvw_before
        assert safra_after == safra_before

    def test_second_request_is_flagged_cached(self, tmp_path):
        handle = start_in_thread(
            ServerConfig(port=0, store_path=str(tmp_path / "s.db"), window_ms=2.0),
            metrics=MetricsRegistry(),
        )
        try:
            with ServeClient.connect(port=handle.port) as client:
                first = client.recv_for(client.send("classify", formula="G F p"))
                second = client.recv_for(client.send("classify", formula="G F p"))
                assert first["cached"] is False
                assert second["cached"] is True
                assert first["result"] == second["result"]
        finally:
            handle.stop()

    def test_client_surfaces_connection_loss(self):
        # A connection accepted just before stop() must be hung up on, not
        # left open until the client's own socket timeout runs out.
        handle = start_in_thread(ServerConfig(port=0), metrics=MetricsRegistry())
        client = ServeClient.connect(port=handle.port, timeout=10)
        handle.stop()
        started = time.perf_counter()
        with pytest.raises(ServeConnectionError) as excinfo:
            client.recv()
        assert time.perf_counter() - started < 3.0
        assert "server closed the connection" in str(excinfo.value)
        assert excinfo.value.retryable
        client.close()


class TestProcessExecutor:
    def test_a_worker_crash_fails_one_request_and_the_server_keeps_serving(
        self, monkeypatch
    ):
        from repro.engine.batch import ClassifyFormula

        # Patched before the server starts: its pool forks then, so every
        # worker inherits the poison.
        original = ClassifyFormula.evaluate

        def evaluate(self, bank):
            if "poison" in repr(self.formula):
                os._exit(13)
            return original(self, bank)

        monkeypatch.setattr(ClassifyFormula, "evaluate", evaluate)
        metrics = MetricsRegistry()
        handle = start_in_thread(
            ServerConfig(port=0, window_ms=300.0, executor="process", max_workers=2),
            metrics=metrics,
        )
        try:
            with ServeClient.connect(port=handle.port) as client:
                # One batching window: the poisoned request and two mates.
                ids = [
                    client.send("classify", formula=text)
                    for text in ("G p", "G poison", "F q")
                ]
                safe, poisoned, mate = (client.recv_for(i) for i in ids)
                assert poisoned["ok"] is False
                assert poisoned["error"]["code"] == "evaluation"
                assert poisoned["error"]["retryable"] is False
                assert "exitcode 13" in poisoned["error"]["message"]
                assert safe["ok"] and safe["result"]["class"] == "safety"
                assert mate["ok"] and mate["result"]["class"] == "guarantee"
                assert metrics.histogram("serve.batch_size").observations == 1
                later = client.classify("G F r")
                assert later["class"] == "recurrence"
        finally:
            handle.stop()
        assert not handle.thread.is_alive()
