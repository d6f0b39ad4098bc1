"""Wire-level trace propagation: stitching, rejection, and edge cases.

Satellite coverage for the telemetry plane: the happy path (a client span
parenting the server's request span across a real socket), the strict
rejection of malformed/oversized ``trace`` fields without collateral damage
to the connection, id uniqueness across reconnects, and batched-window
engine attribution (each store miss charged its own engine time).
"""

import json
import socket
import time

import pytest

from repro.engine.cache import CacheBank
from repro.engine.metrics import MetricsRegistry
from repro.obs.spans import TRACER
from repro.serve.client import ServeClient, ServeError
from repro.serve.protocol import (
    MAX_TRACE_VALUE_CHARS,
    PROTOCOL_VERSION,
    ProtocolError,
    parse_trace_field,
    trace_field,
)
from repro.serve.server import ServerConfig, start_in_thread
from repro.serve.smoke import check_stats_contract


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    store = tmp_path_factory.mktemp("trace") / "store.db"
    config = ServerConfig(
        port=0, window_ms=2.0, store_path=str(store), trace=True, telemetry_port=0
    )
    with start_in_thread(config, metrics=MetricsRegistry()) as handle:
        yield handle


@pytest.fixture()
def tracer():
    TRACER.enable()
    TRACER.clear()
    yield TRACER
    TRACER.disable()
    TRACER.clear()


@pytest.fixture()
def client(server):
    with ServeClient.connect("127.0.0.1", server.port) as c:
        yield c


class TestParseTraceField:
    def test_round_trip(self, tracer):
        span = tracer.start_manual("serve.client.request")
        context = parse_trace_field(trace_field(span.context()))
        assert context.trace_id == span.trace_id
        assert context.span_id == span.span_id

    @pytest.mark.parametrize(
        "value",
        [
            "not-a-dict",
            ["id", "span"],
            {},
            {"id": "t1"},
            {"span": "s1"},
            {"id": "", "span": "s1"},
            {"id": "t1", "span": 7},
            {"id": "t1", "span": "s1", "extra": "x"},
            {"id": "x" * (MAX_TRACE_VALUE_CHARS + 1), "span": "s1"},
        ],
    )
    def test_malformed_rejected(self, value):
        with pytest.raises(ProtocolError) as excinfo:
            parse_trace_field(value)
        assert excinfo.value.code == "bad-frame"


class TestWireStitching:
    def test_client_span_parents_server_request(self, server, tracer, client):
        result = client.classify("G (p -> F q)")
        assert result["class"]
        spans = tracer.finished()
        roots = [s for s in spans if s.name == "serve.client.request"]
        assert len(roots) == 1
        root = roots[0]
        requests = [s for s in spans if s.name == "serve.request"]
        assert len(requests) == 1
        assert requests[0].parent_id == root.span_id
        assert requests[0].trace_id == root.trace_id
        stages = {s.name for s in spans if s.parent_id == requests[0].span_id}
        assert "serve.stage.decode" in stages
        assert "serve.stage.admission" in stages

    def test_untraced_client_sends_no_trace_field(self, server, tracer):
        with ServeClient.connect("127.0.0.1", server.port, trace=False) as quiet:
            quiet.classify("F p")
        assert [s for s in tracer.finished() if s.name == "serve.client.request"] == []

    def test_span_ids_unique_across_reconnects(self, server, tracer):
        seen = set()
        for _ in range(3):
            with ServeClient.connect("127.0.0.1", server.port) as c:
                c.classify("G p")
        for span in tracer.finished():
            assert span.span_id not in seen
            seen.add(span.span_id)
        assert len(seen) >= 6  # ≥1 client span + server echo per connection

    def test_batched_window_attributes_each_request(self, server, tracer, client):
        # Pipeline several requests into one batching window: every request
        # must still get its own stitched tree under its own client span.
        formulas = ["G p", "F p", "p U q", "G F p"]
        ids = [client.send("classify", formula=f) for f in formulas]
        for request_id in ids:
            client.unwrap(client.recv_for(request_id))
        spans = tracer.finished()
        client_roots = {
            s.span_id: s for s in spans if s.name == "serve.client.request"
        }
        server_roots = [s for s in spans if s.name == "serve.request"]
        assert len(client_roots) == len(formulas)
        assert len(server_roots) == len(formulas)
        for request_span in server_roots:
            parent = client_roots[request_span.parent_id]
            assert request_span.trace_id == parent.trace_id


class TestPerItemEngineCost:
    def test_misses_in_one_window_carry_their_own_engine_time(self, tmp_path, tracer):
        # A window long enough that both pipelined requests share it.
        config = ServerConfig(
            port=0, window_ms=200.0, store_path=str(tmp_path / "store.db"), trace=True
        )
        # The expensive formula stays on the GPVW → Safra route (no
        # normal-form rewrite reaches the X under G F).
        cheap, expensive = "p", "!G F (p & q) | G F (s | X r)"
        with start_in_thread(config, bank=CacheBank(), metrics=MetricsRegistry()) as server:
            with ServeClient.connect("127.0.0.1", server.port, trace=False) as quiet:
                ids = [quiet.send("classify", formula=f) for f in (cheap, expensive)]
                for request_id in ids:
                    quiet.unwrap(quiet.recv_for(request_id))
        spans = tracer.finished()
        [window] = [s for s in spans if s.name == "serve.batch"]
        assert window.attributes["size"] == 2
        subject_of = {
            s.span_id: s.attributes["subject"] for s in spans if s.name == "serve.request"
        }
        engine = {
            subject_of[s.parent_id]: s for s in spans if s.name == "serve.stage.engine"
        }
        assert engine[cheap].start == engine[expensive].start
        assert engine[cheap].duration < engine[expensive].duration


class TestMalformedTraceOnTheWire:
    def send_raw(self, server, frame: dict) -> dict:
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
            file = sock.makefile("rwb")
            file.write((json.dumps(frame) + "\n").encode())
            file.flush()
            first = json.loads(file.readline())
            # The connection must survive the rejection: a well-formed
            # follow-up on the same socket still gets served.
            follow_up = {
                "v": PROTOCOL_VERSION,
                "id": 99,
                "verb": "classify",
                "formula": "F p",
            }
            file.write((json.dumps(follow_up) + "\n").encode())
            file.flush()
            second = json.loads(file.readline())
        assert second["ok"] is True
        return first

    def frame(self, trace) -> dict:
        return {
            "v": PROTOCOL_VERSION,
            "id": 1,
            "verb": "classify",
            "formula": "G p",
            "trace": trace,
        }

    def test_non_object_trace_rejected_connection_survives(self, server):
        reply = self.send_raw(server, self.frame("zzz"))
        assert reply["ok"] is False
        assert reply["error"]["code"] == "bad-frame"
        assert reply["error"]["retryable"] is False

    def test_oversized_trace_value_rejected(self, server):
        oversized = {"id": "t" * (MAX_TRACE_VALUE_CHARS + 1), "span": "s1"}
        reply = self.send_raw(server, self.frame(oversized))
        assert reply["ok"] is False
        assert "exceeds" in reply["error"]["message"]

    def test_unknown_trace_keys_rejected(self, server):
        reply = self.send_raw(
            server, self.frame({"id": "t1", "span": "s1", "boom": "x"})
        )
        assert reply["ok"] is False
        assert "unknown keys" in reply["error"]["message"]

    def test_rejection_names_the_request_id(self, server):
        reply = self.send_raw(server, self.frame([1, 2]))
        assert reply["id"] == 1


class TestServerSideTelemetry:
    def test_stats_meets_the_contract(self, server, client):
        stats = client.stats()
        assert check_stats_contract(stats) == []

    def test_no_trace_echo_for_untraced_requests(self, server, tracer):
        with ServeClient.connect("127.0.0.1", server.port, trace=False) as quiet:
            request_id = quiet.send("classify", formula="G p")
            frame = quiet.recv_for(request_id)
        assert "trace" not in frame

    def test_recorder_sees_requests_even_untraced(self, server):
        before = server.server.recorder.stats()["recorded"]
        with ServeClient.connect("127.0.0.1", server.port, trace=False) as quiet:
            quiet.classify("F G p")
        deadline = time.time() + 5.0
        while time.time() < deadline:
            if server.server.recorder.stats()["recorded"] > before:
                break
            time.sleep(0.01)
        assert server.server.recorder.stats()["recorded"] > before
