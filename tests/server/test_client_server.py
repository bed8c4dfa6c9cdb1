"""Live daemon tests: dispatch, sessions, streaming, recovery."""

import json
import socket

import pytest

from repro.server import protocol
from repro.server.client import ReproClient, ServerError, parse_address

WORKLOAD = {"workload": "real:6", "topology": "wan:12:18", "seed": 3}


class TestBasics:
    def test_ping(self, server):
        with ReproClient.connect(server.address) as client:
            assert client.ping() == {
                "pong": True,
                "protocol": protocol.PROTOCOL,
            }

    def test_invalid_params_error_envelope(self, server):
        # ``solver_profile`` named a search that no longer exists; a
        # request still carrying it fails like any unknown param.
        requests = [
            ("deploy", "bogus"),
            ("deploy", "solver_profile"),
            ("simulate", "solver_profile"),
        ]
        with ReproClient.connect(server.address) as client:
            for op, key in requests:
                with pytest.raises(ServerError) as err:
                    client.request(op, {key: 1})
                assert err.value.code == "invalid_params"
                assert f"unknown params: {key}" in err.value.server_message
            # The connection survives an op error.
            assert client.ping()["pong"] is True

    def test_unknown_op_and_bad_frame(self, server):
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.connect(server.address)
        rfile = sock.makefile("rb")
        try:
            sock.sendall(
                json.dumps(
                    {"proto": protocol.PROTOCOL, "id": 1, "op": "teleport"}
                ).encode()
                + b"\n"
            )
            reply = json.loads(rfile.readline())
            assert reply["ok"] is False
            assert reply["error"]["code"] == "unknown_op"

            sock.sendall(b"this is not json\n")
            reply = json.loads(rfile.readline())
            assert reply["error"]["code"] == "bad_frame"
            assert reply["id"] is None

            # Still alive afterwards.
            sock.sendall(
                protocol.encode_frame(protocol.request(2, "ping"))
            )
            assert json.loads(rfile.readline())["ok"] is True
        finally:
            rfile.close()
            sock.close()


class TestSessions:
    def test_warm_repeat_deploy(self, server):
        with ReproClient.connect(server.address) as client:
            first = client.request("deploy", WORKLOAD)
            second = client.request("deploy", WORKLOAD)
            assert first["session"]["source"] == "cold"
            assert second["session"]["source"] == "warm:rebase"
            assert second["fingerprint"] == first["fingerprint"]
            info = client.request("session_info")
            assert info["cold_solves"] == 1
            assert info["warm_hits"] == 1
            assert info["plan_version"] == 1

    def test_changed_params_go_cold(self, server):
        with ReproClient.connect(server.address) as client:
            client.request("deploy", WORKLOAD)
            changed = client.request(
                "deploy", {**WORKLOAD, "workload": "real:7"}
            )
            assert changed["session"]["source"] == "cold"

    def test_sessions_are_isolated(self, server):
        with ReproClient.connect(server.address) as a:
            a.request("deploy", WORKLOAD)
            with ReproClient.connect(server.address) as b:
                # b has no history: its first deploy is cold and its
                # session counters start at zero.
                info = b.request("session_info")
                assert info["deploys"] == 0
                doc = b.request("deploy", WORKLOAD)
                assert doc["session"]["source"] == "cold"
            assert a.request("session_info")["deploys"] == 1

    def test_plan_diff_defaults_to_session_plan(self, server):
        with ReproClient.connect(server.address) as client:
            client.request("deploy", WORKLOAD)
            diff = client.request("plan_diff", {})
            assert diff["is_empty"] is True

    def test_plan_diff_without_plan_is_invalid(self, server):
        with ReproClient.connect(server.address) as client:
            with pytest.raises(ServerError) as err:
                client.request("plan_diff", {})
            assert err.value.code == "invalid_params"


class TestStreaming:
    def test_subscribe_streams_telemetry(self, server):
        events = []
        with ReproClient.connect(server.address) as client:
            client.subscribe()
            client.request(
                "churn_run",
                {**WORKLOAD, "events": 3},
                on_event=events.append,
            )
        assert events, "no telemetry streamed"
        kinds = {frame["data"]["kind"] for frame in events}
        assert "runtime.converged" in kinds
        seqs = [frame["seq"] for frame in events]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)

    def test_unsubscribed_connections_get_no_events(self, server):
        events = []
        with ReproClient.connect(server.address) as client:
            client.request(
                "churn_run",
                {**WORKLOAD, "events": 3},
                on_event=events.append,
            )
        assert events == []


class TestJournalAndRecovery:
    def test_server_journal_collects_session_events(
        self, server_factory, tmp_path
    ):
        journal = tmp_path / "server.jsonl"
        server = server_factory(journal=str(journal))
        with ReproClient.connect(server.address) as client:
            client.request("deploy", WORKLOAD)
        lines = [
            json.loads(line)
            for line in journal.read_text().splitlines()
            if line.strip()
        ]
        assert any(e["kind"] == "server.deploy" for e in lines)
        assert all("session" in e for e in lines)

    def test_session_recovery_across_restart(
        self, server_factory, tmp_path
    ):
        state = str(tmp_path / "state")
        first = server_factory(state_dir=state)
        with ReproClient.connect(first.address) as client:
            before = client.request("deploy", WORKLOAD)
        first.stop_threadsafe()

        second = server_factory(state_dir=state)
        with ReproClient.connect(second.address) as client:
            info = client.request("session_info")
            assert info["recovered"] is True
            assert info["plan_version"] == 0
            after = client.request("deploy", WORKLOAD)
        # The restarted session resumes the history warm and lands on
        # the same plan.
        assert after["session"]["source"] == "warm:rebase"
        assert after["session"]["recovered"] is True
        assert after["fingerprint"] == before["fingerprint"]


class TestShutdown:
    def test_shutdown_op_stops_the_server(self, server_factory):
        server = server_factory()
        with ReproClient.connect(server.address) as client:
            assert client.shutdown_server() == {"stopping": True}
        # The socket stops accepting (poll briefly: close is async).
        import time

        deadline = time.time() + 10
        while time.time() < deadline:
            try:
                ReproClient.connect(server.address).close()
            except (ConnectionError, OSError):
                return
            time.sleep(0.05)
        pytest.fail("server still accepting after shutdown")


class TestParseAddress:
    def test_tcp(self):
        assert parse_address("127.0.0.1:7421") == ("127.0.0.1", 7421)
        assert parse_address(":7421") == ("127.0.0.1", 7421)

    def test_unix(self):
        assert parse_address("/tmp/x.sock") == "/tmp/x.sock"
        assert parse_address("unix:/tmp/x.sock") == "/tmp/x.sock"
        assert parse_address("./repro.sock") == "./repro.sock"
