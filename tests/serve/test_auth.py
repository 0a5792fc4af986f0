"""Cache-server auth (shared-secret token) and the metrics op."""

from __future__ import annotations

import json
import socket

import pytest

from repro import obs
from repro.obs import parse_prometheus
from repro.serve import (
    AUTH_TOKEN_ENV,
    CacheClient,
    CacheServer,
    CacheServerError,
)

from .test_cache_server import make_result

TOKEN = "tok-123"


@pytest.fixture
def auth_server(monkeypatch):
    # The client falls back to the env token, so tests must control it.
    monkeypatch.delenv(AUTH_TOKEN_ENV, raising=False)
    with CacheServer(auth_token=TOKEN) as srv:
        yield srv


def raw_request(address, payload: dict) -> dict:
    with socket.create_connection(address) as sock:
        sock.sendall(json.dumps(payload).encode() + b"\n")
        return json.loads(sock.makefile().readline())


class TestAuth:
    def test_missing_token_rejected_cleanly(self, auth_server):
        response = raw_request(auth_server.address, {"op": "ping"})
        assert response["ok"] is False
        assert response["unauthorized"] is True
        assert "authentication failed" in response["error"]
        assert AUTH_TOKEN_ENV in response["error"]  # remediation hint

    def test_wrong_token_rejected(self, auth_server):
        response = raw_request(
            auth_server.address, {"op": "ping", "token": "nope"}
        )
        assert response["ok"] is False
        assert response["unauthorized"] is True

    @pytest.mark.parametrize(
        "token", [None, 123, ["tok-123"], TOKEN[:-1], TOKEN + "4", "tök-123"]
    )
    def test_malformed_or_near_miss_tokens_rejected(self, auth_server, token):
        """Non-string, prefix, extension and non-ASCII tokens all get
        the structured rejection, never a server-side exception."""
        response = raw_request(
            auth_server.address, {"op": "ping", "token": token}
        )
        assert response["ok"] is False
        assert response["unauthorized"] is True

    def test_correct_token_accepted_raw(self, auth_server):
        response = raw_request(
            auth_server.address, {"op": "ping", "token": TOKEN}
        )
        assert response["ok"] is True

    def test_client_without_token_fails_fast(self, auth_server):
        with pytest.raises(CacheServerError, match="authentication failed"):
            CacheClient(auth_server.address)

    def test_token_client_full_surface(self, auth_server):
        with CacheClient(auth_server.address, token=TOKEN) as client:
            assert client.get("k") is None
            client.put("k", make_result(1))
            assert client.get("k") == make_result(1)
            stats = client.server_stats()
            assert stats["size"] == 1

    def test_env_token_fallback(self, auth_server, monkeypatch):
        monkeypatch.setenv(AUTH_TOKEN_ENV, TOKEN)
        with CacheClient(auth_server.address) as client:
            assert client.ping() == 0

    def test_explicit_token_beats_env(self, auth_server, monkeypatch):
        monkeypatch.setenv(AUTH_TOKEN_ENV, "stale-env-token")
        with pytest.raises(CacheServerError, match="authentication failed"):
            CacheClient(auth_server.address)  # env token is wrong
        with CacheClient(auth_server.address, token=TOKEN) as client:
            assert client.ping() == 0

    def test_stats_and_metrics_ops_honor_auth(self, auth_server):
        for op in ("stats", "metrics"):
            response = raw_request(auth_server.address, {"op": op})
            assert response["ok"] is False, op
            assert response["unauthorized"] is True, op

    def test_unauthorized_counter_in_stats(self, auth_server):
        raw_request(auth_server.address, {"op": "ping"})
        raw_request(auth_server.address, {"op": "get", "key": "k"})
        with CacheClient(auth_server.address, token=TOKEN) as client:
            assert client.server_stats()["unauthorized"] == 2

    def test_open_server_ignores_tokens(self):
        with CacheServer() as server:  # no auth configured
            response = raw_request(
                server.address, {"op": "ping", "token": "anything"}
            )
            assert response["ok"] is True


class TestMetricsOp:
    def test_text_and_json_exposition(self):
        with CacheServer() as server:
            with CacheClient(server.address) as client:
                client.get("missing")
                client.put("k", make_result(1))
                client.clear()  # local-only: force the hit to the server
                client.get("k")
                payload = client.server_metrics()
        values = parse_prometheus(payload["text"])
        assert values["cache_server_hits_total"] == 1
        assert values["cache_server_misses_total"] == 1
        assert values["cache_server_entries"] == 1
        assert values['cache_server_requests_total{op="get"}'] == 2
        assert payload["json"]["metrics"]  # registry dump form

    def test_unauthorized_metric_exported(self, auth_server):
        raw_request(auth_server.address, {"op": "ping"})
        with CacheClient(auth_server.address, token=TOKEN) as client:
            payload = client.server_metrics()
        values = parse_prometheus(payload["text"])
        assert values["cache_server_unauthorized_total"] == 1

    def test_merges_global_registry_when_enabled(self):
        obs.reset()
        obs.enable()
        try:
            obs.metrics().counter("my_app_things_total").inc(5)
            with CacheServer() as server:
                with CacheClient(server.address) as client:
                    payload = client.server_metrics()
            values = parse_prometheus(payload["text"])
            assert values["my_app_things_total"] == 5
        finally:
            obs.reset()

    def test_client_latency_histograms_recorded(self):
        obs.reset()
        obs.enable()
        try:
            with CacheServer() as server:
                with CacheClient(server.address) as client:
                    client.get("missing")
                    client.put("k", make_result(1))
                    client.clear()  # local-only: force a server hit
                    client.get("k")
            registry = obs.metrics()
            gets = registry.get("cache_client_get_seconds")
            assert gets is not None and gets.count == 2
            assert registry.value("cache_client_gets_total", result="hit") == 1
            assert registry.value("cache_client_gets_total", result="miss") == 1
            puts = registry.get("cache_client_put_seconds")
            assert puts is not None and puts.count == 1
        finally:
            obs.reset()
