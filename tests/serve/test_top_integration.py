"""End-to-end: `repro top` monitoring a live `repro serve` subprocess."""

from __future__ import annotations

from repro.cli import main
from repro.serve import CacheClient

from .test_cache_server import make_result


def test_top_one_refresh_cycle_against_live_server(serve_proc, capsys):
    proc, address = serve_proc
    with CacheClient(address) as client:
        client.put("warm", make_result(1))
        client.clear()
        assert client.get("warm") == make_result(1)  # a server-side hit

        exit_code = main(
            ["top", address, "--iterations", "2", "--interval", "0.1",
             "--no-clear"]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        frames = out.count("repro top — ")
        assert frames == 2
        # First frame defers rates; the refresh computes them.
        assert "first sample" in out
        assert "evals/s" in out
        assert "hits 1" in out

        client.shutdown_server()
    proc.wait(timeout=30)
    assert proc.returncode == 0
