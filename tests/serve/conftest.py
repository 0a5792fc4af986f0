"""Serve-test fixtures: a real ``repro serve`` subprocess."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture
def serve_proc():
    """A real `repro serve` subprocess on a free port (the tier-1 suite
    may run without the package installed, so PYTHONPATH carries src).
    Yields ``(proc, "HOST:PORT")``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--timeout", "120"],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        # Startup contract: the first line announces the picked port.
        line = proc.stdout.readline()
        assert "cache server listening on " in line
        yield proc, line.rsplit(" ", 1)[-1].strip()
    finally:
        if proc.poll() is None:
            proc.terminate()
        proc.wait(timeout=30)
        proc.stdout.close()
