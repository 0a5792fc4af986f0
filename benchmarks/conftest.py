"""Shared benchmark fixtures.

Every benchmark regenerates one table or figure of the paper and writes
its rows to ``benchmarks/output/``.  Set ``REPRO_FULL=1`` to run the full
paper-sized grids (the defaults use reduced grids so the whole harness
finishes in minutes; the original artifact takes 18 hours).
"""

from __future__ import annotations

import os
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

import pytest

from repro import DepthFirstEngine, MappingCache, get_accelerator, get_workload
from repro.mapping import SearchConfig
from repro.obs import ledger as run_ledger

#: Full paper grids vs. quick reduced grids.
FULL = os.environ.get("REPRO_FULL", "0") == "1"

#: Worker processes for the grid-shaped benchmarks (1 = serial).
JOBS = int(os.environ.get("REPRO_JOBS", "1"))

OUTPUT_DIR = Path(__file__).parent / "output"


@pytest.fixture(autouse=True)
def _ledger_sandbox(tmp_path, monkeypatch):
    """Benchmarks drive the CLI too — sandbox their run ledger unless
    the harness explicitly pointed REPRO_RUNS_DIR somewhere."""
    if not os.environ.get(run_ledger.RUNS_DIR_ENV):
        monkeypatch.setenv(run_ledger.RUNS_DIR_ENV, str(tmp_path / "runs"))
    run_ledger.reset()
    yield
    run_ledger.reset()


def write_output(name: str, text: str) -> Path:
    """Persist a benchmark's reproduced rows."""
    OUTPUT_DIR.mkdir(exist_ok=True)
    path = OUTPUT_DIR / name
    path.write_text(text + "\n")
    return path


@contextmanager
def serve_subprocess() -> Iterator[tuple[subprocess.Popen, str]]:
    """Run a real ``repro serve`` subprocess on a free port; yields
    ``(proc, "HOST:PORT")`` and terminates the server on exit unless it
    has already stopped."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", "--timeout", "600"],
        stdout=subprocess.PIPE,
        text=True,
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


@pytest.fixture(scope="session")
def search_config():
    # The artifact's loma_lpf_limit=6 fast mode; budget caps orderings.
    return SearchConfig(lpf_limit=6, budget=200 if FULL else 150)


@pytest.fixture(scope="session")
def fsrcnn():
    return get_workload("fsrcnn")


@pytest.fixture(scope="session")
def mapping_cache():
    """One mapping cache shared by the case-study benchmarks; point
    ``REPRO_CACHE`` at a JSON file to persist it across harness runs."""
    path = os.environ.get("REPRO_CACHE")
    cache = MappingCache(path) if path else MappingCache()
    yield cache
    if path:
        cache.save()


@pytest.fixture(scope="session")
def meta_df_engine(search_config, mapping_cache):
    """One shared engine for the FSRCNN case-study benchmarks: the
    mapping cache carries across figures exactly as DeFiNES' tile-type
    deduplication intends."""
    return DepthFirstEngine(
        get_accelerator("meta_proto_like_df"), search_config, cache=mapping_cache
    )
