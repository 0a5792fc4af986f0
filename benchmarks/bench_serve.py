"""Cache-server smoke: a sweep on the process pool is bit-identical to
serial with a local cache and with a :class:`CacheClient` against a real
standalone ``repro serve`` server in another OS process.

This is the CI gate for the serve subsystem: if the pool's cache flow,
the cache wire protocol, or the standalone server drift from the serial
evaluator in any way, these assertions catch it.
"""

import time

from repro.core.strategy import OverlapMode
from repro.explore import Executor, MappingCache, SweepSpec
from repro.mapping import SearchConfig
from repro.serve import CacheClient

from .conftest import serve_subprocess, write_output

TILES = ((8, 8), (32, 36), (60, 72))
MODES = (OverlapMode.FULLY_CACHED, OverlapMode.FULLY_RECOMPUTE)
CONFIG = SearchConfig(lpf_limit=5, budget=100)


def fsrcnn_spec() -> SweepSpec:
    return SweepSpec.tile_grid("meta_proto_like_df", "fsrcnn", TILES, MODES)


def totals(results) -> list:
    return [(r.result.energy_pj, r.result.latency_cycles) for r in results]


def test_process_pool_identical_to_serial(benchmark):
    """In-process smoke: Executor(jobs=2) == serial, with the workers'
    entries harvested back into the executor's cache."""
    spec = fsrcnn_spec()
    serial = Executor(jobs=1, search_config=CONFIG).run(spec)

    def run():
        cache = MappingCache()
        with Executor(jobs=2, search_config=CONFIG, cache=cache) as executor:
            pooled = executor.run(spec)
        return pooled, cache

    pooled, cache = benchmark.pedantic(run, rounds=1, iterations=1)
    assert totals(pooled) == totals(serial)
    assert len(cache) > 0  # worker entries harvested back
    write_output(
        "serve_smoke.txt",
        f"process pool == serial on {len(spec)} jobs; "
        f"harvested cache: {cache.stats}",
    )


def test_standalone_server_round_trip():
    """Spawn `repro serve` as a real subprocess, run the sweep against
    it with --cache-server semantics (a CacheClient-backed executor),
    and compare with serial."""
    spec = fsrcnn_spec()
    with serve_subprocess() as (proc, address):
        client = CacheClient(address)
        served = Executor(jobs=2, search_config=CONFIG, cache=client).run(spec)
        assert len(client) > 0  # the server's table filled

        # A second, cold executor against the same server: every
        # mapping is now a remote hit, and results stay identical.
        warm_client = CacheClient(address)
        t0 = time.perf_counter()
        warm = Executor(jobs=1, search_config=CONFIG, cache=warm_client).run(spec)
        warm_seconds = time.perf_counter() - t0
        assert warm_client.misses == 0

        client.shutdown_server()
        proc.wait(timeout=30)  # graceful exit after the remote shutdown

    serial = Executor(jobs=1, search_config=CONFIG).run(spec)
    assert totals(served) == totals(serial)
    assert totals(warm) == totals(serial)
    assert proc.returncode == 0
    write_output(
        "serve_standalone.txt",
        f"standalone server: {len(spec)} jobs identical to serial; "
        f"warm re-run in {warm_seconds:.2f}s with 0 remote misses",
    )
