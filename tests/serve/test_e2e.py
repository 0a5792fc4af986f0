"""End-to-end: a multi-workload DSE run on the process pool is
bit-identical to serial, with a local cache and with a
:class:`CacheClient` against a real ``repro serve`` subprocess."""

import pytest

from repro import WorkloadBuilder
from repro.core.strategy import OverlapMode
from repro.dse import DesignSpace, DSERunner, Scenario, WeightedWorkload
from repro.explore import Executor, MappingCache, SweepSpec
from repro.mapping import SearchConfig
from repro.serve import CacheClient, CacheServer

from ..conftest import make_tiny_workload

OBJECTIVES = ("energy", "latency")


def small_workload(name: str, x: int, y: int):
    b = WorkloadBuilder(name, channels=1, x=x, y=y)
    t = b.input()
    t = b.conv("L1", t, k=8, f=3, pad=1)
    t = b.conv("L2", t, k=16, f=3, pad=1)
    b.conv("L3", t, k=8, f=3, pad=1)
    return b.build()


@pytest.fixture(scope="module")
def space():
    return DesignSpace(
        accelerators=("meta_proto_like_df",),
        tile_x=(4, 16),
        tile_y=(4, 8),
        modes=tuple(OverlapMode),
        fuse_depths=(None,),
    )


@pytest.fixture(scope="module")
def scenario():
    return Scenario(
        members=(
            WeightedWorkload(workload=small_workload("wl_a", 48, 32), weight=2.0),
            WeightedWorkload(workload=small_workload("wl_b", 40, 24)),
        )
    )


@pytest.fixture(scope="module")
def config():
    return SearchConfig(lpf_limit=5, budget=60)


def run_dse(space, scenario, executor, seed=3):
    runner = DSERunner(
        space, scenario, objectives=OBJECTIVES, executor=executor, seed=seed
    )
    return runner.run("exhaustive")


def assert_same_dse(result, reference):
    # Bit-identical outcome: same frontier (same encoding, same order),
    # same per-generation stats, same hypervolume numbers.
    assert result.frontier.to_json() == reference.frontier.to_json()
    assert [s.to_json() for s in result.generations] == [
        s.to_json() for s in reference.generations
    ]
    assert result.evaluations == reference.evaluations


@pytest.fixture(scope="module")
def serial_dse(space, scenario, config):
    return run_dse(space, scenario, Executor(jobs=1, search_config=config))


class TestPoolBitIdentity:
    def test_multi_workload_dse_on_pool(self, space, scenario, config, serial_dse):
        with Executor(jobs=2, search_config=config) as ex:
            pooled = run_dse(space, scenario, ex)
        assert_same_dse(pooled, serial_dse)
        assert len(ex.cache) > 0  # worker entries harvested back

    def test_genetic_dse_on_pool_matches_serial(self, space, scenario, config):
        from repro.dse import GeneticSearch

        def strategy():
            return GeneticSearch(population=6, generations=2)

        serial = DSERunner(
            space,
            scenario,
            objectives=OBJECTIVES,
            executor=Executor(jobs=1, search_config=config),
            seed=11,
        ).run(strategy())
        with Executor(jobs=2, search_config=config) as ex:
            pooled = DSERunner(
                space, scenario, objectives=OBJECTIVES, executor=ex, seed=11
            ).run(strategy())
        assert_same_dse(pooled, serial)


class TestCacheServerBitIdentity:
    def test_pool_against_repro_serve(
        self, space, scenario, config, serial_dse, serve_proc
    ):
        """``--cache-server`` semantics: the pool pre-warms from and
        harvests into a standalone server's table; a second, serial run
        against the same server is served entirely remotely."""
        proc, address = serve_proc
        with CacheClient(address) as client:
            pooled = run_dse(
                space, scenario, Executor(jobs=2, search_config=config, cache=client)
            )
            assert len(client) > 0  # the server's table filled
        assert_same_dse(pooled, serial_dse)

        with CacheClient(address) as warm_client:
            warm = run_dse(
                space,
                scenario,
                Executor(jobs=1, search_config=config, cache=warm_client),
            )
            assert warm_client.misses == 0
            warm_client.shutdown_server()
        assert_same_dse(warm, serial_dse)
        proc.wait(timeout=30)
        assert proc.returncode == 0

    def test_process_backend_through_cache_client(self, config):
        """The process pool pre-warms from and harvests back to a
        *remote* cache when its handle is a CacheClient."""
        spec = SweepSpec.tile_grid(
            "meta_proto_like_df",
            make_tiny_workload(),
            ((4, 4), (16, 16)),
            (OverlapMode.FULLY_CACHED,),
        )
        shared = MappingCache()
        with CacheServer(cache=shared) as srv:
            with CacheClient(srv.address) as client:
                results = Executor(jobs=2, search_config=config, cache=client).run(
                    spec
                )
            assert len(shared) > 0  # harvest merged into the server
        serial = Executor(jobs=1, search_config=config).run(spec)
        for s, p in zip(serial, results):
            assert s.result.total == p.result.total
