"""Shared cache server: one live mapping-cache table served over TCP.

* :class:`CacheServer` / :class:`CacheClient` — a mapping-cache table
  served over TCP (JSON lines).  ``repro serve`` runs a standalone
  server; ``--cache-server HOST:PORT`` points a run at it, so runs —
  across processes *and* machines — read and write one table.  Periodic
  snapshots keep the persistent JSON cache format unchanged.

A :class:`CacheClient` is accepted anywhere a
:class:`~repro.mapping.cache.MappingCache` is::

    from repro.explore import Executor, SweepSpec
    from repro.serve import CacheClient

    spec = SweepSpec.tile_grid("meta_proto_like_df", "fsrcnn",
                               [(4, 4), (16, 18), (60, 72)])
    with CacheClient("127.0.0.1:7000") as cache:
        results = Executor(jobs=4, cache=cache).run(spec)
"""

from .cache_server import (
    AUTH_TOKEN_ENV,
    CacheClient,
    CacheServer,
    CacheServerError,
    format_address,
    parse_address,
)

__all__ = [
    "AUTH_TOKEN_ENV",
    "CacheClient",
    "CacheServer",
    "CacheServerError",
    "format_address",
    "parse_address",
]
