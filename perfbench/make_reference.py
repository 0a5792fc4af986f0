"""Regenerate ``perfbench/reference.json``: exact results of every point in
every workload universe (324 sweep points and the 864-point DSE space).

Run from the repository root::

    python3 perfbench/make_reference.py

Results do not depend on cache state (the repository's bit-identity
contract), so one shared mapping cache serves the whole table.  Only
regenerate when a change is meant to alter simulated results.
"""

from __future__ import annotations

import json
import sys

import universe as U


def main() -> int:
    U.use_checkout_source()
    from repro import DepthFirstEngine, DFStrategy, MappingCache, SearchConfig
    from repro import get_accelerator, get_workload
    from repro.core.strategy import OverlapMode

    config = SearchConfig(lpf_limit=U.LPF_LIMIT, budget=U.BUDGET)
    cache = MappingCache()
    engines: dict[str, DepthFirstEngine] = {}
    workloads: dict[str, object] = {}

    def evaluate(network, accelerator, tx, ty, mode, fuse_depth=None):
        if accelerator not in engines:
            engines[accelerator] = DepthFirstEngine(
                get_accelerator(accelerator), config, cache=cache
            )
        if network not in workloads:
            workloads[network] = get_workload(network)
        strategy = DFStrategy(
            tile_x=tx, tile_y=ty, mode=OverlapMode(mode), fuse_depth=fuse_depth
        )
        total = engines[accelerator].evaluate(workloads[network], strategy).total
        return [total.energy_pj, total.latency_cycles]

    sweep = {
        U.sweep_key(*point): evaluate(*point) for point in U.sweep_universe()
    }
    dse = {
        U.dse_key(*point): evaluate(U.DSE_WORKLOAD, *point)
        for point in U.dse_universe()
    }
    table = {
        "search_config": {"lpf_limit": U.LPF_LIMIT, "budget": U.BUDGET},
        "sweep": sweep,
        "dse": dse,
    }
    U.REFERENCE_PATH.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n")
    print(f"wrote {len(sweep)} sweep + {len(dse)} DSE points to {U.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
