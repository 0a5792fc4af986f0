"""One set-up measurement in a fresh interpreter (run by ``run.py``).

Times ``import repro``, building the zoo workloads and accelerators a
workload uses, and (warm workload) loading its mapping-cache file, each
through the public API, and prints the split as one JSON line::

    python3 perfbench/setup_probe.py --workloads a,b --accelerators x,y [--cache FILE]

Only ``sys``, ``os`` and ``time`` are imported before ``import repro`` is
timed, so the import is measured cold as a user would pay it.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv: list) -> int:
    names = dict(zip(argv[::2], argv[1::2]))
    sys.path.insert(0, os.path.join(ROOT, "src"))
    start = time.perf_counter()
    import repro

    import_s = time.perf_counter() - start
    split = {"import_s": import_s}
    for kind, build in (
        ("workloads", repro.get_workload),
        ("accelerators", repro.get_accelerator),
    ):
        t0 = time.perf_counter()
        for name in names[f"--{kind}"].split(","):
            build(name)
        split[f"{kind}_s"] = time.perf_counter() - t0
        split[f"{kind}_calls"] = len(names[f"--{kind}"].split(","))
    split["cache_load_s"] = 0.0
    split["cache_load_calls"] = 0
    if "--cache" in names:
        t0 = time.perf_counter()
        cache = repro.MappingCache(names["--cache"])
        split["cache_load_s"] = time.perf_counter() - t0
        split["cache_load_calls"] = 1
        if not len(cache):
            print(f"cache file {names['--cache']} loaded no entries", file=sys.stderr)
            return 1
    split["setup_s"] = sum(
        split[key]
        for key in ("import_s", "workloads_s", "accelerators_s", "cache_load_s")
    )
    import json

    print(json.dumps(split))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
