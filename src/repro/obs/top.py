"""`repro top`: live fleet view over the cache server's ``stats`` op.

The ``stats`` wire op already exposes everything a monitor needs (table
counters, live load, per-op request counts).  This module polls it and
renders the deltas between consecutive samples as rates: request
throughput and evaluations per second.

Kept free of any terminal dependency: :func:`sample_server` returns a
plain dict and :func:`top_report` a string, so the CLI loop (and the
tests) own cursor control and timing.
"""

from __future__ import annotations

import time
from typing import Any

#: Stats-op request ops that correspond to one evaluation landing in
#: the table (the evals/s proxy).
_PUT_OPS = ("put", "put_many")


def sample_server(client: Any) -> dict[str, Any]:
    """One monitoring sample: the server's ``stats`` op and a monotonic
    timestamp for rate math.  ``client`` is anything with
    :meth:`CacheClient.server_stats`."""
    return {"time": time.monotonic(), "stats": client.server_stats()}


def _rate(
    curr: float, prev: float | None, dt: float | None
) -> float | None:
    if prev is None or dt is None or dt <= 0:
        return None
    return (curr - prev) / dt


def _fmt(value: Any, suffix: str = "") -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if value != int(value) or abs(value) < 1000:
            return f"{value:.1f}{suffix}"
        value = int(value)
    return f"{value}{suffix}"


def top_report(
    address: str, current: dict[str, Any], previous: dict[str, Any] | None = None
) -> str:
    """Render one refresh frame.  With a ``previous`` sample the frame
    includes rates (requests/s, evals/s); the first frame shows
    absolute counters only."""
    stats = current["stats"]
    hits = stats.get("hits", 0)
    misses = stats.get("misses", 0)
    lookups = hits + misses
    hit_rate = f"{hits / lookups:.1%}" if lookups else "-"
    lines = [
        f"repro top — {address} — "
        + time.strftime("%H:%M:%S", time.localtime()),
        "",
        f"  cache     entries {_fmt(stats.get('size'))}"
        f"   hits {_fmt(hits)}   misses {_fmt(misses)}"
        f"   hit rate {hit_rate}",
        f"  load      connections {_fmt(stats.get('connections'))}"
        f" ({_fmt(stats.get('connections_total'))} total)"
        f"   in-flight {_fmt(stats.get('in_flight'))}"
        f"   queued {_fmt(stats.get('queue_depth'))}"
        f"   unauthorized {_fmt(stats.get('unauthorized'))}",
    ]
    requests = stats.get("requests", {})
    if requests:
        ops = "   ".join(
            f"{op} {_fmt(count)}" for op, count in sorted(requests.items())
        )
        lines.append(f"  requests  {ops}")

    if previous is not None:
        dt = current["time"] - previous["time"]
        prev_requests = previous["stats"].get("requests", {})
        gets = _rate(requests.get("get", 0), prev_requests.get("get"), dt)
        reqs = _rate(
            sum(requests.values()),
            sum(prev_requests.values()) if prev_requests else None,
            dt,
        )
        evals = _rate(
            sum(requests.get(op, 0) for op in _PUT_OPS),
            sum(prev_requests.get(op, 0) for op in _PUT_OPS),
            dt,
        )
        lines.append(
            f"  rates     reqs/s {_fmt(reqs)}   gets/s {_fmt(gets)}"
            f"   evals/s {_fmt(evals)}   (over {_fmt(dt, 's')})"
        )
    else:
        lines.append("  rates     (first sample — rates on next refresh)")

    return "\n".join(lines) + "\n"
