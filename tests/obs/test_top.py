"""`repro top` rendering: samples and rate math (no sockets —
the wire integration lives in tests/serve/test_http_metrics.py)."""

from __future__ import annotations

from repro.obs import top


class FakeClient:
    """The CacheClient control surface `sample_server` needs."""

    def __init__(self, stats):
        self.stats = stats

    def server_stats(self):
        return dict(self.stats)


def make_sample(
    t=0.0,
    hits=30,
    misses=10,
    requests=None,
):
    """Build a sample like `sample_server` would, at a pinned time."""
    stats = {
        "size": 100,
        "hits": hits,
        "misses": misses,
        "connections": 2,
        "connections_total": 5,
        "in_flight": 1,
        "queue_depth": 3,
        "unauthorized": 0,
        "requests": requests or {"get": hits + misses, "put": 7},
    }
    client = FakeClient(stats)
    sample = top.sample_server(client)
    sample["time"] = t  # pin for deterministic rate math
    return sample


class TestSampleServer:
    def test_sample_shape(self):
        sample = make_sample()
        assert sample["stats"]["hits"] == 30
        assert set(sample) == {"time", "stats"}

    def test_sample_polls_only_the_stats_op(self):
        class StatsOnlyClient(FakeClient):
            def __getattr__(self, name):
                raise AssertionError(f"sample_server used {name!r}")

        sample = top.sample_server(StatsOnlyClient({"size": 1}))
        assert sample["stats"] == {"size": 1}


class TestTopReport:
    def test_first_frame_has_counters_no_rates(self):
        frame = top.top_report("host:9)", make_sample())
        assert "entries 100" in frame
        assert "hits 30" in frame
        assert "hit rate 75.0%" in frame
        assert "queued 3" in frame
        assert "first sample" in frame
        assert "evals/s" not in frame

    def test_second_frame_computes_rates(self):
        prev = make_sample(t=0.0, hits=30, misses=10)
        curr = make_sample(t=2.0, hits=70, misses=10)
        # get requests went 40 -> 80 over 2s: 20 gets/s.
        frame = top.top_report("host:9", curr, prev)
        assert "gets/s 20.0" in frame
        # puts unchanged: the evals/s proxy is 0.
        assert "evals/s 0.0" in frame

    def test_evals_rate_counts_put_ops(self):
        prev = make_sample(t=0.0, requests={"get": 10, "put": 4, "put_many": 1})
        curr = make_sample(t=2.0, requests={"get": 10, "put": 10, "put_many": 5})
        # put + put_many went 5 -> 15 over 2s: 5 evals/s.
        frame = top.top_report("host:9", curr, prev)
        assert "evals/s 5.0" in frame

    def test_reqs_rate_sums_every_op(self):
        prev = make_sample(t=0.0, requests={"get": 10, "put": 4, "stats": 2})
        curr = make_sample(t=4.0, requests={"get": 20, "put": 8, "stats": 4})
        # 16 -> 32 requests of any op over 4s: 4 reqs/s.
        frame = top.top_report("host:9", curr, prev)
        assert "reqs/s 4.0" in frame
        assert "requests  get 20   put 8   stats 4" in frame

    def test_zero_lookups_renders_dash(self):
        frame = top.top_report("host:9", make_sample(hits=0, misses=0))
        assert "hit rate -" in frame

    def test_rate_guards(self):
        assert top._rate(10.0, None, 1.0) is None
        assert top._rate(10.0, 5.0, 0.0) is None
        assert top._rate(10.0, 5.0, 2.0) == 2.5

    def test_fmt(self):
        assert top._fmt(None) == "-"
        assert top._fmt(3) == "3"
        assert top._fmt(2.5) == "2.5"
        assert top._fmt(2048.0) == "2048"
        assert top._fmt(1.0, "s") == "1.0s"
