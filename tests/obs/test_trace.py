"""Tracer: span nesting, JSON-lines round trip, header, pid guard."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.obs.trace import (
    NULL_SPAN,
    Tracer,
    load_trace,
    span_summary,
    trace_coverage,
    trace_spans,
)


class TestRoundTrip:
    def test_nesting_round_trips_through_file(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = Tracer(path)
        with tracer.span("outer", phase="a"):
            with tracer.span("inner"):
                pass
            with tracer.span("inner"):
                pass
        tracer.close()

        records = load_trace(path)
        assert records[0]["type"] == "run"
        assert records[0]["pid"] == tracer.pid
        spans = trace_spans(records)
        assert [s["name"] for s in spans] == ["outer", "inner", "inner"]
        outer = spans[0]
        assert outer["parent"] is None
        assert outer["attrs"] == {"phase": "a"}
        for inner in spans[1:]:
            assert inner["parent"] == outer["id"]
            assert outer["start"] <= inner["start"]
            assert inner["end"] <= outer["end"]
            assert inner["dur"] >= 0.0

    def test_set_attaches_attrs_after_open(self, tmp_path):
        tracer = Tracer(tmp_path / "t.jsonl")
        with tracer.span("work") as sp:
            sp.set(results=7)
        tracer.close()
        (span,) = trace_spans(load_trace(tmp_path / "t.jsonl"))
        assert span["attrs"] == {"results": 7}

    def test_exception_recorded_as_error_attr(self, tmp_path):
        tracer = Tracer(tmp_path / "t.jsonl")
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("no")
        tracer.close()
        (span,) = trace_spans(load_trace(tmp_path / "t.jsonl"))
        assert span["attrs"]["error"] == "RuntimeError"

    def test_malformed_line_raises_with_location(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "run"}\nnot json\n')
        with pytest.raises(ValueError, match="bad.jsonl:2"):
            load_trace(path)
        path.write_text('["a", "list"]\n')
        with pytest.raises(ValueError, match="objects with a 'type'"):
            load_trace(path)


class TestHeader:
    def test_header_anchors_clocks_only(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = Tracer(path)
        with tracer.span("root"):
            pass
        tracer.close()
        header = load_trace(path)[0]
        assert set(header) == {"type", "pid", "wall_time", "monotonic"}
        assert header["type"] == "run"

    def test_sampling_option_is_gone(self, tmp_path):
        with pytest.raises(TypeError):
            Tracer(tmp_path / "t.jsonl", sample=0.5)
        with pytest.raises(TypeError):
            obs.enable(trace=tmp_path / "t.jsonl", sample=0.5)


class TestDisabledPaths:
    def test_span_is_shared_noop_when_disabled(self):
        assert obs.span("anything", x=1) is NULL_SPAN
        with obs.span("anything") as sp:
            sp.set(y=2)  # no-op, no error

    def test_metrics_only_mode_has_no_tracer(self):
        obs.enable()  # no trace path
        assert obs.tracer() is None
        assert obs.span("x") is NULL_SPAN
        assert obs.enabled

    def test_forked_pid_guard(self, tmp_path):
        tracer = Tracer(tmp_path / "t.jsonl")
        with tracer.span("mine"):
            pass
        tracer.pid += 1  # simulate a forked child
        assert not tracer.recording
        assert tracer.span("theirs") is NULL_SPAN
        tracer.close()
        assert [s["name"] for s in trace_spans(load_trace(tmp_path / "t.jsonl"))] == [
            "mine"
        ]

    def test_worker_begin_clears_inherited_state(self, tmp_path):
        obs.enable(trace=tmp_path / "t.jsonl")
        obs.metrics().counter("parent_stuff").inc(5)
        obs.worker_begin(True)
        assert obs.enabled
        assert obs.tracer() is None
        assert obs.metrics().value("parent_stuff") == 0
        obs.metrics().counter("child_stuff").inc()
        dump = obs.harvest()
        assert dump is not None
        obs.worker_begin(False)
        assert not obs.enabled
        assert obs.harvest() is None

    def test_absorb_merges_harvest(self):
        obs.enable()
        obs.metrics().counter("c").inc(2)
        dump = obs.harvest()
        obs.reset()
        obs.enable()
        obs.metrics().counter("c").inc(1)
        obs.absorb(dump)
        obs.absorb(None)  # telemetry-off workers ship nothing
        assert obs.metrics().value("c") == 3


class TestAnalysis:
    def _write(self, tmp_path, spans):
        """spans: (id, parent, name, start, end) rows."""
        path = tmp_path / "t.jsonl"
        with open(path, "w") as fh:
            fh.write(json.dumps({"type": "run", "pid": 1}) + "\n")
            for sid, parent, name, start, end in spans:
                fh.write(
                    json.dumps(
                        {
                            "type": "span",
                            "id": sid,
                            "parent": parent,
                            "name": name,
                            "start": start,
                            "end": end,
                            "dur": end - start,
                        }
                    )
                    + "\n"
                )
        return path

    def test_self_time_subtracts_direct_children(self, tmp_path):
        path = self._write(
            tmp_path,
            [
                (0, None, "outer", 0.0, 10.0),
                (1, 0, "inner", 1.0, 5.0),
                (2, 0, "inner", 5.0, 8.0),
            ],
        )
        rows = {r["name"]: r for r in span_summary(path)}
        assert rows["outer"]["total"] == 10.0
        assert rows["outer"]["self"] == pytest.approx(3.0)
        assert rows["inner"]["count"] == 2
        assert rows["inner"]["self"] == pytest.approx(7.0)
        # Sorted by self time descending: inner first.
        assert [r["name"] for r in span_summary(path)] == ["inner", "outer"]

    def test_coverage_is_root_interval_union(self, tmp_path):
        path = self._write(
            tmp_path,
            [
                (0, None, "a", 0.0, 4.0),
                (1, None, "b", 6.0, 10.0),
                (2, 0, "child", 1.0, 3.0),
            ],
        )
        assert trace_coverage(path) == pytest.approx(0.8)

    def test_coverage_none_without_spans(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(json.dumps({"type": "run", "pid": 1}) + "\n")
        assert trace_coverage(load_trace(path)) is None
