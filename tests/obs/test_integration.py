"""Telemetry wired through the stack: fork-merged worker registries,
tracing-on bit-identity, checkpoint stamps, and the CLI surface."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.cli import main
from repro.core.strategy import OverlapMode
from repro.dse import DesignSpace, DSERunner
from repro.explore import Executor
from repro.mapping import SearchConfig
from repro.obs import parse_prometheus, trace_coverage, trace_spans

SPACE = dict(
    accelerators=("meta_proto_like_df",),
    tile_x=(4, 16),
    tile_y=(4,),
    modes=(OverlapMode.FULLY_CACHED,),
)
CONFIG = SearchConfig(lpf_limit=5, budget=60)


def run_dse(jobs=1, checkpoint=None):
    with Executor(jobs=jobs, search_config=CONFIG) as executor:
        runner = DSERunner(
            DesignSpace(**SPACE),
            "fsrcnn",
            executor=executor,
            checkpoint=checkpoint,
            seed=0,
        )
        return runner.run("exhaustive")


def frontier_key(result):
    return [
        (entry.point.key(), entry.values)
        for entry in result.frontier.entries
    ]


class TestForkMerge:
    def test_process_workers_fold_into_parent_registry(self):
        """The fork-merge satellite: worker shards run with clean
        registries and their LOMA counters land in the parent."""
        obs.enable()  # metrics-only
        run_dse(jobs=2)
        registry = obs.metrics()
        # The searches happened in worker processes, yet the parent
        # registry sees them via the harvest/absorb round trip.
        assert registry.value("loma_searches_total") > 0
        assert registry.value("loma_orderings_evaluated_total") > 0
        hit = registry.value("mapping_cache_gets_total", result="hit")
        miss = registry.value("mapping_cache_gets_total", result="miss")
        assert hit + miss > 0
        assert registry.value("executor_jobs_total", backend="process") == 2
        assert registry.value("dse_generations_total") == 1

    def test_disabled_parent_ships_nothing(self):
        run_dse(jobs=2)
        assert len(obs.metrics()) == 0


class TestIdentity:
    def test_tracing_on_pool_matches_telemetry_off_serial(self, tmp_path):
        """The acceptance contract: serial with telemetry off and the
        process pool with tracing on produce bit-identical frontiers."""
        baseline = run_dse()
        assert not obs.enabled

        obs.enable(trace=tmp_path / "t.jsonl")
        traced = run_dse(jobs=2)
        obs.disable()

        assert frontier_key(traced) == frontier_key(baseline)
        assert traced.evaluated.keys() == baseline.evaluated.keys()
        for key, (_, values, violation) in baseline.evaluated.items():
            assert traced.evaluated[key][1] == values
            assert traced.evaluated[key][2] == violation

        spans = trace_spans(str(tmp_path / "t.jsonl"))
        names = {s["name"] for s in spans}
        assert {"dse.run", "dse.generation", "executor.run"} <= names
        assert trace_coverage(spans) >= 0.95

    def test_metrics_only_serial_identity(self):
        baseline = run_dse()
        obs.enable()
        traced = run_dse()
        obs.disable()
        assert frontier_key(traced) == frontier_key(baseline)


class TestCheckpointTelemetry:
    def test_stamp_present_only_when_enabled(self, tmp_path):
        off = tmp_path / "off.json"
        run_dse(checkpoint=off)
        assert "telemetry" not in json.loads(off.read_text())

        obs.enable()
        on = tmp_path / "on.json"
        run_dse(checkpoint=on)
        obs.disable()
        stamp = json.loads(on.read_text())["telemetry"]
        assert stamp["generations"] == 1
        assert stamp["orderings_evaluated"] > 0

    def test_resume_across_telemetry_modes(self, tmp_path):
        """The telemetry key lives outside the stamp fields: a
        telemetry-on checkpoint resumes cleanly with telemetry off."""
        checkpoint = tmp_path / "ck.json"
        obs.enable()
        first = run_dse(checkpoint=checkpoint)
        obs.reset()
        resumed = run_dse(checkpoint=checkpoint)
        assert resumed.evaluations == 0  # everything served from memo
        assert resumed.total_evaluations == first.total_evaluations
        assert frontier_key(resumed) == frontier_key(first)


class TestCLI:
    DSE_ARGS = [
        "dse",
        "--workload", "fsrcnn",
        "--strategy", "exhaustive",
        "--tilex", "4,16",
        "--tiley", "4",
        "--modes", "fully_cached",
        "--budget", "60",
        "--lpf-limit", "5",
    ]

    def test_trace_and_metrics_flags(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        prom = tmp_path / "run.prom"
        code = main(
            self.DSE_ARGS
            + ["--trace", str(trace), "--metrics", str(prom)]
        )
        assert code == 0
        assert not obs.enabled  # the CLI resets the layer on exit
        out = capsys.readouterr().out
        assert f"wrote {prom}" in out
        assert f"wrote {trace}" in out

        spans = trace_spans(str(trace))
        assert any(s["name"] == "repro.dse" for s in spans)
        assert trace_coverage(spans) >= 0.95

        values = parse_prometheus(prom.read_text())
        assert values["loma_orderings_evaluated_total"] > 0
        assert values["dse_evaluations"] == 2

    def test_metrics_json_dump(self, tmp_path):
        dump = tmp_path / "run.json"
        assert main(self.DSE_ARGS + ["--metrics", str(dump)]) == 0
        data = json.loads(dump.read_text())
        assert any(
            m["name"] == "loma_searches_total" for m in data["metrics"]
        )

    def test_bad_sample_fraction_rejected(self):
        with pytest.raises(SystemExit):
            main(self.DSE_ARGS + ["--trace", "t.jsonl", "--trace-sample", "0"])

    def test_stats_subcommand_renders_all_formats(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        prom = tmp_path / "run.prom"
        dump = tmp_path / "run.json"
        main(
            self.DSE_ARGS
            + ["--trace", str(trace), "--metrics", str(prom)]
        )
        main(self.DSE_ARGS + ["--metrics", str(dump)])
        capsys.readouterr()

        assert main(["stats", str(trace), str(prom), str(dump)]) == 0
        out = capsys.readouterr().out
        assert "root spans cover" in out
        assert "mapping cache:" in out
        assert "hit rate" in out
        assert "dse.run" in out
        assert f"== {trace} ==" in out  # multi-file headers

    def test_stats_rejects_junk(self, tmp_path, capsys):
        junk = tmp_path / "junk.bin"
        junk.write_text("!!! not telemetry !!!\n")
        with pytest.raises(SystemExit, match="not a recognizable"):
            main(["stats", str(junk)])

    def test_classic_evaluate_traces_too(self, tmp_path, capsys):
        trace = tmp_path / "eval.jsonl"
        code = main(
            [
                "--accelerator", "meta_proto_like_df",
                "--workload", "fsrcnn",
                "--tilex", "16",
                "--tiley", "8",
                "--budget", "60",
                "--lpf-limit", "5",
                "--trace", str(trace),
            ]
        )
        assert code == 0
        spans = trace_spans(str(trace))
        assert any(s["name"] == "repro.evaluate" for s in spans)
        assert trace_coverage(spans) >= 0.95
