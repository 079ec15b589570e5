"""Tests for the measurement harness itself (tables, metrics, runner)."""

import concurrent.futures
import json
import os

import pytest

from repro.bench.metrics import (
    ClassMetrics,
    corpus_compile_jobs,
    measure_corpus,
    measure_program,
    pool_map,
    warm_cache,
)
from repro.bench.tables import (
    _fmt_delta,
    ablation_table,
    figure5_table,
    figure6_table,
    phi_pruning_table,
)


class TestFormatting:
    def test_delta_formatting(self):
        assert _fmt_delta(100, 50) == "-50%"
        assert _fmt_delta(100, 100) == "+0%"
        assert _fmt_delta(100, 138) == "+38%"
        assert _fmt_delta(0, 5) == "N/A"

    def test_delta_pct_on_metrics(self):
        row = ClassMetrics("P", "C")
        assert row.delta_pct(0, 3) is None
        assert row.delta_pct(10, 7) == -30


class TestMeasurement:
    @pytest.fixture(scope="class")
    def rows(self):
        source = """
        class Pair {
            int a; int b;
            Pair(int a, int b) { this.a = a; this.b = b; }
            int total() { return a + b + a + b; }
            static int run(Pair p) { return p.total() + p.total(); }
        }
        """
        return measure_program("inline", source)

    def test_row_per_class(self, rows):
        assert [row.class_name for row in rows] == ["Pair"]

    def test_all_columns_populated(self, rows):
        row = rows[0]
        assert row.bytecode_size > 0
        assert row.tsa_size > 0
        assert row.tsa_opt_size > 0
        assert row.bytecode_insns > 0
        assert row.tsa_insns > 0
        assert row.tsa_opt_insns <= row.tsa_insns
        assert row.nullchecks_after <= row.nullchecks_before

    def test_tables_render(self, rows):
        for text in (figure5_table(rows), figure6_table(rows)):
            assert "Pair" in text
            assert "TOTAL" in text

    def test_other_tables_render(self):
        pruning = phi_pruning_table([("P", 10, 7)])
        assert "-30%" in pruning
        ablation = ablation_table([("P", {"none": 10, "constprop": 9,
                                          "cse": 8, "dce": 9, "all": 7})])
        assert "P" in ablation


class TestCachedMeasurement:
    def test_warm_cache_then_measure_matches_cold(self):
        from repro.cache import CompilationCache
        cache = CompilationCache()
        programs = ["BitSieve"]
        compiled = warm_cache(cache, corpus_compile_jobs(programs))
        assert compiled == 2  # plain + optimised
        assert warm_cache(cache, corpus_compile_jobs(programs)) == 0
        warm = measure_corpus(programs, cache=cache)
        cold = measure_corpus(programs, cache=False)
        assert [row.as_dict() for row in warm] \
            == [row.as_dict() for row in cold]
        assert cache.hits > 0

    def test_pool_map_keeps_order_and_reports_its_pool(self):
        results, workers = pool_map(abs, [-3, 2, -1])
        assert results == [3, 2, 1]
        assert workers == min(os.cpu_count() or 1, 3)

    def test_pool_map_falls_back_to_the_serial_loop(self, monkeypatch):
        def unavailable(*args, **kwargs):
            raise OSError("no subprocesses here")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            unavailable)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert pool_map(abs, [-3, 2, -1]) == ([3, 2, 1], 1)


class TestRunnerCommands:
    def test_command_inventory(self):
        from repro.bench.runner import COMMANDS
        assert set(COMMANDS) == {"figure5", "figure6", "pruning",
                                 "ablation", "verifycost", "jitspeed"}

    def test_unknown_command_prints_usage(self, capsys):
        from repro.bench.runner import main
        assert main(["nope"]) == 2
        assert "figure5" in capsys.readouterr().out

    def test_best_of_takes_minimum_and_warms_up(self, monkeypatch):
        from repro.bench import runner
        calls = []
        ticks = iter(range(100))
        monkeypatch.setattr(runner.time, "perf_counter",
                            lambda: next(ticks))
        seconds = runner.best_of(lambda: calls.append(1), repeats=3,
                                 warmup=2)
        assert len(calls) == 5  # 2 warmup + 3 timed
        assert seconds == 1  # consecutive fake ticks
        monkeypatch.setenv("REPRO_BENCH_REPEATS", "1")
        calls.clear()
        runner.best_of(lambda: calls.append(1))
        assert len(calls) == 2  # 1 warmup + 1 timed via the env default

    def test_codec_command_writes_report(self, tmp_path, capsys,
                                         monkeypatch):
        from repro.bench.runner import main
        monkeypatch.setenv("REPRO_BENCH_REPEATS", "1")
        output = tmp_path / "BENCH_codec.json"
        assert main(["codec", "--smoke", "--output", str(output)]) == 0
        assert "codec benchmark" in capsys.readouterr().out
        report = json.loads(output.read_text())
        codec = report["codec"]
        assert codec["trace_ops"] > 0
        assert codec["encode_mbps"] > 0 and codec["decode_mbps"] > 0
        assert codec["speedup_vs_reference"] == \
            codec["combined_speedup"]
        stages = report["module_path"]["stage_seconds"]
        assert {"parse", "ssa", "opt", "encode", "decode",
                "verify"} <= set(stages)
        cache = report["cache"]
        assert cache["corpus_compiles"] == 6
        assert 0 < cache["hit_rate"] <= 1
        assert cache["warm_seconds"] >= 0


BENCH_NAMES = ("codec", "analysis", "pipeline", "fuzz", "load", "loops",
               "wire", "serve", "trace")


class TestSmokeOutput:
    """A smoke run never writes over the committed full-run file."""

    @pytest.mark.parametrize("name", BENCH_NAMES)
    def test_smoke_default_is_not_the_committed_path(self, name, tmp_path,
                                                     monkeypatch):
        from repro.bench.runner import _bench_args
        monkeypatch.chdir(tmp_path)
        smoke, output = _bench_args(name, ["--smoke"])
        assert smoke
        assert os.path.abspath(output) != \
            os.path.abspath(f"BENCH_{name}.json")
        assert os.path.dirname(os.path.abspath(output)) == \
            str(tmp_path / "bench-smoke")
        assert _bench_args(name, []) == (False, f"BENCH_{name}.json")
        assert _bench_args(name, ["--smoke", "--output", "x.json"]) == \
            (True, "x.json")

    def test_smoke_trace_run_leaves_the_cwd_file_alone(self, tmp_path,
                                                       monkeypatch, capsys):
        from repro.bench import trace
        from repro.bench.runner import main
        stats = {"blacklisted": 1, "entries": 3}
        monkeypatch.setattr(trace, "trace_report", lambda *a, **k: {
            "programs": {},
            "guard": {"geomean_speedup": 2.0, "abort_overhead": 1.0,
                      "abort_blacklisted": True,
                      "abort_entries": stats["entries"]}})
        monkeypatch.setattr(trace, "trace_table", lambda report: "")
        monkeypatch.chdir(tmp_path)
        committed = tmp_path / "BENCH_trace.json"
        committed.write_text("full run\n")
        assert main(["trace", "--smoke"]) == 0
        assert committed.read_text() == "full run\n"
        smoke = tmp_path / "bench-smoke" / "BENCH_trace.json"
        assert json.loads(smoke.read_text())["guard"]["abort_entries"] == 3
        assert "bench-smoke" in capsys.readouterr().out
