"""Tests for the measurement harness itself (tables, metrics, runner)."""

import json
import os

import pytest

from repro.bench import runner
from repro.bench.metrics import ClassMetrics, measure_corpus, measure_program
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
        first = measure_corpus(programs, cache=cache)
        assert cache.stats()["entries"] == 2  # plain + optimised
        warm = measure_corpus(programs, cache=cache)
        cold = measure_corpus(programs, cache=False)
        assert [row.as_dict() for row in warm] \
            == [row.as_dict() for row in cold] \
            == [row.as_dict() for row in first]
        assert cache.hits > 0


#: names with a JSON report, and every guard in the table
WRITERS = [name for name, bench in runner.BENCHES.items()
           if bench.writes_json]
GUARDS = [(name, guard) for name, bench in runner.BENCHES.items()
          for guard in bench.guards]


def _fake(monkeypatch, name, report, calls=None):
    """Replace entry ``name``'s report function with one returning
    ``report`` (recording the call) and its renderer with a blank."""
    def fake_report(**kwargs):
        if calls is not None:
            calls.append(name)
        return report
    monkeypatch.setitem(runner.BENCHES, name, runner.BENCHES[name]._replace(
        report=fake_report, render=lambda report: ""))


class _Reads(dict):
    """A report in which the verdict ``ok`` and every field of the
    ``guard`` block read ``value``."""

    def __init__(self, value):
        super().__init__()
        self.value = value

    def __missing__(self, key):
        return self if key == "guard" else self.value


class TestRunnerCommands:
    def test_command_inventory(self):
        assert "all" not in runner.BENCHES
        for name, bench in runner.BENCHES.items():
            assert bench.name == name and bench.title
        # the paper tables print first, in one configuration
        tables = [name for name in runner.BENCHES if name not in WRITERS]
        assert list(runner.BENCHES) == tables + WRITERS
        assert all(runner.BENCHES[name].full is runner.BENCHES[name].smoke
                   for name in tables)

    def test_unknown_command_prints_usage(self, capsys):
        assert runner.main(["nope"]) == 2
        out = capsys.readouterr().out
        assert all(name in out for name in runner.BENCHES)

    def test_best_of_takes_minimum_and_warms_up(self, monkeypatch):
        from repro.bench import metrics
        calls = []
        ticks = iter(range(100))
        monkeypatch.setattr(metrics.time, "perf_counter",
                            lambda: next(ticks))
        seconds = metrics.best_of(lambda: calls.append(1), repeats=3,
                                  warmup=2)
        assert len(calls) == 5  # 2 warmup + 3 timed
        assert seconds == 1  # consecutive fake ticks
        monkeypatch.setenv("REPRO_BENCH_REPEATS", "1")
        calls.clear()
        metrics.best_of(lambda: calls.append(1))
        assert len(calls) == 2  # 1 warmup + 1 timed via the env default
        calls.clear()
        metrics.best_of(calls.append, warmup=0,
                        setup=lambda: len(calls) + 10)
        assert calls == [10]  # setup's result is fn's argument

    def test_spread_is_perfbenchs_record_of_the_samples(self,
                                                       monkeypatch):
        from repro.bench import metrics
        assert metrics.spread([0.004, 0.001, 0.002, 0.003, 0.005],
                              1000) == pytest.approx(
            {"n": 5, "median": 3.0, "min": 1.0, "iqr": 2.0})
        assert metrics.spread([0.5]) == {"n": 1, "median": 0.5,
                                         "min": 0.5, "iqr": 0.0}
        # best_of is the minimum of the samples it keeps
        ticks = iter([0, 3, 3, 4, 4, 6])
        monkeypatch.setattr(metrics.time, "perf_counter",
                            lambda: next(ticks))
        assert metrics.samples(lambda: None, repeats=3, warmup=0) \
            == [3, 1, 2]

    def test_codec_command_writes_report(self, tmp_path, capsys,
                                         monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_REPEATS", "1")
        output = tmp_path / "BENCH_codec.json"
        assert runner.main(["codec", "--smoke", "--output",
                            str(output)]) == 0
        assert "smoke run -> " in capsys.readouterr().out
        report = json.loads(output.read_text())
        codec = report["codec"]
        assert codec["trace_ops"] > 0
        assert codec["encode_mbps"] > 0 and codec["decode_mbps"] > 0
        stages = report["module_path"]["stage_seconds"]
        assert {"parse", "ssa", "opt", "encode", "decode",
                "verify"} <= set(stages)
        cache = report["cache"]
        assert cache["corpus_compiles"] == 6
        assert 0 < cache["hit_rate"] <= 1
        assert cache["warm_seconds"] >= 0
        provenance = report["provenance"]
        assert provenance["mode"] == "smoke"
        assert set(provenance) == {"mode", "python", "implementation",
                                   "platform", "nproc", "git_sha",
                                   "source_sha256"}
        assert len(provenance["source_sha256"]) == 64


class TestGuards:
    @pytest.mark.parametrize("name,guard", GUARDS,
                             ids=[f"{name}:{guard.description[:40]}"
                                  for name, guard in GUARDS])
    def test_a_violated_guard_fails_the_run_and_is_named(
            self, name, guard, tmp_path, monkeypatch, capsys):
        report = next(_Reads(value) for value in (False, 0, 10 ** 9)
                      if not guard.check(_Reads(value), True))
        _fake(monkeypatch, name, report)
        output = tmp_path / "report.json"
        assert runner.main([name, "--smoke", "--output",
                            str(output)]) == 1
        assert f"GUARD FAILED [{name}]: {guard.description}" \
            in capsys.readouterr().err
        assert json.loads(output.read_text())["provenance"]["mode"] \
            == "smoke"

    def test_trace_floor_is_higher_in_a_full_run(self):
        floor = runner.BENCHES["trace"].guards[0]
        report = {"guard": {"geomean_speedup": 1.2}}
        assert floor.check(report, True)
        assert not floor.check(report, False)

    def test_all_runs_every_entry_after_a_failed_guard(
            self, tmp_path, monkeypatch, capsys):
        calls = []
        for name in runner.BENCHES:
            _fake(monkeypatch, name, _Reads(False), calls)
        monkeypatch.chdir(tmp_path)
        assert runner.main(["all", "--smoke"]) == 1
        assert calls == list(runner.BENCHES)
        assert sorted(os.listdir(tmp_path / "bench-smoke")) == \
            sorted(f"BENCH_{name}.json" for name in WRITERS)
        err = capsys.readouterr().err
        # the first guarded entry and the last both fail and are named
        assert "GUARD FAILED [load]" in err and "GUARD FAILED [fuzz]" in err
        assert err.endswith(" guard(s) failed\n")


class TestSmokeOutput:
    """A smoke run never writes over the committed full-run file."""

    @pytest.mark.parametrize("name", WRITERS)
    def test_smoke_default_is_not_the_committed_path(self, name, tmp_path,
                                                     monkeypatch):
        monkeypatch.chdir(tmp_path)
        smoke, output = runner._bench_args(name, ["--smoke"])
        assert smoke
        assert os.path.abspath(output) != \
            os.path.abspath(f"BENCH_{name}.json")
        assert os.path.dirname(os.path.abspath(output)) == \
            str(tmp_path / "bench-smoke")
        assert runner._bench_args(name, []) == \
            (False, f"BENCH_{name}.json")
        assert runner._bench_args(name, ["--smoke", "--output",
                                         "x.json"]) == (True, "x.json")

    def test_smoke_trace_run_leaves_the_cwd_file_alone(self, tmp_path,
                                                       monkeypatch, capsys):
        _fake(monkeypatch, "trace", {
            "programs": {},
            "guard": {"geomean_speedup": 2.0, "abort_overhead": 1.0,
                      "abort_blacklisted": True, "abort_entries": 3}})
        monkeypatch.chdir(tmp_path)
        committed = tmp_path / "BENCH_trace.json"
        committed.write_text("full run\n")
        assert runner.main(["trace", "--smoke"]) == 0
        assert committed.read_text() == "full run\n"
        smoke = tmp_path / "bench-smoke" / "BENCH_trace.json"
        assert json.loads(smoke.read_text())["guard"]["abort_entries"] == 3
        assert "bench-smoke" in capsys.readouterr().out
