"""Speculative trace tier (repro.interp.trace) tests.

The tracing interpreter speculates: it compiles the hot path of a
loop into straight-line Python and keeps the interpreter semantics
behind guards.  Every test here pins the commit/abort contract -- a
guard that fails mid-trace must fall back to the interpreter
*bit-identically*: same stdout, same trap identity, same ``steps``,
same dynamic ``check_counts``.  The matrix covers every guard kind
the compiler emits (branch, nullcheck, idxcheck, cast, arithmetic
trap, negative allocation, covariant store, throwing call), plus the
blacklist protocol, the warm trace cache, the serve endpoint, and the
CLI flag.
"""

import pytest

from repro.api import compile_source
from repro.cache import TraceCache
from repro.encode.serializer import encode_module
from repro.interp.interpreter import Interpreter, StepLimitExceeded
from repro.interp.trace import TracingInterpreter
from repro.loader.fused import load_module


#: low enough that a few dozen loop iterations tier up
THRESHOLD = 4


def observe(interp, class_name=None):
    """Everything the oracle's trace lane compares."""
    result = interp.run_main(class_name)
    return (result.stdout, result.exception_name(), interp.steps,
            dict(interp.check_counts))


def assert_parity(source, *, class_name=None, optimize=False,
                  max_steps=5_000_000, threshold=THRESHOLD):
    """Run untraced and traced; the observations must be identical.

    Returns ``(tracing_interpreter, observation)`` so tests can also
    assert on the trace statistics (the parity alone would pass
    vacuously if no trace ever ran).
    """
    module = compile_source(source, optimize=optimize)
    plain = observe(Interpreter(module, max_steps=max_steps),
                    class_name)
    traced_interp = TracingInterpreter(module, max_steps=max_steps,
                                       threshold=threshold,
                                       trace_cache=TraceCache())
    traced = observe(traced_interp, class_name)
    assert traced == plain, (
        f"traced execution diverged:\n  traced:   {traced!r}\n"
        f"  untraced: {plain!r}")
    return traced_interp, plain


def loop_main(body, extra_classes="", setup="", after=""):
    return (f"{extra_classes}\n"
            f"class Main {{ static void main() {{\n"
            f"{setup}\n"
            f"int s = 0;\n"
            f"for (int i = 0; i < 200; i = i + 1) {{\n{body}\n}}\n"
            f"{after}\n"
            f"System.out.println(s);\n"
            f"}} }}")


# ======================================================================
# guard exits: every guard kind fails mid-trace after the loop tiered up

class TestGuardExits:
    def assert_traced_trap(self, source, exception, **kwargs):
        interp, plain = assert_parity(source, **kwargs)
        stats = interp.trace_stats()
        assert stats["entries"] > 0, \
            f"loop never entered its trace: {stats}"
        assert plain[1] == exception
        return interp, plain

    def test_branch_guard_exits_and_loop_continues(self):
        # the branch is stable for 150 iterations, then flips: the
        # guard exits mid-trace and the interpreter finishes the loop
        interp, plain = assert_parity(loop_main(
            "if (i < 150) { s = s + 1; } else { s = s + 1000; }"))
        assert plain[0] == "50150\n"
        assert interp.trace_stats()["entries"] > 0

    def test_idxcheck_guard_trap(self):
        self.assert_traced_trap(loop_main(
            "s = s + a[i];",
            setup="int[] a = new int[150];"),
            "java.lang.ArrayIndexOutOfBoundsException")

    def test_nullcheck_guard_trap(self):
        self.assert_traced_trap(loop_main(
            "if (i == 150) { b = null; }\ns = s + b.v;",
            extra_classes="class Box { int v = 1; }",
            setup="Box b = new Box();"),
            "java.lang.NullPointerException")

    def test_cast_guard_trap(self):
        self.assert_traced_trap(loop_main(
            "A x;\nif (i < 150) { x = new B(); } else { x = new A(); }\n"
            "B y = (B) x;\ns = s + y.v;",
            extra_classes="class A { }\nclass B extends A { int v = 1; }"),
            "java.lang.ClassCastException")

    def test_division_trap_mid_trace(self):
        self.assert_traced_trap(loop_main(
            "s = s + 1000 / (150 - i);"),
            "java.lang.ArithmeticException")

    def test_negative_allocation_trap_mid_trace(self):
        self.assert_traced_trap(loop_main(
            "int[] a = new int[150 - i];\ns = s + a.length;"),
            "java.lang.NegativeArraySizeException")

    def test_covariant_store_trap_mid_trace(self):
        self.assert_traced_trap(loop_main(
            "A x;\nif (i < 150) { x = new B(); } else { x = new A(); }\n"
            "arr[0] = x;\ns = s + 1;",
            extra_classes="class A { }\nclass B extends A { }",
            setup="A[] arr = new B[1];"),
            "java.lang.ArrayStoreException")

    def test_call_throws_late(self):
        # a call inside the trace body throws only after the loop
        # tiered up; the trap must carry the interpreter's identity
        self.assert_traced_trap(loop_main(
            "s = s + Main.step(i);",
            extra_classes="",
            setup="").replace(
                "class Main { static void main() {",
                "class Main {\n"
                "static int step(int i) {\n"
                "  if (i > 150) { throw new IllegalStateException"
                "(\"late\"); }\n  return 1;\n}\n"
                "static void main() {"),
            "java.lang.IllegalStateException")

    def test_trap_caught_inside_loop_body(self):
        # the handler is *inside* the loop: control re-enters the loop
        # after the guard exit, and the trace keeps re-entering too
        interp, plain = assert_parity(loop_main(
            "try { s = s + 1000 / (i % 7 - 3); }\n"
            "catch (ArithmeticException e) { s = s + 1; }"))
        assert plain[1] is None
        assert interp.trace_stats()["entries"] > 0

    def test_step_limit_identical(self):
        # the step budget must deplete identically through the trace
        source = loop_main("s = s + i;")
        module = compile_source(source)
        with pytest.raises(StepLimitExceeded):
            Interpreter(module, max_steps=300).run_main()
        with pytest.raises(StepLimitExceeded):
            TracingInterpreter(module, max_steps=300,
                               threshold=THRESHOLD,
                               trace_cache=TraceCache()).run_main()


# ======================================================================
# abort + blacklist protocol

class TestBlacklist:
    def test_unstable_branch_aborts_then_blacklists(self):
        from repro.bench.trace import ABORT_SOURCE
        interp, plain = assert_parity(ABORT_SOURCE,
                                      class_name="AbortStorm",
                                      max_steps=50_000_000)
        stats = interp.trace_stats()
        assert stats["entries"] > 0, "trace never entered"
        assert stats["blacklisted"] >= 1, \
            f"unstable loop was never blacklisted: {stats}"
        assert plain[1] is None

    def test_blacklist_stops_retrying(self):
        # after the blacklist, the header stops counting entirely: a
        # second run through the same manager compiles nothing new and
        # never re-enters the dead trace
        from repro.bench.trace import ABORT_SOURCE
        module = compile_source(ABORT_SOURCE)
        interp = TracingInterpreter(module, max_steps=50_000_000,
                                    threshold=THRESHOLD,
                                    trace_cache=TraceCache())
        first = interp.run_main("AbortStorm")
        stats = interp.trace_stats()
        assert stats["blacklisted"] >= 1
        second = interp.run_main("AbortStorm")
        again = interp.trace_stats()
        # the runtime's stdout accumulates across runs on one
        # interpreter; the second run must append the same line
        assert second.stdout == first.stdout * 2
        assert again["compiled"] == stats["compiled"]
        assert again["blacklisted"] == stats["blacklisted"]
        assert again["entries"] == stats["entries"], \
            "blacklisted header re-entered its trace"


# ======================================================================
# the trace cache: warm processes skip the count/record cycle

WARM_SOURCE = """
class Warm {
    static void main() {
        int s = 0;
        for (int i = 0; i < 400; i = i + 1) { s = s + i * 3; }
        System.out.println(s);
    }
}
"""


class TestTraceCache:
    def test_warm_load_preloads_traces(self):
        wire = encode_module(compile_source(WARM_SOURCE))
        cache = TraceCache()

        cold = TracingInterpreter(load_module(wire), threshold=THRESHOLD,
                                  trace_cache=cache)
        first = observe(cold, "Warm")
        cold_stats = cold.trace_stats()
        assert cold_stats["recordings_finished"] > 0
        assert cold_stats["entries"] > 0

        warm = TracingInterpreter(load_module(wire), threshold=THRESHOLD,
                                  trace_cache=cache)
        second = observe(warm, "Warm")
        warm_stats = warm.trace_stats()
        assert second == first
        assert warm_stats["preloaded"] > 0
        assert warm_stats["recordings_finished"] == 0, \
            "warm process re-recorded instead of preloading"
        assert warm_stats["entries"] > 0

    def test_blacklist_persists_as_negative_entry(self):
        from repro.bench.trace import ABORT_SOURCE
        wire = encode_module(compile_source(ABORT_SOURCE))
        cache = TraceCache()

        cold = TracingInterpreter(load_module(wire),
                                  max_steps=50_000_000,
                                  threshold=THRESHOLD,
                                  trace_cache=cache)
        first = observe(cold, "AbortStorm")
        assert cold.trace_stats()["blacklisted"] >= 1

        warm = TracingInterpreter(load_module(wire),
                                  max_steps=50_000_000,
                                  threshold=THRESHOLD,
                                  trace_cache=cache)
        second = observe(warm, "AbortStorm")
        warm_stats = warm.trace_stats()
        assert second == first
        # the persisted verdict skips the whole count/record/abort
        # cycle: the warm process never records and never aborts
        assert warm_stats["recordings_finished"] == 0
        assert warm_stats["recording_aborts"] == 0
        # ...and says so: a preloaded verdict is counted apart from
        # the verdicts this run made, so it cannot read as a loop
        # that was never reached
        assert cold.trace_stats()["preloaded_blacklisted"] == 0
        assert warm_stats["blacklisted"] == 0
        assert warm_stats["preloaded_blacklisted"] \
            == cold.trace_stats()["blacklisted"]

    def test_persisted_cache_round_trips_blacklist(self, tmp_path):
        wire = encode_module(compile_source(WARM_SOURCE))
        cache = TraceCache(cache_dir=str(tmp_path))
        cold = TracingInterpreter(load_module(wire), threshold=THRESHOLD,
                                  trace_cache=cache)
        first = observe(cold, "Warm")
        # a fresh cache object over the same directory: disk round trip
        reopened = TraceCache(cache_dir=str(tmp_path))
        warm = TracingInterpreter(load_module(wire), threshold=THRESHOLD,
                                  trace_cache=reopened)
        assert observe(warm, "Warm") == first
        assert warm.trace_stats()["preloaded"] > 0

    @pytest.mark.parametrize("damage", ["header", "path"])
    def test_negative_index_is_a_miss(self, tmp_path, damage):
        """A negative index would wrap onto a real block; the damaged
        entry must read as a miss, so the loop records as if cold."""
        wire = encode_module(compile_source(WARM_SOURCE))
        module = load_module(wire)
        cold = TracingInterpreter(module, threshold=THRESHOLD,
                                  trace_cache=TraceCache(str(tmp_path)))
        first = observe(cold, "Warm")
        main = next(function for function in module.functions.values()
                    if function.method.name == "main")
        count = len(main.reachable_blocks())
        (saved,) = tmp_path.glob("??/*.trace")
        version, line = saved.read_text().splitlines()
        name, header, joined = line.split("\t")
        if damage == "header":
            # the real header, wrapped; the empty path claims a blacklist
            line = f"{name}\t{int(header) - count}\t"
        else:
            head, *rest = joined.split(",")
            line = f"{name}\t{header}\t" + ",".join(
                [str(int(head) - count), *rest])
        saved.write_text(f"{version}\n{line}\n")
        warm = TracingInterpreter(load_module(wire), threshold=THRESHOLD,
                                  trace_cache=TraceCache(str(tmp_path)))
        assert observe(warm, "Warm") == first
        stats = warm.trace_stats()
        assert stats["preloaded"] == 0
        assert stats["recordings_finished"] > 0
        assert stats["entries"] > 0
        assert stats["preloaded_blacklisted"] == 0


# ======================================================================
# the wiring: serve endpoint and CLI flag

LOOP_SOURCE = """
class Hot {
    static void main() {
        int s = 0;
        for (int i = 0; i < 300; i = i + 1) { s = s + i; }
        System.out.println("s=" + s);
    }
}
"""


class TestWiring:
    def test_serve_run_with_trace(self, serve_client):
        entry = serve_client.publish("Hot", source=LOOP_SOURCE)
        plain = serve_client.run(digest=entry["digest"])
        traced = serve_client.run(digest=entry["digest"], trace=4)
        assert "trace" not in plain
        assert traced["stdout"] == plain["stdout"] == "s=44850\n"
        assert traced["steps"] == plain["steps"]
        assert traced["exception"] is None
        assert traced["trace"]["entries"] > 0

    def test_serve_rejects_bad_trace_value(self, serve_client):
        from repro.serve.errors import ServeError
        entry = serve_client.publish("Hot2", source=LOOP_SOURCE)
        with pytest.raises(ServeError) as excinfo:
            serve_client.run(digest=entry["digest"], trace="yes")
        assert excinfo.value.code == "SERVE-BAD-REQUEST"

    def test_cli_run_trace_flag(self, tmp_path, capsys):
        from repro.cli import main
        path = tmp_path / "Hot.java"
        path.write_text(LOOP_SOURCE)
        assert main(["run", str(path), "--trace=4"]) == 0
        assert capsys.readouterr().out == "s=44850\n"


# ======================================================================
# the campaign: traced vs untraced over generated programs

@pytest.mark.slow
class TestTracedDifferentialCampaign:
    def test_campaign_is_clean(self):
        """>=200 generated programs through the oracle matrix, whose
        trace lane compares traced vs untraced execution on stdout,
        trap identity, steps, and dynamic check counts."""
        from repro.fuzz.gen import generate_seeded
        from repro.fuzz.oracle import check_program

        failures = []
        for seed in range(200):
            program = generate_seeded(seed)
            result = check_program(program.source, program.main_class)
            if not result.ok:
                failures.append((seed, str(result.divergence)))
        assert not failures, failures[:5]
