"""Generated code and block plans shared across runners.

The interpreter, the JIT and the trace tier build what a function
alone determines once and keep it on the ``Function``; every runner
runs the same block plans, JIT functions and traces, which take the
running runner as an argument.  These tests pin what must stay per
runner (runtime, statics, stdout, step budget, step-limit message),
that a second runner builds nothing, that concurrent runners building
the same function at once still agree with the serial interpreter, and
that the shared code is freed with its module.
"""

import gc
import os
import sys
import threading
import types
import weakref

import pytest

from repro.api import compile_source
from repro.cache import TraceCache
from repro.encode.serializer import encode_module
from repro.interp import jit as jit_module
from repro.interp.interpreter import (
    Interpreter,
    StepLimitExceeded,
    function_code,
)
from repro.interp.jit import JitCompiler, _jit_code
from repro.interp.trace import TracingInterpreter
from repro.loader.fused import load_module

THRESHOLD = 4


def loaded(source):
    """A freshly decoded module (with the wire digest traces key on)."""
    return load_module(encode_module(compile_source(source)),
                       cache=False)


def live_traces(interp):
    return [hs.trace for state in interp.traces._states.values()
            for hs in state.headers.values() if hs.trace is not None]


COUNTER_SOURCE = """
class Counter { static int n; }
class Main {
    static void bump() { Counter.n = Counter.n + 1; }
    static void main() {
        bump();
        System.out.println(Counter.n);
    }
}
"""


def test_jit_compilers_run_the_same_code_with_their_own_runtime():
    module = loaded(COUNTER_SOURCE)
    first, second = JitCompiler(module), JitCompiler(module)
    assert first.run_main("Main").stdout == "1\n"
    built = {function.name: function_code(function).jit
             for function in module.functions.values()}
    assert built["Main.main()"] and built["Main.bump()"]
    # a shared runtime would carry the static (and stdout) across
    assert second.run_main("Main").stdout == "1\n"
    assert first.run_main("Main").stdout == "1\n2\n"
    assert second.run_main("Main").stdout == "1\n2\n"
    assert first.runtime is not second.runtime
    assert first.runtime.statics == second.runtime.statics \
        == {("Counter", "n"): 2}
    # both ran the function objects the first run built
    assert {function.name: function_code(function).jit
            for function in module.functions.values()} == built


CALL_LOOP_SOURCE = """
class Main {
    static int step(int i) { return i + 1; }
    static void main() {
        int s = 0;
        for (int i = 0; i < 100000; i = i + 1) { s = s + Main.step(i); }
        System.out.println(s);
    }
}
"""


def test_runners_keep_their_own_step_budget_on_a_shared_trace():
    module = loaded(CALL_LOOP_SOURCE)
    cache = TraceCache()
    TracingInterpreter(module, threshold=THRESHOLD,
                       trace_cache=cache).run_main("Main")
    codes = set()
    for budget in (3_001, 5_002):
        untraced = Interpreter(module, max_steps=budget)
        with pytest.raises(StepLimitExceeded) as expected:
            untraced.run_main("Main")
        traced = TracingInterpreter(module, max_steps=budget,
                                    threshold=THRESHOLD, trace_cache=cache)
        with pytest.raises(StepLimitExceeded) as observed:
            traced.run_main("Main")
        # both budgets run out at a block top of main, inside the trace
        assert str(observed.value) == str(expected.value) \
            == f"exceeded {budget} steps in Main.main()"
        assert traced.steps == untraced.steps
        assert traced.check_counts == untraced.check_counts
        assert traced.trace_stats()["preloaded"] == 1
        (trace,) = live_traces(traced)
        assert trace.code.has_calls
        codes.add(trace.code.fn.__code__)
    assert len(codes) == 1, "each runner recompiled the cached trace"


def test_a_second_runner_translates_compiles_and_links_nothing(monkeypatch):
    module = loaded(CALL_LOOP_SOURCE)
    cache = TraceCache()
    compiled = []
    real = compile

    def counting(source, filename, *args):
        compiled.append(filename)
        return real(source, filename, *args)

    def runners():
        return (JitCompiler(module),
                TracingInterpreter(module, threshold=THRESHOLD,
                                   trace_cache=cache))

    monkeypatch.setattr(jit_module, "compile", counting, raising=False)
    first = runners()
    stdout = [runner.run_main("Main").stdout for runner in first]
    assert sorted(name.split(":")[0] for name in compiled) \
        == ["<jit", "<jit", "<trace"]
    compiled.clear()
    second = runners()
    assert [runner.run_main("Main").stdout for runner in second] == stdout
    assert compiled == []
    # with all four runners alive, each generated code object has one
    # function: no runner made its own copy
    codes = [code.jit.__code__ for code in
             map(function_code, module.functions.values()) if code.jit]
    codes.extend(trace.code.fn.__code__ for trace in live_traces(second[1]))
    assert len(codes) == 3
    for code in codes:
        assert len([ref for ref in gc.get_referrers(code)
                    if isinstance(ref, types.FunctionType)]) == 1


WORK_SOURCE = """
class Work {
    static int[] data;
    static int sq(int x) { return x * x; }
    static int fill(int n) {
        data = new int[n];
        for (int i = 0; i < n; i = i + 1) { data[i] = sq(i) % 97; }
        return n;
    }
    static int sum() {
        int s = 0;
        for (int i = 0; i < data.length; i = i + 1) { s = s + data[i]; }
        return s;
    }
    static void main() {
        int total = 0;
        for (int r = 0; r < 12; r = r + 1) {
            fill(150 + r);
            total = total + sum();
        }
        System.out.println("total=" + total);
    }
}
"""


def test_concurrent_runners_match_the_serial_interpreter():
    module = loaded(WORK_SOURCE)
    reference = Interpreter(module)
    result = reference.run_main("Work")
    expected = (result.stdout, reference.steps,
                dict(reference.check_counts))
    cache = TraceCache()
    workers = max(4, 2 * (os.cpu_count() or 1))
    barrier = threading.Barrier(workers)
    observed, errors = [], []

    def run(index):
        try:
            barrier.wait(timeout=30)
            for rep in range(3):
                if (index + rep) % 3 == 0:
                    jit = JitCompiler(module).run_main("Work")
                    observed.append(("jit", jit.stdout))
                    continue
                if (index + rep) % 3 == 1:
                    interp = TracingInterpreter(
                        module, threshold=THRESHOLD, trace_cache=cache)
                else:
                    interp = Interpreter(module)
                stdout = interp.run_main("Work").stdout
                observed.append(("interp", (stdout, interp.steps,
                                            dict(interp.check_counts))))
        except Exception as error:  # reported below, with its thread
            errors.append((index, error))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(i,))
                   for i in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    assert len(observed) == 3 * workers
    for kind, outcome in observed:
        if kind == "jit":
            assert outcome == expected[0]
        else:
            assert outcome == expected


def test_concurrent_first_runs_match_a_serial_run():
    """Two threads of fresh interpreters over one module that has never
    run race to build its plans, call sites and traces; every run still
    matches a serial run of an identical module."""
    reference = Interpreter(loaded(WORK_SOURCE))
    result = reference.run_main("Work")
    expected = (result.stdout, reference.steps,
                dict(reference.check_counts))
    module = loaded(WORK_SOURCE)
    cache = TraceCache()
    barrier = threading.Barrier(2)
    observed, errors = [], []

    def run(index):
        try:
            barrier.wait(timeout=30)
            for rep in range(4):
                interp = TracingInterpreter(
                    module, threshold=THRESHOLD, trace_cache=cache) \
                    if (index + rep) % 2 else Interpreter(module)
                stdout = interp.run_main("Work").stdout
                observed.append((stdout, interp.steps,
                                 dict(interp.check_counts)))
        except Exception as error:  # reported below, with its thread
            errors.append((index, error))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(i,))
                   for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    assert observed == [expected] * 8


def test_generated_code_is_freed_with_its_module():
    module = loaded(WORK_SOURCE)
    jit = JitCompiler(module)
    jit.run_main("Work")
    traced = TracingInterpreter(module, threshold=THRESHOLD,
                                trace_cache=TraceCache())
    traced.run_main("Work")
    refs = [weakref.ref(module)]
    refs.extend(weakref.ref(function)
                for function in module.functions.values())
    refs.extend(weakref.ref(_jit_code(function).__code__)
                for function in module.functions.values())
    refs.extend(weakref.ref(trace.code.fn.__code__)
                for trace in live_traces(traced))
    assert len(refs) > 1 + 2 * len(module.functions), "no trace was built"
    del module, jit, traced
    gc.collect()
    assert [ref for ref in refs if ref() is not None] == []
