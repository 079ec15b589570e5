"""Extension ablations: the paper's proposed improvements, measured.

Section 8 closes with "we can identify much scope for improvement ...
the integration of alias information into the memory handling ...
partitioning Mem by field name"; Section 4 highlights the transport of
checked values across phi-joins.  Both are implemented; this bench
quantifies what they add on top of the paper's base optimiser.
"""

from __future__ import annotations

import pytest

from repro.api import compile_source
from repro.bench.corpus import CORPUS_PROGRAMS, corpus_source
from repro.driver import PassManager
from repro.tsa.verifier import verify_module

BASE = ["constprop", "cse", "dce"]
WITH_SAFEPHI = ["constprop", "safephi", "cse", "dce"]
WITH_FIELDS = ["constprop", "safephi", "cse_fields", "dce"]


def _measure(passes):
    out = {}
    for name in CORPUS_PROGRAMS:
        module = compile_source(corpus_source(name))
        PassManager(passes).run_module(module)
        verify_module(module)
        out[name] = {
            "instructions": module.instruction_count(),
            "nullchecks": module.count_opcodes("nullcheck"),
            "idxchecks": module.count_opcodes("idxcheck"),
            "loads": module.count_opcodes("getfield", "getelt",
                                          "getstatic"),
        }
    return out


@pytest.fixture(scope="module")
def results():
    return {
        "base": _measure(BASE),
        "safephi": _measure(WITH_SAFEPHI),
        "fields": _measure(WITH_FIELDS),
    }


def _total(results, config, key):
    return sum(row[key] for row in results[config].values())


def test_extension_ablation_table(results):
    print()
    print(f"{'config':10} {'instructions':>13} {'nullchecks':>11} "
          f"{'idxchecks':>10} {'memory loads':>13}")
    for config in ("base", "safephi", "fields"):
        print(f"{config:10} {_total(results, config, 'instructions'):13} "
              f"{_total(results, config, 'nullchecks'):11} "
              f"{_total(results, config, 'idxchecks'):10} "
              f"{_total(results, config, 'loads'):13}")
    # each extension is monotone: never worse than the previous stage
    for key in ("instructions", "nullchecks", "idxchecks", "loads"):
        assert _total(results, "safephi", key) \
            <= _total(results, "base", key), key
        assert _total(results, "fields", key) \
            <= _total(results, "safephi", key), key


def test_field_analysis_removes_additional_loads(results):
    """The paper's expected direction: alias partitioning finds more
    common subexpressions."""
    assert _total(results, "fields", "loads") \
        < _total(results, "safephi", "loads")


def test_extended_pipeline_preserves_semantics():
    from repro.interp.interpreter import Interpreter
    for name in ("BigInt", "BinaryCode"):
        source = corpus_source(name)
        expected = Interpreter(compile_source(source),
                               max_steps=80_000_000).run_main(name)
        module = compile_source(source)
        PassManager(WITH_FIELDS).run_module(module)
        actual = Interpreter(module, max_steps=80_000_000).run_main(name)
        assert actual.stdout == expected.stdout, name


def test_safephi_pass_benchmark(benchmark):
    from repro.opt.safephi import run_safe_phi_propagation
    source = corpus_source("Environment")

    def run():
        module = compile_source(source)
        return sum(run_safe_phi_propagation(f)
                   for f in module.functions.values())

    benchmark(run)


def test_partitioned_memdep_benchmark(benchmark):
    from repro.opt.memdep import MemDep
    source = corpus_source("BigInt")
    module = compile_source(source)

    def run():
        return [MemDep(f, partitioned=True)
                for f in module.functions.values()]

    benchmark(run)
