"""E2 -- paper Figure 6: phi / null-check / array-check reductions.

The paper reports, from producer-side optimisation alone:

* null-checks: -13% .. -73% per class ("in most cases 30% fewer");
* array-checks: up to -38%, concentrated in array-heavy classes, N/A in
  most others;
* phi instructions: -9% .. -50% per class.
"""

from __future__ import annotations

from benchmarks.conftest import totals
from repro.api import compile_source
from repro.bench.corpus import corpus_source
from repro.bench.tables import figure6_table
from repro.driver import PassManager


def test_figure6_shape(corpus_rows):
    print()
    print(figure6_table(corpus_rows))
    total = totals(corpus_rows, "nullchecks_before", "nullchecks_after",
                   "idxchecks_before", "idxchecks_after",
                   "phis_before", "phis_after")
    null_reduction = 1 - total["nullchecks_after"] / total["nullchecks_before"]
    assert null_reduction > 0.25, \
        f"null-check reduction {null_reduction:.1%} below the paper's band"
    idx_reduction = 1 - total["idxchecks_after"] / total["idxchecks_before"]
    assert idx_reduction > 0.05, \
        f"array-check reduction {idx_reduction:.1%} out of shape"
    assert total["phis_after"] <= total["phis_before"]


def test_figure6_null_checks_drop_in_every_oo_class(corpus_rows):
    """Classes with enough field traffic all lose null checks."""
    for row in corpus_rows:
        if row.nullchecks_before >= 10:
            assert row.nullchecks_after < row.nullchecks_before, \
                row.class_name


def test_figure6_array_checks_drop_in_linpack(corpus_rows):
    """The paper highlights Linpack's array-check elimination (-19%)."""
    linpack = next(row for row in corpus_rows
                   if row.class_name == "Linpack")
    reduction = 1 - linpack.idxchecks_after / linpack.idxchecks_before
    assert reduction > 0.15, f"Linpack array checks only {reduction:.1%}"


def test_figure6_checks_never_increase(corpus_rows):
    for row in corpus_rows:
        assert row.nullchecks_after <= row.nullchecks_before, row.class_name
        assert row.idxchecks_after <= row.idxchecks_before, row.class_name


def test_optimizer_throughput_benchmark(benchmark):
    """Timing: the optimisation pipeline alone on BigInt."""
    source = corpus_source("BigInt")

    def run():
        module = compile_source(source)
        PassManager().run_module(module)
        return module

    module = benchmark(run)
    assert module.count_opcodes("nullcheck") > 0
