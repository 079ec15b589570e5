"""E1 / E7 -- paper Figure 5: SafeTSA class files vs Java class files.

Regenerates the size and instruction-count table and asserts the shape
the paper reports:

* SafeTSA needs fewer instructions than Java bytecode (their table rows
  sit around 0.6-0.75x);
* producer-side optimisation removes >10% of SafeTSA instructions in
  most classes;
* SafeTSA files are no more voluminous than class files (abstract:
  "despite these advantages, SafeTSA is more compact than Java
  bytecode").
"""

from __future__ import annotations

from benchmarks.conftest import totals
from repro.api import compile_source
from repro.bench.corpus import corpus_source
from repro.bench.tables import figure5_table


def test_figure5_shape(corpus_rows):
    print()
    print(figure5_table(corpus_rows))
    total = totals(corpus_rows, "bytecode_insns", "tsa_insns",
                   "tsa_opt_insns", "bytecode_size", "tsa_size",
                   "tsa_opt_size")
    # fewer instructions than bytecode overall
    assert total["tsa_insns"] < total["bytecode_insns"]
    ratio = total["tsa_insns"] / total["bytecode_insns"]
    assert 0.4 < ratio < 0.9, f"instruction ratio {ratio:.2f} out of shape"
    # optimisation wins >5% overall (paper: >10% in most cases)
    gain = 1 - total["tsa_opt_insns"] / total["tsa_insns"]
    assert gain > 0.05, f"optimisation gain {gain:.1%} too small"
    # SafeTSA files are smaller than class files
    assert total["tsa_size"] < total["bytecode_size"]
    assert total["tsa_opt_size"] <= total["tsa_size"]


def test_figure5_per_class_instruction_ratio(corpus_rows):
    """Most classes individually need fewer SafeTSA instructions."""
    smaller = sum(1 for row in corpus_rows
                  if row.tsa_insns <= row.bytecode_insns)
    assert smaller >= 0.75 * len(corpus_rows)


def test_figure5_optimized_never_larger(corpus_rows):
    for row in corpus_rows:
        assert row.tsa_opt_insns <= row.tsa_insns, row.class_name


def test_compile_throughput_benchmark(benchmark):
    """Timing: full producer pipeline on the largest corpus program."""
    source = corpus_source("Linpack")
    module = benchmark(lambda: compile_source(source, optimize=True))
    assert module.instruction_count() > 0
