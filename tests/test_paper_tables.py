"""The shape of the paper's results (E1-E9), asserted over the same
measurements the bench runner renders (:mod:`repro.bench.metrics`).

The corpus-wide measurements are marked ``slow``; the runner prints the
tables themselves (``python -m repro.bench.runner all``).
"""

import random

import pytest

from repro.api import compile_source
from repro.bench import metrics
from repro.bench.corpus import corpus_source
from repro.driver import PassManager
from repro.encode.common import MAGIC
from repro.encode.deserializer import DecodeError, decode_module
from repro.interp.interpreter import Interpreter
from repro.interp.jit import JitCompiler


@pytest.fixture(scope="module")
def corpus_rows():
    return metrics.measure_corpus()


def _totals(rows, *keys):
    return {key: sum(getattr(row, key) for row in rows) for key in keys}


def _stdout(module, name):
    return Interpreter(module, max_steps=80_000_000).run_main(name).stdout


@pytest.mark.slow
class TestFigure5:
    """E1/E7: SafeTSA needs fewer instructions than Java bytecode (the
    paper's rows sit around 0.6-0.75x), optimisation removes >10% in
    most classes, and SafeTSA files are more compact than class
    files."""

    def test_shape(self, corpus_rows):
        total = _totals(corpus_rows, "bytecode_insns", "tsa_insns",
                        "tsa_opt_insns", "bytecode_size", "tsa_size",
                        "tsa_opt_size")
        ratio = total["tsa_insns"] / total["bytecode_insns"]
        assert 0.4 < ratio < 0.9, f"instruction ratio {ratio:.2f}"
        gain = 1 - total["tsa_opt_insns"] / total["tsa_insns"]
        assert gain > 0.05, f"optimisation gain {gain:.1%} too small"
        assert total["tsa_size"] < total["bytecode_size"]
        assert total["tsa_opt_size"] <= total["tsa_size"]

    def test_most_classes_need_fewer_instructions(self, corpus_rows):
        smaller = sum(1 for row in corpus_rows
                      if row.tsa_insns <= row.bytecode_insns)
        assert smaller >= 0.75 * len(corpus_rows)

    def test_optimized_never_larger(self, corpus_rows):
        for row in corpus_rows:
            assert row.tsa_opt_insns <= row.tsa_insns, row.class_name


@pytest.mark.slow
class TestFigure6:
    """E2: null checks fall in most classes ("in most cases 30% fewer"),
    array checks where arrays are hot, phis never grow."""

    def test_shape(self, corpus_rows):
        total = _totals(corpus_rows, "nullchecks_before",
                        "nullchecks_after", "idxchecks_before",
                        "idxchecks_after", "phis_before", "phis_after")
        null_cut = 1 - total["nullchecks_after"] / total["nullchecks_before"]
        assert null_cut > 0.25, f"null-check reduction {null_cut:.1%}"
        idx_cut = 1 - total["idxchecks_after"] / total["idxchecks_before"]
        assert idx_cut > 0.05, f"array-check reduction {idx_cut:.1%}"
        assert total["phis_after"] <= total["phis_before"]

    def test_null_checks_drop_in_every_oo_class(self, corpus_rows):
        for row in corpus_rows:
            if row.nullchecks_before >= 10:
                assert row.nullchecks_after < row.nullchecks_before, \
                    row.class_name

    def test_array_checks_drop_in_linpack(self, corpus_rows):
        linpack = next(row for row in corpus_rows
                       if row.class_name == "Linpack")
        cut = 1 - linpack.idxchecks_after / linpack.idxchecks_before
        assert cut > 0.15, f"Linpack array checks only {cut:.1%}"

    def test_checks_never_increase(self, corpus_rows):
        for row in corpus_rows:
            assert row.nullchecks_after <= row.nullchecks_before
            assert row.idxchecks_after <= row.idxchecks_before


class TestPruning:
    """E3: Briggs pruning removes phis and never adds them.  The
    magnitude is corpus-dependent (EXPERIMENTS.md)."""

    @pytest.mark.slow
    def test_shape(self):
        results = metrics.phi_pruning_counts()
        assert sum(pruned for _, _, pruned in results) \
            < sum(unpruned for _, unpruned, _ in results)
        assert all(pruned <= unpruned for _, unpruned, pruned in results)

    def test_strong_on_exception_heavy_code(self):
        """Dispatch-join phis for variables the handler never reads are
        the classic dead-phi population."""
        source = """
        class T {
            static int f(int[] data, int n) {
                int a = 0; int b = 1; int c = 2; int d = 3; int e = 4;
                try {
                    for (int i = 0; i < n; i++) {
                        a += data[i]; b *= 2; c ^= a; d += b; e -= c;
                    }
                } catch (ArrayIndexOutOfBoundsException oob) {
                    return -1;
                }
                return a;
            }
        }
        """
        before = compile_source(source, prune_phis=False) \
            .count_opcodes("phi")
        after = compile_source(source).count_opcodes("phi")
        assert 1 - after / before >= 0.30

    def test_preserves_semantics(self):
        for name in ("BitSieve", "Linpack"):
            source = corpus_source(name)
            assert _stdout(compile_source(source, prune_phis=False),
                           name) == _stdout(compile_source(source), name)


class TestAblation:
    """E4: CSE gives the majority of the optimisation win, constant
    propagation a small share (paper Section 8)."""

    @pytest.fixture(scope="class")
    def total(self):
        ablation = metrics.ablation_counts()
        return {label: sum(counts[label] for _, counts in ablation)
                for label in metrics.ABLATION_CONFIGS}

    @pytest.mark.slow
    def test_shape(self, total):
        for label in metrics.ABLATION_CONFIGS:
            assert total[label] <= total["none"], label
        gain = {label: total["none"] - total[label] for label in total}
        assert gain["cse"] > gain["constprop"]
        assert gain["cse"] > gain["dce"]
        assert total["all"] <= min(total["cse"], total["dce"],
                                   total["constprop"])

    @pytest.mark.slow
    def test_cse_share_in_paper_band(self, total):
        share = 1 - total["cse"] / total["none"]
        assert 0.03 < share < 0.30, f"CSE share {share:.1%}"

    @pytest.mark.slow
    def test_constprop_small(self, total):
        share = 1 - total["constprop"] / total["none"]
        assert 0.0 <= share < 0.10, f"constprop share {share:.1%}"

    def test_each_config_preserves_semantics(self):
        source = corpus_source("BigInt")
        expected = _stdout(compile_source(source), "BigInt")
        for label, passes in metrics.ABLATION_CONFIGS.items():
            module = compile_source(source)
            PassManager(passes).run_module(module)
            assert _stdout(module, "BigInt") == expected, label


@pytest.mark.slow
def test_tsa_verification_cheaper_than_jvm_dataflow():
    """E5: the SafeTSA check beats JVM dataflow verification."""
    rows = metrics.verify_costs(repeats=1)
    assert sum(row[1] for row in rows) < sum(row[2] for row in rows)


def test_magic_prefixed_garbage_rejected():
    """E6: a valid header does not smuggle random bytes through."""
    rng = random.Random(1234)
    for size in (1, 8, 64, 512):
        with pytest.raises(DecodeError):
            decode_module(MAGIC + rng.randbytes(size))


@pytest.mark.slow
class TestBitBreakdown:
    """E7: where the bits go (Section 8: "a substantial amount of each
    file consists of symbolic linking information and constants"), and
    the format comparison is no artifact of raw entropy."""

    @pytest.fixture(scope="class")
    def rows(self):
        return metrics.bit_breakdown()

    def test_linking_share_and_sections_cover_the_stream(self, rows):
        bits = sum(row["wire_bytes"] * 8 for row in rows)
        linking = sum(row["linking_bits"] for row in rows)
        assert 0.05 < linking / bits < 0.8
        for row in rows:
            accounted = (row["linking_bits"] + row["cst_bits"]
                         + row["code_bits"] + row["phi_bits"])
            assert abs(accounted - row["wire_bytes"] * 8) < 48, \
                row["program"]

    def test_wire_wins_under_zlib_too(self, rows):
        assert sum(row["wire_zlib"] for row in rows) \
            < sum(row["class_zlib"] for row in rows)

    def test_wire_smaller_than_classfiles(self, rows):
        for row in rows:
            assert row["wire_bytes"] < row["class_bytes"], row["program"]


@pytest.mark.slow
class TestExtensions:
    """E8: safe-phi transport and field-partitioned memory each never
    make the optimiser worse, and partitioning finds more common
    loads (the paper's expected direction)."""

    @pytest.fixture(scope="class")
    def totals(self):
        return metrics.extension_ablation()

    def test_each_extension_is_monotone(self, totals):
        for key in ("instructions", "nullchecks", "idxchecks", "loads"):
            assert totals["safephi"][key] <= totals["base"][key], key
            assert totals["fields"][key] <= totals["safephi"][key], key

    def test_field_analysis_removes_additional_loads(self, totals):
        assert totals["fields"]["loads"] < totals["safephi"]["loads"]


@pytest.mark.slow
def test_jit_beats_the_interpreter():
    """E9: SafeTSA arrives ready for code generation."""
    rows = metrics.jit_speeds(repeats=1)
    assert sum(row[3] for row in rows) < sum(row[1] for row in rows)


@pytest.mark.slow
def test_check_elimination_speeds_jit_execution():
    """Producer-side check elimination "eventually leads to faster
    execution": the removed checks are absent from the JIT's code."""
    source = corpus_source("Linpack")
    plain_s, optimized_s = (
        metrics.best_of(lambda module=module:
                        JitCompiler(module).run_main("Linpack"), 5)
        for module in (compile_source(source),
                       compile_source(source, optimize=True)))
    assert optimized_s < plain_s * 1.15
