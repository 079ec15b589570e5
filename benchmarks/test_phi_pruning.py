"""E3 -- Section 7's claim: Briggs-style liveness pruning removes
superfluous eagerly-inserted phi instructions (the paper: 31% on average
over their JDK corpus).

The magnitude is corpus-dependent -- dead merges come from exception
dispatch joins and variables that die before loop exits, which real
javac-era code has far more of than this corpus (see EXPERIMENTS.md).
The mechanism is asserted here: pruning removes phis, never adds them,
and try-heavy / array-heavy programs show clear reductions.
"""

from __future__ import annotations

import pytest

from repro.api import compile_source
from repro.bench.corpus import CORPUS_PROGRAMS, corpus_source
from repro.bench.tables import phi_pruning_table
from repro.ssa.phi_pruning import prune_dead_phis


def _phi_counts(name: str) -> tuple[int, int]:
    source = corpus_source(name)
    unpruned = compile_source(source, prune_phis=False)
    pruned = compile_source(source, prune_phis=True)
    return unpruned.count_opcodes("phi"), pruned.count_opcodes("phi")


def test_pruning_table_shape():
    results = []
    for name in CORPUS_PROGRAMS:
        unpruned, pruned = _phi_counts(name)
        results.append((name, unpruned, pruned))
    print()
    print(phi_pruning_table(results))
    total_unpruned = sum(r[1] for r in results)
    total_pruned = sum(r[2] for r in results)
    assert total_pruned < total_unpruned, "pruning removed nothing"
    assert all(p <= u for _, u, p in results)


def test_pruning_strong_on_exception_heavy_code():
    """Dispatch-join phis for variables the handlers never read are the
    classic dead-phi population; a try-heavy method shows the paper-sized
    effect."""
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
    unpruned = compile_source(source, prune_phis=False)
    pruned = compile_source(source, prune_phis=True)
    before = unpruned.count_opcodes("phi")
    after = pruned.count_opcodes("phi")
    reduction = 1 - after / before
    assert reduction >= 0.30, f"only {reduction:.1%} of phis pruned"


def test_pruning_preserves_semantics():
    from repro.interp.interpreter import Interpreter
    for name in ("BitSieve", "Linpack"):
        source = corpus_source(name)
        unpruned = Interpreter(compile_source(source, prune_phis=False),
                               max_steps=50_000_000).run_main(name)
        pruned = Interpreter(compile_source(source, prune_phis=True),
                             max_steps=50_000_000).run_main(name)
        assert unpruned.stdout == pruned.stdout


def test_pruning_throughput_benchmark(benchmark):
    source = corpus_source("Linpack")
    module = compile_source(source, prune_phis=False)

    def run():
        fresh = compile_source(source, prune_phis=False)
        return sum(prune_dead_phis(f) for f in fresh.functions.values())

    removed = benchmark(run)
    assert removed >= 0
