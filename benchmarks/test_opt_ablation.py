"""E4 -- Section 8's decomposition of the optimisation win.

The paper: constant propagation contributes ~1-2% of program size, dead
code elimination 3-7% of instructions (mostly phis), and the majority --
5-14% -- comes from common subexpression elimination.
"""

from __future__ import annotations

import pytest

from repro.api import compile_source
from repro.bench.corpus import CORPUS_PROGRAMS, corpus_source
from repro.bench.tables import ablation_table
from repro.driver import PassManager

CONFIGS = {
    "none": [],
    "constprop": ["constprop"],
    "cse": ["cse"],
    "dce": ["dce"],
    "all": ["constprop", "cse", "dce"],
}


def _counts_for(source: str) -> dict[str, int]:
    counts = {}
    for label, passes in CONFIGS.items():
        module = compile_source(source, prune_phis=False)
        if passes:
            PassManager(passes).run_module(module)
        counts[label] = module.instruction_count()
    return counts


@pytest.fixture(scope="module")
def ablation():
    return [(name, _counts_for(corpus_source(name)))
            for name in CORPUS_PROGRAMS]


def test_ablation_table(ablation):
    print()
    print(ablation_table(ablation))
    total = {label: sum(counts[label] for _, counts in ablation)
             for label in CONFIGS}
    # every configuration is sound: never larger than the baseline
    for label in CONFIGS:
        assert total[label] <= total["none"], label
    # CSE provides the majority of the reduction (paper Section 8)
    cse_gain = total["none"] - total["cse"]
    constprop_gain = total["none"] - total["constprop"]
    dce_gain = total["none"] - total["dce"]
    assert cse_gain > constprop_gain, "CSE should beat constant propagation"
    assert cse_gain > dce_gain, "CSE should dominate the reduction"
    # the combination beats each individual pass
    assert total["all"] <= min(total["cse"], total["dce"],
                               total["constprop"])


def test_cse_gain_in_paper_band(ablation):
    """CSE alone removes a paper-like share of the instructions."""
    total_none = sum(counts["none"] for _, counts in ablation)
    total_cse = sum(counts["cse"] for _, counts in ablation)
    share = 1 - total_cse / total_none
    assert 0.03 < share < 0.30, f"CSE share {share:.1%} out of band"


def test_constprop_small_but_nonzero(ablation):
    total_none = sum(counts["none"] for _, counts in ablation)
    total_cp = sum(counts["constprop"] for _, counts in ablation)
    share = 1 - total_cp / total_none
    assert 0.0 <= share < 0.10, f"constprop share {share:.1%} out of band"


def test_each_config_preserves_semantics():
    from repro.interp.interpreter import Interpreter
    source = corpus_source("BigInt")
    expected = Interpreter(compile_source(source),
                           max_steps=50_000_000).run_main("BigInt").stdout
    for label, passes in CONFIGS.items():
        module = compile_source(source)
        if passes:
            PassManager(passes).run_module(module)
        result = Interpreter(module, max_steps=50_000_000).run_main("BigInt")
        assert result.stdout == expected, f"{label} changed behaviour"


def test_cse_pass_benchmark(benchmark):
    from repro.opt.cse import run_cse
    source = corpus_source("Linpack")

    def run():
        module = compile_source(source)
        return sum(run_cse(f).eliminated
                   for f in module.functions.values())

    eliminated = benchmark(run)
    assert eliminated > 0
