"""SSA construction invariants: CFG canonicity, dominators, phi placement.

These are the structural guarantees everything else (layout, encoding,
verification) rests on, checked over hand-written programs and the whole
corpus.
"""

import pytest

from repro.api import compile_source
from repro.bench.corpus import CORPUS_PROGRAMS, corpus_source
from repro.ssa.cst import cst_blocks, derive_cfg
from repro.ssa.dominators import compute_dominators, compute_dominators_lt
from repro.ssa.ir import Phi
from repro.tsa.verifier import verify_module


def edges_of(function):
    return {block.id: ([(p.id, k) for p, k in block.preds],
                       [(s.id, k) for s, k in block.succs])
            for block in function.blocks}


def compile_fn(source: str, cls: str, name: str):
    module = compile_source(source)
    return module, module.function_named(cls, name)


class TestCfgCanonicity:
    @pytest.mark.parametrize("program", CORPUS_PROGRAMS)
    def test_derive_cfg_reproduces_construction(self, program):
        module = compile_source(corpus_source(program))
        for function in module.functions.values():
            before = edges_of(function)
            derive_cfg(function)
            assert edges_of(function) == before, function.name

    @pytest.mark.parametrize("program", CORPUS_PROGRAMS)
    def test_dominator_algorithms_agree(self, program):
        module = compile_source(corpus_source(program))
        for function in module.functions.values():
            chk = compute_dominators(function)
            lt = compute_dominators_lt(function)
            assert {b.id: (p.id if p else None)
                    for b, p in chk.idom.items()} == \
                   {b.id: (p.id if p else None)
                    for b, p in lt.idom.items()}, function.name

    @pytest.mark.parametrize("program", CORPUS_PROGRAMS)
    def test_all_modules_verify(self, program):
        source = corpus_source(program)
        verify_module(compile_source(source))
        verify_module(compile_source(source, optimize=True))
        verify_module(compile_source(source, prune_phis=False))

    def test_cst_owns_every_block(self):
        module = compile_source(corpus_source("Parser"))
        for function in module.functions.values():
            owned = {b.id for b in cst_blocks(function.cst)}
            assert owned == {b.id for b in function.blocks}, function.name


class TestPhiPlacement:
    def test_if_join_gets_phi(self):
        _, fn = compile_fn(
            "class T { static int f(boolean c) {"
            "int x = 1; if (c) x = 2; else x = 3; return x; } }",
            "T", "f")
        phis = [p for b in fn.blocks for p in b.phis]
        assert len(phis) == 1
        assert len(phis[0].operands) == 2

    def test_loop_header_gets_phi(self):
        _, fn = compile_fn(
            "class T { static int f(int n) {"
            "int s = 0; int i = 0;"
            "while (i < n) { s = s + i; i = i + 1; } return s; } }",
            "T", "f")
        header_phis = [p for b in fn.blocks for p in b.phis]
        merged_vars = {p.var.name for p in header_phis}
        assert {"s", "i"} <= merged_vars

    def test_unassigned_variable_needs_no_phi(self):
        _, fn = compile_fn(
            "class T { static int f(boolean c, int k) {"
            "int x = 1; if (c) x = 2; return x + k; } }",
            "T", "f")
        merged = {p.var.name for b in fn.blocks for p in b.phis
                  if p.var is not None}
        assert "k" not in merged

    def test_phi_operand_order_matches_preds(self):
        module = compile_source(corpus_source("BigInt"))
        for function in module.functions.values():
            for block in function.blocks:
                for phi in block.phis:
                    assert len(phi.operands) == len(block.preds), \
                        f"{function.name} B{block.id}"

    def test_exception_point_values_reach_dispatch(self):
        # x's value at the trap (idxcheck) is what the handler observes
        _, fn = compile_fn(
            "class T { static int f(int[] a) {"
            "int x = 1;"
            "try { x = 2; int v = a[100]; x = 3; }"
            "catch (ArrayIndexOutOfBoundsException e) { return x; }"
            "return -x; } }",
            "T", "f")
        dispatches = [b for b in fn.blocks
                      if b.preds and all(k == "exc" for _, k in b.preds)]
        assert dispatches, "no dispatch block found"

    def test_break_edges_join_loop_exit(self):
        _, fn = compile_fn(
            "class T { static int f(int n) {"
            "int x = 0;"
            "while (true) { x = x + 1; if (x > n) break;"
            "if (x > 100) break; } return x; } }",
            "T", "f")
        exits = [b for b in fn.blocks if len(b.preds) >= 2
                 and b.term is not None and b.term.kind == "return"]
        assert exits


class TestStructuralProperties:
    @pytest.mark.parametrize("program", CORPUS_PROGRAMS)
    def test_entry_dominates_everything(self, program):
        module = compile_source(corpus_source(program))
        for function in module.functions.values():
            domtree = compute_dominators(function)
            for block in domtree.preorder:
                assert domtree.dominates(function.entry, block)

    @pytest.mark.parametrize("program", CORPUS_PROGRAMS)
    def test_every_operand_dominates_use(self, program):
        module = compile_source(corpus_source(program))
        for function in module.functions.values():
            domtree = compute_dominators(function)
            position = {}
            for block in function.blocks:
                for index, instr in enumerate(block.all_instrs()):
                    position[instr.id] = (block, index)
            for block in domtree.preorder:
                for index, instr in enumerate(block.instrs):
                    for operand in instr.operands:
                        def_block, def_pos = position[operand.id]
                        if def_block is block:
                            assert def_pos < len(block.phis) + index
                        else:
                            assert domtree.dominates(def_block, block), \
                                (function.name, instr, operand)

    @pytest.mark.parametrize("program", CORPUS_PROGRAMS)
    def test_phis_strictly_type_separated(self, program):
        module = compile_source(corpus_source(program))
        for function in module.functions.values():
            for block in function.blocks:
                for phi in block.phis:
                    for operand in phi.operands:
                        assert operand.plane == phi.plane, function.name

    @pytest.mark.parametrize("program", CORPUS_PROGRAMS)
    def test_memory_ops_take_safe_operands(self, program):
        module = compile_source(corpus_source(program))
        for function in module.functions.values():
            for block in function.blocks:
                for instr in block.instrs:
                    if instr.opcode in ("getfield", "setfield"):
                        assert instr.operands[0].plane.kind == "safe"
                    if instr.opcode in ("getelt", "setelt"):
                        assert instr.operands[0].plane.kind == "safe"
                        assert instr.operands[1].plane.kind == "safeidx"

    @pytest.mark.parametrize("program", CORPUS_PROGRAMS)
    def test_constants_preloaded_in_entry(self, program):
        module = compile_source(corpus_source(program))
        for function in module.functions.values():
            for block in function.blocks:
                for instr in block.instrs:
                    if instr.opcode in ("const", "param"):
                        assert block is function.entry, function.name

    def test_trapping_instructions_end_subblocks_in_try(self):
        module = compile_source(corpus_source("BinaryCode"))
        from repro.ssa.cst import map_exception_contexts
        for function in module.functions.values():
            contexts = map_exception_contexts(function.cst)
            for block in function.blocks:
                if contexts.get(block.id) is None:
                    continue
                for index, instr in enumerate(block.instrs):
                    if instr.traps:
                        assert index == len(block.instrs) - 1, \
                            f"{function.name} B{block.id}"
