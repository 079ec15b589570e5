"""Dominator computation and (l, r) layout on hand-built CFGs."""

import pytest
from dominators_reference import compute_dominators_lt

from repro.ssa.cst import (
    CstError,
    RBasic,
    RDoWhile,
    RIf,
    RLabeled,
    RLoop,
    RSeq,
    RTry,
    RWhile,
    derive_cfg,
)
from repro.ssa.dominators import compute_dominators
from repro.ssa.ir import Const, Function, Phi, Plane, Prim, Term
from repro.tsa.layout import FunctionLayout, LayoutError
from repro.typesys.ops import lookup_op
from repro.typesys.types import BOOLEAN, INT
from repro.typesys.world import ClassInfo, MethodInfo, World


def make_function(return_type=INT):
    world = World()
    info = world.require("java.lang.Object")
    method = MethodInfo("t", [], return_type, is_static=True)
    method.declaring = info
    return Function(method, info)


def diamond():
    """entry -> (a | b) -> join"""
    fn = make_function()
    entry = fn.new_block()
    fn.entry = entry
    cond = Const(BOOLEAN, True)
    entry.append(cond)
    seed = Const(INT, 1)
    entry.append(seed)
    entry.term = Term("branch", cond)
    a = fn.new_block()
    va = Prim(lookup_op(INT, "neg"), [seed])
    a.append(va)
    a.term = Term("fall")
    b = fn.new_block()
    vb = Prim(lookup_op(INT, "compl"), [seed])
    b.append(vb)
    b.term = Term("fall")
    join = fn.new_block()
    phi = Phi(Plane.of_type(INT))
    phi.add_operand(va)
    phi.add_operand(vb)
    join.append(phi)
    join.term = Term("return", phi)
    fn.cst = RSeq([RIf(entry, RBasic(a), RBasic(b)), RBasic(join)])
    derive_cfg(fn)
    return fn, entry, a, b, join, seed, va, vb, phi


class TestDominators:
    def test_diamond_idoms(self):
        fn, entry, a, b, join, *_ = diamond()
        tree = compute_dominators(fn)
        assert tree.idom[a] is entry
        assert tree.idom[b] is entry
        assert tree.idom[join] is entry  # not a or b

    def test_dominates_is_reflexive_and_transitive(self):
        fn, entry, a, b, join, *_ = diamond()
        tree = compute_dominators(fn)
        assert tree.dominates(entry, entry)
        assert tree.dominates(entry, join)
        assert not tree.dominates(a, join)
        assert not tree.dominates(a, b)

    def test_level_of(self):
        fn, entry, a, b, join, *_ = diamond()
        tree = compute_dominators(fn)
        assert tree.level_of(a, a) == 0
        assert tree.level_of(a, entry) == 1
        with pytest.raises(ValueError):
            tree.level_of(join, a)

    def test_loop_header_dominates_body_and_exit(self):
        fn = make_function()
        entry = fn.new_block()
        fn.entry = entry
        cond = Const(BOOLEAN, True)
        entry.append(cond)
        seed = Const(INT, 3)
        entry.append(seed)
        entry.term = Term("fall")
        header = fn.new_block()
        header.term = Term("branch", cond)
        body = fn.new_block()
        body.term = Term("fall")
        tail = fn.new_block()
        tail.term = Term("return", seed)
        fn.cst = RSeq([RBasic(entry), RWhile(header, RBasic(body)),
                       RBasic(tail)])
        derive_cfg(fn)
        tree = compute_dominators(fn)
        assert tree.idom[body] is header
        assert tree.idom[tail] is header
        # back edge exists
        assert any(p is body for p, _ in header.preds)

    def test_algorithms_agree_on_irregular_shapes(self):
        # loop with two breaks and a labeled region
        fn = make_function()
        entry = fn.new_block()
        fn.entry = entry
        cond = Const(BOOLEAN, True)
        entry.append(cond)
        value = Const(INT, 0)
        entry.append(value)
        entry.term = Term("fall")
        b1 = fn.new_block()
        b1.term = Term("branch", cond)
        b2 = fn.new_block()
        b2.term = Term("break", None, 0)
        b3 = fn.new_block()
        b3.term = Term("continue", None, 0)
        tail = fn.new_block()
        tail.term = Term("return", value)
        fn.cst = RSeq([
            RBasic(entry),
            RLoop(RSeq([RIf(b1, RBasic(b2), RBasic(b3))])),
            RBasic(tail)])
        derive_cfg(fn)
        chk = compute_dominators(fn)
        lt = compute_dominators_lt(fn)
        assert {b.id: (p.id if p else None) for b, p in chk.idom.items()} \
            == {b.id: (p.id if p else None) for b, p in lt.idom.items()}


class TestDerivation:
    def test_break_depth_out_of_range_rejected(self):
        fn = make_function()
        entry = fn.new_block()
        fn.entry = entry
        entry.term = Term("break", None, 0)
        fn.cst = RSeq([RBasic(entry)])
        with pytest.raises(CstError, match="break"):
            derive_cfg(fn)

    def test_dangling_fall_rejected(self):
        fn = make_function()
        entry = fn.new_block()
        fn.entry = entry
        entry.term = Term("fall")
        fn.cst = RSeq([RBasic(entry)])
        with pytest.raises(CstError, match="falls off"):
            derive_cfg(fn)

    def test_if_without_branch_terminator_rejected(self):
        fn = make_function()
        entry = fn.new_block()
        fn.entry = entry
        entry.term = Term("fall")  # should be branch
        a = fn.new_block()
        a.term = Term("return", None)
        b = fn.new_block()
        b.term = Term("return", None)
        fn.cst = RSeq([RIf(entry, RBasic(a), RBasic(b))])
        with pytest.raises(CstError, match="branch"):
            derive_cfg(fn)

    def test_exception_edge_outside_try_rejected(self):
        fn = make_function()
        entry = fn.new_block()
        fn.entry = entry
        entry.term = Term("return", None)
        fn.cst = RSeq([RBasic(entry, exc=True)])
        with pytest.raises(CstError, match="exception edge"):
            derive_cfg(fn)


class TestLayout:
    def test_register_numbers_fill_in_order(self):
        fn, entry, a, b, join, seed, va, vb, phi = diamond()
        layout = FunctionLayout(fn)
        # entry: boolean plane reg0 = cond; int plane reg0 = seed
        assert layout.position[seed.id][2] == 0
        assert layout.position[va.id][2] == 0  # first int in block a
        assert layout.position[phi.id][2] == 0

    def test_ref_levels(self):
        fn, entry, a, b, join, seed, va, vb, phi = diamond()
        layout = FunctionLayout(fn)
        assert layout.ref_of(a, seed) == (1, 0)       # one level up
        assert layout.ref_of(a, va) == (0, 0)         # same block
        assert layout.ref_of(join, seed) == (1, 0)    # idom(join) = entry

    def test_phi_ref_relative_to_pred(self):
        fn, entry, a, b, join, seed, va, vb, phi = diamond()
        layout = FunctionLayout(fn)
        assert layout.phi_ref(a, va) == (0, 0)
        assert layout.phi_ref(b, vb) == (0, 0)
        assert layout.phi_ref(b, seed) == (1, 0)

    def test_cross_branch_reference_unrepresentable(self):
        fn, entry, a, b, join, seed, va, vb, phi = diamond()
        layout = FunctionLayout(fn)
        with pytest.raises(LayoutError):
            layout.ref_of(b, va)
        with pytest.raises(LayoutError):
            layout.ref_of(join, vb)

    def test_flat_index_round_trip_with_partial_block(self):
        fn, entry, a, b, join, seed, va, vb, phi = diamond()
        layout = FunctionLayout(fn)
        plane = Plane.of_type(INT)
        # from block a with 1 int already defined: alphabet = 1 + entry's 1
        assert layout.alphabet_size(a, plane, 1) == 2
        flat = layout.flat_index(a, va, 1)
        assert layout.resolve_flat(a, plane, 1, flat) is va
        flat_seed = layout.flat_index(a, seed, 1)
        assert layout.resolve_flat(a, plane, 1, flat_seed) is seed
        assert flat != flat_seed

    def test_preorder_starts_at_entry(self):
        fn, entry, *_ = diamond()
        layout = FunctionLayout(fn)
        assert layout.order[0] is entry
        assert set(b.id for b in layout.order) == \
            {b.id for b in fn.blocks}
