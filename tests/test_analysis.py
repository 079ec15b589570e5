"""Tests for the analysis layer: the dataflow solver, the nullness and
range analyses, the observability closure, the lint driver with its structured
diagnostics, and the per-pass invariant checking in the pipeline."""

import dataclasses
import json
from pathlib import Path

import pytest
from hypothesis import given, settings

from repro.analysis.dataflow import solve
from repro.analysis.diagnostics import (
    DIAGNOSTIC_CODES,
    Diagnostic,
    Severity,
    count_by_severity,
    has_errors,
    sort_diagnostics,
)
from repro.analysis.lint import (
    LINT_RULES,
    lint_function,
    lint_module,
    lint_report,
)
from repro.analysis.nullness import analyze_nullness, is_intrinsically_nonnull
from repro.analysis.range import INT_MAX, INT_MIN, analyze_ranges
from repro.api import compile_source
from repro.bench.corpus import CORPUS_PROGRAMS, corpus_source
from repro.driver import (
    ALL_PASSES,
    PASSES,
    AnalysisManager,
    PassCheckError,
    PassManager,
)
from repro.opt.dce import observable_values
from repro.ssa import ir
from repro.ssa.cst import RBasic, RSeq, derive_cfg
from repro.ssa.ir import Const, Function, Module, Prim, Term
from repro.tsa.verifier import (
    VerifyError,
    collect_diagnostics,
    verify_function,
    verify_module,
)
from repro.typesys.ops import lookup_op
from repro.typesys.table import TypeTable
from repro.typesys.types import INT, ArrayType
from repro.typesys.world import ClassInfo, FieldInfo, MethodInfo, World

from repro.fuzz.gen import program_strategy


def program():
    """Source-text strategy over the shared fuzz grammar."""
    return program_strategy().map(lambda generated: generated.source)


# ---------------------------------------------------------------------------
# hand-construction helpers (same idiom as tests/test_verifier.py)
# ---------------------------------------------------------------------------

@pytest.fixture
def env():
    world = World()
    point = ClassInfo("Point", "java.lang.Object")
    point.add_field(FieldInfo("x", INT))
    world.define_class(point)
    world.link()
    table = TypeTable(world)
    table.declare_class(point)
    table.intern(ArrayType(INT))
    module = Module(world, table)
    module.classes.append(point)
    return world, table, module, point


def single_block_function(point, name="f", return_type=INT):
    method = MethodInfo(name, [], return_type, is_static=True)
    point.add_method(method)
    function = Function(method, point)
    entry = function.new_block()
    function.entry = entry
    return function, entry


def finish(function, entry, term):
    entry.term = term
    function.cst = RSeq([RBasic(entry)])
    derive_cfg(function)
    return function


def fn_of(source, class_name, method, optimize=False):
    module = compile_source(source, optimize=optimize)
    return module, module.function_named(class_name, method)


def instrs_of(function, kind):
    return [i for b in function.reachable_blocks() for i in b.instrs
            if isinstance(i, kind)]


# ---------------------------------------------------------------------------
# diagnostics infrastructure
# ---------------------------------------------------------------------------

class TestDiagnostics:
    def test_code_table_conventions(self):
        for code, (severity, description) in DIAGNOSTIC_CODES.items():
            assert code.startswith("STSA-")
            family, number = code[5:].rsplit("-", 1)
            assert family.isalpha() and family.isupper()
            assert len(number) == 3 and number.isdigit()
            assert severity in Severity.ORDER
            assert description
            # 0nn codes are rejections, 1nn codes are lint findings
            if number.startswith("0"):
                assert severity == Severity.ERROR, code
            else:
                assert severity != Severity.ERROR, code

    def test_code_table_matches_docs(self):
        docs = Path(__file__).resolve().parent.parent \
            / "docs" / "ANALYSIS.md"
        text = docs.read_text()
        for code in DIAGNOSTIC_CODES:
            assert code in text, f"{code} missing from docs/ANALYSIS.md"

    def test_severity_defaults_from_table(self):
        assert Diagnostic("STSA-CFG-101", "m").severity == Severity.WARNING
        assert Diagnostic("STSA-NULL-101", "m").severity == Severity.INFO
        assert Diagnostic("STSA-REF-001", "m").severity == Severity.ERROR
        # unknown codes default to error rather than hiding a failure
        assert Diagnostic("STSA-ZZZ-999", "m").severity == Severity.ERROR

    def test_as_dict_key_order_is_stable(self):
        d = Diagnostic("STSA-REF-001", "boom", function="C.m",
                       block=3, instr=7)
        assert list(d.as_dict()) == ["code", "severity", "function",
                                     "block", "instr", "message"]
        assert d.location() == "C.m:B3:v7"
        assert str(d) == "STSA-REF-001 error C.m:B3:v7: boom"

    def test_sort_orders_by_severity_then_location(self):
        info = Diagnostic("STSA-NULL-101", "m", function="a", block=0)
        warn = Diagnostic("STSA-CFG-101", "m", function="z", block=9)
        error = Diagnostic("STSA-REF-003", "m", function="m", block=5)
        assert sort_diagnostics([info, warn, error]) == [error, warn, info]
        counts = count_by_severity([info, warn, error])
        assert counts == {"error": 1, "warning": 1, "info": 1}
        assert has_errors([info, warn, error])
        assert not has_errors([info, warn])

    def test_verify_error_carries_location(self, env):
        world, table, module, point = env
        function, entry = single_block_function(point)
        late = Const(INT, 5)
        neg = Prim(lookup_op(INT, "neg"), [late])
        entry.append(neg)
        entry.append(late)  # defined after its use
        finish(function, entry, Term("return", neg))
        with pytest.raises(VerifyError) as excinfo:
            verify_function(module, function)
        error = excinfo.value
        assert error.code == "STSA-REF-001"
        assert error.function == function.name
        assert error.block == entry.id
        assert error.instr == neg.id
        assert "[STSA-REF-001]" in str(error)
        assert error.diagnostic.as_dict()["severity"] == "error"


# ---------------------------------------------------------------------------
# the generic worklist solver
# ---------------------------------------------------------------------------

DIAMOND = """
class D {
  static int go(boolean c) {
    int r = 1;
    if (c) { r = 2; } else { r = 3; }
    return r;
  }
}
"""


class _DefsSeen:
    """Toy forward may-analysis: ids of instructions seen on some path."""

    def boundary(self, function):
        return frozenset()

    def join(self, a, b):
        return a | b

    def transfer(self, block, fact):
        return fact | {i.id for i in block.instrs}


class TestDataflowSolver:
    def test_forward_reaches_fixpoint_on_diamond(self):
        module, fn = fn_of(DIAMOND, "D", "go")
        result = solve(fn, _DefsSeen())
        blocks = list(fn.reachable_blocks())
        exit_block = blocks[-1]
        # everything defined anywhere reaches the join's exit
        all_ids = {i.id for b in blocks for i in b.instrs}
        assert all_ids <= result.exit[exit_block.id]
        # the entry's in-fact is the boundary
        assert result.entry[fn.entry.id] == frozenset()

    def test_loop_terminates_with_widening(self):
        # an unbounded counter forces interval widening to INT_MAX
        module, fn = fn_of(
            "class W { static int go(int n) { int i = 0;"
            " while (i < n) { i = i + 1; } return i; } }", "W", "go")
        facts = analyze_ranges(fn)  # must terminate
        phis = [p for b in fn.reachable_blocks() for p in b.phis]
        assert phis
        for b in fn.reachable_blocks():
            fact = facts.fact_at_entry(b)
            for vid, (lo, hi) in fact.ranges.items():
                assert INT_MIN <= lo <= hi <= INT_MAX


# ---------------------------------------------------------------------------
# nullness analysis
# ---------------------------------------------------------------------------

NULL_DIAMOND = """
class P {
  int f;
  static int go(P p, boolean c) {
    int r = 0;
    if (c) { r = p.f; } else { r = p.f + 1; }
    return r + p.f;
  }
}
"""


class TestNullness:
    def test_diamond_post_join_check_is_redundant(self):
        module, fn = fn_of(NULL_DIAMOND, "P", "go")
        facts = analyze_nullness(fn)
        checks = instrs_of(fn, ir.NullCheck)
        assert len(checks) == 3
        redundant = [c for c in checks
                     if facts.is_nonnull_before(c.operands[0], c)]
        # the check after the join is dominated by a check in *each* arm
        assert len(redundant) == 1

    def test_cse_alone_does_not_remove_the_flagged_check(self):
        """Acceptance criterion: lint flags a NullCheck on the
        unoptimized module that CSE cannot eliminate (neither arm's
        check dominates the post-join use)."""
        module, fn = fn_of(NULL_DIAMOND, "P", "go")
        flagged = {d.instr for d in lint_function(module, fn)
                   if d.code == "STSA-NULL-101"}
        assert flagged
        PassManager(["cse"], check_after_each_pass=True).run_function(
            fn, module)
        surviving = {c.id for c in instrs_of(fn, ir.NullCheck)}
        assert flagged <= surviving

    def test_branch_refinement_on_null_comparison(self):
        module, fn = fn_of(
            "class N { int f; static int go(N p) { int r = 0;"
            " if (p != null) { r = p.f; } return r; } }", "N", "go")
        facts = analyze_nullness(fn)
        (check,) = instrs_of(fn, ir.NullCheck)
        assert facts.is_nonnull_before(check.operands[0], check)

    def test_equality_false_arm_refines(self):
        module, fn = fn_of(
            "class N { int f; static int go(N p) { int r = 0;"
            " if (p == null) { r = 1; } else { r = p.f; }"
            " return r; } }", "N", "go")
        facts = analyze_nullness(fn)
        (check,) = instrs_of(fn, ir.NullCheck)
        assert facts.is_nonnull_before(check.operands[0], check)

    def test_unguarded_parameter_is_not_refined(self):
        module, fn = fn_of(
            "class N { int f; static int go(N p) { return p.f; } }",
            "N", "go")
        facts = analyze_nullness(fn)
        (check,) = instrs_of(fn, ir.NullCheck)
        assert not facts.is_nonnull_before(check.operands[0], check)

    def test_new_is_intrinsically_nonnull(self):
        module, fn = fn_of(
            "class N { int f; static int go() { N p = new N();"
            " return p.f; } }", "N", "go")
        (new,) = instrs_of(fn, ir.New)
        assert is_intrinsically_nonnull(new)
        # ...so the nullcheck CSE would remove anyway is also flagged
        facts = analyze_nullness(fn)
        (check,) = instrs_of(fn, ir.NullCheck)
        assert facts.is_nonnull_before(check.operands[0], check)

    def test_facts_do_not_leak_into_exception_handler(self):
        module, fn = fn_of(
            "class N { int f; static int go(N p) { int r = 0;"
            " try { r = p.f; } catch (RuntimeException e) { r = p.f; }"
            " return r; } }", "N", "go")
        facts = analyze_nullness(fn)
        checks = instrs_of(fn, ir.NullCheck)
        assert len(checks) == 2
        # the handler's own check re-tests p: the try's check may have
        # been the very instruction that trapped
        handler_check = checks[1]
        assert not facts.is_nonnull_before(handler_check.operands[0],
                                           handler_check)


# ---------------------------------------------------------------------------
# range analysis
# ---------------------------------------------------------------------------

class TestRange:
    def test_const_index_under_const_length(self):
        module, fn = fn_of(
            "class A { static int go() { int[] a = new int[10];"
            " return a[3]; } }", "A", "go")
        facts = analyze_ranges(fn)
        checks = instrs_of(fn, ir.IdxCheck)
        assert checks
        assert all(facts.idxcheck_redundant(c) for c in checks)

    def test_symbolic_guard_against_length(self):
        module, fn = fn_of(
            "class A { static int go(int[] a, int i) { int r = 0;"
            " if (0 <= i) { if (i < a.length) { r = a[i]; } }"
            " return r; } }", "A", "go")
        facts = analyze_ranges(fn)
        (check,) = instrs_of(fn, ir.IdxCheck)
        assert facts.idxcheck_redundant(check)

    def test_unguarded_index_is_not_redundant(self):
        module, fn = fn_of(
            "class A { static int go(int[] a, int i) {"
            " return a[i]; } }", "A", "go")
        facts = analyze_ranges(fn)
        (check,) = instrs_of(fn, ir.IdxCheck)
        assert not facts.idxcheck_redundant(check)

    def test_half_guarded_index_is_not_redundant(self):
        # only the upper bound is established; i could still be negative
        module, fn = fn_of(
            "class A { static int go(int[] a, int i) { int r = 0;"
            " if (i < a.length) { r = a[i]; } return r; } }", "A", "go")
        facts = analyze_ranges(fn)
        (check,) = instrs_of(fn, ir.IdxCheck)
        assert not facts.idxcheck_redundant(check)

    def test_repeated_access_second_check_redundant(self):
        module, fn = fn_of(
            "class A { static int go(int[] a, int i) {"
            " return a[i] + a[i]; } }", "A", "go")
        facts = analyze_ranges(fn)
        checks = instrs_of(fn, ir.IdxCheck)
        assert len(checks) == 2
        assert not facts.idxcheck_redundant(checks[0])
        assert facts.idxcheck_redundant(checks[1])

    def test_interval_arithmetic_on_constants(self):
        module, fn = fn_of(
            "class A { static int go() { int x = 4; int y = x + 2;"
            " int[] a = new int[10]; return a[y]; } }", "A", "go")
        facts = analyze_ranges(fn)
        (check,) = instrs_of(fn, ir.IdxCheck)
        assert facts.interval_before(check.index, check) == (6, 6)
        assert facts.idxcheck_redundant(check)


# ---------------------------------------------------------------------------
# observability + dead-phi rule
# ---------------------------------------------------------------------------

DEAD_PHI = """
class D {
  static int go(int n) {
    int s = 0;
    for (int i = 0; i < n; i = i + 1) { s = s + 1; }
    return 7;
  }
}
"""


class TestLivenessAndDeadPhi:
    def test_loop_carried_accumulator_with_no_use_is_dead(self):
        module, fn = fn_of(DEAD_PHI, "D", "go")
        observable = observable_values(fn)
        phis = [p for b in fn.reachable_blocks() for p in b.phis]
        dead = [p for p in phis if p.id not in observable]
        assert dead  # the s-phi feeds only itself
        codes = {d.instr: d.code for d in lint_function(module, fn)}
        assert all(codes.get(p.id) == "STSA-PHI-101" for p in dead)

    def test_dce_agrees_with_the_dead_phi_rule(self):
        module, fn = fn_of(DEAD_PHI, "D", "go")
        flagged = {d.instr for d in lint_function(module, fn)
                   if d.code == "STSA-PHI-101"}
        assert flagged
        PassManager(["dce"], check_after_each_pass=True).run_function(
            fn, module)
        remaining = {p.id for b in fn.reachable_blocks()
                     for p in b.phis}
        assert not (flagged & remaining)

    def test_live_value_is_not_flagged(self):
        module, fn = fn_of(
            "class D { static int go(int n) { int s = 0;"
            " for (int i = 0; i < n; i = i + 1) { s = s + 1; }"
            " return s; } }", "D", "go")
        observable = observable_values(fn)
        phis = [p for b in fn.reachable_blocks() for p in b.phis]
        assert all(p.id in observable for p in phis)
        assert not [d for d in lint_function(module, fn)
                    if d.code == "STSA-PHI-101"]


# ---------------------------------------------------------------------------
# the verifier in collect mode: locations, codes, collect-all
# ---------------------------------------------------------------------------

class TestCollectDiagnostics:
    def test_collect_matches_fail_fast_code(self, env):
        world, table, module, point = env
        function, entry = single_block_function(point)
        value = Const(INT, 1)  # never appended: undefined reference
        finish(function, entry, Term("return", value))
        diagnostics = collect_diagnostics(module, function)
        assert has_errors(diagnostics)
        with pytest.raises(VerifyError) as excinfo:
            verify_function(module, function)
        assert excinfo.value.code in {d.code for d in diagnostics}

    def test_collect_reports_multiple_independent_errors(self, env):
        world, table, module, point = env
        function, entry = single_block_function(point)
        ok = Const(INT, 1)
        entry.append(ok)
        entry.term = Term("branch", ok)  # TYP-005: not a boolean
        other = function.new_block()
        stray = Const(INT, 2)  # STR-001: const outside the entry
        other.append(stray)
        other.term = Term("return", stray)
        join = function.new_block()
        join.term = Term("return", ok)
        from repro.ssa.cst import RIf
        function.cst = RSeq([RIf(entry, RBasic(other), None),
                             RBasic(join)])
        derive_cfg(function)
        codes = {d.code for d in collect_diagnostics(module, function)}
        assert {"STSA-TYP-005", "STSA-STR-001"} <= codes

    def test_unreachable_block_warns_but_verifies(self, env):
        world, table, module, point = env
        function, entry = single_block_function(point)
        value = Const(INT, 1)
        entry.append(value)
        finish(function, entry, Term("return", value))
        orphan = function.new_block()
        orphan.term = Term("return", value)
        verify_function(module, function)  # fail-fast tolerates it
        diagnostics = collect_diagnostics(module, function)
        assert not has_errors(diagnostics)
        (warning,) = [d for d in diagnostics
                      if d.code == "STSA-CFG-101"]
        assert warning.severity == Severity.WARNING
        assert warning.block == orphan.id

    def test_cse_without_cleanup_surfaces_stranded_dispatch(self):
        """Satellite: a dispatch block stranded by check elimination was
        previously skipped in silence; collect mode now reports it."""
        source = (
            "class T { static int go(P p) { int r = 0;"
            " try { r = p.f; r = r + p.f; }"
            " catch (RuntimeException e) { r = -1; } return r; } }"
            "\nclass P { int f; }")
        module = compile_source(source.replace("\n", " "))
        PassManager(["constprop", "safephi", "cse"],
                    check_after_each_pass=True).run_module(module)
        verify_module(module)
        # cleanup was withheld, so any handler whose exception points
        # were all eliminated leaves an unreachable dispatch chain
        diagnostics = lint_module(module)
        assert not has_errors(diagnostics)

    def test_module_level_collect_covers_every_function(self):
        module, _ = fn_of(NULL_DIAMOND, "P", "go")
        assert collect_diagnostics(module) == []


class TestVerifierCodes:
    """Mutated modules exercising the structured code of each rule
    family (the full per-property matrix lives in test_verifier.py)."""

    def expect(self, module, function, code):
        with pytest.raises(VerifyError) as excinfo:
            verify_function(module, function)
        assert excinfo.value.code == code
        assert code in {d.code
                        for d in collect_diagnostics(module, function)}

    def test_ref_001_use_before_def(self, env):
        world, table, module, point = env
        function, entry = single_block_function(point)
        late = Const(INT, 5)
        neg = Prim(lookup_op(INT, "neg"), [late])
        entry.append(neg)
        entry.append(late)
        finish(function, entry, Term("return", neg))
        self.expect(module, function, "STSA-REF-001")

    def test_ref_003_undefined_value(self, env):
        world, table, module, point = env
        function, entry = single_block_function(point)
        ghost = Const(INT, 9)  # never placed in any block
        finish(function, entry, Term("return", ghost))
        self.expect(module, function, "STSA-REF-003")

    def test_cfg_family_missing_terminator(self, env):
        world, table, module, point = env
        function, entry = single_block_function(point)
        value = Const(INT, 1)
        entry.append(value)
        function.cst = RSeq([RBasic(entry)])
        # CST derivation may spot the hole first (CFG-001) or the
        # terminator rule may (CFG-002); both are CFG-family rejections
        with pytest.raises(VerifyError) as excinfo:
            verify_function(module, function)
        assert excinfo.value.code in {"STSA-CFG-001", "STSA-CFG-002"}

    def test_typ_001_wrong_plane(self, env):
        world, table, module, point = env
        function, entry = single_block_function(point)
        value = Const(INT, 1)
        entry.append(value)
        check = ir.NullCheck(point.type, value)  # nullcheck of an int
        entry.append(check)
        finish(function, entry, Term("return", value))
        self.expect(module, function, "STSA-TYP-001")

    def test_typ_003_wrong_arity(self, env):
        world, table, module, point = env
        function, entry = single_block_function(point)
        value = Const(INT, 1)
        entry.append(value)
        bad = Prim(lookup_op(INT, "add"), [value])  # add wants 2
        entry.append(bad)
        finish(function, entry, Term("return", bad))
        self.expect(module, function, "STSA-TYP-003")

    def test_str_001_const_outside_entry(self, env):
        world, table, module, point = env
        function, entry = single_block_function(point)
        value = Const(INT, 1)
        entry.append(value)
        entry.term = Term("fall")
        second = function.new_block()
        stray = Const(INT, 2)
        second.append(stray)
        second.term = Term("return", stray)
        function.cst = RSeq([RBasic(entry), RBasic(second)])
        derive_cfg(function)
        self.expect(module, function, "STSA-STR-001")

    def test_str_003_param_index_out_of_range(self, env):
        world, table, module, point = env
        function, entry = single_block_function(point)
        bogus = ir.Param(8, INT)
        entry.append(bogus)
        finish(function, entry, Term("return", bogus))
        self.expect(module, function, "STSA-STR-003")


# ---------------------------------------------------------------------------
# pipeline gating + per-pass invariant checking
# ---------------------------------------------------------------------------

class TestPipelineGating:
    def test_cleanup_is_a_selectable_pass(self):
        assert "cleanup" in ALL_PASSES

    def test_empty_pass_list_is_a_true_noop(self):
        source = corpus_source("Scanner")
        module = compile_source(source)
        before = module.instruction_count()
        shapes = {f.name: [(b.id, len(b.instrs), len(b.phis))
                           for b in f.blocks]
                  for f in module.functions.values()}
        reports = PassManager(()).run_module(module)
        assert module.instruction_count() == before
        assert shapes == {f.name: [(b.id, len(b.instrs), len(b.phis))
                                   for b in f.blocks]
                          for f in module.functions.values()}
        for report in reports:
            assert report.stats == {}  # no pass ran, no counters

    def test_single_pass_selections_self_repair(self):
        source = corpus_source("BinaryCode")
        for passes in (["constprop"], ["cse"], ["dce"], ["cleanup"],
                       ["cse", "dce"]):
            module = compile_source(source)
            PassManager(passes,
                        check_after_each_pass=True).run_module(module)
            verify_module(module)


class TestPassCheckError:
    def test_ill_formed_input_is_blamed_on_input(self, env):
        world, table, module, point = env
        function, entry = single_block_function(point)
        ghost = Const(INT, 9)
        finish(function, entry, Term("return", ghost))
        module.functions[function.name] = function
        with pytest.raises(PassCheckError) as excinfo:
            PassManager(check_after_each_pass=True).run_function(
                function, module)
        assert excinfo.value.pass_name == "input"
        assert excinfo.value.diagnostics
        assert excinfo.value.diagnostic.code == "STSA-PASS-001"

    def test_breaking_pass_is_blamed_by_name(self, monkeypatch):
        module, fn = fn_of(DIAMOND, "D", "go")

        def sabotage(function, analyses):
            for block in function.reachable_blocks():
                if block is not function.entry:
                    block.append(Const(INT, 99))  # STR-001 violation
                    return {"sabotaged": 1}
            return {}

        monkeypatch.setitem(PASSES, "dce",
                            dataclasses.replace(PASSES["dce"],
                                                step=sabotage))
        with pytest.raises(PassCheckError) as excinfo:
            PassManager(["constprop", "dce"],
                        check_after_each_pass=True).run_function(
                fn, module)
        assert excinfo.value.pass_name == "dce"
        assert excinfo.value.diagnostics[0].code == "STSA-STR-001"
        assert "dce" in str(excinfo.value)

    def test_checks_never_read_the_shared_cache(self):
        # each check verifies from a fresh dominator tree: a session's
        # manager sees only what the passes themselves ask for
        module, fn = fn_of(DIAMOND, "D", "go")
        asked = []

        class Recording(AnalysisManager):
            def get(self, name, function):
                asked.append(name)
                return super().get(name, function)

        PassManager(["dce"], check_after_each_pass=True).run_function(
            fn, module, analyses=Recording())
        assert asked == ["observable"]

    def test_check_requires_module(self):
        module, fn = fn_of(DIAMOND, "D", "go")
        with pytest.raises(ValueError):
            PassManager(check_after_each_pass=True).run_function(fn)


# per-pass verification across every corpus artifact (plain + optimized:
# the same 20 modules the codec and analysis benchmarks use)
@pytest.mark.parametrize("name", CORPUS_PROGRAMS)
def test_per_pass_invariants_hold_on_corpus(name):
    source = corpus_source(name)
    checked = PassManager(check_after_each_pass=True)
    plain = compile_source(source)
    assert checked.run_module(plain)
    optimized = compile_source(source, optimize=True)
    # re-optimising an already optimised module must also stay sound
    assert checked.run_module(optimized)
    for module in (plain, optimized):
        verify_module(module)
        assert not has_errors(lint_module(module))


@given(program())
@settings(max_examples=15, deadline=None)
def test_per_pass_invariants_hold_on_generated_programs(source):
    module = compile_source(source)
    PassManager(check_after_each_pass=True).run_module(module)
    verify_module(module)
    assert not has_errors(lint_module(module))


# ---------------------------------------------------------------------------
# lint driver + report schema
# ---------------------------------------------------------------------------

class TestLintDriver:
    def test_rule_registry_names(self):
        assert {"dead-phi", "redundant-nullcheck",
                "redundant-idxcheck"} <= set(LINT_RULES)

    def test_rule_selection(self):
        module, fn = fn_of(NULL_DIAMOND, "P", "go")
        only_null = lint_function(module, fn,
                                  rules=["redundant-nullcheck"],
                                  include_verifier=False)
        assert only_null
        assert {d.code for d in only_null} == {"STSA-NULL-101"}

    def test_report_schema_is_stable(self):
        module, fn = fn_of(NULL_DIAMOND, "P", "go")
        report = lint_report(lint_module(module))
        assert list(report) == ["schema", "counts", "diagnostics"]
        assert report["schema"] == "repro-lint/1"
        assert list(report["counts"]) == ["error", "warning", "info"]
        assert report["diagnostics"]
        for entry in report["diagnostics"]:
            assert list(entry) == ["code", "severity", "function",
                                   "block", "instr", "message"]
            assert entry["code"] in DIAGNOSTIC_CODES
        # the report survives a JSON round trip with key order intact
        recycled = json.loads(json.dumps(report))
        assert recycled == report

    def test_diagnostics_sorted_in_report(self):
        module, fn = fn_of(NULL_DIAMOND, "P", "go")
        diagnostics = lint_module(module)
        ranked = [Severity.rank(d.severity) for d in diagnostics]
        assert ranked == sorted(ranked)


class TestLintCli:
    @pytest.fixture
    def demo(self, tmp_path):
        path = tmp_path / "Demo.java"
        path.write_text(NULL_DIAMOND)
        return str(path)

    def test_lint_json_schema(self, demo, capsys):
        from repro.cli import main
        assert main(["lint", demo, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == "repro-lint/1"
        codes = [d["code"] for d in report["diagnostics"]]
        assert "STSA-NULL-101" in codes
        for entry in report["diagnostics"]:
            assert list(entry) == ["code", "severity", "function",
                                   "block", "instr", "message"]

    def test_lint_human_output(self, demo, capsys):
        from repro.cli import main
        assert main(["lint", demo]) == 0
        out = capsys.readouterr().out
        assert "STSA-NULL-101" in out
        assert "0 error(s)" in out

    def test_lint_optimized_variant(self, demo, capsys):
        from repro.cli import main
        assert main(["lint", demo, "--optimize", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["counts"]["error"] == 0

    def test_verify_prints_ok_with_diagnostics(self, tmp_path, capsys):
        from repro.cli import main
        source = tmp_path / "Demo.java"
        source.write_text(DIAMOND)
        wire = tmp_path / "Demo.stsa"
        assert main(["compile", str(source), "-o", str(wire)]) == 0
        capsys.readouterr()
        assert main(["verify", str(wire)]) == 0
        assert "OK:" in capsys.readouterr().out
