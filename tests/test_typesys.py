"""Unit tests for the type system, the world, and the type table."""

import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.typesys.ops import OPS_BY_TYPE, lookup_op, op_by_index
from repro.typesys.table import TypeTable
from repro.typesys.types import (
    ArrayType,
    BOOLEAN,
    CHAR,
    ClassType,
    DOUBLE,
    INT,
    LONG,
    NULL,
    PrimitiveType,
    VOID,
    binary_numeric_promotion,
    widens_to,
)
from repro.typesys.world import ClassInfo, FieldInfo, MethodInfo, World


class TestTypes:
    def test_primitives_are_interned(self):
        assert PrimitiveType("int") is INT
        assert PrimitiveType("double") is DOUBLE

    def test_unknown_primitive_rejected(self):
        with pytest.raises(ValueError):
            PrimitiveType("byte")

    def test_array_equality_is_structural(self):
        assert ArrayType(INT) == ArrayType(INT)
        assert ArrayType(INT) != ArrayType(LONG)
        assert hash(ArrayType(INT)) == hash(ArrayType(INT))

    def test_nested_array_descriptor(self):
        assert ArrayType(ArrayType(INT)).descriptor() == "[[I"

    def test_class_descriptor(self):
        assert ClassType("java.lang.String").descriptor() \
            == "Ljava/lang/String;"

    def test_array_of_void_rejected(self):
        with pytest.raises(ValueError):
            ArrayType(VOID)

    def test_widening_chain(self):
        assert widens_to(CHAR, INT)
        assert widens_to(INT, DOUBLE)
        assert widens_to(LONG, DOUBLE)
        assert not widens_to(INT, CHAR)
        assert not widens_to(DOUBLE, LONG)
        assert not widens_to(BOOLEAN, INT)

    def test_binary_promotion(self):
        assert binary_numeric_promotion(INT, LONG) is LONG
        assert binary_numeric_promotion(CHAR, CHAR) is INT
        assert binary_numeric_promotion(LONG, DOUBLE) is DOUBLE
        assert binary_numeric_promotion(BOOLEAN, INT) is None


class TestOperations:
    def test_trapping_classification(self):
        assert lookup_op(INT, "div").traps
        assert lookup_op(INT, "rem").traps
        assert not lookup_op(INT, "add").traps
        # IEEE division never traps (paper Section 5 allows per-language
        # choices; Java floats are lenient)
        assert not lookup_op(DOUBLE, "div").traps

    def test_operation_indices_are_stable_and_dense(self):
        for base, ops in OPS_BY_TYPE.items():
            for index, op in enumerate(ops):
                assert op.index == index
                assert op_by_index(base, index) is op

    def test_op_by_index_out_of_range(self):
        assert op_by_index(INT, 9999) is None

    def test_fold_matches_java(self):
        assert lookup_op(INT, "add").fold(2**31 - 1, 1) == -(2**31)
        assert lookup_op(LONG, "mul").fold(2**62, 4) == 0
        assert lookup_op(INT, "to_char").fold(-1) == 0xFFFF
        assert lookup_op(BOOLEAN, "xor").fold(True, True) is False

    def test_comparison_results_are_boolean(self):
        assert lookup_op(INT, "lt").result is BOOLEAN
        assert lookup_op(DOUBLE, "ge").result is BOOLEAN

    def test_unknown_op_raises(self):
        with pytest.raises(KeyError):
            lookup_op(INT, "frobnicate")


class TestWorld:
    def test_builtins_present(self):
        world = World()
        for name in ("java.lang.Object", "java.lang.String",
                     "java.lang.Throwable",
                     "java.lang.NullPointerException"):
            assert world.lookup(name) is not None

    def test_short_name_resolution(self):
        world = World()
        assert world.lookup("String").name == "java.lang.String"

    def test_define_and_subtype(self):
        world = World()
        animal = world.define_class(ClassInfo("Animal", "java.lang.Object"))
        cat = world.define_class(ClassInfo("Cat", "Animal"))
        world.link()
        assert world.is_subtype(cat.type, animal.type)
        assert not world.is_subtype(animal.type, cat.type)
        assert world.is_subtype(cat.type, ClassType("java.lang.Object"))

    def test_null_is_subtype_of_references_only(self):
        world = World()
        assert world.is_subtype(NULL, ClassType("java.lang.String"))
        assert world.is_subtype(NULL, ArrayType(INT))
        assert not world.is_subtype(NULL, INT)

    def test_arrays_subtype_object_and_covariance(self):
        world = World()
        assert world.is_subtype(ArrayType(INT),
                                ClassType("java.lang.Object"))
        string_array = ArrayType(ClassType("java.lang.String"))
        object_array = ArrayType(ClassType("java.lang.Object"))
        assert world.is_subtype(string_array, object_array)
        assert not world.is_subtype(ArrayType(INT), ArrayType(LONG))

    def test_vtable_override_shares_slot(self):
        world = World()
        base = ClassInfo("Base", "java.lang.Object")
        base_m = base.add_method(MethodInfo("f", [], INT))
        world.define_class(base)
        derived = ClassInfo("Derived", "Base")
        derived_m = derived.add_method(MethodInfo("f", [], INT))
        world.define_class(derived)
        world.link()
        assert base_m.vtable_slot == derived_m.vtable_slot
        assert derived.vtable[derived_m.vtable_slot] is derived_m

    def test_field_slots_include_inherited(self):
        world = World()
        base = ClassInfo("B1", "java.lang.Object")
        base.add_field(FieldInfo("x", INT))
        world.define_class(base)
        derived = ClassInfo("D1", "B1")
        derived.add_field(FieldInfo("y", INT))
        world.define_class(derived)
        world.link()
        assert [f.name for f in derived.all_instance_fields] == ["x", "y"]
        assert derived.find_field("x").slot == 0
        assert derived.find_field("y").slot == 1

    def test_common_supertype(self):
        world = World()
        a = world.define_class(ClassInfo("A2", "java.lang.Object"))
        b = world.define_class(ClassInfo("B2", "A2"))
        c = world.define_class(ClassInfo("C2", "A2"))
        world.link()
        assert world.common_supertype(b.type, c.type) == a.type
        assert world.common_supertype(NULL, b.type) == b.type

    def test_duplicate_class_rejected(self):
        world = World()
        world.define_class(ClassInfo("Dup", "java.lang.Object"))
        from repro.typesys.world import WorldError
        with pytest.raises(WorldError):
            world.define_class(ClassInfo("Dup", "java.lang.Object"))


def host_fingerprint():
    """Everything observable about the shared host library: names,
    hierarchy, member signatures, vtable and field slots, constants."""
    world = World()
    classes = []
    for name, info in world.classes.items():
        classes.append((
            name, info.super_name,
            info.superclass.name if info.superclass else None,
            info.is_builtin, info.is_abstract, info._linked,
            tuple((f.name, str(f.type), f.is_static, f.is_final,
                   f.const_value, f.slot, f.declaring.name)
                  for f in info.fields),
            tuple((m.name, tuple(str(t) for t in m.param_types),
                   str(m.return_type), m.is_static, m.is_native,
                   m.is_abstract, m.vtable_slot, m.declaring.name,
                   m.ast_body is None, m.uast_body is None,
                   tuple(m.param_names), tuple(m.throws))
                  for m in info.methods),
            tuple(m.qualified_name for m in info.vtable),
            tuple(f.qualified_name for f in info.all_instance_fields)))
    return tuple(classes), tuple(world._short_names.items())


def stress_source(variant: int) -> str:
    """A program whose class names every variant shares but whose
    members and output differ."""
    return f"""
class Shape {{
    int v{variant};
    int area() {{ return {variant}; }}
}}
class Circle extends Shape {{
    int area() {{ v{variant} = {variant} * 3; return v{variant} + 1; }}
}}
class Main {{
    static void main() {{
        Shape s = new Circle();
        StringBuilder out = new StringBuilder();
        out.append(s.area()).append(":").append(Integer.MAX_VALUE);
        System.out.println(out.toString());
    }}
}}
"""


def compile_and_load(source: str):
    """Compile, encode, load and run: (wire bytes, stdout)."""
    from repro.driver import CompilationSession
    from repro.interp.interpreter import Interpreter
    from repro.loader import load_module
    session = CompilationSession(optimize=True, cache=False)
    wire = session.encode(session.compile(source))
    result = Interpreter(load_module(wire)).run_main()
    return wire, result.stdout


class TestHostLibrary:
    """The host library is built once per process and shared by every
    world; no compile, load or hostile unit may modify it."""

    def test_worlds_share_builtins_but_not_user_classes(self):
        first, second = World(), World()
        for name, info in first.classes.items():
            assert second.classes[name] is info
        first.define_class(ClassInfo("Shape", "java.lang.Object"))
        first.define_class(ClassInfo("app.String", "java.lang.Object"))
        first.link()
        assert first.lookup("String").name == "app.String"
        assert second.lookup("Shape") is None
        assert second.lookup("String").name == "java.lang.String"
        assert World().lookup("String").name == "java.lang.String"

    def test_world_constructs_no_class_info(self, monkeypatch):
        from repro.typesys import world as world_module
        built = []
        original = world_module.ClassInfo.__init__

        def counting(self, *args, **kwargs):
            built.append(args)
            original(self, *args, **kwargs)

        monkeypatch.setattr(world_module.ClassInfo, "__init__", counting)
        World()
        assert built == []

    def test_untouched_by_compiling_loading_and_mutating(self):
        from repro.bench.corpus import corpus_sources
        from repro.fuzz.campaign import run_campaign
        from repro.fuzz.minimize import load_fixtures
        from repro.fuzz.mutate import check_stream
        before = host_fingerprint()
        for source in corpus_sources().values():
            compile_and_load(source)
        attacks = Path(__file__).parent / "golden" / "attacks"
        for _name, data, _meta in load_fixtures(attacks):
            assert check_stream(data).kind == "rejected"
        result = run_campaign(seed=7, budget=150, mode="streams",
                              minimize=False)
        assert result.ok and result.accepted
        assert host_fingerprint() == before

    def test_threads_with_colliding_class_names(self):
        before = host_fingerprint()
        variants = list(range(12))
        serial = [compile_and_load(stress_source(v)) for v in variants]
        assert len({stdout for _wire, stdout in serial}) == len(variants)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            deadline = time.monotonic() + 2.0
            workers = max(8, (os.cpu_count() or 1) + 2)  # > cores
            with ThreadPoolExecutor(max_workers=workers) as pool:
                while True:
                    parallel = list(pool.map(
                        lambda v: compile_and_load(stress_source(v)),
                        variants))
                    assert parallel == serial
                    if time.monotonic() > deadline:
                        break
        finally:
            sys.setswitchinterval(interval)
        assert host_fingerprint() == before


class TestTypeTable:
    def test_primitives_first(self):
        table = TypeTable(World())
        assert table.type_at(0) is INT
        assert table.type_at(6) is VOID

    def test_builtins_are_implicit(self):
        table = TypeTable(World())
        index = table.index_of(ClassType("java.lang.String"))
        assert table.entries[index].implicit

    def test_declared_classes_are_not_implicit(self):
        world = World()
        info = world.define_class(ClassInfo("Mine", "java.lang.Object"))
        world.link()
        table = TypeTable(world)
        index = table.declare_class(info)
        assert not table.entries[index].implicit
        assert table.declared_entries()[0].type == info.type

    def test_intern_array_recursively(self):
        world = World()
        table = TypeTable(world)
        nested = ArrayType(ArrayType(INT))
        index = table.intern(nested)
        assert table.type_at(index) == nested
        assert ArrayType(INT) in table

    def test_field_table_is_deterministic(self):
        world = World()
        base = ClassInfo("FB", "java.lang.Object")
        base.add_field(FieldInfo("a", INT))
        base.add_field(FieldInfo("s", INT, is_static=True))
        world.define_class(base)
        derived = ClassInfo("FD", "FB")
        derived.add_field(FieldInfo("b", INT))
        world.define_class(derived)
        world.link()
        table = TypeTable(world)
        names = [f.name for f in table.field_table(derived)]
        assert names == ["a", "b", "s"]

    def test_method_table_excludes_super_constructors(self):
        world = World()
        base = ClassInfo("MB", "java.lang.Object")
        base.add_method(MethodInfo("<init>", [], VOID))
        world.define_class(base)
        derived = ClassInfo("MD", "MB")
        derived.add_method(MethodInfo("<init>", [INT], VOID))
        world.define_class(derived)
        world.link()
        table = TypeTable(world)
        ctors = [m for m in table.method_table(derived)
                 if m.is_constructor]
        assert all(m.declaring is derived for m in ctors)

    def test_unknown_type_raises(self):
        from repro.typesys.table import TypeTableError
        table = TypeTable(World())
        with pytest.raises(TypeTableError):
            table.index_of(ClassType("NoSuch"))
        with pytest.raises(TypeTableError):
            table.type_at(10_000)
