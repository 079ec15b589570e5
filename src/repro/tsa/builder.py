"""Programmatic SafeTSA construction: a front-end-independent builder.

The paper motivates the UAST with "future extensibility of the system to
handle input languages other than Java" (Section 7).  This module is that
extension point: it lets any producer build SafeTSA modules directly --
no Java source involved -- while inheriting all of the toolchain's
guarantees (SSA construction, check insertion, verification, encoding).

Example::

    from repro.tsa.builder import ModuleBuilder
    from repro.typesys.types import INT

    mb = ModuleBuilder()
    worker = mb.new_class("Worker")
    triangle = worker.method("triangle", [("n", INT)], INT)
    with triangle as b:
        total = b.local(INT, "total", b.const(0))
        i = b.local(INT, "i", b.const(0))
        with b.while_(b.le(b.get(i), b.arg("n"))):
            b.set(total, b.add(b.get(total), b.get(i)))
            b.set(i, b.add(b.get(i), b.const(1)))
        b.ret(b.get(total))
    module = mb.build(optimize=True)

The body DSL produces UAST nodes, so every lowering and safety rule of
the main pipeline applies unchanged.
"""

from __future__ import annotations

import itertools
from typing import Optional, Union

from repro.frontend.ast import LocalVar
from repro.ssa.construction import build_function
from repro.ssa.ir import Module
from repro.typesys.ops import lookup_op
from repro.typesys.table import TypeTable
from repro.typesys.types import (
    ArrayType,
    BOOLEAN,
    CHAR,
    ClassType,
    DOUBLE,
    FLOAT,
    INT,
    LONG,
    PrimitiveType,
    Type,
    VOID,
)
from repro.typesys.world import ClassInfo, FieldInfo, MethodInfo, World
from repro.uast import nodes as u


class BuildError(Exception):
    """Invalid builder usage."""


class Var:
    """Handle to a local variable of the method being built."""

    __slots__ = ("local",)

    def __init__(self, local: LocalVar):
        self.local = local


class ModuleBuilder:
    """Declares classes and assembles a verified SafeTSA module."""

    def __init__(self) -> None:
        self.world = World()
        self._classes: list["ClassBuilder"] = []

    def new_class(self, name: str,
                  superclass: str = "java.lang.Object") -> "ClassBuilder":
        info = ClassInfo(name, superclass)
        self.world.define_class(info)
        builder = ClassBuilder(self, info)
        self._classes.append(builder)
        return builder

    def build(self, optimize: bool = False, verify: bool = True) -> Module:
        """Finalize: link the world, build SSA, optionally optimise."""
        self.world.link()
        table = TypeTable(self.world)
        module = Module(self.world, table)
        for class_builder in self._classes:
            module.classes.append(class_builder.info)
            table.declare_class(class_builder.info)
            for umethod in class_builder._finalize():
                module.add_function(build_function(
                    self.world, class_builder.info, umethod))
        module.intern_used_types()
        if optimize:
            from repro.driver.manager import PassManager
            PassManager().run_module(module)
        if verify:
            from repro.tsa.verifier import verify_module
            verify_module(module)
        return module


class ClassBuilder:
    def __init__(self, parent: ModuleBuilder, info: ClassInfo):
        self.module_builder = parent
        self.info = info
        self._methods: list["MethodBuilder"] = []
        # a default constructor exists from the start, so other method
        # bodies can say new("X") before _finalize(); defining an explicit
        # no-arg constructor replaces it
        self._default_ctor = MethodBuilder(
            self, info.add_method(MethodInfo("<init>", [], VOID)), [])
        with self._default_ctor:
            pass
        self._methods.append(self._default_ctor)

    def field(self, name: str, type: Type,
              static: bool = False) -> FieldInfo:
        return self.info.add_field(FieldInfo(name, type, is_static=static))

    def method(self, name: str, params=None, returns: Type = VOID,
               static: bool = True) -> "MethodBuilder":
        params = params or []
        if name == "<init>" and not params \
                and self._default_ctor is not None:
            # replace the synthesized default constructor
            self.info.methods.remove(self._default_ctor.info)
            self._methods.remove(self._default_ctor)
            self._default_ctor = None
        info = MethodInfo(name, [t for _, t in params], returns,
                          is_static=static)
        self.info.add_method(info)
        builder = MethodBuilder(self, info, params)
        self._methods.append(builder)
        return builder

    def constructor(self, params=None) -> "MethodBuilder":
        return self.method("<init>", params, VOID, static=False)

    def _finalize(self) -> list[u.UMethod]:
        return [m._to_umethod() for m in self._methods]


class MethodBuilder:
    """Fluent statement/expression DSL for one method body."""

    def __init__(self, class_builder: ClassBuilder, info: MethodInfo,
                 params):
        self.class_builder = class_builder
        self.world = class_builder.module_builder.world
        self.info = info
        self._locals: list[LocalVar] = []
        self._args: dict[str, LocalVar] = {}
        self._this: Optional[LocalVar] = None
        self._stmts: list[list[u.UStmt]] = [[]]
        self._targets = itertools.count(1)
        self._loop_stack: list[tuple[int, int]] = []
        self._finalized = False
        index = 0
        if not info.is_static:
            self._this = LocalVar("this", class_builder.info.type, index,
                                  is_param=True, is_this=True)
            self._locals.append(self._this)
            index += 1
        for name, type in params:
            local = LocalVar(name, type, index, is_param=True)
            self._locals.append(local)
            self._args[name] = local
            index += 1

    # -- body lifecycle ---------------------------------------------------

    def __enter__(self) -> "MethodBuilder":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self._finalized = True

    def _to_umethod(self) -> u.UMethod:
        if not self._finalized:
            raise BuildError(
                f"method {self.info.name} body was never completed")
        body = list(self._stmts[0])
        if self.info.is_constructor:
            parent = self.class_builder.info.superclass
            super_ctor = next(
                (m for m in parent.methods
                 if m.is_constructor and not m.param_types), None)
            if super_ctor is None:
                raise BuildError(
                    f"superclass {parent.name} lacks a no-arg constructor")
            body.insert(0, u.SEval(u.ECall(
                super_ctor, u.ELocal(self._this), [],
                dispatch=False, base=parent)))
        return u.UMethod(self.info, list(self._locals), u.SBlock(body))

    def _emit(self, stmt: u.UStmt) -> None:
        self._stmts[-1].append(stmt)

    # -- values -------------------------------------------------------------

    def const(self, value, type: Optional[Type] = None) -> u.UExpr:
        if type is None:
            if isinstance(value, bool):
                type = BOOLEAN
            elif isinstance(value, int):
                type = INT
            elif isinstance(value, float):
                type = DOUBLE
            elif isinstance(value, str):
                type = ClassType("java.lang.String")
            elif value is None:
                raise BuildError("null constants need an explicit type")
            else:
                raise BuildError(f"cannot infer a type for {value!r}")
        return u.EConst(type, value)

    def null(self, type: Type) -> u.UExpr:
        return u.EConst(type, None)

    def arg(self, name: str) -> u.UExpr:
        local = self._args.get(name)
        if local is None:
            raise BuildError(f"no parameter named {name!r}")
        return u.ELocal(local)

    def this(self) -> u.UExpr:
        if self._this is None:
            raise BuildError("'this' in a static method")
        return u.ELocal(self._this)

    def local(self, type: Type, name: str,
              init: Optional[u.UExpr] = None) -> Var:
        local = LocalVar(name, type, len(self._locals))
        self._locals.append(local)
        var = Var(local)
        if init is not None:
            self.set(var, init)
        return var

    def get(self, var: Var) -> u.UExpr:
        return u.ELocal(var.local)

    def set(self, var: Var, value: u.UExpr) -> None:
        self._emit(u.SLocalWrite(var.local, value))

    # -- arithmetic (operation name dispatch) --------------------------------

    def op(self, name: str, *args: u.UExpr) -> u.UExpr:
        """Apply a type-table operation, e.g. ``op("int.add", a, b)``."""
        base_name, op_name = name.split(".")
        operation = lookup_op(PrimitiveType(base_name), op_name)
        return u.EPrim(operation, list(args))

    def _binary(self, name: str, left: u.UExpr, right: u.UExpr) -> u.UExpr:
        base = left.type
        if not isinstance(base, PrimitiveType):
            raise BuildError(f"{name} needs a primitive operand")
        return u.EPrim(lookup_op(base, name), [left, right])

    def add(self, a, b):
        return self._binary("add", a, b)

    def sub(self, a, b):
        return self._binary("sub", a, b)

    def mul(self, a, b):
        return self._binary("mul", a, b)

    def div(self, a, b):
        return self._binary("div", a, b)

    def lt(self, a, b):
        return self._binary("lt", a, b)

    def le(self, a, b):
        return self._binary("le", a, b)

    def gt(self, a, b):
        return self._binary("gt", a, b)

    def ge(self, a, b):
        return self._binary("ge", a, b)

    def eq(self, a, b):
        return self._binary("eq", a, b)

    def ne(self, a, b):
        return self._binary("ne", a, b)

    def not_(self, a):
        return u.EPrim(lookup_op(BOOLEAN, "not"), [a])

    # -- objects and arrays ----------------------------------------------------

    def _field_of(self, owner: ClassInfo, name: str) -> FieldInfo:
        field = owner.find_field(name)
        if field is None:
            raise BuildError(f"no field {name!r} in {owner.name}")
        return field

    def get_field(self, obj: u.UExpr, name: str) -> u.UExpr:
        owner = self.world.class_of(obj.type)
        return u.EGetField(obj, self._field_of(owner, name))

    def set_field(self, obj: u.UExpr, name: str, value: u.UExpr) -> None:
        owner = self.world.class_of(obj.type)
        self._emit(u.SFieldWrite(obj, self._field_of(owner, name), value))

    def get_static(self, class_name: str, name: str) -> u.UExpr:
        owner = self.world.require(class_name)
        return u.EGetStatic(self._field_of(owner, name))

    def set_static(self, class_name: str, name: str,
                   value: u.UExpr) -> None:
        owner = self.world.require(class_name)
        self._emit(u.SStaticWrite(self._field_of(owner, name), value))

    def new(self, class_name: str, *args: u.UExpr) -> u.UExpr:
        info = self.world.require(class_name)
        ctor = self._resolve(info, "<init>", args)
        return u.ENew(info, ctor, list(args))

    def new_array(self, element: Type, length: u.UExpr) -> u.UExpr:
        return u.ENewArray(ArrayType(element), length)

    def array_get(self, array: u.UExpr, index: u.UExpr) -> u.UExpr:
        if not isinstance(array.type, ArrayType):
            raise BuildError("array_get of a non-array")
        return u.EArrayGet(array.type.element, array, index)

    def array_set(self, array: u.UExpr, index: u.UExpr,
                  value: u.UExpr) -> None:
        self._emit(u.SArrayWrite(array, index, value))

    def array_length(self, array: u.UExpr) -> u.UExpr:
        return u.EArrayLen(INT, array)

    def _resolve(self, info: ClassInfo, name: str, args) -> MethodInfo:
        for method in info.methods_named(name):
            if len(method.param_types) != len(args):
                continue
            if all(self.world.assignable(arg.type, param)
                   for arg, param in zip(args, method.param_types)):
                return method
        raise BuildError(f"no method {name}/{len(args)} on {info.name}")

    def call(self, receiver: u.UExpr, name: str,
             *args: u.UExpr) -> u.UExpr:
        info = self.world.class_of(receiver.type)
        method = self._resolve(info, name, args)
        return u.ECall(method, receiver, list(args), dispatch=True,
                       base=info)

    def call_static(self, class_name: str, name: str,
                    *args: u.UExpr) -> u.UExpr:
        info = self.world.require(class_name)
        method = self._resolve(info, name, args)
        if not method.is_static:
            raise BuildError(f"{info.name}.{name} is not static")
        return u.ECall(method, None, list(args), dispatch=False, base=info)

    def eval(self, expr: u.UExpr) -> None:
        """Evaluate an expression for its side effects."""
        self._emit(u.SEval(expr))

    # -- control flow -------------------------------------------------------

    def ret(self, value: Optional[u.UExpr] = None) -> None:
        self._emit(u.SReturn(value))

    def throw(self, value: u.UExpr) -> None:
        self._emit(u.SThrow(value))

    class _IfContext:
        def __init__(self, builder: "MethodBuilder", cond: u.UExpr):
            self.builder = builder
            self.cond = cond
            self.then_body: Optional[list[u.UStmt]] = None

        def __enter__(self):
            self.builder._stmts.append([])
            return self

        def __exit__(self, exc_type, exc, tb):
            if exc_type is not None:
                return
            body = self.builder._stmts.pop()
            if self.then_body is None:
                # plain if; else_() may reopen it
                self.then_body = body
                self.builder._emit(u.SIf(self.cond, u.SBlock(body), None))

        def else_(self) -> "MethodBuilder._ElseContext":
            return MethodBuilder._ElseContext(self)

    class _ElseContext:
        def __init__(self, if_context: "MethodBuilder._IfContext"):
            self.if_context = if_context

        def __enter__(self):
            self.builder = self.if_context.builder
            self.builder._stmts.append([])
            return self

        def __exit__(self, exc_type, exc, tb):
            if exc_type is not None:
                return
            else_body = self.builder._stmts.pop()
            emitted = self.builder._stmts[-1]
            # replace the plain SIf the if-context just emitted
            last = emitted[-1]
            if not isinstance(last, u.SIf):
                raise BuildError("else_() must follow an if_() block")
            emitted[-1] = u.SIf(last.cond, last.then_body,
                                u.SBlock(else_body))

    def if_(self, cond: u.UExpr) -> "_IfContext":
        return MethodBuilder._IfContext(self, cond)

    class _WhileContext:
        def __init__(self, builder: "MethodBuilder", cond: u.UExpr):
            self.builder = builder
            self.cond = cond
            self.break_id = next(builder._targets)
            self.continue_id = next(builder._targets)

        def __enter__(self):
            self.builder._stmts.append([])
            self.builder._loop_stack.append((self.break_id,
                                             self.continue_id))
            return self

        def __exit__(self, exc_type, exc, tb):
            self.builder._loop_stack.pop()
            if exc_type is not None:
                return
            body = self.builder._stmts.pop()
            self.builder._emit(u.SWhile(self.break_id, self.continue_id,
                                        self.cond, u.SBlock(body)))

    def while_(self, cond: u.UExpr) -> "_WhileContext":
        return MethodBuilder._WhileContext(self, cond)

    def break_(self) -> None:
        if not self._loop_stack:
            raise BuildError("break_ outside a loop")
        self._emit(u.SBreak(self._loop_stack[-1][0]))

    def continue_(self) -> None:
        if not self._loop_stack:
            raise BuildError("continue_ outside a loop")
        self._emit(u.SContinue(self._loop_stack[-1][1]))
