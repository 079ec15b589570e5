"""Semantic analysis: declaration collection, type checking, overload
resolution, definite assignment and reachability.

The analyzer mutates the AST in place: expression nodes receive their
``type``, names are resolved into ``LocalRead``/``FieldAccess`` variants,
implicit widenings become :class:`~repro.frontend.ast.Convert` nodes, and
operators are resolved to :class:`~repro.typesys.ops.Operation` objects.
The UAST builder then needs no further name or type information.
"""

from __future__ import annotations

from typing import Optional

from repro.frontend import ast
from repro.frontend.errors import CompileError
from repro.typesys.ops import Operation, lookup_op
from repro.typesys.types import (
    ArrayType,
    BOOLEAN,
    CHAR,
    ClassType,
    DOUBLE,
    FLOAT,
    INT,
    LONG,
    NULL,
    NullType,
    PrimitiveType,
    Type,
    VOID,
    binary_numeric_promotion,
    widens_to,
)
from repro.typesys.world import ClassInfo, FieldInfo, MethodInfo, World
from repro import jmath

_STRING = ClassType("java.lang.String")
_OBJECT = ClassType("java.lang.Object")
_THROWABLE = ClassType("java.lang.Throwable")

#: widening chains used to build conversion Operation lists
_WIDEN_STEPS = {
    ("char", "int"): ["char.to_int"],
    ("char", "long"): ["char.to_int", "int.to_long"],
    ("char", "float"): ["char.to_int", "int.to_float"],
    ("char", "double"): ["char.to_int", "int.to_double"],
    ("int", "long"): ["int.to_long"],
    ("int", "float"): ["int.to_float"],
    ("int", "double"): ["int.to_double"],
    ("long", "float"): ["long.to_float"],
    ("long", "double"): ["long.to_double"],
    ("float", "double"): ["float.to_double"],
}

#: narrowing / general numeric cast chains (Java 5.1.3)
_CAST_STEPS = {
    ("int", "char"): ["int.to_char"],
    ("long", "int"): ["long.to_int"],
    ("long", "char"): ["long.to_int", "int.to_char"],
    ("float", "int"): ["float.to_int"],
    ("float", "long"): ["float.to_long"],
    ("float", "char"): ["float.to_int", "int.to_char"],
    ("double", "int"): ["double.to_int"],
    ("double", "long"): ["double.to_long"],
    ("double", "float"): ["double.to_float"],
    ("double", "char"): ["double.to_int", "int.to_char"],
}


def _ops_for(steps: list[str]) -> list[Operation]:
    resolved = []
    for step in steps:
        base_name, op_name = step.split(".")
        resolved.append(lookup_op(PrimitiveType(base_name), op_name))
    return resolved


def conversion_ops(src: Type, dst: Type) -> list[Operation]:
    """Operation chain converting primitive ``src`` to ``dst`` (may be [])."""
    if src == dst:
        return []
    key = (str(src), str(dst))
    if key in _WIDEN_STEPS:
        return _ops_for(_WIDEN_STEPS[key])
    if key in _CAST_STEPS:
        return _ops_for(_CAST_STEPS[key])
    raise KeyError(f"no conversion {src} -> {dst}")


class _MethodContext:
    """Per-method state during checking."""

    def __init__(self, class_info: ClassInfo, method: MethodInfo):
        self.class_info = class_info
        self.method = method
        self.locals: list[ast.LocalVar] = []
        self.scopes: list[dict[str, ast.LocalVar]] = [{}]
        #: stack of (label-or-None, kind) for break/continue checking;
        #: kind is 'loop' or 'switch'
        self.loop_stack: list[tuple[Optional[str], str]] = []

    def push_scope(self) -> None:
        self.scopes.append({})

    def pop_scope(self) -> None:
        self.scopes.pop()

    def declare(self, name: str, type: Type, pos, *,
                is_param: bool = False) -> ast.LocalVar:
        for scope in self.scopes:
            if name in scope:
                raise CompileError(f"variable {name!r} is already defined", pos)
        local = ast.LocalVar(name, type, len(self.locals), is_param=is_param)
        self.locals.append(local)
        self.scopes[-1][name] = local
        return local

    def lookup(self, name: str) -> Optional[ast.LocalVar]:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        return None


class SemanticAnalyzer:
    """Checks a compilation unit against a :class:`~repro.typesys.world.World`."""

    def __init__(self, world: Optional[World] = None):
        self.world = world or World()

    # ==================================================================
    # pass 1: declarations

    def declare(self, unit: ast.CompilationUnit) -> None:
        for decl in unit.classes:
            if decl.name in self.world.classes:
                raise CompileError(f"duplicate class {decl.name}", decl.pos)
            info = ClassInfo(decl.name, decl.super_name or "java.lang.Object",
                             is_abstract=decl.is_abstract)
            decl.info = self.world.define_class(info)
        for decl in unit.classes:
            self._check_superclasses(decl)
        for decl in unit.classes:
            self._declare_members(decl)
        self.world.link()

    def _check_superclasses(self, decl: ast.ClassDecl) -> None:
        """The superclass chain must resolve and must not loop, so that
        linking the world cannot fail."""
        seen = {decl.name}
        info: ClassInfo = decl.info
        while info.super_name is not None:
            parent = self.world.lookup(info.super_name)
            if parent is None:
                raise CompileError(
                    f"unknown superclass {info.super_name!r}", decl.pos)
            if parent.name in seen:
                raise CompileError(
                    f"cyclic inheritance involving {decl.name}", decl.pos)
            seen.add(parent.name)
            info = parent

    def _declare_members(self, decl: ast.ClassDecl) -> None:
        info: ClassInfo = decl.info
        has_ctor = False
        for member in decl.members:
            if isinstance(member, ast.FieldDecl):
                field_type = self.resolve_type(member.type_ref)
                if field_type is VOID:
                    raise CompileError("field of type void", member.pos)
                member.field = info.add_field(FieldInfo(
                    member.name, field_type, member.is_static,
                    member.is_final))
            elif isinstance(member, ast.MethodDecl):
                if member.is_constructor:
                    has_ctor = True
                param_types = [self.resolve_type(p.type_ref)
                               for p in member.params]
                return_type = (VOID if member.return_ref is None
                               else self.resolve_type(member.return_ref))
                method = MethodInfo(member.name, param_types, return_type,
                                    is_static=member.is_static,
                                    is_abstract=member.is_abstract)
                method.param_names = [p.name for p in member.params]
                method.throws = list(member.throws)
                method.ast_body = member
                for existing in info.methods:
                    if existing.signature == method.signature:
                        raise CompileError(
                            f"duplicate method {method.qualified_name}",
                            member.pos)
                member.method = info.add_method(method)
            else:
                raise CompileError("unsupported class member", member.pos)
        if not has_ctor:
            ctor = MethodInfo("<init>", [], VOID)
            ctor.ast_body = None  # synthesized default constructor
            info.add_method(ctor)

    def resolve_type(self, ref: ast.TypeRef) -> Type:
        if isinstance(ref, ast.PrimTypeRef):
            return PrimitiveType(ref.name)
        if isinstance(ref, ast.ArrayTypeRef):
            return ArrayType(self.resolve_type(ref.element))
        if isinstance(ref, ast.NamedTypeRef):
            if ref.name == "void":
                return VOID
            info = self.world.lookup(ref.name)
            if info is None:
                raise CompileError(f"unknown type {ref.name!r}", ref.pos)
            return info.type
        raise CompileError("bad type reference", ref.pos)

    # ==================================================================
    # pass 2: bodies

    def check(self, unit: ast.CompilationUnit) -> None:
        for decl in unit.classes:
            self._check_class(decl)

    def _check_class(self, decl: ast.ClassDecl) -> None:
        info: ClassInfo = decl.info
        for member in decl.members:
            if isinstance(member, ast.FieldDecl) and member.init is not None:
                ctx = _MethodContext(info, _field_init_context(info, member))
                member.init = self._check_and_coerce(
                    ctx, member.init, member.field.type)
                if member.is_static and member.is_final:
                    # Java compile-time constants (usable as case labels)
                    value = constant_value(member.init)
                    if value is not None:
                        member.field.const_value = value
            if isinstance(member, ast.MethodDecl) and member.body is not None:
                self._check_method(info, member)

    def _check_method(self, info: ClassInfo, decl: ast.MethodDecl) -> None:
        method: MethodInfo = decl.method
        ctx = _MethodContext(info, method)
        for param in decl.params:
            param.local = ctx.declare(param.name,
                                      self.resolve_type(param.type_ref),
                                      param.pos, is_param=True)
        self._check_block(ctx, decl.body)
        method.ast_body = decl
        # reachability: non-void methods must not complete normally
        assigned = {local for local in ctx.locals if local.is_param}
        completes = _flows(decl.body, set(assigned))[1]
        if method.return_type is not VOID and completes:
            raise CompileError(
                f"missing return statement in {method.qualified_name}",
                decl.pos)
        decl.method.uast_body = None

    # ------------------------------------------------------------------
    # statements

    def _check_block(self, ctx: _MethodContext, block: ast.Block) -> None:
        ctx.push_scope()
        for stmt in block.stmts:
            self._check_stmt(ctx, stmt)
        ctx.pop_scope()

    def _check_stmt(self, ctx: _MethodContext, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Block):
            self._check_block(ctx, stmt)
        elif isinstance(stmt, ast.LocalVarDecl):
            base_type = self.resolve_type(stmt.type_ref)
            checked: list[tuple[ast.LocalVar, Optional[ast.Expr]]] = []
            for name, init in stmt.declarators:
                if init is not None:
                    init = self._check_and_coerce(ctx, init, base_type)
                local = ctx.declare(name, base_type, stmt.pos)
                checked.append((local, init))
            stmt.declarators = checked
        elif isinstance(stmt, ast.ExprStmt):
            stmt.expr = self._check_expr(ctx, stmt.expr)
            if not isinstance(stmt.expr, (ast.Assign, ast.IncDec, ast.Call,
                                          ast.New, ast.CtorCall)):
                raise CompileError("not a statement", stmt.pos)
        elif isinstance(stmt, ast.IfStmt):
            stmt.cond = self._check_condition(ctx, stmt.cond)
            self._check_stmt(ctx, stmt.then_stmt)
            if stmt.else_stmt is not None:
                self._check_stmt(ctx, stmt.else_stmt)
        elif isinstance(stmt, ast.WhileStmt):
            stmt.cond = self._check_condition(ctx, stmt.cond)
            ctx.loop_stack.append((None, "loop"))
            self._check_stmt(ctx, stmt.body)
            ctx.loop_stack.pop()
        elif isinstance(stmt, ast.DoWhileStmt):
            ctx.loop_stack.append((None, "loop"))
            self._check_stmt(ctx, stmt.body)
            ctx.loop_stack.pop()
            stmt.cond = self._check_condition(ctx, stmt.cond)
        elif isinstance(stmt, ast.ForStmt):
            ctx.push_scope()
            for init_stmt in stmt.init:
                self._check_stmt(ctx, init_stmt)
            if stmt.cond is not None:
                stmt.cond = self._check_condition(ctx, stmt.cond)
            stmt.update = [self._check_expr(ctx, u) for u in stmt.update]
            ctx.loop_stack.append((None, "loop"))
            self._check_stmt(ctx, stmt.body)
            ctx.loop_stack.pop()
            ctx.pop_scope()
        elif isinstance(stmt, ast.LabeledStmt):
            inner = stmt.stmt
            if isinstance(inner, (ast.WhileStmt, ast.DoWhileStmt, ast.ForStmt)):
                # register the label on the loop for break/continue targeting
                self._check_labeled_loop(ctx, stmt)
            else:
                ctx.loop_stack.append((stmt.label, "block"))
                self._check_stmt(ctx, inner)
                ctx.loop_stack.pop()
        elif isinstance(stmt, ast.BreakStmt):
            self._check_jump(ctx, stmt.label, stmt.pos, is_continue=False)
        elif isinstance(stmt, ast.ContinueStmt):
            self._check_jump(ctx, stmt.label, stmt.pos, is_continue=True)
        elif isinstance(stmt, ast.ReturnStmt):
            expected = ctx.method.return_type
            if stmt.expr is None:
                if expected is not VOID:
                    raise CompileError("missing return value", stmt.pos)
            else:
                if expected is VOID:
                    raise CompileError("void method returns a value", stmt.pos)
                stmt.expr = self._check_and_coerce(ctx, stmt.expr, expected)
        elif isinstance(stmt, ast.ThrowStmt):
            stmt.expr = self._check_expr(ctx, stmt.expr)
            if not self.world.is_subtype(stmt.expr.type, _THROWABLE):
                raise CompileError("thrown value is not a Throwable", stmt.pos)
        elif isinstance(stmt, ast.TryStmt):
            self._check_block(ctx, stmt.body)
            for clause in stmt.catches:
                catch_type = self.resolve_type(clause.type_ref)
                if not self.world.is_subtype(catch_type, _THROWABLE):
                    raise CompileError("catch of non-Throwable type",
                                       clause.pos)
                clause.catch_type = catch_type
                ctx.push_scope()
                clause.local = ctx.declare(clause.name, catch_type, clause.pos)
                for inner_stmt in clause.body.stmts:
                    self._check_stmt(ctx, inner_stmt)
                ctx.pop_scope()
            if stmt.finally_block is not None:
                self._check_block(ctx, stmt.finally_block)
        elif isinstance(stmt, ast.SwitchStmt):
            stmt.selector = self._check_expr(ctx, stmt.selector)
            sel_type = stmt.selector.type
            if sel_type not in (INT, CHAR):
                raise CompileError("switch selector must be int or char",
                                   stmt.pos)
            if sel_type is CHAR:
                stmt.selector = self._coerce(stmt.selector, INT)
            seen: set[int] = set()
            defaults = 0
            ctx.loop_stack.append((None, "switch"))
            ctx.push_scope()
            for case in stmt.cases:
                labels: list[ast.Expr] = []
                for label in case.labels:
                    label = self._check_expr(ctx, label)
                    value = constant_value(label)
                    if not isinstance(value, int) or isinstance(value, bool):
                        raise CompileError("case label must be a constant int",
                                           case.pos)
                    if value in seen:
                        raise CompileError(f"duplicate case label {value}",
                                           case.pos)
                    seen.add(value)
                    labels.append(label)
                case.labels = labels
                defaults += case.is_default
                for inner_stmt in case.stmts:
                    self._check_stmt(ctx, inner_stmt)
            ctx.pop_scope()
            ctx.loop_stack.pop()
            if defaults > 1:
                raise CompileError("duplicate default label", stmt.pos)
        elif isinstance(stmt, ast.EmptyStmt):
            pass
        else:
            raise CompileError(f"unsupported statement {type(stmt).__name__}",
                               stmt.pos)

    def _check_labeled_loop(self, ctx: _MethodContext,
                            stmt: ast.LabeledStmt) -> None:
        loop = stmt.stmt
        label = stmt.label
        if isinstance(loop, ast.WhileStmt):
            loop.cond = self._check_condition(ctx, loop.cond)
            ctx.loop_stack.append((label, "loop"))
            self._check_stmt(ctx, loop.body)
            ctx.loop_stack.pop()
        elif isinstance(loop, ast.DoWhileStmt):
            ctx.loop_stack.append((label, "loop"))
            self._check_stmt(ctx, loop.body)
            ctx.loop_stack.pop()
            loop.cond = self._check_condition(ctx, loop.cond)
        elif isinstance(loop, ast.ForStmt):
            ctx.push_scope()
            for init_stmt in loop.init:
                self._check_stmt(ctx, init_stmt)
            if loop.cond is not None:
                loop.cond = self._check_condition(ctx, loop.cond)
            loop.update = [self._check_expr(ctx, u) for u in loop.update]
            ctx.loop_stack.append((label, "loop"))
            self._check_stmt(ctx, loop.body)
            ctx.loop_stack.pop()
            ctx.pop_scope()

    def _check_jump(self, ctx: _MethodContext, label: Optional[str], pos,
                    *, is_continue: bool) -> None:
        if label is None:
            for entry_label, kind in reversed(ctx.loop_stack):
                if kind == "loop" or (kind == "switch" and not is_continue):
                    return
            kw = "continue" if is_continue else "break"
            raise CompileError(f"{kw} outside of a loop", pos)
        for entry_label, kind in reversed(ctx.loop_stack):
            if entry_label == label:
                if is_continue and kind != "loop":
                    raise CompileError(
                        f"continue target {label!r} is not a loop", pos)
                return
        raise CompileError(f"undefined label {label!r}", pos)

    def _check_condition(self, ctx: _MethodContext,
                         expr: ast.Expr) -> ast.Expr:
        expr = self._check_expr(ctx, expr)
        if expr.type is not BOOLEAN:
            raise CompileError("condition must be boolean", expr.pos)
        return expr

    # ==================================================================
    # expressions

    def _check_and_coerce(self, ctx: _MethodContext, expr: ast.Expr,
                          target: Type) -> ast.Expr:
        expr = self._check_expr(ctx, expr)
        return self._coerce(expr, target)

    def _coerce(self, expr: ast.Expr, target: Type) -> ast.Expr:
        """Insert an implicit widening conversion, or fail."""
        src = expr.type
        if src == target:
            return expr
        if isinstance(src, PrimitiveType) and isinstance(target, PrimitiveType):
            if widens_to(src, target):
                return ast.Convert(expr, target, conversion_ops(src, target))
            raise CompileError(f"cannot implicitly convert {src} to {target}",
                               expr.pos)
        if self.world.is_subtype(src, target):
            return ast.Convert(expr, target)  # reference widening, no ops
        raise CompileError(f"incompatible types: {src} cannot be {target}",
                           expr.pos)

    def _check_expr(self, ctx: _MethodContext, expr: ast.Expr) -> ast.Expr:
        method_name = "_check_" + type(expr).__name__.lower()
        handler = getattr(self, method_name, None)
        if handler is None:
            raise CompileError(f"unsupported expression {type(expr).__name__}",
                               expr.pos)
        return handler(ctx, expr)

    # -- leaves ---------------------------------------------------------

    def _check_literal(self, ctx: _MethodContext,
                       expr: ast.Literal) -> ast.Expr:
        expr.type = {
            "int": INT, "long": LONG, "float": FLOAT, "double": DOUBLE,
            "char": CHAR, "boolean": BOOLEAN, "string": _STRING, "null": NULL,
        }[expr.kind]
        if expr.kind == "int" and not (jmath.INT_MIN <= expr.value
                                       <= jmath.INT_MAX):
            raise CompileError("int literal out of range", expr.pos)
        return expr

    def _check_name(self, ctx: _MethodContext, expr: ast.Name) -> ast.Expr:
        local = ctx.lookup(expr.ident)
        if local is not None:
            read = ast.LocalRead(local, expr.pos)
            read.type = local.type
            return read
        field = ctx.class_info.find_field(expr.ident)
        if field is not None:
            return self._field_read(ctx, None, field, expr.pos)
        raise CompileError(f"undefined name {expr.ident!r}", expr.pos)

    def _check_this(self, ctx: _MethodContext, expr: ast.This) -> ast.Expr:
        if ctx.method.is_static:
            raise CompileError("'this' in a static context", expr.pos)
        expr.type = ctx.class_info.type
        return expr

    # -- field and array access -----------------------------------------

    def _field_read(self, ctx: _MethodContext, target: Optional[ast.Expr],
                    field: FieldInfo, pos) -> ast.Expr:
        access = ast.FieldAccess(target, field.name, pos)
        access.field = field
        access.type = field.type
        if field.is_static:
            access.static_class = field.declaring
            access.target = None
        elif target is None:
            if ctx.method.is_static:
                raise CompileError(
                    f"instance field {field.name!r} in static context", pos)
            this = ast.This(pos)
            this.type = ctx.class_info.type
            access.target = this
        return access

    def _check_fieldaccess(self, ctx: _MethodContext,
                           expr: ast.FieldAccess) -> ast.Expr:
        if expr.field is not None:
            return expr  # already resolved (re-read of an lvalue)
        target = expr.target
        # `ClassName.field` -- target is an unresolvable Name that is a class
        if isinstance(target, ast.Name) and ctx.lookup(target.ident) is None:
            info = self.world.lookup(target.ident)
            if info is not None:
                field = info.find_field(expr.name)
                if field is None or not field.is_static:
                    raise CompileError(
                        f"no static field {expr.name!r} in {info.name}",
                        expr.pos)
                return self._field_read(ctx, None, field, expr.pos)
        target = self._check_expr(ctx, target)
        if isinstance(target.type, ArrayType):
            if expr.name != "length":
                raise CompileError("arrays only have 'length'", expr.pos)
            length = ast.ArrayLength(target, expr.pos)
            length.type = INT
            return length
        if not isinstance(target.type, ClassType):
            raise CompileError(f"cannot access field of {target.type}",
                               expr.pos)
        info = self.world.class_of(target.type)
        field = info.find_field(expr.name)
        if field is None:
            raise CompileError(f"no field {expr.name!r} in {info.name}",
                               expr.pos)
        if field.is_static:
            return self._field_read(ctx, None, field, expr.pos)
        return self._field_read(ctx, target, field, expr.pos)

    def _check_arrayaccess(self, ctx: _MethodContext,
                           expr: ast.ArrayAccess) -> ast.Expr:
        expr.array = self._check_expr(ctx, expr.array)
        if not isinstance(expr.array.type, ArrayType):
            raise CompileError(f"not an array: {expr.array.type}", expr.pos)
        expr.index = self._check_expr(ctx, expr.index)
        if expr.index.type not in (INT, CHAR):
            raise CompileError("array index must be int", expr.pos)
        expr.index = self._coerce(expr.index, INT)
        expr.type = expr.array.type.element
        return expr

    # -- calls ------------------------------------------------------------

    def _check_call(self, ctx: _MethodContext, expr: ast.Call) -> ast.Expr:
        args = [self._check_expr(ctx, arg) for arg in expr.args]
        if expr.is_super:
            if ctx.method.is_static:
                raise CompileError("'super' in static context", expr.pos)
            owner = ctx.class_info.superclass
            method = self._resolve_overload(owner, expr.name, args, expr.pos)
            expr.method = method
            expr.args = self._coerce_args(args, method)
            expr.type = method.return_type
            return expr
        target = expr.target
        if isinstance(target, ast.Name) and ctx.lookup(target.ident) is None:
            info = self.world.lookup(target.ident)
            if info is not None:
                method = self._resolve_overload(info, expr.name, args,
                                                expr.pos, static_only=True)
                expr.method = method
                expr.static_class = info
                expr.target = None
                expr.args = self._coerce_args(args, method)
                expr.type = method.return_type
                return expr
        if target is None:
            owner = ctx.class_info
            method = self._resolve_overload(owner, expr.name, args, expr.pos)
            if not method.is_static:
                if ctx.method.is_static:
                    raise CompileError(
                        f"instance method {expr.name!r} in static context",
                        expr.pos)
                this = ast.This(expr.pos)
                this.type = ctx.class_info.type
                expr.target = this
            expr.method = method
            expr.args = self._coerce_args(args, method)
            expr.type = method.return_type
            return expr
        target = self._check_expr(ctx, target)
        if isinstance(target.type, ArrayType):
            raise CompileError("arrays have no methods", expr.pos)
        if isinstance(target.type, NullType):
            raise CompileError("cannot invoke a method on null", expr.pos)
        if not isinstance(target.type, ClassType):
            raise CompileError(f"cannot call method on {target.type}",
                               expr.pos)
        info = self.world.class_of(target.type)
        method = self._resolve_overload(info, expr.name, args, expr.pos)
        if method.is_static:
            expr.static_class = method.declaring
            expr.target = None  # evaluated for effect? Java discards it too
        else:
            expr.target = target
        expr.method = method
        expr.args = self._coerce_args(args, method)
        expr.type = method.return_type
        return expr

    def _check_ctorcall(self, ctx: _MethodContext,
                        expr: ast.CtorCall) -> ast.Expr:
        if not ctx.method.is_constructor:
            raise CompileError("constructor call outside a constructor",
                               expr.pos)
        args = [self._check_expr(ctx, arg) for arg in expr.args]
        owner = (ctx.class_info.superclass if expr.is_super
                 else ctx.class_info)
        method = self._resolve_overload(owner, "<init>", args, expr.pos)
        expr.method = method
        expr.args = self._coerce_args(args, method)
        expr.type = VOID
        return expr

    def _check_new(self, ctx: _MethodContext, expr: ast.New) -> ast.Expr:
        class_type = self.resolve_type(expr.type_ref)
        if not isinstance(class_type, ClassType):
            raise CompileError("can only instantiate classes", expr.pos)
        info = self.world.class_of(class_type)
        if info.is_abstract:
            raise CompileError(f"cannot instantiate abstract {info.name}",
                               expr.pos)
        args = [self._check_expr(ctx, arg) for arg in expr.args]
        method = self._resolve_overload(info, "<init>", args, expr.pos)
        expr.class_info = info
        expr.method = method
        expr.args = self._coerce_args(args, method)
        expr.type = class_type
        return expr

    def _check_newarray(self, ctx: _MethodContext,
                        expr: ast.NewArray) -> ast.Expr:
        elem_type = self.resolve_type(expr.elem_ref)
        dims = []
        for dim in expr.dims:
            dim = self._check_expr(ctx, dim)
            if dim.type not in (INT, CHAR):
                raise CompileError("array size must be int", expr.pos)
            dims.append(self._coerce(dim, INT))
        expr.dims = dims
        result = elem_type
        for _ in range(len(expr.dims) + expr.extra_dims):
            result = ArrayType(result)
        expr.type = result
        return expr

    def _resolve_overload(self, info: ClassInfo, name: str,
                          args: list[ast.Expr], pos,
                          static_only: bool = False) -> MethodInfo:
        candidates = info.methods_named(name)
        if static_only:
            candidates = [m for m in candidates if m.is_static]
        if not candidates:
            raise CompileError(f"no method {name!r} in {info.name}", pos)
        applicable = []
        for method in candidates:
            if len(method.param_types) != len(args):
                continue
            if all(self.world.assignable(arg.type, param)
                   for arg, param in zip(args, method.param_types)):
                applicable.append(method)
        if not applicable:
            arg_types = ", ".join(str(a.type) for a in args)
            raise CompileError(
                f"no applicable overload {info.name}.{name}({arg_types})", pos)
        best = applicable[0]
        for method in applicable[1:]:
            if self._more_specific(method, best):
                best = method
        for method in applicable:
            if method is not best and not self._more_specific(best, method):
                arg_types = ", ".join(str(a.type) for a in args)
                raise CompileError(
                    f"ambiguous call {info.name}.{name}({arg_types})", pos)
        return best

    def _more_specific(self, a: MethodInfo, b: MethodInfo) -> bool:
        return all(self.world.assignable(pa, pb)
                   for pa, pb in zip(a.param_types, b.param_types))

    def _coerce_args(self, args: list[ast.Expr],
                     method: MethodInfo) -> list[ast.Expr]:
        return [self._coerce(arg, param)
                for arg, param in zip(args, method.param_types)]

    # -- operators --------------------------------------------------------

    def _check_unary(self, ctx: _MethodContext, expr: ast.Unary) -> ast.Expr:
        operand = self._check_expr(ctx, expr.operand)
        if expr.op == "+":
            if not operand.type.is_numeric():
                raise CompileError("unary + on non-numeric", expr.pos)
            return self._promote_unary(operand)
        if expr.op == "-":
            if not operand.type.is_numeric():
                raise CompileError("unary - on non-numeric", expr.pos)
            expr.operand = self._promote_unary(operand)
            expr.operation = lookup_op(expr.operand.type, "neg")
            expr.type = expr.operand.type
            return expr
        if expr.op == "~":
            if not operand.type.is_integral():
                raise CompileError("~ on non-integral", expr.pos)
            expr.operand = self._promote_unary(operand)
            expr.operation = lookup_op(expr.operand.type, "compl")
            expr.type = expr.operand.type
            return expr
        if expr.op == "!":
            if operand.type is not BOOLEAN:
                raise CompileError("! on non-boolean", expr.pos)
            expr.operand = operand
            expr.operation = lookup_op(BOOLEAN, "not")
            expr.type = BOOLEAN
            return expr
        raise CompileError(f"unknown unary operator {expr.op}", expr.pos)

    def _promote_unary(self, expr: ast.Expr) -> ast.Expr:
        """Unary numeric promotion: char -> int."""
        if expr.type is CHAR:
            return self._coerce(expr, INT)
        return expr

    def _check_binary(self, ctx: _MethodContext, expr: ast.Binary) -> ast.Expr:
        left = self._check_expr(ctx, expr.left)
        right = self._check_expr(ctx, expr.right)
        op = expr.op

        if op == "+" and (left.type == _STRING or right.type == _STRING):
            expr.left, expr.right = left, right
            expr.is_string_concat = True
            expr.type = _STRING
            return expr

        if op in ("&&", "||"):
            if left.type is not BOOLEAN or right.type is not BOOLEAN:
                raise CompileError(f"{op} requires boolean operands", expr.pos)
            expr.left, expr.right = left, right
            expr.type = BOOLEAN
            return expr

        if op in ("==", "!=") and left.type.is_reference() \
                and right.type.is_reference():
            if not (self.world.is_subtype(left.type, right.type)
                    or self.world.is_subtype(right.type, left.type)):
                raise CompileError(
                    f"incomparable types {left.type} and {right.type}",
                    expr.pos)
            common = self.world.common_supertype(left.type, right.type)
            expr.left = self._coerce(left, common) \
                if not isinstance(left.type, NullType) else left
            expr.right = self._coerce(right, common) \
                if not isinstance(right.type, NullType) else right
            expr.is_ref_compare = True
            expr.compare_type = common
            expr.type = BOOLEAN
            return expr

        if op in ("==", "!=") and left.type is BOOLEAN \
                and right.type is BOOLEAN:
            expr.left, expr.right = left, right
            expr.operation = lookup_op(BOOLEAN, "eq" if op == "==" else "ne")
            expr.type = BOOLEAN
            return expr

        if op in ("&", "|", "^") and left.type is BOOLEAN \
                and right.type is BOOLEAN:
            expr.left, expr.right = left, right
            name = {"&": "and", "|": "or", "^": "xor"}[op]
            expr.operation = lookup_op(BOOLEAN, name)
            expr.type = BOOLEAN
            return expr

        if op in ("<<", ">>", ">>>"):
            if not left.type.is_integral() or not right.type.is_integral():
                raise CompileError(f"{op} requires integral operands",
                                   expr.pos)
            expr.left = self._promote_unary(left)
            right = self._promote_unary(right)
            if right.type is LONG:
                right = ast.Convert(right, INT, [lookup_op(LONG, "to_int")])
            expr.right = right
            name = {"<<": "shl", ">>": "shr", ">>>": "ushr"}[op]
            expr.operation = lookup_op(expr.left.type, name)
            expr.type = expr.left.type
            return expr

        # arithmetic / comparison with binary numeric promotion
        promoted = binary_numeric_promotion(left.type, right.type)
        if promoted is None:
            raise CompileError(
                f"operator {op} cannot be applied to "
                f"{left.type}, {right.type}", expr.pos)
        if op in ("&", "|", "^") and not promoted.is_integral():
            raise CompileError(f"{op} requires integral operands", expr.pos)
        expr.left = self._coerce(left, promoted)
        expr.right = self._coerce(right, promoted)
        name = {
            "+": "add", "-": "sub", "*": "mul", "/": "div", "%": "rem",
            "<": "lt", "<=": "le", ">": "gt", ">=": "ge",
            "==": "eq", "!=": "ne", "&": "and", "|": "or", "^": "xor",
        }.get(op)
        if name is None:
            raise CompileError(f"unknown operator {op}", expr.pos)
        expr.operation = lookup_op(promoted, name)
        expr.type = expr.operation.result
        return expr

    def _check_ternary(self, ctx: _MethodContext,
                       expr: ast.Ternary) -> ast.Expr:
        expr.cond = self._check_condition(ctx, expr.cond)
        then_expr = self._check_expr(ctx, expr.then_expr)
        else_expr = self._check_expr(ctx, expr.else_expr)
        if then_expr.type == else_expr.type:
            result = then_expr.type
        else:
            promoted = binary_numeric_promotion(then_expr.type,
                                                else_expr.type)
            if promoted is not None:
                result = promoted
            else:
                result = self.world.common_supertype(then_expr.type,
                                                     else_expr.type)
        if result is VOID or isinstance(result, NullType):
            raise CompileError("bad ternary operand types", expr.pos)
        expr.then_expr = self._coerce(then_expr, result) \
            if not isinstance(then_expr.type, NullType) else then_expr
        expr.else_expr = self._coerce(else_expr, result) \
            if not isinstance(else_expr.type, NullType) else else_expr
        expr.type = result
        return expr

    def _check_assign(self, ctx: _MethodContext, expr: ast.Assign) -> ast.Expr:
        target = self._check_lvalue(ctx, expr.target)
        target_type = target.type
        if expr.op == "=":
            expr.target = target
            expr.value = self._check_and_coerce(ctx, expr.value, target_type)
            expr.type = target_type
            return expr
        # compound assignment: a op= b  ==  a = (T)(a op b)
        op = expr.op[:-1]
        value = self._check_expr(ctx, expr.value)
        if op == "+" and target_type == _STRING:
            expr.target = target
            expr.value = value
            expr.is_string_concat = True
            expr.type = _STRING
            return expr
        if not isinstance(target_type, PrimitiveType):
            raise CompileError(f"bad compound assignment to {target_type}",
                               expr.pos)
        synthetic = ast.Binary(op, _reread(target), value, expr.pos)
        checked = self._check_binary(ctx, synthetic)
        expr.target = target
        expr.value = checked
        expr.operation = checked.operation
        if checked.type != target_type:
            if not (isinstance(checked.type, PrimitiveType)
                    and target_type.is_numeric()):
                raise CompileError("bad compound assignment types", expr.pos)
            expr.narrowing_ops = conversion_ops(checked.type, target_type)
        expr.type = target_type
        return expr

    def _check_incdec(self, ctx: _MethodContext, expr: ast.IncDec) -> ast.Expr:
        target = self._check_lvalue(ctx, expr.target)
        if not target.type.is_numeric():
            raise CompileError(f"{expr.op} on non-numeric", expr.pos)
        expr.target = target
        base = target.type if target.type is not CHAR else INT
        expr.operation = lookup_op(base, "add" if expr.op == "++" else "sub")
        expr.type = target.type
        return expr

    def _check_lvalue(self, ctx: _MethodContext, expr: ast.Expr) -> ast.Expr:
        checked = self._check_expr(ctx, expr)
        if isinstance(checked, ast.LocalRead):
            return checked
        if isinstance(checked, ast.FieldAccess):
            if checked.field.is_final and checked.field.declaring.is_builtin:
                raise CompileError("cannot assign to a final library field",
                                   expr.pos)
            return checked
        if isinstance(checked, ast.ArrayAccess):
            return checked
        raise CompileError("not an assignable location", expr.pos)

    def _check_cast(self, ctx: _MethodContext, expr: ast.Cast) -> ast.Expr:
        operand = self._check_expr(ctx, expr.operand)
        target = self.resolve_type(expr.type_ref)
        src = operand.type
        expr.operand = operand
        expr.target_type = target
        expr.type = target
        if src == target:
            expr.cast_kind = "identity"
            return expr
        if isinstance(src, PrimitiveType) and isinstance(target,
                                                         PrimitiveType):
            if src is BOOLEAN or target is BOOLEAN or src is VOID \
                    or target is VOID:
                raise CompileError(f"cannot cast {src} to {target}", expr.pos)
            expr.cast_kind = "numeric"
            expr.convert_ops = conversion_ops(src, target)
            return expr
        if src.is_reference() and target.is_reference():
            if self.world.is_subtype(src, target):
                expr.cast_kind = "widen_ref"
            elif self.world.is_subtype(target, src):
                expr.cast_kind = "checked"
            else:
                raise CompileError(f"impossible cast {src} to {target}",
                                   expr.pos)
            return expr
        raise CompileError(f"cannot cast {src} to {target}", expr.pos)

    def _check_instanceof(self, ctx: _MethodContext,
                          expr: ast.InstanceOf) -> ast.Expr:
        operand = self._check_expr(ctx, expr.operand)
        target = self.resolve_type(expr.type_ref)
        if not operand.type.is_reference() or not target.is_reference():
            raise CompileError("instanceof requires reference types",
                               expr.pos)
        if not (self.world.is_subtype(operand.type, target)
                or self.world.is_subtype(target, operand.type)):
            raise CompileError(
                f"impossible instanceof {operand.type} / {target}", expr.pos)
        expr.operand = operand
        expr.target_type = target
        expr.type = BOOLEAN
        return expr

    def _check_localread(self, ctx: _MethodContext,
                         expr: ast.LocalRead) -> ast.Expr:
        return expr

    def _check_convert(self, ctx: _MethodContext,
                       expr: ast.Convert) -> ast.Expr:
        return expr


# ----------------------------------------------------------------------
# helpers

def _field_init_context(info: ClassInfo, member: ast.FieldDecl) -> MethodInfo:
    """A pseudo-method context used when checking field initializers."""
    pseudo = MethodInfo("<fieldinit>", [], VOID, is_static=member.is_static)
    pseudo.declaring = info
    return pseudo


def _reread(lvalue: ast.Expr) -> ast.Expr:
    """Build a read of the same location for compound assignment expansion.

    The UAST builder evaluates the location's subexpressions only once; it
    recognises the shared structure because the nodes are shared.
    """
    if isinstance(lvalue, ast.LocalRead):
        read = ast.LocalRead(lvalue.local, lvalue.pos)
        read.type = lvalue.local.type
        return read
    if isinstance(lvalue, ast.FieldAccess):
        read = ast.FieldAccess(lvalue.target, lvalue.name, lvalue.pos)
        read.field = lvalue.field
        read.static_class = lvalue.static_class
        read.type = lvalue.field.type
        return read
    if isinstance(lvalue, ast.ArrayAccess):
        read = ast.ArrayAccess(lvalue.array, lvalue.index, lvalue.pos)
        read.type = lvalue.type
        return read
    raise AssertionError("not an lvalue")


def constant_value(expr: ast.Expr):
    """Compile-time constant evaluation (case labels, while(true), folding).

    Returns the Python value, or None when not a constant.
    """
    if isinstance(expr, ast.Literal):
        return expr.value
    if isinstance(expr, ast.Convert):
        inner = constant_value(expr.operand)
        if inner is None:
            return None
        for op in expr.ops:
            inner = op.fold(inner)
        return inner
    if isinstance(expr, ast.Unary) and expr.operation is not None:
        inner = constant_value(expr.operand)
        if inner is None:
            return None
        return expr.operation.fold(inner)
    if isinstance(expr, ast.Binary) and expr.operation is not None \
            and not expr.operation.traps:
        left = constant_value(expr.left)
        right = constant_value(expr.right)
        if left is None or right is None:
            return None
        return expr.operation.fold(left, right)
    if isinstance(expr, ast.FieldAccess) and expr.field is not None \
            and expr.field.const_value is not None:
        return expr.field.const_value
    return None


# ----------------------------------------------------------------------
# definite assignment / reachability
#
# A conservative flow analysis: (assigned-set, completes-normally).  It is
# sound for the SSA builder (never claims assignment that might not happen)
# and precise enough for idiomatic Java.

def _flows(stmt: ast.Stmt, assigned: set) -> tuple[set, bool]:
    if isinstance(stmt, ast.Block):
        completes = True
        for inner in stmt.stmts:
            if not completes:
                raise CompileError("unreachable statement", inner.pos)
            assigned, completes = _flows(inner, assigned)
        return assigned, completes
    if isinstance(stmt, ast.LocalVarDecl):
        out = set(assigned)
        for local, init in stmt.declarators:
            if init is not None:
                out |= _expr_assigns(init)
                _check_reads(init, out, stmt.pos)
                out.add(local)
        return out, True
    if isinstance(stmt, ast.ExprStmt):
        out = assigned | _expr_assigns(stmt.expr)
        _check_reads(stmt.expr, assigned | _expr_assigns(stmt.expr), stmt.pos)
        return out, True
    if isinstance(stmt, ast.IfStmt):
        _check_reads(stmt.cond, assigned, stmt.pos)
        base = assigned | _expr_assigns(stmt.cond)
        then_out, then_completes = _flows(stmt.then_stmt, set(base))
        if stmt.else_stmt is None:
            return base, True
        else_out, else_completes = _flows(stmt.else_stmt, set(base))
        if then_completes and else_completes:
            return then_out & else_out, True
        if then_completes:
            return then_out, True
        if else_completes:
            return else_out, True
        return base, False
    if isinstance(stmt, ast.WhileStmt):
        _check_reads(stmt.cond, assigned, stmt.pos)
        base = assigned | _expr_assigns(stmt.cond)
        _flows(stmt.body, set(base))
        always = constant_value(stmt.cond) is True
        if always:
            return base, _has_break(stmt.body, 0)
        return base, True
    if isinstance(stmt, ast.DoWhileStmt):
        body_out, body_completes = _flows(stmt.body, set(assigned))
        if body_completes:
            _check_reads(stmt.cond, body_out, stmt.pos)
            body_out |= _expr_assigns(stmt.cond)
        always = body_completes and constant_value(stmt.cond) is True
        completes = (not always) or _has_break(stmt.body, 0)
        if not body_completes:
            completes = _has_break(stmt.body, 0)
        return (body_out if body_completes else assigned), completes
    if isinstance(stmt, ast.ForStmt):
        out = set(assigned)
        for init in stmt.init:
            out, _ = _flows(init, out)
        if stmt.cond is not None:
            _check_reads(stmt.cond, out, stmt.pos)
            out |= _expr_assigns(stmt.cond)
        _flows(stmt.body, set(out))
        infinite = stmt.cond is None or constant_value(stmt.cond) is True
        if infinite:
            return out, _has_break(stmt.body, 0)
        return out, True
    if isinstance(stmt, (ast.BreakStmt, ast.ContinueStmt)):
        return assigned, False
    if isinstance(stmt, ast.ReturnStmt):
        if stmt.expr is not None:
            _check_reads(stmt.expr, assigned, stmt.pos)
        return assigned, False
    if isinstance(stmt, ast.ThrowStmt):
        _check_reads(stmt.expr, assigned, stmt.pos)
        return assigned, False
    if isinstance(stmt, ast.TryStmt):
        body_out, body_completes = _flows(stmt.body, set(assigned))
        completes = body_completes
        outs = [body_out] if body_completes else []
        for clause in stmt.catches:
            catch_in = set(assigned)
            catch_in.add(clause.local)
            catch_out, catch_completes = _flows(clause.body, catch_in)
            if catch_completes:
                outs.append(catch_out)
                completes = True
        merged = set.intersection(*outs) if outs else set(assigned)
        if stmt.finally_block is not None:
            fin_out, fin_completes = _flows(stmt.finally_block, set(assigned))
            merged |= (fin_out - assigned)
            if not fin_completes:
                completes = False
        return merged, completes
    if isinstance(stmt, ast.SwitchStmt):
        _check_reads(stmt.selector, assigned, stmt.pos)
        base = assigned | _expr_assigns(stmt.selector)
        has_default = any(case.is_default for case in stmt.cases)
        outs = []
        completes_any = not has_default
        current = set(base)
        case_completes = True
        for case in stmt.cases:
            current |= base
            case_completes = True
            for inner in case.stmts:
                if not case_completes:
                    # fell off via break/return; next statements unreachable
                    raise CompileError("unreachable statement", inner.pos)
                current, case_completes = _flows(inner, current)
            if case_completes:
                pass  # falls through to the next case
            else:
                outs.append(current)
                current = set(base)
        if stmt.cases and case_completes:
            outs.append(current)
            completes_any = True
        # breaks inside the switch complete the statement
        if any(_case_has_break(case) for case in stmt.cases):
            completes_any = True
        merged = set.intersection(*outs) if outs and has_default \
            else set(base)
        return merged, completes_any or not stmt.cases
    if isinstance(stmt, ast.LabeledStmt):
        out, completes = _flows(stmt.stmt, assigned)
        if _has_labeled_break(stmt.stmt, stmt.label):
            completes = True
        return out, completes
    if isinstance(stmt, ast.EmptyStmt):
        return assigned, True
    raise AssertionError(f"unhandled statement {type(stmt).__name__}")


def _case_has_break(case: ast.SwitchCase) -> bool:
    return any(_has_break(s, 0) or isinstance(s, ast.BreakStmt)
               for s in case.stmts)


def _has_break(stmt: ast.Stmt, depth: int) -> bool:
    """Does ``stmt`` contain an unlabeled break escaping ``depth`` loops?"""
    if isinstance(stmt, ast.BreakStmt):
        return stmt.label is None and depth == 0
    if isinstance(stmt, ast.Block):
        return any(_has_break(s, depth) for s in stmt.stmts)
    if isinstance(stmt, ast.IfStmt):
        return (_has_break(stmt.then_stmt, depth)
                or (stmt.else_stmt is not None
                    and _has_break(stmt.else_stmt, depth)))
    if isinstance(stmt, (ast.WhileStmt, ast.DoWhileStmt, ast.ForStmt)):
        return False  # inner loop captures unlabeled breaks
    if isinstance(stmt, ast.SwitchStmt):
        return False  # switch captures unlabeled breaks
    if isinstance(stmt, ast.LabeledStmt):
        return _has_break(stmt.stmt, depth)
    if isinstance(stmt, ast.TryStmt):
        if _has_break(stmt.body, depth):
            return True
        if any(_has_break(c.body, depth) for c in stmt.catches):
            return True
        return (stmt.finally_block is not None
                and _has_break(stmt.finally_block, depth))
    return False


def _has_labeled_break(stmt: ast.Stmt, label: str) -> bool:
    if isinstance(stmt, ast.BreakStmt):
        return stmt.label == label
    if isinstance(stmt, ast.Block):
        return any(_has_labeled_break(s, label) for s in stmt.stmts)
    if isinstance(stmt, ast.IfStmt):
        return (_has_labeled_break(stmt.then_stmt, label)
                or (stmt.else_stmt is not None
                    and _has_labeled_break(stmt.else_stmt, label)))
    if isinstance(stmt, ast.WhileStmt):
        return _has_labeled_break(stmt.body, label)
    if isinstance(stmt, ast.DoWhileStmt):
        return _has_labeled_break(stmt.body, label)
    if isinstance(stmt, ast.ForStmt):
        return _has_labeled_break(stmt.body, label)
    if isinstance(stmt, ast.SwitchStmt):
        return any(any(_has_labeled_break(s, label) for s in case.stmts)
                   for case in stmt.cases)
    if isinstance(stmt, ast.LabeledStmt):
        return _has_labeled_break(stmt.stmt, label)
    if isinstance(stmt, ast.TryStmt):
        if _has_labeled_break(stmt.body, label):
            return True
        if any(_has_labeled_break(c.body, label) for c in stmt.catches):
            return True
        return (stmt.finally_block is not None
                and _has_labeled_break(stmt.finally_block, label))
    return False


def _expr_assigns(expr: Optional[ast.Expr]) -> set:
    """Locals unconditionally assigned while evaluating ``expr``."""
    if expr is None:
        return set()
    out: set = set()
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Assign):
            if isinstance(node.target, ast.LocalRead):
                out.add(node.target.local)
            else:
                stack.append(node.target)
            stack.append(node.value)
        elif isinstance(node, ast.IncDec):
            if isinstance(node.target, ast.LocalRead):
                out.add(node.target.local)
            else:
                stack.append(node.target)
        elif isinstance(node, ast.Binary):
            stack.append(node.left)
            if node.op not in ("&&", "||"):
                stack.append(node.right)
        elif isinstance(node, ast.Ternary):
            stack.append(node.cond)
        elif isinstance(node, ast.Unary):
            stack.append(node.operand)
        elif isinstance(node, ast.Convert):
            stack.append(node.operand)
        elif isinstance(node, ast.Cast):
            stack.append(node.operand)
        elif isinstance(node, ast.InstanceOf):
            stack.append(node.operand)
        elif isinstance(node, ast.Call):
            if node.target is not None:
                stack.append(node.target)
            stack.extend(node.args)
        elif isinstance(node, (ast.New, ast.CtorCall)):
            stack.extend(node.args)
        elif isinstance(node, ast.NewArray):
            stack.extend(node.dims)
        elif isinstance(node, ast.FieldAccess):
            if node.target is not None:
                stack.append(node.target)
        elif isinstance(node, ast.ArrayLength):
            stack.append(node.target)
        elif isinstance(node, ast.ArrayAccess):
            stack.append(node.array)
            stack.append(node.index)
    return out


def _check_reads(expr: ast.Expr, assigned: set, pos) -> None:
    """Raise when a local is read before definite assignment."""
    local_assigned = set(assigned)
    _check_reads_inner(expr, local_assigned, pos)


def _check_reads_inner(expr: ast.Expr, assigned: set, pos) -> None:
    if isinstance(expr, ast.LocalRead):
        if expr.local not in assigned:
            raise CompileError(
                f"variable {expr.local.name!r} might not have been "
                "initialized", expr.pos or pos)
        return
    if isinstance(expr, ast.Assign):
        if isinstance(expr.target, ast.LocalRead):
            if expr.op != "=":
                _check_reads_inner(expr.target, assigned, pos)
            _check_reads_inner(expr.value, assigned, pos)
            assigned.add(expr.target.local)
            return
        _check_reads_inner(expr.target, assigned, pos)
        _check_reads_inner(expr.value, assigned, pos)
        return
    if isinstance(expr, ast.IncDec):
        _check_reads_inner(expr.target, assigned, pos)
        return
    if isinstance(expr, ast.Binary):
        _check_reads_inner(expr.left, assigned, pos)
        if expr.op in ("&&", "||"):
            _check_reads_inner(expr.right, set(assigned), pos)
        else:
            _check_reads_inner(expr.right, assigned, pos)
        return
    if isinstance(expr, ast.Ternary):
        _check_reads_inner(expr.cond, assigned, pos)
        _check_reads_inner(expr.then_expr, set(assigned), pos)
        _check_reads_inner(expr.else_expr, set(assigned), pos)
        return
    for child in _children(expr):
        _check_reads_inner(child, assigned, pos)


def _children(expr: ast.Expr) -> list[ast.Expr]:
    if isinstance(expr, (ast.Unary, ast.Convert, ast.Cast, ast.InstanceOf)):
        return [expr.operand]
    if isinstance(expr, ast.Call):
        children = [expr.target] if expr.target is not None else []
        return children + list(expr.args)
    if isinstance(expr, (ast.New, ast.CtorCall)):
        return list(expr.args)
    if isinstance(expr, ast.NewArray):
        return list(expr.dims)
    if isinstance(expr, ast.FieldAccess):
        return [expr.target] if expr.target is not None else []
    if isinstance(expr, ast.ArrayLength):
        return [expr.target]
    if isinstance(expr, ast.ArrayAccess):
        return [expr.array, expr.index]
    return []


def analyze(unit: ast.CompilationUnit,
            world: Optional[World] = None) -> World:
    """Run both semantic passes over ``unit``; returns the populated world."""
    analyzer = SemanticAnalyzer(world)
    analyzer.declare(unit)
    analyzer.check(unit)
    return analyzer.world
