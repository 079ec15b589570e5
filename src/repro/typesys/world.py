"""Class registry: user classes plus the implicitly generated host library.

The paper (Section 4) stresses that the parts of the type table describing
primitive types and *types imported from the host environment's libraries*
are always generated implicitly and are thereby tamper-proof.  The host
library is exactly that implicit part: it is constructed identically on
the producer and the consumer and never transmitted.

It is built once per process, when this module is imported, and shared:
:class:`World` copies only the two name maps, so each world adds its own
user classes (and short-name shadowing) on top of the same builtin
:class:`ClassInfo`, :class:`MethodInfo` and :class:`FieldInfo` objects.
Those objects must never be modified.  Nothing a unit carries can reach
them: the decoder rejects ``java.*`` class names and adds members only to
the classes it declares itself.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.typesys.types import (
    ArrayType,
    BOOLEAN,
    CHAR,
    ClassType,
    DOUBLE,
    INT,
    LONG,
    NULL,
    NullType,
    PrimitiveType,
    STRING,
    Type,
    VOID,
    widens_to,
)


class FieldInfo:
    """A declared field of a class."""

    def __init__(self, name: str, type: Type, is_static: bool = False,
                 is_final: bool = False, const_value: object = None):
        self.name = name
        self.type = type
        self.is_static = is_static
        self.is_final = is_final
        #: compile-time constant value for ``static final`` library fields
        self.const_value = const_value
        self.declaring: Optional["ClassInfo"] = None
        #: instance-field slot (assigned once the hierarchy is complete)
        self.slot: int = -1

    @property
    def qualified_name(self) -> str:
        owner = self.declaring.name if self.declaring else "?"
        return f"{owner}.{self.name}"

    def __repr__(self) -> str:  # pragma: no cover
        return f"<field {self.qualified_name}: {self.type}>"


class MethodInfo:
    """A declared method or constructor (constructors are named ``<init>``)."""

    def __init__(self, name: str, param_types: list[Type], return_type: Type,
                 is_static: bool = False, is_native: bool = False,
                 is_abstract: bool = False):
        self.name = name
        self.param_types = list(param_types)
        self.return_type = return_type
        self.is_static = is_static
        self.is_native = is_native
        self.is_abstract = is_abstract
        self.declaring: Optional["ClassInfo"] = None
        #: vtable slot for virtual methods (assigned with the hierarchy)
        self.vtable_slot: int = -1
        #: front-end AST of the body (user methods only; filled by semantics)
        self.ast_body = None
        #: UAST of the body (filled by the UAST builder)
        self.uast_body = None
        #: names of the declared parameters (user methods)
        self.param_names: list[str] = []
        #: list of thrown exception class names (informational)
        self.throws: list[str] = []

    @property
    def is_constructor(self) -> bool:
        return self.name == "<init>"

    @property
    def signature(self) -> tuple:
        """Override-identity: name plus exact parameter types."""
        return (self.name, tuple(self.param_types))

    @property
    def qualified_name(self) -> str:
        owner = self.declaring.name if self.declaring else "?"
        params = ",".join(str(t) for t in self.param_types)
        return f"{owner}.{self.name}({params})"

    def descriptor(self) -> str:
        params = "".join(t.descriptor() for t in self.param_types)
        return f"({params}){self.return_type.descriptor()}"

    def __repr__(self) -> str:  # pragma: no cover
        return f"<method {self.qualified_name}>"


class ClassInfo:
    """Everything known about a class: hierarchy, members, vtable."""

    def __init__(self, name: str, super_name: Optional[str] = None,
                 is_builtin: bool = False, is_abstract: bool = False):
        self.name = name
        self.super_name = super_name
        self.superclass: Optional["ClassInfo"] = None
        self.is_builtin = is_builtin
        self.is_abstract = is_abstract
        self.fields: list[FieldInfo] = []
        self.methods: list[MethodInfo] = []
        #: flattened vtable: list of MethodInfo, index = vtable slot
        self.vtable: list[MethodInfo] = []
        #: all instance fields including inherited, index = slot
        self.all_instance_fields: list[FieldInfo] = []
        self._linked = False

    @property
    def type(self) -> ClassType:
        return ClassType(self.name)

    def add_field(self, field: FieldInfo) -> FieldInfo:
        field.declaring = self
        self.fields.append(field)
        return field

    def add_method(self, method: MethodInfo) -> MethodInfo:
        method.declaring = self
        self.methods.append(method)
        return method

    def find_field(self, name: str) -> Optional[FieldInfo]:
        """Look up a field by name, walking up the hierarchy."""
        cls: Optional[ClassInfo] = self
        while cls is not None:
            for field in cls.fields:
                if field.name == name:
                    return field
            cls = cls.superclass
        return None

    def methods_named(self, name: str) -> list[MethodInfo]:
        """All methods with the given name visible on this class.

        Methods overridden in a subclass shadow the superclass declaration
        (same signature); overloads accumulate.
        """
        found: list[MethodInfo] = []
        seen_signatures: set[tuple] = set()
        cls: Optional[ClassInfo] = self
        while cls is not None:
            for method in cls.methods:
                if method.name == name and method.signature not in seen_signatures:
                    found.append(method)
                    seen_signatures.add(method.signature)
            cls = cls.superclass
        return found

    def is_subclass_of(self, other: "ClassInfo") -> bool:
        cls: Optional[ClassInfo] = self
        while cls is not None:
            if cls is other or cls.name == other.name:
                return True
            cls = cls.superclass
        return False

    def __repr__(self) -> str:  # pragma: no cover
        return f"<class {self.name}>"


class WorldError(Exception):
    """Raised for inconsistent class hierarchies or unresolvable names."""


class World:
    """Registry of all classes known to a compilation: builtins + user code."""

    def __init__(self) -> None:
        # insertion order starts with the host library, so type-table
        # indices (and wire bytes) do not depend on how it was built
        self.classes: dict[str, ClassInfo] = dict(_HOST_CLASSES)
        self._short_names: dict[str, str] = dict(_HOST_SHORT_NAMES)

    # ------------------------------------------------------------------
    # registration and lookup

    def define_class(self, info: ClassInfo) -> ClassInfo:
        if info.name in self.classes:
            raise WorldError(f"duplicate class {info.name}")
        self.classes[info.name] = info
        short = info.name.rsplit(".", 1)[-1]
        # Short names resolve to the qualified name; user classes may shadow
        # nothing (library classes keep priority only if not redefined).
        self._short_names.setdefault(short, info.name)
        if short not in self.classes:
            self._short_names[short] = info.name
        return info

    def lookup(self, name: str) -> Optional[ClassInfo]:
        """Resolve a (possibly short) class name."""
        if name in self.classes:
            return self.classes[name]
        qualified = self._short_names.get(name)
        if qualified is not None:
            return self.classes.get(qualified)
        return None

    def require(self, name: str) -> ClassInfo:
        info = self.lookup(name)
        if info is None:
            raise WorldError(f"unknown class {name}")
        return info

    def class_of(self, type: ClassType) -> ClassInfo:
        return self.require(type.name)

    # ------------------------------------------------------------------
    # linking: superclass resolution, field slots, vtables

    def link(self) -> None:
        """Resolve superclasses and assign field slots and vtable slots."""
        for info in self.classes.values():
            if info.super_name is not None and info.superclass is None:
                info.superclass = self.require(info.super_name)
        for info in self.classes.values():
            self._link_class(info)

    def _link_class(self, info: ClassInfo) -> None:
        if info._linked:
            return
        if info.superclass is not None:
            self._link_class(info.superclass)
            info.all_instance_fields = list(info.superclass.all_instance_fields)
            info.vtable = list(info.superclass.vtable)
        else:
            info.all_instance_fields = []
            info.vtable = []
        for field in info.fields:
            if not field.is_static:
                field.slot = len(info.all_instance_fields)
                info.all_instance_fields.append(field)
        for method in info.methods:
            if method.is_static or method.is_constructor:
                continue
            slot = None
            for i, inherited in enumerate(info.vtable):
                if inherited.signature == method.signature:
                    slot = i
                    break
            if slot is None:
                slot = len(info.vtable)
                info.vtable.append(method)
            else:
                info.vtable[slot] = method
            method.vtable_slot = slot
        info._linked = True

    # ------------------------------------------------------------------
    # subtyping

    def is_subtype(self, sub: Type, sup: Type) -> bool:
        """Reference/identity subtyping (arrays are subtypes of Object)."""
        if sub == sup:
            return True
        if isinstance(sub, NullType):
            return sup.is_reference()
        if isinstance(sub, ArrayType):
            if isinstance(sup, ClassType):
                return sup.name == "java.lang.Object"
            if isinstance(sup, ArrayType):
                # Java array covariance for reference element types.
                return (sub.element.is_reference()
                        and sup.element.is_reference()
                        and self.is_subtype(sub.element, sup.element))
            return False
        if isinstance(sub, ClassType) and isinstance(sup, ClassType):
            return self.require(sub.name).is_subclass_of(self.require(sup.name))
        return False

    def assignable(self, src: Type, dst: Type) -> bool:
        """Assignment compatibility: subtyping or primitive widening."""
        if isinstance(src, PrimitiveType) and isinstance(dst, PrimitiveType):
            return widens_to(src, dst)
        return self.is_subtype(src, dst)

    def common_supertype(self, a: Type, b: Type) -> Type:
        """Least-ish common supertype used for ternary/phi typing."""
        if a == b:
            return a
        if isinstance(a, NullType):
            return b
        if isinstance(b, NullType):
            return a
        if self.is_subtype(a, b):
            return b
        if self.is_subtype(b, a):
            return a
        if isinstance(a, ClassType) and isinstance(b, ClassType):
            cls: Optional[ClassInfo] = self.require(a.name)
            while cls is not None:
                if self.is_subtype(b, cls.type):
                    return cls.type
                cls = cls.superclass
        if a.is_reference() and b.is_reference():
            return ClassType("java.lang.Object")
        raise WorldError(f"no common supertype of {a} and {b}")


# ----------------------------------------------------------------------
# Built-in ("imported") host library

def _m(name: str, params: Iterable[Type], ret: Type, *, static: bool = False) -> MethodInfo:
    return MethodInfo(name, list(params), ret, is_static=static, is_native=True)


def _install_builtins(world: World) -> None:
    obj = ClassInfo("java.lang.Object", None, is_builtin=True)
    obj.add_method(_m("<init>", [], VOID))
    obj.add_method(_m("toString", [], STRING))
    obj.add_method(_m("equals", [ClassType("java.lang.Object")], BOOLEAN))
    obj.add_method(_m("hashCode", [], INT))
    world.define_class(obj)

    string = ClassInfo("java.lang.String", "java.lang.Object", is_builtin=True)
    for method in (
        _m("length", [], INT),
        _m("charAt", [INT], CHAR),
        _m("equals", [ClassType("java.lang.Object")], BOOLEAN),
        _m("compareTo", [STRING], INT),
        _m("concat", [STRING], STRING),
        _m("substring", [INT, INT], STRING),
        _m("substring", [INT], STRING),
        _m("indexOf", [STRING], INT),
        _m("startsWith", [STRING], BOOLEAN),
        _m("endsWith", [STRING], BOOLEAN),
        _m("trim", [], STRING),
        _m("toString", [], STRING),
        _m("hashCode", [], INT),
        _m("valueOf", [INT], STRING, static=True),
        _m("valueOf", [LONG], STRING, static=True),
        _m("valueOf", [DOUBLE], STRING, static=True),
        _m("valueOf", [CHAR], STRING, static=True),
        _m("valueOf", [BOOLEAN], STRING, static=True),
        _m("valueOf", [ClassType("java.lang.Object")], STRING, static=True),
    ):
        string.add_method(method)
    world.define_class(string)

    builder = ClassInfo("java.lang.StringBuilder", "java.lang.Object", is_builtin=True)
    builder.add_method(_m("<init>", [], VOID))
    for arg in (STRING, INT, LONG, DOUBLE, CHAR, BOOLEAN,
                ClassType("java.lang.Object")):
        builder.add_method(_m("append", [arg], ClassType("java.lang.StringBuilder")))
    builder.add_method(_m("toString", [], STRING))
    builder.add_method(_m("length", [], INT))
    world.define_class(builder)

    stream = ClassInfo("java.io.PrintStream", "java.lang.Object", is_builtin=True)
    for arg in (STRING, INT, LONG, DOUBLE, CHAR, BOOLEAN,
                ClassType("java.lang.Object")):
        stream.add_method(_m("println", [arg], VOID))
        stream.add_method(_m("print", [arg], VOID))
    stream.add_method(_m("println", [], VOID))
    world.define_class(stream)

    system = ClassInfo("java.lang.System", "java.lang.Object", is_builtin=True)
    system.add_field(FieldInfo("out", ClassType("java.io.PrintStream"),
                               is_static=True, is_final=True))
    system.add_method(_m("currentTimeMillis", [], LONG, static=True))
    world.define_class(system)

    math = ClassInfo("java.lang.Math", "java.lang.Object", is_builtin=True)
    for method in (
        _m("sqrt", [DOUBLE], DOUBLE, static=True),
        _m("pow", [DOUBLE, DOUBLE], DOUBLE, static=True),
        _m("floor", [DOUBLE], DOUBLE, static=True),
        _m("ceil", [DOUBLE], DOUBLE, static=True),
        _m("abs", [INT], INT, static=True),
        _m("abs", [LONG], LONG, static=True),
        _m("abs", [DOUBLE], DOUBLE, static=True),
        _m("min", [INT, INT], INT, static=True),
        _m("min", [LONG, LONG], LONG, static=True),
        _m("min", [DOUBLE, DOUBLE], DOUBLE, static=True),
        _m("max", [INT, INT], INT, static=True),
        _m("max", [LONG, LONG], LONG, static=True),
        _m("max", [DOUBLE, DOUBLE], DOUBLE, static=True),
    ):
        math.add_method(method)
    world.define_class(math)

    integer = ClassInfo("java.lang.Integer", "java.lang.Object", is_builtin=True)
    integer.add_field(FieldInfo("MAX_VALUE", INT, is_static=True, is_final=True,
                                const_value=2**31 - 1))
    integer.add_field(FieldInfo("MIN_VALUE", INT, is_static=True, is_final=True,
                                const_value=-(2**31)))
    integer.add_method(_m("toString", [INT], STRING, static=True))
    integer.add_method(_m("parseInt", [STRING], INT, static=True))
    integer.add_method(_m("bitCount", [INT], INT, static=True))
    integer.add_method(_m("numberOfLeadingZeros", [INT], INT, static=True))
    integer.add_method(_m("numberOfTrailingZeros", [INT], INT, static=True))
    world.define_class(integer)

    long_cls = ClassInfo("java.lang.Long", "java.lang.Object", is_builtin=True)
    long_cls.add_field(FieldInfo("MAX_VALUE", LONG, is_static=True, is_final=True,
                                 const_value=2**63 - 1))
    long_cls.add_field(FieldInfo("MIN_VALUE", LONG, is_static=True, is_final=True,
                                 const_value=-(2**63)))
    long_cls.add_method(_m("toString", [LONG], STRING, static=True))
    world.define_class(long_cls)

    character = ClassInfo("java.lang.Character", "java.lang.Object", is_builtin=True)
    character.add_method(_m("isDigit", [CHAR], BOOLEAN, static=True))
    character.add_method(_m("isLetter", [CHAR], BOOLEAN, static=True))
    character.add_method(_m("isWhitespace", [CHAR], BOOLEAN, static=True))
    character.add_method(_m("isLetterOrDigit", [CHAR], BOOLEAN, static=True))
    world.define_class(character)

    # Exception hierarchy.
    def exception_class(name: str, super_name: str) -> ClassInfo:
        info = ClassInfo(name, super_name, is_builtin=True)
        info.add_method(_m("<init>", [], VOID))
        info.add_method(_m("<init>", [STRING], VOID))
        world.define_class(info)
        return info

    throwable = ClassInfo("java.lang.Throwable", "java.lang.Object", is_builtin=True)
    throwable.add_field(FieldInfo("message", STRING))
    throwable.add_method(_m("<init>", [], VOID))
    throwable.add_method(_m("<init>", [STRING], VOID))
    throwable.add_method(_m("getMessage", [], STRING))
    throwable.add_method(_m("toString", [], STRING))
    world.define_class(throwable)

    exception_class("java.lang.Exception", "java.lang.Throwable")
    exception_class("java.lang.RuntimeException", "java.lang.Exception")
    exception_class("java.lang.Error", "java.lang.Throwable")
    exception_class("java.lang.NullPointerException", "java.lang.RuntimeException")
    exception_class("java.lang.ArithmeticException", "java.lang.RuntimeException")
    exception_class("java.lang.ArrayIndexOutOfBoundsException",
                    "java.lang.RuntimeException")
    exception_class("java.lang.ArrayStoreException",
                    "java.lang.RuntimeException")
    exception_class("java.lang.ClassCastException", "java.lang.RuntimeException")
    exception_class("java.lang.NegativeArraySizeException",
                    "java.lang.RuntimeException")
    exception_class("java.lang.IllegalArgumentException",
                    "java.lang.RuntimeException")
    exception_class("java.lang.IllegalStateException",
                    "java.lang.RuntimeException")


def _host_library() -> tuple[dict[str, ClassInfo], dict[str, str]]:
    """Build and link the host library into a bare world's name maps."""
    host = World.__new__(World)
    host.classes, host._short_names = {}, {}
    _install_builtins(host)
    host.link()
    return host.classes, host._short_names


#: the host library, built once at import (so serve's executor threads
#: never race to build it) and shared read-only by every :class:`World`
_HOST_CLASSES, _HOST_SHORT_NAMES = _host_library()
