"""Core type objects for the MiniJava++ language and the SafeTSA model.

Types are value objects: two structurally equal types compare and hash
equal, so they can key register planes, CSE tables and type-table indices
directly.  Only the primitive types and the null type are interned (one
object per type, compared by identity); a :class:`ClassType` or
:class:`ArrayType` is a fresh object each time and compares by name or
element type.
"""

from __future__ import annotations

from typing import Optional

_PRIMITIVE_NAMES = ("int", "long", "float", "double", "boolean", "char", "void")

# Numeric widening partial order (Java 5.1.2, minus byte/short).
_WIDENINGS = {
    "char": {"int", "long", "float", "double"},
    "int": {"long", "float", "double"},
    "long": {"float", "double"},
    "float": {"double"},
}


class Type:
    """Abstract base of all MiniJava++ types."""

    #: short categorical tag, set by subclasses
    kind: str = "?"

    def is_reference(self) -> bool:
        return False

    def is_numeric(self) -> bool:
        return False

    def is_integral(self) -> bool:
        return False

    def descriptor(self) -> str:
        """JVM-style descriptor string (used by the class-file baseline)."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.kind} {self}>"


class PrimitiveType(Type):
    """One of Java's primitive types (plus ``void``)."""

    kind = "primitive"
    _interned: dict[str, "PrimitiveType"] = {}

    def __new__(cls, name: str) -> "PrimitiveType":
        if name not in _PRIMITIVE_NAMES:
            raise ValueError(f"unknown primitive type {name!r}")
        cached = cls._interned.get(name)
        if cached is None:
            cached = super().__new__(cls)
            cached.name = name
            cls._interned[name] = cached
        return cached

    def is_numeric(self) -> bool:
        return self.name in ("int", "long", "float", "double", "char")

    def is_integral(self) -> bool:
        return self.name in ("int", "long", "char")

    def descriptor(self) -> str:
        return {
            "int": "I",
            "long": "J",
            "float": "F",
            "double": "D",
            "boolean": "Z",
            "char": "C",
            "void": "V",
        }[self.name]

    def __str__(self) -> str:
        return self.name

    def __eq__(self, other: object) -> bool:
        return self is other

    def __hash__(self) -> int:
        return hash(("prim", self.name))


INT = PrimitiveType("int")
LONG = PrimitiveType("long")
FLOAT = PrimitiveType("float")
DOUBLE = PrimitiveType("double")
BOOLEAN = PrimitiveType("boolean")
CHAR = PrimitiveType("char")
VOID = PrimitiveType("void")


class NullType(Type):
    """The type of the ``null`` literal; subtype of every reference type."""

    kind = "null"
    _instance: Optional["NullType"] = None

    def __new__(cls) -> "NullType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def is_reference(self) -> bool:
        return True

    def descriptor(self) -> str:
        return "Ljava/lang/Object;"

    def __str__(self) -> str:
        return "null-type"

    def __eq__(self, other: object) -> bool:
        return self is other

    def __hash__(self) -> int:
        return hash("null-type")


NULL = NullType()


class ClassType(Type):
    """A class (or built-in library class) reference type.

    Identity is by qualified name; the :class:`~repro.typesys.world.World`
    holds the corresponding :class:`~repro.typesys.world.ClassInfo`.
    """

    kind = "class"

    def __init__(self, name: str):
        self.name = name

    def is_reference(self) -> bool:
        return True

    def descriptor(self) -> str:
        return "L" + self.name.replace(".", "/") + ";"

    def __str__(self) -> str:
        return self.name

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ClassType) and other.name == self.name

    def __hash__(self) -> int:
        return hash(("class", self.name))


class ArrayType(Type):
    """An array type ``element[]``."""

    kind = "array"

    def __init__(self, element: Type):
        if element is VOID:
            raise ValueError("cannot form an array of void")
        self.element = element

    def is_reference(self) -> bool:
        return True

    def descriptor(self) -> str:
        return "[" + self.element.descriptor()

    def __str__(self) -> str:
        return f"{self.element}[]"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ArrayType) and other.element == self.element

    def __hash__(self) -> int:
        return hash(("array", self.element))


OBJECT = ClassType("java.lang.Object")
STRING = ClassType("java.lang.String")
THROWABLE = ClassType("java.lang.Throwable")


def widens_to(src: Type, dst: Type) -> bool:
    """True when a primitive ``src`` value widens implicitly to ``dst``."""
    if src == dst:
        return True
    if isinstance(src, PrimitiveType) and isinstance(dst, PrimitiveType):
        return dst.name in _WIDENINGS.get(src.name, ())
    return False


def binary_numeric_promotion(left: Type, right: Type) -> Optional[PrimitiveType]:
    """Java binary numeric promotion (5.6.2), restricted to our primitives."""
    if not (left.is_numeric() and right.is_numeric()):
        return None
    names = {left.name, right.name}  # type: ignore[union-attr]
    for wide in ("double", "float", "long"):
        if wide in names:
            return PrimitiveType(wide)
    return INT
