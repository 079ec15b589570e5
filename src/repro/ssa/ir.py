"""The SafeTSA instruction set and its in-memory SSA representation.

Every instruction produces at most one value, deposited on the *register
plane* selected implicitly by the instruction and its type operands
(paper Section 3: type separation).  Operands are direct references to the
producing instructions; the wire format's ``(l, r)`` numbering is computed
by :mod:`repro.tsa.layout`.

Planes
------

* ``('prim', T)`` -- one plane per primitive type;
* ``('ref', T)``  -- one plane per reference type (classes and arrays);
* ``('safe', T)`` -- the matching null-checked plane of a reference type;
* ``('safeidx', a)`` -- the in-bounds index plane of the *array value* ``a``
  (Appendix A: safe-index types are bound to array values, not array types).
"""

from __future__ import annotations

import itertools
from typing import Iterable, Optional

from repro.typesys.ops import Operation
from repro.typesys.types import (
    ArrayType,
    BOOLEAN,
    ClassType,
    INT,
    PrimitiveType,
    Type,
    VOID,
)
from repro.typesys.world import ClassInfo, FieldInfo, MethodInfo, World

THROWABLE = ClassType("java.lang.Throwable")


class Plane:
    """A register plane: the implicit destination/source file of a type."""

    __slots__ = ("kind", "key")

    def __init__(self, kind: str, key: object):
        self.kind = kind  # 'prim' | 'ref' | 'safe' | 'safeidx'
        self.key = key

    # -- constructors ---------------------------------------------------

    @staticmethod
    def of_type(type: Type) -> "Plane":
        if isinstance(type, PrimitiveType):
            return Plane("prim", type)
        return Plane("ref", type)

    @staticmethod
    def safe(type: Type) -> "Plane":
        return Plane("safe", type)

    @staticmethod
    def safe_index(array_value: "Instr") -> "Plane":
        return Plane("safeidx", array_value)

    # -- structure ------------------------------------------------------

    @property
    def type(self) -> Optional[Type]:
        return self.key if self.kind != "safeidx" else INT

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Plane) and other.kind == self.kind
                and (other.key is self.key or other.key == self.key))

    def __hash__(self) -> int:
        if self.kind == "safeidx":
            return hash((self.kind, id(self.key)))
        return hash((self.kind, self.key))

    def __str__(self) -> str:
        if self.kind == "prim":
            return str(self.key)
        if self.kind == "ref":
            return f"ref:{self.key}"
        if self.kind == "safe":
            return f"safe:{self.key}"
        return f"safeidx:v{self.key.id}"

    def __repr__(self) -> str:  # pragma: no cover
        return f"<plane {self}>"


_instr_ids = itertools.count(1)


class Instr:
    """Base class of all SafeTSA instructions."""

    #: wire opcode mnemonic; subclasses override
    opcode = "?"
    #: True when the instruction may raise (must be an x-instruction)
    traps = False

    __slots__ = ("id", "block", "operands", "users", "plane")

    def __init__(self, plane: Optional[Plane], operands: Iterable["Instr"]):
        self.id = next(_instr_ids)
        self.block: Optional["Block"] = None
        self.operands: list[Instr] = []
        self.users: set[Instr] = set()
        self.plane = plane
        for operand in operands:
            self.add_operand(operand)

    # -- operand management ----------------------------------------------

    def add_operand(self, value: "Instr") -> None:
        self.operands.append(value)
        value.users.add(self)

    def set_operand(self, index: int, value: "Instr") -> None:
        old = self.operands[index]
        self.operands[index] = value
        if old not in self.operands:
            old.users.discard(self)
        value.users.add(self)

    def replace_all_uses(self, replacement: "Instr") -> None:
        """Rewrite every user (terminators included) to ``replacement``."""
        for user in list(self.users):
            for i, operand in enumerate(user.operands):
                if operand is self:
                    user.set_operand(i, replacement)

    def drop_operands(self) -> None:
        for operand in self.operands:
            operand.users.discard(self)
        self.operands = []

    # -- queries ----------------------------------------------------------

    @property
    def type(self) -> Optional[Type]:
        return self.plane.type if self.plane is not None else None

    def is_pure(self) -> bool:
        """True when the instruction has no side effect and cannot trap."""
        return not self.traps

    def describe(self) -> str:
        return self.opcode

    def __repr__(self) -> str:  # pragma: no cover
        return f"<v{self.id} {self.describe()}>"


class Const(Instr):
    """A constant, pre-loaded in the entry block (paper Section 5)."""

    opcode = "const"
    __slots__ = ("value",)

    def __init__(self, type: Type, value: object):
        super().__init__(Plane.of_type(type), [])
        self.value = value

    def describe(self) -> str:
        return f"const {self.value!r}:{self.type}"


class Param(Instr):
    """A parameter, pre-loaded in the entry block.  ``this`` (index 0 of an
    instance method) is intrinsically non-null and lives on the safe plane."""

    opcode = "param"
    __slots__ = ("index", "name")

    def __init__(self, index: int, type: Type, name: str = "",
                 is_this: bool = False):
        plane = Plane.safe(type) if is_this else Plane.of_type(type)
        super().__init__(plane, [])
        self.index = index
        self.name = name

    def describe(self) -> str:
        return f"param {self.index} ({self.name}):{self.plane}"


class Phi(Instr):
    """A phi-instruction; operands parallel the owning block's pred list.

    All operands and the result live on the same plane (paper Section 4:
    "phi-functions are strictly type-separated")."""

    opcode = "phi"
    __slots__ = ("var", "removed", "replacement", "is_eager")

    def __init__(self, plane: Plane, var: object = None,
                 is_eager: bool = False):
        super().__init__(plane, [])
        #: the source variable this phi merges (debugging / pruning stats)
        self.var = var
        #: set when removed as trivial; ``replacement`` forwards reads
        self.removed = False
        self.replacement: Optional[Instr] = None
        #: inserted eagerly (Brandis/Moessenboeck style): kept during
        #: construction even when trivial, so that Briggs pruning is what
        #: removes it (the paper's 31%)
        self.is_eager = is_eager

    def describe(self) -> str:
        refs = ", ".join(f"v{op.id}" for op in self.operands)
        return f"phi:{self.plane} [{refs}]"


class Prim(Instr):
    """``primitive``/``xprimitive``: apply a type-table operation."""

    __slots__ = ("operation",)

    def __init__(self, operation: Operation, args: list[Instr]):
        super().__init__(Plane.of_type(operation.result), args)
        self.operation = operation

    @property
    def opcode(self) -> str:  # type: ignore[override]
        return "xprimitive" if self.operation.traps else "primitive"

    @property
    def traps(self) -> bool:  # type: ignore[override]
        return self.operation.traps

    def describe(self) -> str:
        args = ", ".join(f"v{a.id}" for a in self.operands)
        return f"{self.opcode} {self.operation.qualified_name}({args})"


class RefCmp(Instr):
    """Reference equality on a common plane."""

    opcode = "refcmp"
    __slots__ = ("is_eq", "plane_type")

    def __init__(self, is_eq: bool, plane_type: Type, left: Instr,
                 right: Instr):
        super().__init__(Plane.of_type(BOOLEAN), [left, right])
        self.is_eq = is_eq
        self.plane_type = plane_type

    def describe(self) -> str:
        op = "==" if self.is_eq else "!="
        return f"refcmp v{self.operands[0].id} {op} v{self.operands[1].id}"


class NullCheck(Instr):
    """Copy a ref value to its safe-ref plane after a runtime null check."""

    opcode = "nullcheck"
    traps = True
    __slots__ = ("ref_type",)

    def __init__(self, ref_type: Type, value: Instr):
        super().__init__(Plane.safe(ref_type), [value])
        self.ref_type = ref_type

    def describe(self) -> str:
        return f"nullcheck v{self.operands[0].id} -> {self.plane}"


class IdxCheck(Instr):
    """Copy an int to the safe-index plane of an array value after a
    bounds check."""

    opcode = "idxcheck"
    traps = True
    __slots__ = ()

    def __init__(self, array: Instr, index: Instr):
        super().__init__(Plane.safe_index(array), [array, index])

    def set_operand(self, index: int, value: "Instr") -> None:
        super().set_operand(index, value)
        if index == 0:
            # the safe-index plane is bound to the array *value*; follow it
            self.plane = Plane.safe_index(value)

    @property
    def array(self) -> Instr:
        return self.operands[0]

    @property
    def index(self) -> Instr:
        return self.operands[1]

    def describe(self) -> str:
        return f"idxcheck v{self.array.id}[v{self.index.id}]"


class Upcast(Instr):
    """The paper's *upcast*: dynamically checked cast; traps on failure."""

    opcode = "upcast"
    traps = True
    __slots__ = ("target_type",)

    def __init__(self, target_type: Type, value: Instr):
        super().__init__(Plane.of_type(target_type), [value])
        self.target_type = target_type

    def describe(self) -> str:
        return f"upcast v{self.operands[0].id} to {self.target_type}"


class Downcast(Instr):
    """The paper's *downcast*: statically safe plane change, no runtime
    effect (safe-ref -> ref of the same class, or widening to a superclass
    plane)."""

    opcode = "downcast"
    __slots__ = ()

    def __init__(self, plane: Plane, value: Instr):
        super().__init__(plane, [value])

    def describe(self) -> str:
        return f"downcast v{self.operands[0].id} to {self.plane}"


class GetField(Instr):
    opcode = "getfield"
    __slots__ = ("base", "field")

    def __init__(self, base: ClassInfo, obj: Instr, field: FieldInfo):
        super().__init__(Plane.of_type(field.type), [obj])
        self.base = base
        self.field = field

    def describe(self) -> str:
        return f"getfield v{self.operands[0].id}.{self.field.name}"


class SetField(Instr):
    opcode = "setfield"
    __slots__ = ("base", "field")

    def __init__(self, base: ClassInfo, obj: Instr, field: FieldInfo,
                 value: Instr):
        super().__init__(None, [obj, value])
        self.base = base
        self.field = field

    def is_pure(self) -> bool:
        return False

    def describe(self) -> str:
        return (f"setfield v{self.operands[0].id}.{self.field.name}"
                f" = v{self.operands[1].id}")


class GetStatic(Instr):
    opcode = "getstatic"
    __slots__ = ("field",)

    def __init__(self, field: FieldInfo):
        super().__init__(Plane.of_type(field.type), [])
        self.field = field

    def describe(self) -> str:
        return f"getstatic {self.field.qualified_name}"


class SetStatic(Instr):
    opcode = "setstatic"
    __slots__ = ("field",)

    def __init__(self, field: FieldInfo, value: Instr):
        super().__init__(None, [value])
        self.field = field

    def is_pure(self) -> bool:
        return False

    def describe(self) -> str:
        return f"setstatic {self.field.qualified_name} = v{self.operands[0].id}"


class GetElt(Instr):
    opcode = "getelt"
    __slots__ = ("array_type",)

    def __init__(self, array_type: ArrayType, obj: Instr, index: Instr):
        super().__init__(Plane.of_type(array_type.element), [obj, index])
        self.array_type = array_type

    def describe(self) -> str:
        return f"getelt v{self.operands[0].id}[v{self.operands[1].id}]"


class SetElt(Instr):
    opcode = "setelt"
    __slots__ = ("array_type",)

    def __init__(self, array_type: ArrayType, obj: Instr, index: Instr,
                 value: Instr):
        super().__init__(None, [obj, index, value])
        self.array_type = array_type

    @property
    def traps(self) -> bool:  # type: ignore[override]
        # Java array covariance: a reference store is checked against the
        # runtime element type and may raise ArrayStoreException
        return self.array_type.element.is_reference()

    def is_pure(self) -> bool:
        return False

    def describe(self) -> str:
        return (f"setelt v{self.operands[0].id}[v{self.operands[1].id}]"
                f" = v{self.operands[2].id}")


class ArrayLen(Instr):
    opcode = "arraylen"
    __slots__ = ("array_type",)

    def __init__(self, array_type: ArrayType, obj: Instr):
        super().__init__(Plane.of_type(INT), [obj])
        self.array_type = array_type

    def describe(self) -> str:
        return f"arraylen v{self.operands[0].id}"


class New(Instr):
    """Allocate an instance; the result is intrinsically non-null and is
    deposited directly on the safe-ref plane."""

    opcode = "new"
    __slots__ = ("class_info",)

    def __init__(self, class_info: ClassInfo):
        super().__init__(Plane.safe(class_info.type), [])
        self.class_info = class_info

    def is_pure(self) -> bool:
        return False  # allocation is observable (identity)

    def describe(self) -> str:
        return f"new {self.class_info.name}"


class NewArray(Instr):
    opcode = "newarray"
    traps = True  # NegativeArraySizeException
    __slots__ = ("array_type",)

    def __init__(self, array_type: ArrayType, length: Instr):
        super().__init__(Plane.safe(array_type), [length])
        self.array_type = array_type

    def is_pure(self) -> bool:
        return False

    def describe(self) -> str:
        return f"newarray {self.array_type}[v{self.operands[0].id}]"


class InstanceOf(Instr):
    opcode = "instanceof"
    __slots__ = ("target_type",)

    def __init__(self, target_type: Type, value: Instr):
        super().__init__(Plane.of_type(BOOLEAN), [value])
        self.target_type = target_type

    def describe(self) -> str:
        return f"instanceof v{self.operands[0].id} {self.target_type}"


class Call(Instr):
    """``xcall`` (static binding) / ``xdispatch`` (virtual).

    For instance calls ``operands[0]`` is the receiver on the safe-ref
    plane of ``base``; the remaining operands are the arguments."""

    traps = True
    __slots__ = ("base", "method", "dispatch")

    def __init__(self, base: ClassInfo, method: MethodInfo,
                 args: list[Instr], dispatch: bool):
        result = method.return_type
        plane = Plane.of_type(result) if result is not VOID else None
        super().__init__(plane, args)
        self.base = base
        self.method = method
        self.dispatch = dispatch

    @property
    def opcode(self) -> str:  # type: ignore[override]
        return "xdispatch" if self.dispatch else "xcall"

    def is_pure(self) -> bool:
        return False

    def describe(self) -> str:
        args = ", ".join(f"v{a.id}" for a in self.operands)
        return f"{self.opcode} {self.method.qualified_name}({args})"


class CaughtExc(Instr):
    """The exception value at the head of an exception-handling join block
    (the paper's special exception phi).  Non-null by construction."""

    opcode = "caughtexc"
    __slots__ = ()

    def __init__(self):
        super().__init__(Plane.safe(THROWABLE), [])

    def describe(self) -> str:
        return "caughtexc"


# ======================================================================
# blocks, terminators, functions

class Term:
    """Block terminator descriptor.

    kind: 'fall' | 'branch' | 'return' | 'throw' | 'break' | 'continue'
    ``value`` is the condition (branch), return value, or thrown value;
    ``depth`` is the relative nesting index for break/continue.
    """

    __slots__ = ("kind", "value", "depth")

    def __init__(self, kind: str, value: Optional[Instr] = None,
                 depth: int = 0):
        self.kind = kind
        self.value = value
        self.depth = depth
        if value is not None:
            value.users.add(_TermUse(self))

    def __repr__(self) -> str:  # pragma: no cover
        extra = f" v{self.value.id}" if self.value is not None else ""
        if self.kind in ("break", "continue"):
            extra += f" depth={self.depth}"
        return f"<term {self.kind}{extra}>"


class _TermUse:
    """Adapter so terminators participate in use tracking."""

    __slots__ = ("term", "id")

    def __init__(self, term: Term):
        self.term = term
        self.id = -1

    @property
    def operands(self) -> list:
        return [self.term.value]

    def set_operand(self, index: int, value: Instr) -> None:
        old = self.term.value
        self.term.value = value
        value.users.add(self)
        if old is not None:
            old.users.discard(self)

    def __hash__(self) -> int:
        return id(self.term)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _TermUse) and other.term is self.term


_block_ids = itertools.count(0)


class Block:
    """A basic block: phis, ordinary instructions, and a terminator."""

    __slots__ = ("id", "function", "phis", "instrs", "term", "preds",
                 "succs", "exc_target", "caught")

    def __init__(self, function: Optional["Function"] = None):
        self.id = next(_block_ids)
        self.function = function
        self.phis: list[Phi] = []
        self.instrs: list[Instr] = []
        self.term: Optional[Term] = None
        #: (pred_block, kind) pairs, kind 'norm' | 'exc'; order defines
        #: the operand order of this block's phis
        self.preds: list[tuple["Block", str]] = []
        #: (succ_block, kind) pairs in edge-creation order; for a branch
        #: terminator the first two normal successors are (true, false)
        self.succs: list[tuple["Block", str]] = []
        #: dispatch block for exception edges (set while inside a try body)
        self.exc_target: Optional["Block"] = None
        #: the CaughtExc instruction if this is a dispatch block
        self.caught: Optional[CaughtExc] = None

    def append(self, instr: Instr) -> Instr:
        instr.block = self
        if isinstance(instr, Phi):
            self.phis.append(instr)
        elif isinstance(instr, CaughtExc):
            self.caught = instr
            self.instrs.append(instr)
        else:
            self.instrs.append(instr)
        return instr

    def all_instrs(self) -> list[Instr]:
        return list(self.phis) + self.instrs

    def add_pred(self, pred: "Block", kind: str = "norm") -> None:
        self.preds.append((pred, kind))
        pred.succs.append((self, kind))

    def normal_succs(self) -> list["Block"]:
        return [succ for succ, kind in self.succs if kind == "norm"]

    def exc_succ(self) -> Optional["Block"]:
        for succ, kind in self.succs:
            if kind == "exc":
                return succ
        return None

    def __repr__(self) -> str:  # pragma: no cover
        return f"<block B{self.id}>"


def trapping_tail_gate(def_block: Block, instr: Instr) -> Optional[Block]:
    """The block past which ``instr``'s result is actually defined.

    A trapping instruction that closes a subblock with an exception edge
    assigns its result only on the fall-through path -- when it traps,
    control leaves for the dispatch block *before* the definition.  The
    result is therefore defined exactly beneath the normal successor,
    not beneath the defining block: a use point merely dominated by
    ``def_block`` can still be reached through the exception edge with
    the register unassigned.  Returns that normal successor ("gate"), or
    None when the value is unconditionally defined at the end of
    ``def_block`` (non-trapping, no exception edge, or not the tail).
    """
    if not instr.traps or def_block.exc_succ() is None:
        return None
    if not def_block.instrs or def_block.instrs[-1] is not instr:
        return None
    succs = def_block.normal_succs()
    return succs[0] if len(succs) == 1 else None


class Function:
    """A SafeTSA method body: entry block, block list, CST, parameters.

    The interpreter, the JIT and the trace tier keep what they build
    from a function on it (``_generated``, made by
    :func:`repro.interp.interpreter.function_code`: the interpreter's
    block plans and call sites, the JIT's code, the trace builds) and
    share it between runners, so **a function must not be changed once
    it has run** under any of them.  In-repo producers keep this: every
    pass runs before a module is first executed, and the loaders hand
    out only fully decoded bodies.  Code that must change a function
    after it ran has to ``del function._generated``, which drops all of
    it, and use fresh runners.
    """

    def __init__(self, method: MethodInfo, class_info: ClassInfo):
        self.method = method
        self.class_info = class_info
        self.blocks: list[Block] = []
        self.entry: Optional[Block] = None
        self.cst = None  # set by construction (repro.ssa.cst region)
        self.params: list[Param] = []
        #: phi statistics (set by construction / pruning)
        self.phi_count_unpruned = 0

    def new_block(self) -> Block:
        block = Block(self)
        self.blocks.append(block)
        return block

    @property
    def name(self) -> str:
        return self.method.qualified_name

    def instruction_count(self) -> int:
        """Number of SafeTSA instructions in reachable blocks (phis
        included, paper Figure 5).  Unreachable blocks (e.g. a dispatch
        whose try lost all its exception points to optimisation) are not
        transmitted and therefore not counted."""
        return sum(len(b.phis) + len(b.instrs)
                   for b in self.reachable_blocks())

    def reachable_blocks(self) -> list[Block]:
        seen: set[int] = set()
        order: list[Block] = []
        stack = [self.entry]
        while stack:
            block = stack.pop()
            if block is None or block.id in seen:
                continue
            seen.add(block.id)
            order.append(block)
            stack.extend(succ for succ, _ in block.succs)
        return order

    def __repr__(self) -> str:  # pragma: no cover
        return f"<function {self.name}>"


class Module:
    """A SafeTSA code distribution unit: classes plus their method bodies."""

    def __init__(self, world: World, type_table):
        self.world = world
        self.type_table = type_table
        #: user classes in declaration order
        self.classes: list[ClassInfo] = []
        #: MethodInfo -> Function for every method with a body
        self.functions: dict[MethodInfo, Function] = {}

    def add_function(self, function: Function) -> None:
        self.functions[function.method] = function

    def function_named(self, class_name: str, method_name: str) -> Function:
        for method, function in self.functions.items():
            if method.declaring.name.split(".")[-1] == class_name.split(".")[-1] \
                    and method.name == method_name:
                return function
        raise KeyError(f"no function {class_name}.{method_name}")

    def intern_used_types(self) -> None:
        """Make sure every type referenced by an instruction is in the
        type table (array types together with their element types)."""
        table = self.type_table

        def intern(type: Type) -> None:
            if type not in table:
                table.intern(type)
            if isinstance(type, ArrayType):
                intern(type.element)

        for function in self.functions.values():
            for block in function.blocks:
                for instr in block.all_instrs():
                    plane = instr.plane
                    if plane is not None and plane.kind != "safeidx":
                        intern(plane.type)
                    for attr in ("target_type", "ref_type", "array_type",
                                 "plane_type"):
                        value = getattr(instr, attr, None)
                        if isinstance(value, Type):
                            intern(value)

    def instruction_count(self) -> int:
        return sum(f.instruction_count() for f in self.functions.values())

    def count_opcodes(self, *opcodes: str) -> int:
        total = 0
        for function in self.functions.values():
            for block in function.reachable_blocks():
                for instr in block.all_instrs():
                    if instr.opcode in opcodes:
                        total += 1
        return total
