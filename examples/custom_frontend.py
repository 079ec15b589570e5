"""A non-Java producer: building SafeTSA through the programmatic API.

The paper designed the UAST for "input languages other than Java"
(Section 7).  This example plays the role of such a front-end: it
compiles a tiny stack-calculator language straight into SafeTSA with
:class:`repro.tsa.builder.ModuleBuilder`, then ships and runs the result
exactly like Java-sourced code.

Run with:  python examples/custom_frontend.py
"""

from repro.encode.serializer import encode_module
from repro.interp.interpreter import Interpreter
from repro.loader import load_module
from repro.tsa.builder import ModuleBuilder
from repro.typesys.types import ArrayType, INT


def compile_calculator(program: str):
    """Compile a postfix-calculator program (digits and + - *) into a
    SafeTSA method ``Calc.run(int[] stack) -> int``."""
    mb = ModuleBuilder()
    calc = mb.new_class("Calc")
    with calc.method("run", [("stack", ArrayType(INT))], INT) as b:
        sp = b.local(INT, "sp", b.const(0))

        def push(value):
            b.array_set(b.arg("stack"), b.get(sp), value)
            b.set(sp, b.add(b.get(sp), b.const(1)))

        def pop():
            b.set(sp, b.sub(b.get(sp), b.const(1)))
            return b.array_get(b.arg("stack"), b.get(sp))

        for token in program.split():
            if token.isdigit():
                push(b.const(int(token)))
            else:
                right = b.local(INT, f"r{len(program)}_{id(token)}", pop())
                left = b.local(INT, f"l{len(program)}_{id(token)}", pop())
                op = {"+": b.add, "-": b.sub, "*": b.mul}[token]
                push(op(b.get(left), b.get(right)))
        b.set(sp, b.sub(b.get(sp), b.const(1)))
        b.ret(b.array_get(b.arg("stack"), b.get(sp)))
    return mb.build(optimize=True)


def main() -> None:
    program = "3 4 + 5 2 - *"       # (3+4) * (5-2) = 21
    module = compile_calculator(program)
    wire = encode_module(module)
    print(f"calculator program {program!r} compiled to {len(wire)} "
          "bytes of SafeTSA")
    received = load_module(wire)
    from repro.interp.heap import ArrayRef
    stack = ArrayRef(ArrayType(INT), 16)
    function = received.function_named("Calc", "run")
    result = Interpreter(received).run_function(function, [stack])
    print(f"evaluated: {result.value}")
    assert result.value == 21


if __name__ == "__main__":
    main()
