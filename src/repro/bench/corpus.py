"""The benchmark corpus.

The paper measures classes from the Sun JDK (``sun.tools.javac``,
``sun.tools.java``, ``sun.math``) plus Linpack.  Those sources are
proprietary, so this corpus contains programs of matching character
(see DESIGN.md, "Substitutions"):

=================  ====================================================
program            stands in for
=================  ====================================================
Scanner            sun.tools.java.Scanner (lexing, char tests, switch)
Parser             sun.tools.java.Parser (recursive descent, AST)
Environment        sun.tools.javac.BatchEnvironment (symbol tables)
BigInt             sun.math.BigInteger (limb arrays, carries)
MutableBigInt      sun.math.MutableBigInteger (in-place limb updates)
BigDecimalLite     sun.math.BigDecimal (scaled arithmetic, rounding)
BinaryCode         sun.tools.java.BinaryCode (stream decoding, try/catch)
BitSieve           sun.math.BitSieve (bit manipulation)
MiniVM             the "java" interpreter classes (switch dispatch loop)
Linpack            Linpack (dgefa/dgesl/daxpy, the array-check case)
=================  ====================================================

Every program has a deterministic ``main`` whose output is pinned by the
test suite and compared across the SafeTSA interpreter, the optimised
module, the decoded module and the bytecode interpreter.
"""

from __future__ import annotations

from pathlib import Path

_CORPUS_DIR = Path(__file__).parent / "corpus"

#: program name -> main class name (the file stem)
CORPUS_PROGRAMS = (
    "Scanner",
    "Parser",
    "Environment",
    "BinaryCode",
    "BigInt",
    "MutableBigInt",
    "BigDecimalLite",
    "BitSieve",
    "MiniVM",
    "Linpack",
)


def corpus_source(name: str) -> str:
    """The MiniJava++ source text of a corpus program."""
    path = _CORPUS_DIR / f"{name}.java"
    if not path.exists():
        raise KeyError(f"no corpus program {name!r}")
    return path.read_text()


def corpus_sources() -> dict[str, str]:
    return {name: corpus_source(name) for name in CORPUS_PROGRAMS}
