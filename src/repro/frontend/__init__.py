"""MiniJava++ front-end: lexer, parser, and semantic analysis.

This is the stand-in for the paper's Pizza-based Java front-end.  It
accepts a substantial Java subset (classes, single inheritance, overloaded
methods, constructors, arrays, the full statement grammar including
``try``/``catch``/``finally``, ``switch`` and labeled loops) and produces a
typed AST, from which :mod:`repro.uast` builds the Unified Abstract Syntax
Tree the SSA generator consumes.
"""

from repro.frontend.errors import CompileError, SourcePosition
from repro.frontend.lexer import tokenize
from repro.frontend.parser import Parser, parse_compilation_unit
from repro.frontend.semantics import SemanticAnalyzer, analyze

__all__ = [
    "CompileError",
    "SourcePosition",
    "tokenize",
    "Parser",
    "parse_compilation_unit",
    "SemanticAnalyzer",
    "analyze",
]
