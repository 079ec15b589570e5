"""Reference lexer for the differential tokenizer tests.

This is MiniJava++'s original character-at-a-time lexer, kept as the
oracle that ``repro.frontend.lexer.tokenize`` must agree with token for
token, or error for error.  Only this docstring and the entry point's
name (``reference_tokenize``) differ from the original; nothing under
``src/`` imports it.

It has two known defects the shipped tokenizer fixes: ``0x``/``0xL``
with no hex digits and a non-decimal digit such as ``\u00b2`` in a
number reach ``int()``/``float()`` and raise a raw ``ValueError``
instead of a ``CompileError``.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.frontend.errors import CompileError, SourcePosition

KEYWORDS = frozenset({
    "abstract", "boolean", "break", "case", "catch", "char", "class",
    "continue", "default", "do", "double", "else", "extends", "final",
    "finally", "float", "for", "if", "instanceof", "int", "long", "new",
    "null", "package", "private", "protected", "public", "return", "static",
    "super", "switch", "this", "throw", "throws", "try", "void", "while",
    "true", "false", "import",
})

#: multi-character operators, longest first so maximal munch works
OPERATORS = (
    ">>>=", "<<=", ">>=", ">>>",
    "==", "!=", "<=", ">=", "&&", "||", "++", "--",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<", ">>",
    "+", "-", "*", "/", "%", "=", "<", ">", "!", "~", "&", "|", "^",
    "?", ":", ";", ",", ".", "(", ")", "{", "}", "[", "]", "@",
)


class Token:
    """A lexical token: ``kind`` is 'ident', 'int', 'long', 'float', 'double',
    'char', 'string', 'keyword', 'op' or 'eof'."""

    __slots__ = ("kind", "text", "value", "pos")

    def __init__(self, kind: str, text: str, value: object,
                 pos: SourcePosition):
        self.kind = kind
        self.text = text
        self.value = value
        self.pos = pos

    def __repr__(self) -> str:  # pragma: no cover
        return f"Token({self.kind!r}, {self.text!r})"


_ESCAPES = {
    "n": "\n", "t": "\t", "r": "\r", "b": "\b", "f": "\f",
    "'": "'", '"': '"', "\\": "\\", "0": "\0",
}


class Lexer:
    """Converts MiniJava++ source text into a token stream."""

    def __init__(self, source: str, filename: str = "<source>"):
        self.source = source
        self.filename = filename
        self.pos = 0
        self.line = 1
        self.column = 1

    # ------------------------------------------------------------------

    def _position(self) -> SourcePosition:
        return SourcePosition(self.line, self.column)

    def _peek(self, offset: int = 0) -> str:
        index = self.pos + offset
        return self.source[index] if index < len(self.source) else ""

    def _advance(self, count: int = 1) -> None:
        for _ in range(count):
            if self.pos < len(self.source):
                if self.source[self.pos] == "\n":
                    self.line += 1
                    self.column = 1
                else:
                    self.column += 1
                self.pos += 1

    def _error(self, message: str) -> CompileError:
        return CompileError(message, self._position())

    # ------------------------------------------------------------------

    def tokens(self) -> Iterator[Token]:
        while True:
            token = self.next_token()
            yield token
            if token.kind == "eof":
                return

    def next_token(self) -> Token:
        self._skip_whitespace_and_comments()
        pos = self._position()
        ch = self._peek()
        if not ch:
            return Token("eof", "", None, pos)
        if ch.isalpha() or ch == "_" or ch == "$":
            return self._lex_word(pos)
        if ch.isdigit() or (ch == "." and self._peek(1).isdigit()):
            return self._lex_number(pos)
        if ch == "'":
            return self._lex_char(pos)
        if ch == '"':
            return self._lex_string(pos)
        for op in OPERATORS:
            if self.source.startswith(op, self.pos):
                self._advance(len(op))
                return Token("op", op, op, pos)
        raise self._error(f"unexpected character {ch!r}")

    def _skip_whitespace_and_comments(self) -> None:
        while True:
            ch = self._peek()
            if ch and ch in " \t\r\n":
                self._advance()
            elif ch == "/" and self._peek(1) == "/":
                while self._peek() and self._peek() != "\n":
                    self._advance()
            elif ch == "/" and self._peek(1) == "*":
                self._advance(2)
                while self._peek() and not (self._peek() == "*" and self._peek(1) == "/"):
                    self._advance()
                if not self._peek():
                    raise self._error("unterminated block comment")
                self._advance(2)
            else:
                return

    def _lex_word(self, pos: SourcePosition) -> Token:
        start = self.pos
        while self._peek() and (self._peek().isalnum() or self._peek() in "_$"):
            self._advance()
        text = self.source[start:self.pos]
        if text in KEYWORDS:
            return Token("keyword", text, text, pos)
        return Token("ident", text, text, pos)

    def _lex_number(self, pos: SourcePosition) -> Token:
        start = self.pos
        is_hex = False
        if self._peek() == "0" and self._peek(1) in "xX":
            is_hex = True
            self._advance(2)
            while self._peek() and self._peek() in "0123456789abcdefABCDEF":
                self._advance()
        else:
            while self._peek().isdigit():
                self._advance()
        is_float = False
        if not is_hex:
            if self._peek() == "." and self._peek(1).isdigit():
                is_float = True
                self._advance()
                while self._peek().isdigit():
                    self._advance()
            if self._peek() in "eE" and (
                    self._peek(1).isdigit()
                    or (self._peek(1) in "+-" and self._peek(2).isdigit())):
                is_float = True
                self._advance()
                if self._peek() in "+-":
                    self._advance()
                while self._peek().isdigit():
                    self._advance()
        text = self.source[start:self.pos]
        suffix = self._peek()
        if suffix and suffix in "lL" and not is_float:
            self._advance()
            value = int(text, 16) if is_hex else int(text)
            if value >= 2**63:
                raise self._error(f"long literal too large: {text}")
            return Token("long", text + suffix, value, pos)
        if suffix and suffix in "fF":
            self._advance()
            return Token("float", text + suffix, float(text), pos)
        if suffix and suffix in "dD":
            self._advance()
            return Token("double", text + suffix, float(text), pos)
        if is_float:
            return Token("double", text, float(text), pos)
        value = int(text, 16) if is_hex else int(text)
        if is_hex and value >= 2**31:
            value -= 2**32  # 0xFFFFFFFF is a valid negative int literal
        if value > 2**31:
            # 2147483648 is permitted only as the operand of unary minus;
            # the parser folds that case, so reject anything larger here.
            raise self._error(f"int literal too large: {text}")
        return Token("int", text, value, pos)

    def _lex_char(self, pos: SourcePosition) -> Token:
        self._advance()
        ch = self._peek()
        if not ch:
            raise self._error("unterminated char literal")
        if ch == "\\":
            self._advance()
            value = self._escape()
        else:
            value = ch
            self._advance()
        if self._peek() != "'":
            raise self._error("unterminated char literal")
        self._advance()
        return Token("char", value, ord(value), pos)

    def _lex_string(self, pos: SourcePosition) -> Token:
        self._advance()
        chars: list[str] = []
        while True:
            ch = self._peek()
            if not ch or ch == "\n":
                raise self._error("unterminated string literal")
            if ch == '"':
                self._advance()
                break
            if ch == "\\":
                self._advance()
                chars.append(self._escape())
            else:
                chars.append(ch)
                self._advance()
        value = "".join(chars)
        return Token("string", value, value, pos)

    def _escape(self) -> str:
        ch = self._peek()
        if ch == "u":
            self._advance()
            digits = ""
            for _ in range(4):
                digits += self._peek()
                self._advance()
            try:
                return chr(int(digits, 16))
            except ValueError:
                raise self._error(f"bad unicode escape \\u{digits}") from None
        mapped = _ESCAPES.get(ch)
        if mapped is None:
            raise self._error(f"unknown escape sequence \\{ch}")
        self._advance()
        return mapped


def reference_tokenize(source: str,
                       filename: str = "<source>") -> list[Token]:
    """Tokenize ``source`` into a list ending with an ``eof`` token."""
    return list(Lexer(source, filename).tokens())
