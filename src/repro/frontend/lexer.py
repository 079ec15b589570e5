"""Regex tokenizer for MiniJava++.

One compiled master pattern matches the whitespace and comments before a
token together with the token itself; :func:`tokenize` walks it from
offset to offset.  Line and column come from offsets: the newlines
between two token starts are counted with ``str.count`` instead of being
tracked character by character.

Identifiers follow ``str.isalpha``/``str.isalnum`` (``\\w`` in the
pattern), and numbers take any Unicode decimal digit (``\\d``).  A digit
that is not decimal, such as ``\\u00b2``, cannot be converted, so a
number that would include one is rejected with a ``CompileError`` at the
literal's start; those checks run only for a source that is not ASCII.
String and char literals are decoded from their opening quote by two
small offset-based helpers.  ``tests/lexer_reference.py`` keeps the
original character-at-a-time lexer, which this one matches token for
token and error for error; only the literals it let reach a raw
``ValueError`` are a ``CompileError`` here.
"""

from __future__ import annotations

import re

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

#: skipped text, then exactly one token alternative; ``rest`` matches the
#: opening quote of a string or char literal (decoded from there by
#: :func:`_string`/:func:`_char`), an unexpected character or, matching
#: empty, the end of the source
_TOKEN = re.compile(r"""
    (?:[ \t\r\n]+ | //[^\n]* | /\*(?s:.*?)\*/)*
    (?:
        (?P<word>(?:[^\W\d]|\$)[\w$]*)
      | (?P<hex>0[xX][0-9a-fA-F]*)
      | (?P<number>(?:\d+(?:\.\d+)?|\.\d+)(?:[eE][+-]?\d+)?)
      | (?P<comment>/\*)
      | (?P<op>""" + "|".join(re.escape(op) for op in OPERATORS) + r""")
      | (?P<rest>(?s:.)?)
    )
""", re.VERBOSE)

#: the run of a string literal up to its next quote, escape or newline
_STRING_RUN = re.compile(r'[^"\\\n]*')


def _position(source: str, offset: int) -> SourcePosition:
    """The 1-based line and column of ``offset``."""
    return SourcePosition(source.count("\n", 0, offset) + 1,
                          offset - source.rfind("\n", 0, offset))


def _error(message: str, source: str, offset: int) -> CompileError:
    return CompileError(message, _position(source, offset))


def _escape(source: str, index: int) -> tuple[str, int]:
    """Decode the escape whose letter is at ``index`` (just past the
    backslash); returns the character and the offset after it."""
    letter = source[index:index + 1]
    if letter == "u":
        digits = source[index + 1:index + 5]
        end = index + 1 + len(digits)
        try:
            return chr(int(digits, 16)), end
        except ValueError:
            raise _error(f"bad unicode escape \\u{digits}",
                         source, end) from None
    mapped = _ESCAPES.get(letter)
    if mapped is None:
        raise _error(f"unknown escape sequence \\{letter}", source, index)
    return mapped, index + 1


def _string(source: str, start: int) -> tuple[str, int]:
    """Decode the string literal opening at ``start``; returns its value
    and the offset after the closing quote."""
    parts: list[str] = []
    index = start + 1
    while True:
        run = _STRING_RUN.match(source, index)
        parts.append(run.group())
        index = run.end()
        ch = source[index:index + 1]
        if ch == '"':
            return "".join(parts), index + 1
        if ch != "\\":  # a newline or the end of the source
            raise _error("unterminated string literal", source, index)
        value, index = _escape(source, index + 1)
        parts.append(value)


def _char(source: str, start: int) -> tuple[str, int]:
    """Decode the char literal opening at ``start``; returns its value
    and the offset after the closing quote."""
    index = start + 1
    ch = source[index:index + 1]
    if not ch:
        raise _error("unterminated char literal", source, index)
    if ch == "\\":
        value, index = _escape(source, index + 1)
    else:
        value, index = ch, index + 1
    if source[index:index + 1] != "'":
        raise _error("unterminated char literal", source, index)
    return value, index + 1


def _nondecimal_digit(ch: str) -> bool:
    """True for a digit that ``\\d`` skips and ``int()`` rejects."""
    return ch.isdigit() and not ch.isdecimal()


def _swallowed_digit(source: str, text: str, end: int) -> str:
    """The non-decimal digit the decimal literal ``text`` ending at
    ``end`` would extend over -- continuing its last digit run, starting
    a fraction or starting an exponent -- or ``""`` if there is none."""
    follow = source[end:end + 3]
    if _nondecimal_digit(follow[:1]):
        return follow[0]
    if text.isdigit() and follow[:1] == "." \
            and _nondecimal_digit(follow[1:2]):
        return follow[1]
    if "e" in text or "E" in text or follow[:1] not in ("e", "E"):
        return ""
    if _nondecimal_digit(follow[1:2]):
        return follow[1]
    if follow[1:2] in ("+", "-") and _nondecimal_digit(follow[2:3]):
        return follow[2]
    return ""


def _number(source: str, text: str, end: int, is_hex: bool,
            pos: SourcePosition) -> tuple[Token, int]:
    """Build the literal ``text`` that ends at ``end``, taking a
    ``l``/``f``/``d`` suffix; returns the token and the offset after it."""
    is_float = not is_hex and not text.isdigit()
    suffix = source[end:end + 1]
    if is_hex and len(text) == 2:
        raise CompileError(f"hex literal without digits: {text}", pos)
    if suffix in ("l", "L") and not is_float:
        value = int(text, 16) if is_hex else int(text)
        if value >= 2**63:
            raise _error(f"long literal too large: {text}", source, end + 1)
        return Token("long", text + suffix, value, pos), end + 1
    if suffix in ("f", "F"):
        return Token("float", text + suffix, float(text), pos), end + 1
    if suffix in ("d", "D"):
        return Token("double", text + suffix, float(text), pos), end + 1
    if is_float:
        return Token("double", text, float(text), pos), end
    value = int(text, 16) if is_hex else int(text)
    if is_hex and value >= 2**31:
        value -= 2**32  # 0xFFFFFFFF is a valid negative int literal
    if value > 2**31:
        # 2147483648 is permitted only as the operand of unary minus;
        # the parser folds that case, so reject anything larger here.
        raise _error(f"int literal too large: {text}", source, end)
    return Token("int", text, value, pos), end


def _nondecimal_error(ch: str, pos: SourcePosition) -> CompileError:
    return CompileError(f"non-decimal digit {ch!r} in number literal", pos)


def tokenize(source: str, filename: str = "<source>") -> list[Token]:
    """Tokenize ``source`` into a list ending with an ``eof`` token."""
    tokens: list[Token] = []
    append = tokens.append
    match = _TOKEN.match
    keywords = KEYWORDS
    # every non-ASCII check is skipped for the (usual) ASCII source
    exotic = not source.isascii()
    offset = 0
    line, line_start, counted = 1, 0, 0
    while True:
        m = match(source, offset)
        kind = m.lastgroup
        start = m.start(kind)
        newlines = source.count("\n", counted, start)
        if newlines:
            line += newlines
            line_start = source.rfind("\n", counted, start) + 1
        counted = start
        pos = SourcePosition(line, start - line_start + 1)
        offset = m.end()
        if kind == "word":
            text = m.group(kind)
            if exotic and not (text[0].isalpha() or text[0] in "_$"):
                if text[0].isdigit():
                    raise _nondecimal_error(text[0], pos)
                raise CompileError(f"unexpected character {text[0]!r}", pos)
            append(Token("keyword" if text in keywords else "ident",
                         text, text, pos))
        elif kind == "op":
            text = m.group(kind)
            if exotic and text == "." \
                    and _nondecimal_digit(source[offset:offset + 1]):
                raise _nondecimal_error(source[offset], pos)
            append(Token("op", text, text, pos))
        elif kind == "number" or kind == "hex":
            text = m.group(kind)
            if exotic and kind == "number":
                digit = _swallowed_digit(source, text, offset)
                if digit:
                    raise _nondecimal_error(digit, pos)
            token, offset = _number(source, text, offset, kind == "hex",
                                    pos)
            append(token)
        elif kind == "comment":
            raise _error("unterminated block comment", source, len(source))
        elif start == len(source):
            append(Token("eof", "", None, pos))
            return tokens
        else:
            ch = source[start]
            if ch == '"':
                value, offset = _string(source, start)
                append(Token("string", value, value, pos))
            elif ch == "'":
                value, offset = _char(source, start)
                append(Token("char", value, ord(value), pos))
            else:
                raise CompileError(f"unexpected character {ch!r}", pos)
