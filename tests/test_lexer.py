"""Unit tests for the MiniJava++ lexer."""

import random

import pytest
from lexer_reference import reference_tokenize

from repro.frontend.errors import CompileError
from repro.frontend.lexer import tokenize


def kinds(source):
    return [t.kind for t in tokenize(source)][:-1]  # drop eof


def values(source):
    return [t.value for t in tokenize(source)][:-1]


class TestBasics:
    def test_empty_source(self):
        tokens = tokenize("")
        assert len(tokens) == 1 and tokens[0].kind == "eof"

    def test_identifiers_and_keywords(self):
        tokens = tokenize("class Foo int x while whileFoo _bar $x")
        assert [t.kind for t in tokens[:-1]] == [
            "keyword", "ident", "keyword", "ident", "keyword", "ident",
            "ident", "ident"]

    def test_line_comment(self):
        assert kinds("a // comment to eol\n b") == ["ident", "ident"]

    def test_block_comment(self):
        assert kinds("a /* x\n y */ b") == ["ident", "ident"]

    def test_unterminated_block_comment(self):
        with pytest.raises(CompileError):
            tokenize("/* never closed")

    def test_positions_track_lines(self):
        tokens = tokenize("a\n  b")
        assert tokens[0].pos.line == 1
        assert tokens[1].pos.line == 2
        assert tokens[1].pos.column == 3


class TestNumbers:
    def test_int_literal(self):
        assert values("42") == [42]

    def test_hex_literal(self):
        assert values("0x1F") == [31]

    def test_hex_high_bit_is_negative(self):
        assert values("0xFFFFFFFF") == [-1]
        assert values("0xCAFEBABE")[0] < 0

    def test_long_literal(self):
        tokens = tokenize("42L 0x10L")
        assert tokens[0].kind == "long" and tokens[0].value == 42
        assert tokens[1].kind == "long" and tokens[1].value == 16

    def test_double_literal_forms(self):
        tokens = tokenize("1.5 2e3 1.25e-2 7d")
        assert all(t.kind == "double" for t in tokens[:-1])
        assert tokens[1].value == 2000.0
        assert tokens[2].value == 0.0125

    def test_float_literal(self):
        tokens = tokenize("1.5f 2F")
        assert all(t.kind == "float" for t in tokens[:-1])

    def test_int_too_large_rejected(self):
        with pytest.raises(CompileError):
            tokenize("99999999999")

    def test_max_negative_boundary_allowed(self):
        # 2147483648 is only legal under unary minus; lexing it is fine
        assert values("2147483648") == [2**31]

    def test_member_access_not_float(self):
        assert kinds("a.b") == ["ident", "op", "ident"]


class TestCharsAndStrings:
    def test_char_literal(self):
        assert values("'a'") == [97]

    def test_char_escapes(self):
        assert values(r"'\n' '\t' '\\' '\''") == [10, 9, 92, 39]

    def test_unicode_escape(self):
        assert values(r"'A'") == [65]

    def test_string_literal(self):
        assert values('"hello"') == ["hello"]

    def test_string_escapes(self):
        assert values(r'"a\"b\n"') == ['a"b\n']

    def test_unterminated_string(self):
        with pytest.raises(CompileError):
            tokenize('"abc')

    def test_string_may_not_span_lines(self):
        with pytest.raises(CompileError):
            tokenize('"ab\ncd"')

    def test_unknown_escape_rejected(self):
        with pytest.raises(CompileError):
            tokenize(r'"\q"')


class TestOperators:
    def test_maximal_munch(self):
        text = [t.text for t in tokenize("a >>> b >> c > d >= e")][:-1]
        assert text == ["a", ">>>", "b", ">>", "c", ">", "d", ">=", "e"]

    def test_compound_assignment_operators(self):
        text = [t.text for t in tokenize("x <<= 1; y >>>= 2; z %= 3")][:-1]
        assert "<<=" in text and ">>>=" in text and "%=" in text

    def test_increment_vs_plus(self):
        text = [t.text for t in tokenize("a++ + ++b")][:-1]
        assert text == ["a", "++", "+", "++", "b"]

    def test_unexpected_character(self):
        with pytest.raises(CompileError):
            tokenize("a ` b")


class TestMalformedNumbers:
    """Literals ``int()``/``float()`` cannot convert are diagnosed at the
    literal's start instead of escaping as a raw ``ValueError``."""

    @pytest.mark.parametrize("source, column", [
        ("0x", 1), ("0X", 1), ("0xL", 1), ("x = 0x;", 5), ("0x.5", 1),
        ("\u00b2", 1), ("1\u00b2", 1), (".\u00b2", 1), ("1.\u00b2", 1),
        ("1e\u00b2", 1), ("1e+\u00b2", 1), ("2.5\u00b2f", 1),
        ("a = 12\u2460;", 5), ("0x1\u00b2", 4),
    ])
    def test_compile_error_at_literal_start(self, source, column):
        with pytest.raises(CompileError) as caught:
            tokenize(source)
        assert (caught.value.pos.line, caught.value.pos.column) == \
            (1, column)

    def test_nondecimal_digit_inside_identifier_is_fine(self):
        assert [t.text for t in tokenize("a\u00b2 b1")][:-1] == \
            ["a\u00b2", "b1"]

    def test_unicode_decimal_digits_convert(self):
        assert values("\u0663\u0662") == [32]


# ----------------------------------------------------------------------
# differential agreement with the original character-at-a-time lexer

#: characters and fragments that reach every token kind and every
#: error path: hex/long/float/char/string literals and escapes,
#: unterminated literals and comments, non-ASCII letters, decimal
#: digits (Arabic-Indic, fullwidth), non-decimal digits (superscript,
#: circled), other numerics (one half, Roman twelve), a combining mark
#: and a no-break space
ALPHABET = tuple("0123456789abcdefxXlLfFdDeEuU.+-*/\\\"' \n\t\r_$;(){}[]"
                 "<>=!&|^%~?:,@#`") + (
    "\u00e9", "\u00aa", "\u00df", "\u4e2d", "\u0663", "\uff10",
    "\u00b2", "\u2460", "\u00bd", "\u216b", "\u0301", "\u00a0", "\x00",
    "\f", "0x", "/*", "*/", "//", "\\u", "\\u0041", "e+", "e-", ".5",
    "1e", "2147483648", "9223372036854775808L", "0xFFFFFFFFF",
    "0x100000000",
)

#: one source per error path of the reference lexer
ERROR_PATHS = {
    "unterminated block comment": "a /* b\n c",
    "unterminated string literal": 'x = "ab\ncd";',
    "unterminated char literal": "c = 'ab';",
    "unknown escape sequence": 's = "\\q";',
    "bad unicode escape": "c = '\\u12g4';",
    "int literal too large": "x = 2147483649;",
    "long literal too large": "y = 9223372036854775808L;",
    "unexpected character": "a # b",
}


def outcome(tokenizer, source):
    """Token tuples, or ``("error", message, line, column)``; a raw
    ``ValueError`` (reference only) reads as ``("ValueError",)``."""
    try:
        return [(t.kind, t.text, t.value, t.pos.line, t.pos.column)
                for t in tokenizer(source)]
    except CompileError as error:
        return ("error", error.message, error.pos.line, error.pos.column)
    except ValueError:
        return ("ValueError",)


def assert_agrees(source):
    expected = outcome(reference_tokenize, source)
    actual = outcome(tokenize, source)
    if expected == ("ValueError",):
        assert actual[0] == "error", (source, actual)
    else:
        assert actual == expected, source
    return expected


def draw_sources(seed, count):
    from repro.fuzz.gen import generate_seeded
    return [generate_seeded(seed * 1_000_003 + index).source
            for index in range(count)]


class TestReferenceAgreement:
    def test_corpus(self):
        from repro.bench.corpus import corpus_sources
        for source in corpus_sources().values():
            assert isinstance(assert_agrees(source), list)

    @pytest.mark.parametrize("seed", [1, 9001])
    def test_perfbench_draws(self, seed):
        for source in draw_sources(seed, 32):
            assert isinstance(assert_agrees(source), list)

    @pytest.mark.parametrize("message", sorted(ERROR_PATHS))
    def test_every_error_path(self, message):
        source = ERROR_PATHS[message]
        result = assert_agrees(source)
        assert result[0] == "error" and result[1].startswith(message)
        assert_agrees(source + " ok")
        assert assert_agrees("\n\n  " + source)[2] == result[2] + 2

    def test_seeded_random_strings(self):
        rng = random.Random(20240117)
        kinds = set()
        for _ in range(10_000):
            source = "".join(rng.choice(ALPHABET)
                             for _ in range(rng.randint(0, 14)))
            result = assert_agrees(source)
            kinds.add(result[0] if not isinstance(result, list)
                      else "tokens")
        assert kinds == {"tokens", "error", "ValueError"}

    def test_spliced_sources(self):
        from repro.fuzz.gen import RandomSource
        from repro.fuzz.sources import source_bases, splice_source
        bases = source_bases(1)
        rng = RandomSource(77)
        for _ in range(120):
            assert_agrees(splice_source(bases, rng)[2])
