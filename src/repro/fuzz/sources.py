"""Source-level fuzzing: a source either compiles or is diagnosed.

The producer's boundary is the source text.  Whatever bytes arrive,
:meth:`~repro.driver.CompilationSession.compile` must either build a
module or raise :class:`~repro.frontend.errors.CompileError`; any other
exception (a ``ValueError`` from a literal, a ``KeyError`` from a
lookup) is a *finding*.

Cases are seeded splices of known-good programs -- the benchmark corpus
and a few generated draws -- cut, copied across programs and seeded with
lexical edge cases whole programs never contain: hex, long and float
literals, escapes, non-ASCII letters and digits, unterminated literals
and comments.
"""

from __future__ import annotations

from typing import Sequence

from repro.fuzz.gen import DrawSource, generate_seeded
from repro.fuzz.mutate import Outcome

#: fragments a splice may insert at a random offset
FRAGMENTS: tuple[str, ...] = (
    "0x", "0X", "0xL", "0x1F", "0xFFFFFFFF", "0x100000000", "077",
    "2147483648", "-2147483648", "9223372036854775808L", "1L", "1e",
    "1e+", "1.5e-3f", ".5", "2.D", "1.", "'a'", "'\\n'", "'\\u0041'",
    "'\\u00g1'", "'", '"', '"\\q"', '"a\\tb"', "\\", "/*", "*/", "//",
    "@", "#", "`", "$x", "_",
    # non-ASCII: letters (e acute, a CJK ideograph), decimal digits
    # (Arabic-Indic three, fullwidth zero), the non-decimal digit
    # superscript two, other numerics (one half, Roman numeral one),
    # a no-break space and a lone combining acute accent
    "\u00e9", "\u4e2d", "\u0663", "\uff10", "\u00b2", "1\u00b2",
    ".\u00b2", "\u00bd", "\u2160", "\u00a0", "\u0301",
    "\r\n", "\t", "{", "}", "(", ")", ";", "class", "extends", "new",
    "static", "return", "int[]", "null", "this", "super",
)


def source_bases(seed: int) -> list[tuple[str, str]]:
    """The programs a sources campaign splices: the corpus plus four
    programs generated from the campaign seed."""
    from repro.bench.corpus import corpus_sources
    bases = sorted(corpus_sources().items())
    for index in range(4):
        generated = generate_seeded(seed * 1_000_003 + index)
        bases.append((f"draw{index}", generated.source))
    return bases


def _span(text: str, src: DrawSource, limit: int = 200) -> tuple[int, int]:
    start = src.integer(0, len(text))
    return start, min(len(text), start + src.integer(0, limit))


def _splice(text: str, donor: str, src: DrawSource) -> str:
    """Replace a span of ``text`` with a span of ``donor``."""
    start, end = _span(text, src)
    donor_start, donor_end = _span(donor, src)
    return text[:start] + donor[donor_start:donor_end] + text[end:]


def _insert(text: str, donor: str, src: DrawSource) -> str:
    offset = src.integer(0, len(text))
    return text[:offset] + src.choice(FRAGMENTS) + text[offset:]


def _delete(text: str, donor: str, src: DrawSource) -> str:
    start, end = _span(text, src, limit=40)
    return text[:start] + text[end:]


def _duplicate(text: str, donor: str, src: DrawSource) -> str:
    start, end = _span(text, src, limit=80)
    offset = src.integer(0, len(text))
    return text[:offset] + text[start:end] + text[offset:]


_OPERATORS = (("splice", _splice), ("insert", _insert),
              ("delete", _delete), ("duplicate", _duplicate))


def splice_source(bases: Sequence[tuple[str, str]],
                  src: DrawSource) -> tuple[str, str, str]:
    """One seeded case: ``(base name, operator names, source)``.  One to
    three operators apply to a base; ``splice`` takes its donor span
    from any base."""
    name, text = src.choice(bases)
    applied = []
    for _ in range(src.integer(1, 3)):
        operator, mutate = src.choice(_OPERATORS)
        text = mutate(text, src.choice(bases)[1], src)
        applied.append(operator)
    return name, "+".join(applied), text


def check_source(source: str) -> Outcome:
    """Compile ``source`` through one fresh optimising session: the
    outcome is ``compiled``, ``rejected`` (a ``CompileError``) or a
    ``finding`` coded by the type of any other exception."""
    from repro.driver import CompilationSession
    from repro.frontend.errors import CompileError
    try:
        CompilationSession(optimize=True, cache=False).compile(source)
    except CompileError as error:
        return Outcome("rejected", "CompileError", str(error))
    except Exception as error:  # noqa: BLE001 -- the finding itself
        return Outcome("finding", type(error).__name__,
                       f"{type(error).__name__}: {error}")
    return Outcome("compiled", "compiled")
