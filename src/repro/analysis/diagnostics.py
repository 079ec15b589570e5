"""Structured diagnostics for the verifier and the lint driver.

Every finding -- a verifier rejection, a suspicious-but-legal construct,
an optimisation opportunity the analyses can prove -- is reported as a
:class:`Diagnostic` with a stable machine-readable code, a severity, and
a (function, block, instruction) location.  The code space is split by
convention:

* ``STSA-XXX-0nn`` -- well-formedness *errors*: the module violates a
  SafeTSA property and must be rejected;
* ``STSA-XXX-1nn`` -- lint findings: warnings (legal but suspicious,
  e.g. untransmittable unreachable blocks) and informational findings
  (provably-redundant checks the producer could eliminate).

The decoder's ``DEC-*`` rejection codes live in the same registry: the
single source of truth is :data:`STABLE_CODES`, which maps every stable
code to its ``(layer, severity, description)`` -- ``layer`` names the
component that raises it (``decoder`` for the safety-by-construction
checks inline in :mod:`repro.encode.deserializer` and the fused loader,
``verifier`` for :mod:`repro.tsa.verifier` rejections, ``lint`` for the
advisory findings).  :data:`DIAGNOSTIC_CODES` is the derived
verifier/lint view that the diagnostic machinery consumes.  A raise
site using an unregistered code fails the registry scan in
``tests/test_loader.py``.

Because the decoder rejects most ill-formed streams before the verifier
ever sees an IR, one underlying defect can surface under a decoder code
on the wire path and a verifier code on the in-memory path.  Those
documented pairings live in :data:`CODE_ALIASES`; differential gates
compare rejection codes modulo these classes.

The verifier/lint table is documented in ``docs/ANALYSIS.md``; tests
assert the two stay in sync.
"""

from __future__ import annotations

from typing import Iterable, Optional


class Severity:
    """Diagnostic severities, ordered from most to least severe."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    ORDER = (ERROR, WARNING, INFO)

    @staticmethod
    def rank(severity: str) -> int:
        return Severity.ORDER.index(severity)


#: Components that reject or flag modules with stable codes.
LAYER_DECODER = "decoder"
LAYER_VERIFIER = "verifier"
LAYER_LINT = "lint"
LAYER_SERVE = "serve"

LAYERS = (LAYER_DECODER, LAYER_VERIFIER, LAYER_LINT, LAYER_SERVE)

#: The unified registry: code -> (layer, severity, one-line
#: description).  Stable: codes are never renumbered, only appended.
STABLE_CODES: dict[str, tuple[str, str, str]] = {
    # ===== decoder layer: safety-by-construction rejections ===========
    "DEC-IO": (LAYER_DECODER, Severity.ERROR,
               "ran off the stream or symbol outside its bounded "
               "alphabet"),
    "DEC-MAGIC": (LAYER_DECODER, Severity.ERROR, "bad magic number"),
    "DEC-LIMIT": (LAYER_DECODER, Severity.ERROR,
                  "a declared count exceeds its sanity bound"),
    "DEC-CST": (LAYER_DECODER, Severity.ERROR,
                "ill-formed control structure tree"),
    "DEC-EXC": (LAYER_DECODER, Severity.ERROR,
                "exception discipline violated during decode"),
    "DEC-REF": (LAYER_DECODER, Severity.ERROR,
                "unresolvable value reference"),
    "DEC-TRAP-REF": (LAYER_DECODER, Severity.ERROR,
                     "reference to a trapping tail's result reachable "
                     "through its exception edge"),
    "DEC-TRAILING": (LAYER_DECODER, Severity.ERROR,
                     "trailing data or nonzero padding after the "
                     "module"),
    "DEC-WORLD": (LAYER_DECODER, Severity.ERROR,
                  "class-world validation failed during decode"),
    "DEC-TABLE": (LAYER_DECODER, Severity.ERROR,
                  "type-table validation failed during decode"),
    "DEC-VALUE": (LAYER_DECODER, Severity.ERROR,
                  "value-level validation failed during decode"),
    "DEC-MALFORMED": (LAYER_DECODER, Severity.ERROR,
                      "stream violates a decoder shape rule"),
    # -- wire-format v2 envelope (repro.encode.format) ------------------
    "DEC-DICT": (LAYER_DECODER, Severity.ERROR,
                 "v2 envelope references a dictionary digest the store "
                 "does not hold"),
    "DEC-DELTA-BASE": (LAYER_DECODER, Severity.ERROR,
                       "delta base missing from the store or "
                       "reconstruction does not match the target "
                       "digest"),
    "DEC-DELTA": (LAYER_DECODER, Severity.ERROR,
                  "delta patch is structurally invalid (bad copy "
                  "bounds or envelope chain too deep)"),
    "DEC-STREAM": (LAYER_DECODER, Severity.ERROR,
                   "distribution stream ended mid-unit (truncated "
                   "envelope or body never arrived)"),
    # ===== verifier layer: well-formedness rejections =================
    # -- control structure / CFG ---------------------------------------
    "STSA-CFG-001": (LAYER_VERIFIER, Severity.ERROR,
                     "the CST does not derive a consistent CFG"),
    "STSA-CFG-002": (LAYER_VERIFIER, Severity.ERROR, "block has no terminator"),
    "STSA-CFG-003": (LAYER_VERIFIER, Severity.ERROR,
                     "block mixes normal and exception predecessors"),
    # -- referential integrity -----------------------------------------
    "STSA-REF-001": (LAYER_VERIFIER, Severity.ERROR,
                     "operand used before its definition in the same "
                     "block"),
    "STSA-REF-002": (LAYER_VERIFIER, Severity.ERROR,
                     "operand defined in a non-dominating block"),
    "STSA-REF-003": (LAYER_VERIFIER, Severity.ERROR,
                     "reference to an undefined value"),
    "STSA-REF-004": (LAYER_VERIFIER, Severity.ERROR,
                     "reference to a trapping tail's result reachable "
                     "through its exception edge"),
    # -- phi discipline -------------------------------------------------
    "STSA-PHI-001": (LAYER_VERIFIER, Severity.ERROR,
                     "phi operand count does not match predecessor "
                     "count"),
    "STSA-PHI-002": (LAYER_VERIFIER, Severity.ERROR,
                     "phi operand on a different plane than the phi"),
    "STSA-PHI-003": (LAYER_VERIFIER, Severity.ERROR,
                     "phi operand unavailable at the end of its "
                     "predecessor"),
    # -- type separation -------------------------------------------------
    "STSA-TYP-001": (LAYER_VERIFIER, Severity.ERROR, "operand on the wrong register plane"),
    "STSA-TYP-002": (LAYER_VERIFIER, Severity.ERROR,
                     "operation unknown to the type's operation table"),
    "STSA-TYP-003": (LAYER_VERIFIER, Severity.ERROR, "wrong operand arity"),
    "STSA-TYP-004": (LAYER_VERIFIER, Severity.ERROR,
                     "result type absent from the type table"),
    "STSA-TYP-005": (LAYER_VERIFIER, Severity.ERROR, "branch condition is not a boolean"),
    "STSA-TYP-006": (LAYER_VERIFIER, Severity.ERROR,
                     "return value does not match the signature"),
    "STSA-TYP-007": (LAYER_VERIFIER, Severity.ERROR,
                     "throw operand not on the safe Throwable plane"),
    "STSA-TYP-008": (LAYER_VERIFIER, Severity.ERROR, "illegal downcast between planes"),
    "STSA-TYP-009": (LAYER_VERIFIER, Severity.ERROR,
                     "upcast must move between reference planes"),
    "STSA-TYP-010": (LAYER_VERIFIER, Severity.ERROR, "nullcheck of a non-reference type"),
    "STSA-TYP-011": (LAYER_VERIFIER, Severity.ERROR, "instanceof misuse"),
    # -- exception discipline --------------------------------------------
    "STSA-EXC-001": (LAYER_VERIFIER, Severity.ERROR,
                     "trapping instruction is not last in its subblock"),
    "STSA-EXC-002": (LAYER_VERIFIER, Severity.ERROR,
                     "missing exception edge to the dispatch block"),
    "STSA-EXC-003": (LAYER_VERIFIER, Severity.ERROR,
                     "subblock with a trapping tail must fall through"),
    "STSA-EXC-004": (LAYER_VERIFIER, Severity.ERROR,
                     "caughtexc outside a dispatch block"),
    "STSA-EXC-005": (LAYER_VERIFIER, Severity.ERROR,
                     "exception edge without an exception point"),
    "STSA-EXC-006": (LAYER_VERIFIER, Severity.ERROR, "exception edge escapes its try"),
    # -- structural placement --------------------------------------------
    "STSA-STR-001": (LAYER_VERIFIER, Severity.ERROR, "const outside the entry block"),
    "STSA-STR-002": (LAYER_VERIFIER, Severity.ERROR, "param outside the entry block"),
    "STSA-STR-003": (LAYER_VERIFIER, Severity.ERROR, "param index out of range"),
    "STSA-STR-004": (LAYER_VERIFIER, Severity.ERROR,
                     "only 'this' may be pre-loaded on a safe plane"),
    "STSA-STR-005": (LAYER_VERIFIER, Severity.ERROR,
                     "reference constant with a non-null value"),
    # -- memory safety ----------------------------------------------------
    "STSA-MEM-001": (LAYER_VERIFIER, Severity.ERROR,
                     "object operand not on the safe reference plane"),
    "STSA-MEM-002": (LAYER_VERIFIER, Severity.ERROR, "static/instance field misuse"),
    "STSA-MEM-003": (LAYER_VERIFIER, Severity.ERROR,
                     "field or method unreachable in the tamper-proof "
                     "tables"),
    "STSA-MEM-004": (LAYER_VERIFIER, Severity.ERROR, "setstatic of a final library field"),
    "STSA-MEM-005": (LAYER_VERIFIER, Severity.ERROR,
                     "array operand not a safe array reference"),
    "STSA-MEM-006": (LAYER_VERIFIER, Severity.ERROR,
                     "index not a safe index of the same array value"),
    "STSA-MEM-007": (LAYER_VERIFIER, Severity.ERROR, "idxcheck result plane mismatch"),
    # -- calls -------------------------------------------------------------
    "STSA-CALL-001": (LAYER_VERIFIER, Severity.ERROR, "xdispatch of a static method"),
    # -- lint findings -----------------------------------------------------
    "STSA-CFG-101": (LAYER_LINT, Severity.WARNING,
                     "unreachable block: never executed and not "
                     "transmitted"),
    "STSA-PHI-101": (LAYER_LINT, Severity.WARNING,
                     "dead phi: no observable use reaches it"),
    "STSA-NULL-101": (LAYER_LINT, Severity.INFO,
                      "redundant nullcheck: the operand is provably "
                      "non-null on every path"),
    "STSA-IDX-101": (LAYER_LINT, Severity.INFO,
                     "redundant idxcheck: the index is provably in "
                     "bounds on every path"),
    # -- pipeline ----------------------------------------------------------
    "STSA-PASS-001": (LAYER_VERIFIER, Severity.ERROR,
                      "optimisation pass left the function ill-formed"),
    # -- generic fallback --------------------------------------------------
    "STSA-GEN-001": (LAYER_VERIFIER, Severity.ERROR, "unclassified well-formedness error"),
    # ===== serve layer: distribution-service rejections ================
    # (repro.serve -- structured error payloads, one code per failure
    # class; docs/SERVE.md documents the HTTP mapping, and the
    # reachability audit in tests/test_serve.py pins one fixture per
    # code)
    "SERVE-RATE": (LAYER_SERVE, Severity.ERROR,
                   "per-tenant request rate quota exceeded"),
    "SERVE-QUOTA-BYTES": (LAYER_SERVE, Severity.ERROR,
                          "per-tenant stored-bytes quota exceeded"),
    "SERVE-QUOTA-COMPILE": (LAYER_SERVE, Severity.ERROR,
                            "per-tenant compile-seconds budget "
                            "exhausted"),
    "SERVE-NOT-FOUND": (LAYER_SERVE, Severity.ERROR,
                        "no stored module or dictionary blob under the "
                        "requested digest"),
    "SERVE-BAD-REQUEST": (LAYER_SERVE, Severity.ERROR,
                          "malformed request (bad JSON, missing field, "
                          "or undecodable payload encoding)"),
    "SERVE-ENDPOINT": (LAYER_SERVE, Severity.ERROR,
                       "unknown endpoint or unsupported HTTP method"),
    "SERVE-COMPILE": (LAYER_SERVE, Severity.ERROR,
                      "submitted source program failed to compile"),
    "SERVE-REJECTED": (LAYER_SERVE, Severity.ERROR,
                       "module bytes rejected by the verifying loader "
                       "(detail carries the DEC-* code)"),
    "SERVE-CHAIN": (LAYER_SERVE, Severity.ERROR,
                    "publish-log hash chain broken: an entry hash, "
                    "prev link, or sequence number does not verify"),
    "SERVE-SIG": (LAYER_SERVE, Severity.ERROR,
                  "manifest signature does not verify against the "
                  "publisher key"),
    "SERVE-INTERNAL": (LAYER_SERVE, Severity.ERROR,
                       "server-side fault, such as a failed store or "
                       "log write (detail.errno carries the OS error)"),
}

#: Derived verifier/lint view consumed by the diagnostic machinery:
#: code -> (severity, description); decoder and serve codes excluded
#: (those layers reject with their own exception types and never emit
#: :class:`Diagnostic` records).
DIAGNOSTIC_CODES: dict[str, tuple[str, str]] = {
    code: (severity, description)
    for code, (layer, severity, description) in STABLE_CODES.items()
    if layer not in (LAYER_DECODER, LAYER_SERVE)
}

#: Documented equivalence classes for differential verdict comparison:
#: the same underlying defect surfaces under the decoder code on the
#: wire path and under the verifier code on the in-memory path.  The
#: decoder folds whole verifier rule families into one code because the
#: offending construct is simply unrepresentable past that point.
CODE_ALIASES: tuple[frozenset[str], ...] = (
    frozenset({"DEC-TRAP-REF", "STSA-REF-004"}),
    # truncation surfaces as DEC-IO from the one-shot bit reader and as
    # DEC-STREAM from the chunk-feedable front / envelope resolution --
    # same defect (the unit ended early), two delivery paths
    frozenset({"DEC-IO", "DEC-STREAM"}),
    frozenset({"DEC-REF", "STSA-REF-001", "STSA-REF-002", "STSA-REF-003",
               "STSA-PHI-003"}),
    frozenset({"DEC-CST", "STSA-CFG-001", "STSA-CFG-002"}),
    frozenset({"DEC-EXC", "STSA-CFG-003", "STSA-EXC-001", "STSA-EXC-002",
               "STSA-EXC-003", "STSA-EXC-004", "STSA-EXC-005",
               "STSA-EXC-006"}),
    frozenset({"DEC-MALFORMED", "STSA-TYP-001", "STSA-TYP-002",
               "STSA-TYP-003", "STSA-TYP-004", "STSA-TYP-005",
               "STSA-TYP-006", "STSA-TYP-007", "STSA-TYP-008",
               "STSA-TYP-009", "STSA-TYP-010", "STSA-TYP-011",
               "STSA-STR-001", "STSA-STR-002", "STSA-STR-003",
               "STSA-STR-004", "STSA-STR-005", "STSA-MEM-001",
               "STSA-MEM-002", "STSA-MEM-003", "STSA-MEM-004",
               "STSA-MEM-005", "STSA-MEM-006", "STSA-MEM-007",
               "STSA-CALL-001"}),
)


def layer_of(code: str) -> str:
    """The component that owns ``code`` (KeyError if unregistered)."""
    return STABLE_CODES[code][0]


def alias_class(code: str) -> frozenset[str]:
    """The equivalence class of ``code`` (a singleton if unaliased)."""
    for aliases in CODE_ALIASES:
        if code in aliases:
            return aliases
    return frozenset({code})


def codes_equivalent(left: str, right: str) -> bool:
    """True iff the two rejection codes name the same defect modulo the
    documented decoder/verifier aliasing."""
    return left == right or right in alias_class(left)


class Diagnostic:
    """One structured finding.

    ``block`` and ``instr`` are the SafeTSA block id and value id (the
    ``B<n>`` / ``v<n>`` of the disassembly); either may be ``None`` for
    function- or block-level findings.
    """

    __slots__ = ("code", "severity", "message", "function", "block",
                 "instr")

    def __init__(self, code: str, message: str, *,
                 function: Optional[str] = None,
                 block: Optional[int] = None,
                 instr: Optional[int] = None,
                 severity: Optional[str] = None):
        if severity is None:
            severity = DIAGNOSTIC_CODES.get(
                code, (Severity.ERROR, ""))[0]
        self.code = code
        self.severity = severity
        self.message = message
        self.function = function
        self.block = block
        self.instr = instr

    # -- presentation ---------------------------------------------------

    def location(self) -> str:
        parts = []
        if self.function is not None:
            parts.append(self.function)
        if self.block is not None:
            parts.append(f"B{self.block}")
        if self.instr is not None:
            parts.append(f"v{self.instr}")
        return ":".join(parts) or "<module>"

    def as_dict(self) -> dict:
        """The stable machine-readable schema (key order is part of the
        contract; see docs/ANALYSIS.md)."""
        return {
            "code": self.code,
            "severity": self.severity,
            "function": self.function,
            "block": self.block,
            "instr": self.instr,
            "message": self.message,
        }

    def __str__(self) -> str:
        return (f"{self.code} {self.severity} {self.location()}: "
                f"{self.message}")

    def __repr__(self) -> str:  # pragma: no cover
        return f"<diagnostic {self}>"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Diagnostic) \
            and self.as_dict() == other.as_dict()

    def __hash__(self) -> int:
        return hash((self.code, self.function, self.block, self.instr,
                     self.message))


def has_errors(diagnostics: Iterable[Diagnostic]) -> bool:
    return any(d.severity == Severity.ERROR for d in diagnostics)


def count_by_severity(diagnostics: Iterable[Diagnostic]) -> dict[str, int]:
    counts = {severity: 0 for severity in Severity.ORDER}
    for diagnostic in diagnostics:
        counts[diagnostic.severity] = counts.get(diagnostic.severity, 0) + 1
    return counts


def sort_diagnostics(diagnostics: Iterable[Diagnostic]) -> list[Diagnostic]:
    """Deterministic report order: severity, then location, then code."""
    return sorted(diagnostics, key=lambda d: (
        Severity.rank(d.severity),
        d.function or "",
        d.block if d.block is not None else -1,
        d.instr if d.instr is not None else -1,
        d.code,
        d.message,
    ))
