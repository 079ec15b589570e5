"""``repro.fuzz``: differential conformance + wire-mutation fuzzing.

The paper's headline safety claim -- "even a hand-crafted malicious
program cannot undermine type safety" (Sections 3, 9) -- is exercised
here mechanically and at scale:

* :mod:`repro.fuzz.gen` -- a seeded, deterministic MiniJava++ program
  generator (one grammar shared with the hypothesis property tests);
* :mod:`repro.fuzz.oracle` -- a differential oracle running every
  generated program through each pipeline pair the repo claims agree
  (interpreter vs JIT vs bytecode baseline, plain vs each pass spec,
  first build vs fresh rebuild, encode/decode/re-encode bit identity);
* :mod:`repro.fuzz.mutate` -- a wire-stream mutation fuzzer whose
  invariant is *reject-or-equivalent*: every mutated stream either
  raises :class:`~repro.encode.deserializer.DecodeError` /
  :class:`~repro.tsa.verifier.VerifyError` or decodes to a module that
  verifies and executes identically across re-encoding;
* :mod:`repro.fuzz.sources` -- a source-splice fuzzer whose invariant
  is *compile or diagnose*: every spliced source compiles or raises
  :class:`~repro.frontend.errors.CompileError`, nothing else;
* :mod:`repro.fuzz.minimize` -- delta-debugging shrinkers persisting
  findings as regression fixtures under ``tests/golden/attacks/``;
* :mod:`repro.fuzz.campaign` -- the lane table (:data:`LANES`) and the
  one budgeted driver behind ``repro-cc fuzz`` and ``python -m
  repro.bench.runner fuzz``.
"""

from repro.fuzz.campaign import LANES, CampaignResult, Finding, run_campaign
from repro.fuzz.gen import GeneratedProgram, generate_seeded, program_strategy
from repro.fuzz.mutate import Outcome, check_stream, mutate_stream
from repro.fuzz.oracle import Divergence, OracleResult, check_program
from repro.fuzz.sources import check_source, splice_source

__all__ = [
    "LANES",
    "CampaignResult",
    "Divergence",
    "Finding",
    "GeneratedProgram",
    "OracleResult",
    "Outcome",
    "check_program",
    "check_source",
    "check_stream",
    "generate_seeded",
    "mutate_stream",
    "program_strategy",
    "run_campaign",
    "splice_source",
]
