"""Benchmark corpus and measurement harness (Figures 5 and 6)."""

from repro.bench.corpus import CORPUS_PROGRAMS, corpus_source
from repro.bench.metrics import (
    ClassMetrics,
    measure_corpus,
    measure_program,
)

__all__ = [
    "CORPUS_PROGRAMS",
    "corpus_source",
    "ClassMetrics",
    "measure_corpus",
    "measure_program",
]
