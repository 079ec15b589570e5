"""Fuzzing benchmark: the numbers behind ``BENCH_fuzz.json``.

Runs one deterministic :func:`repro.fuzz.run_campaign` and reports

* generation + oracle throughput (programs/second, pipelines compared),
* mutation throughput (mutations/second),
* the rejection taxonomy: how many mutants each stable ``DEC-*`` /
  ``STSA-*`` code rejected, how many were accepted as equivalent, and
  the per-mutator hit counts,
* the sources lane: spliced sources compiled or diagnosed, and every
  other exception counted by type (``violation_types``),
* every finding (there should be none -- a finding fails the run).

The report is a superset of ``CampaignResult.report()``: it adds the
invariant verdict (``ok``) and the configuration, so CI can archive one
self-describing artifact per run.
"""

from __future__ import annotations

import os


def fuzz_report(seed: int = 0, budget: int = 10_000, mode: str = "all"):
    """Run one campaign; returns ``(json_report, CampaignResult)``."""
    from repro.fuzz import run_campaign
    result = run_campaign(seed=seed, budget=budget, mode=mode)
    report = result.report()
    report["ok"] = result.ok
    report["workers"] = os.cpu_count()
    return report, result
