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
invariant verdict (``ok``), so CI can archive one self-describing
artifact per run.
"""

from __future__ import annotations

import json


def fuzz_report(seed: int = 0, budget: int = 10_000,
                mode: str = "all") -> dict:
    """Run one campaign and return its JSON report."""
    from repro.fuzz import run_campaign
    result = run_campaign(seed=seed, budget=budget, mode=mode)
    return {**result.report(), "ok": result.ok}


def fuzz_table(report: dict) -> str:
    programs = report["programs"]
    streams = report["streams"]
    sources = report["sources"]
    lines = [
        f"  mode={report['mode']} seed={report['seed']} "
        f"budget={report['budget']}",
        f"  programs  {programs['count']} generated, "
        f"{programs['pipelines_compared']} pipeline runs agreed, "
        f"{programs['divergences']} divergence(s)  "
        f"[{programs['seconds']:.1f}s]",
        f"  streams   {streams['mutations']} mutants: "
        f"{streams['rejected']} rejected, {streams['accepted']} accepted, "
        f"{streams['findings']} finding(s)  [{streams['seconds']:.1f}s]",
        f"  sources   {sources['count']} splices: "
        f"{sources['compiled']} compiled, {sources['diagnosed']} "
        f"diagnosed, {sources['violations']} violation(s)  "
        f"[{sources['seconds']:.1f}s]",
    ]
    lines.extend(f"  FINDING {json.dumps(finding)}"
                 for finding in report["findings"])
    return "\n".join(lines)
