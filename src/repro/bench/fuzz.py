"""Fuzzing benchmark: the numbers behind ``BENCH_fuzz.json``.

Runs one deterministic :func:`repro.fuzz.run_campaign` and reports it
as :meth:`~repro.fuzz.campaign.CampaignResult.report` does -- per lane:
cases, outcome kinds, the code taxonomy (how many cases each stable
``DEC-*`` / ``STSA-*`` code rejected, how many ran), the per-operator
counts and throughput -- plus every finding (there should be none) and
the invariant verdict (``ok``), so CI can archive one self-describing
artifact per run.  :func:`~repro.fuzz.campaign.render_report` renders it.
"""

from __future__ import annotations


def fuzz_report(seed: int = 0, budget: int = 10_000,
                mode: str = "all") -> dict:
    """Run one campaign and return its JSON report."""
    from repro.fuzz import run_campaign
    result = run_campaign(seed=seed, budget=budget, mode=mode)
    return {**result.report(), "ok": result.ok}
