"""Loop-tier benchmark: what LICM + check hoisting buy on real loops.

For each loop-heavy corpus program the report compares four pipeline
configurations -- no optimisation, the loop tier alone
(``hoist_checks,licm``), the default pipeline, and the full pipeline
with the loop tier enabled -- along the axes the paper's E-series
tables use:

* **static**: ``nullcheck``/``idxcheck`` instruction counts and total
  SafeTSA instruction count of the transmitted module;
* **dynamic**: interpreter-observed executed-check counters and total
  interpreter steps for one ``main`` run;
* **blame**: the loop-tier pass statistics (invariants hoisted, checks
  hoisted, preheaders inserted) so a regression is attributable.

Every configuration's stdout must be byte-identical to the unoptimised
run -- the differential oracle's bit-identity requirement, enforced
here as an assertion rather than a statistic.  The report carries two
perf guards: the loop tier *alone* must strictly reduce the total
dynamic check count versus no optimisation (the attributable win), and
the full pipeline with the tier must never execute more checks than the
default pipeline.  Either failing makes ``runner loops`` exit nonzero.

The tier-only-vs-baseline framing is deliberate.  On this corpus the
full seven-pass pipeline ties the default five-pass one for dynamic
checks: ``cse`` already eliminates the in-loop duplicates a hoisted
check dominates, and the checks that survive have per-iteration
``getfield`` operands (e.g. MiniVM's dispatch loop calls helpers that
may store fields, so LICM correctly refuses to hoist the loads).  The
loop tier's measurable contribution is what it removes on its own.
"""

from __future__ import annotations

from typing import Optional

from repro.bench.corpus import corpus_source
from repro.api import compile_source
from repro.driver import ALL_PASSES, CANONICAL_SPEC, PassManager, \
    spec_string
from repro.interp.interpreter import Interpreter

#: the loop-heavy subset of the corpus (array kernels + a dispatch loop)
LOOP_PROGRAMS = ("Linpack", "BitSieve", "MiniVM")

#: full pipeline with the loop tier enabled, in canonical slot order
LOOP_SPEC = spec_string(ALL_PASSES)

#: the loop tier by itself -- its effect with nothing else to share
#: credit with (parse_pass_spec normalises this to slot order)
TIER_SPEC = "hoist_checks,licm"

_CONFIGS = (
    ("baseline", None),
    ("loop_tier", TIER_SPEC),
    ("default", CANONICAL_SPEC),
    ("loops", LOOP_SPEC),
)

_MAX_STEPS = 80_000_000

#: pass statistics worth echoing into the report when nonzero
_BLAME_KEYS = ("licm_hoisted", "checks_hoisted_null",
               "checks_hoisted_idx", "preheaders")


def _measure(source: str, name: str, spec: Optional[str]) -> dict:
    module = compile_source(source)
    stats: dict = {}
    if spec is not None:
        manager = PassManager(spec, check_after_each_pass=True)
        for report in manager.run_module(module):
            for key, value in report.stats.items():
                if isinstance(value, (int, float)) \
                        and not isinstance(value, bool):
                    stats[key] = stats.get(key, 0) + value
    interpreter = Interpreter(module, max_steps=_MAX_STEPS)
    result = interpreter.run_main(name)
    assert result.completed, f"{name}: {result.exception_name()}"
    return {
        "stdout": result.stdout,
        "static": {
            "nullcheck": module.count_opcodes("nullcheck"),
            "idxcheck": module.count_opcodes("idxcheck"),
            "instructions": module.instruction_count(),
        },
        "dynamic": {
            **dict(interpreter.check_counts),
            "steps": interpreter.steps,
        },
        "blame": {key: stats[key] for key in _BLAME_KEYS
                  if stats.get(key)},
    }


def _ratio(after: int, before: int) -> Optional[float]:
    return round(after / before, 4) if before else None


def loops_report(programs=None) -> dict:
    programs = tuple(programs) if programs is not None else LOOP_PROGRAMS
    per_program: dict[str, dict] = {}
    totals = {cfg: {"nullcheck": 0, "idxcheck": 0, "steps": 0}
              for cfg, _spec in _CONFIGS}
    for name in programs:
        source = corpus_source(name)
        rows: dict[str, dict] = {}
        stdout = None
        for cfg, spec in _CONFIGS:
            row = _measure(source, name, spec)
            if stdout is None:
                stdout = row["stdout"]
            else:
                assert row["stdout"] == stdout, \
                    f"{name}/{cfg}: output diverged from baseline"
            del row["stdout"]
            rows[cfg] = row
            for key in ("nullcheck", "idxcheck"):
                totals[cfg][key] += row["dynamic"][key]
            totals[cfg]["steps"] += row["dynamic"]["steps"]
        base = rows["baseline"]
        base_checks = base["dynamic"]["nullcheck"] \
            + base["dynamic"]["idxcheck"]
        rows["ratios"] = {}
        for cfg in ("loop_tier", "default", "loops"):
            row = rows[cfg]
            rows["ratios"][cfg] = {
                "dynamic_checks": _ratio(
                    row["dynamic"]["nullcheck"]
                    + row["dynamic"]["idxcheck"], base_checks),
                "dynamic_steps": _ratio(row["dynamic"]["steps"],
                                        base["dynamic"]["steps"]),
                "static_checks": _ratio(
                    row["static"]["nullcheck"] + row["static"]["idxcheck"],
                    base["static"]["nullcheck"]
                    + base["static"]["idxcheck"]),
                "static_instructions": _ratio(
                    row["static"]["instructions"],
                    base["static"]["instructions"]),
            }
        per_program[name] = rows

    def total_checks(cfg: str) -> int:
        return totals[cfg]["nullcheck"] + totals[cfg]["idxcheck"]

    return {
        "programs": list(programs),
        "specs": {cfg: spec or "" for cfg, spec in _CONFIGS},
        "per_program": per_program,
        "totals": totals,
        "guard": {
            # the attributable win: hoist_checks+licm alone must beat
            # running no passes at all
            "tier_reduces_dynamic_checks":
                total_checks("loop_tier") < total_checks("baseline"),
            # and enabling the tier in the full pipeline must never
            # regress the default pipeline
            "full_pipeline_not_worse":
                total_checks("loops") <= total_checks("default"),
            "baseline_dynamic_checks": total_checks("baseline"),
            "tier_dynamic_checks": total_checks("loop_tier"),
            "default_dynamic_checks": total_checks("default"),
            "loop_dynamic_checks": total_checks("loops"),
        },
    }


def loops_table(report: dict) -> str:
    """E-series style check-ratio table over the loop corpus."""

    def checks(row: dict) -> int:
        return row["dynamic"]["nullcheck"] + row["dynamic"]["idxcheck"]

    lines = [
        f"{'program':<12} {'baseline':>10} {'tier only':>10} "
        f"{'default':>10} {'full+tier':>10} {'tier/base':>9}   blame",
        "-" * 78,
    ]
    for name in report["programs"]:
        rows = report["per_program"][name]
        blame = rows["loop_tier"]["blame"]
        blame_text = " ".join(f"{k}={v}" for k, v in blame.items()) or "-"
        lines.append(
            f"{name:<12} {checks(rows['baseline']):>10} "
            f"{checks(rows['loop_tier']):>10} "
            f"{checks(rows['default']):>10} "
            f"{checks(rows['loops']):>10} "
            f"{rows['ratios']['loop_tier']['dynamic_checks']:>9.4f}   "
            f"{blame_text}")
    guard = report["guard"]
    lines.append("-" * 78)
    lines.append(
        f"{'total':<12} {guard['baseline_dynamic_checks']:>10} "
        f"{guard['tier_dynamic_checks']:>10} "
        f"{guard['default_dynamic_checks']:>10} "
        f"{guard['loop_dynamic_checks']:>10}")
    return "\n".join(lines)
