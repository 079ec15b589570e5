"""E10: consumer-side load cost -- two-pass vs the fused loader.

The question the fused loader exists to answer: how much of the
consumer's "decode, then verify" bill disappears when verification is
folded into the decode?  Per corpus artifact (every program,
unoptimised and optimised) this benchmark times:

* **two-pass**    the legacy oracle, ``decode_module`` + ``verify_module``
* **fused cold**  one ``load_module``: decode-with-checks plus the
  residual rule sweep (every load is cold)

The two run in alternating pairs (:func:`repro.bench.metrics.paired`);
each row keeps perfbench's ``{n, median, min, iqr}`` record of both
times in ms and of the per-pair two-pass/fused ratio, and the totals
and the guard read the medians.

Every timed load also re-encodes once (outside the timer) and must be
bit-identical to the input -- a benchmark that loads the wrong module
measures nothing.  The report lands in ``BENCH_load.json``; the perf
guard in CI fails if the fused cold path stops beating two-pass.
"""

from __future__ import annotations

from repro.bench.corpus import CORPUS_PROGRAMS, corpus_source
from repro.bench.metrics import clocked, paired
from repro.driver import CompilationSession
from repro.encode.deserializer import decode_module
from repro.encode.serializer import encode_module
from repro.loader import load_module
from repro.tsa.verifier import verify_module


def _artifacts(programs) -> list[tuple[str, bool, bytes]]:
    artifacts = []
    for name in programs:
        source = corpus_source(name)
        for optimize in (False, True):
            module = CompilationSession(optimize=optimize,
                                        cache=False).compile(source)
            artifacts.append((name, optimize, encode_module(module)))
    return artifacts


def _check_identical(wire: bytes, module, label: str) -> None:
    if encode_module(module) != wire:
        raise AssertionError(f"{label}: loaded module re-encodes "
                             "differently -- benchmark invalid")


def load_report(programs=None, *, pairs: int) -> dict:
    """All the numbers behind ``BENCH_load.json``."""
    programs = list(programs or CORPUS_PROGRAMS)
    artifacts = _artifacts(programs)

    rows = []
    totals = {"two_pass": 0.0, "fused_cold": 0.0}
    for name, optimize, wire in artifacts:
        module = load_module(wire)
        _check_identical(wire, module,
                         f"{name}{'+opt' if optimize else ''}")
        timed = paired(clocked(lambda: verify_module(decode_module(wire))),
                       clocked(lambda: load_module(wire)), pairs)
        row = {
            "program": name,
            "optimized": optimize,
            "wire_bytes": len(wire),
            "functions": len(module.functions),
            "two_pass_ms": timed["first"],
            "fused_cold_ms": timed["second"],
            "ratio": timed["ratio"],
        }
        totals["two_pass"] += timed["first"]["median"]
        totals["fused_cold"] += timed["second"]["median"]
        rows.append(row)

    fused = totals["fused_cold"]
    return {
        "programs": programs,
        "artifacts": len(artifacts),
        "pairs": pairs,
        "rows": rows,
        "totals_ms": {key: round(value, 3)
                      for key, value in totals.items()},
        "speedups": {
            "fused_cold_vs_two_pass":
                round(totals["two_pass"] / fused, 3) if fused else None,
        },
        "guard": {
            # the contract CI enforces: fusing the verifier into the
            # decoder must not cost more than running it separately
            "fused_cold_le_two_pass": fused <= totals["two_pass"],
        },
    }


def load_table(report: dict) -> str:
    """Fixed-width rendering of a :func:`load_report` (RESULTS.txt):
    each time's median and IQR in ms, and the per-pair ratio."""
    width = 20 + 8 + 2 * 17 + 14
    lines = [
        f"{'':28}" + "".join(f" {label:-^16}" for label in
                             (" two-pass ", " fused ")),
        f"{'Artifact':20} {'bytes':>7}"
        + " {:>8}{:>8}".format("median", "iqr") * 2
        + f" {'ratio':>7}{'iqr':>6}",
        "-" * width,
    ]
    for row in report["rows"]:
        label = row["program"] + ("+opt" if row["optimized"] else "")
        cells = "".join(f" {record['median']:8.2f}{record['iqr']:8.2f}"
                        for record in (row["two_pass_ms"],
                                       row["fused_cold_ms"]))
        lines.append(f"{label:20} {row['wire_bytes']:>7}{cells} "
                     f"{row['ratio']['median']:7.3f}"
                     f"{row['ratio']['iqr']:6.3f}")
    totals = report["totals_ms"]
    lines.append("-" * width)
    lines.append(
        f"{'TOTAL (ms)':20} {'':>7} {totals['two_pass']:>8.2f}{'':8} "
        f"{totals['fused_cold']:>8.2f}{'':8} "
        f"{report['speedups']['fused_cold_vs_two_pass']:7.3f}")
    lines.append(f"medians and iqr of {report['pairs']} alternating pairs "
                 "per artifact; TOTAL sums the medians")
    return "\n".join(lines)
