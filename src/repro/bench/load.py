"""E10: consumer-side load cost -- two-pass vs the fused loader.

The question the fused loader exists to answer: how much of the
consumer's "decode, then verify" bill disappears when verification is
folded into the decode?  Per corpus artifact (every program,
unoptimised and optimised) this benchmark times:

* **two-pass**    the legacy oracle, ``decode_module`` + ``verify_module``
* **fused cold**  one ``load_module``: decode-with-checks plus the
  residual rule sweep (every load is cold)

Each row keeps both times as best-of (``two_pass_ms``,
``fused_cold_ms``; the totals and the guard read these) and, under
``spread``, perfbench's ``{n, median, min, iqr}`` record of each one's
samples.

Every timed load also re-encodes once (outside the timer) and must be
bit-identical to the input -- a benchmark that loads the wrong module
measures nothing.  The report lands in ``BENCH_load.json``; the perf
guard in CI fails if the fused cold path stops beating two-pass.
"""

from __future__ import annotations

from repro.bench.corpus import CORPUS_PROGRAMS, corpus_source
from repro.bench.metrics import bench_repeats, samples, spread
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


def load_report(programs=None, repeats=None) -> dict:
    """All the numbers behind ``BENCH_load.json``."""
    repeats = bench_repeats(repeats)
    programs = list(programs or CORPUS_PROGRAMS)
    artifacts = _artifacts(programs)

    rows = []
    totals = {"two_pass": 0.0, "fused_cold": 0.0}
    for name, optimize, wire in artifacts:
        label = f"{name}{'+opt' if optimize else ''}"

        def two_pass():
            verify_module(decode_module(wire))

        def fused_cold():
            load_module(wire)

        module = load_module(wire)
        _check_identical(wire, module, label)

        spreads = {"two_pass_ms": spread(samples(two_pass, repeats), 1000),
                   "fused_cold_ms": spread(samples(fused_cold, repeats),
                                           1000)}
        row = {
            "program": name,
            "optimized": optimize,
            "wire_bytes": len(wire),
            "functions": len(module.functions),
            **{key: record["min"] for key, record in spreads.items()},
        }
        for key in totals:
            totals[key] += row[f"{key}_ms"]
        rows.append({**_rounded(row), "spread": {
            key: _rounded(record) for key, record in spreads.items()}})

    fused = totals["fused_cold"]
    report = {
        "programs": programs,
        "artifacts": len(artifacts),
        "repeats": repeats,
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
    return report


def _rounded(record: dict) -> dict:
    return {key: round(value, 4) if isinstance(value, float) else value
            for key, value in record.items()}


def load_table(report: dict) -> str:
    """Fixed-width rendering of a :func:`load_report` (RESULTS.txt):
    each time's best-of (min), median and IQR in ms."""
    width = 20 + 8 + 2 * 25
    lines = [
        f"{'':28}" + "".join(f" {label:-^24}" for label in
                             (" two-pass ", " fused ")),
        f"{'Artifact':20} {'bytes':>7}"
        + " {:>8}{:>8}{:>8}".format("min", "median", "iqr") * 2,
        "-" * width,
    ]
    for row in report["rows"]:
        label = row["program"] + ("+opt" if row["optimized"] else "")
        cells = "".join(f" {record['min']:8.2f}{record['median']:8.2f}"
                        f"{record['iqr']:8.2f}" for record in
                        (row["spread"]["two_pass_ms"],
                         row["spread"]["fused_cold_ms"]))
        lines.append(f"{label:20} {row['wire_bytes']:>7}{cells}")
    totals = report["totals_ms"]
    lines.append("-" * width)
    lines.append(
        f"{'TOTAL (ms)':20} {'':>7} {totals['two_pass']:>8.2f}{'':16} "
        f"{totals['fused_cold']:>8.2f}")
    lines.append("")
    lines.append(f"fused vs two-pass: "
                 f"{report['speedups']['fused_cold_vs_two_pass']}x")
    return "\n".join(lines)
