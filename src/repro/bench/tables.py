"""Renderers for the paper's evaluation artifacts.

``figure5`` prints the size / instruction-count comparison (paper
Figure 5), ``figure6`` the phi / null-check / array-check reductions
(paper Figure 6), and the other tables back experiments E3-E5 and
E7-E9 (see DESIGN.md); each renders a measurement from
:mod:`repro.bench.metrics`.
"""

from __future__ import annotations

from typing import Optional

from repro.bench.metrics import EXTENSION_CONFIGS, ClassMetrics


def _fmt_delta(before: int, after: int) -> str:
    if before == 0:
        return "N/A"
    return f"{round(100 * (after - before) / before):+d}%"


def figure5_table(rows: list[ClassMetrics]) -> str:
    """Figure 5: file sizes and instruction counts, per class."""
    header = (f"{'Class Name':24} | {'Bytecode':>9} {'SafeTSA':>9} "
              f"{'TSA-opt':>9} | {'Bytecode':>9} {'SafeTSA':>9} "
              f"{'TSA-opt':>9}")
    ruler = "-" * len(header)
    lines = [
        f"{'':24} | {'file size (bytes)':^29} | "
        f"{'number of instructions':^29}",
        header,
        ruler,
    ]
    program = None
    for row in rows:
        if row.program != program:
            program = row.program
            lines.append(f"{program}")
        lines.append(
            f"  {row.class_name:22} | {row.bytecode_size:9} "
            f"{row.tsa_size:9} {row.tsa_opt_size:9} | "
            f"{row.bytecode_insns:9} {row.tsa_insns:9} "
            f"{row.tsa_opt_insns:9}")
    total = _totals(rows)
    lines.append(ruler)
    lines.append(
        f"  {'TOTAL':22} | {total['bytecode_size']:9} "
        f"{total['tsa_size']:9} {total['tsa_opt_size']:9} | "
        f"{total['bytecode_insns']:9} {total['tsa_insns']:9} "
        f"{total['tsa_opt_insns']:9}")
    ratio_plain = total["tsa_insns"] / max(total["bytecode_insns"], 1)
    ratio_size = total["tsa_size"] / max(total["bytecode_size"], 1)
    opt_gain = 1 - total["tsa_opt_insns"] / max(total["tsa_insns"], 1)
    lines.append("")
    lines.append(f"SafeTSA / bytecode instructions: {ratio_plain:.2f}  "
                 f"(paper Figure 5 rows: ~0.60-0.75)")
    lines.append(f"SafeTSA / bytecode file size:    {ratio_size:.2f}  "
                 f"(paper: usually smaller)")
    lines.append(f"optimisation instruction gain:   {opt_gain:.1%}  "
                 f"(paper: >10% in most cases)")
    return "\n".join(lines)


def _totals(rows: list[ClassMetrics]) -> dict:
    keys = ("bytecode_size", "tsa_size", "tsa_opt_size",
            "bytecode_insns", "tsa_insns", "tsa_opt_insns",
            "phis_before", "phis_after", "nullchecks_before",
            "nullchecks_after", "idxchecks_before", "idxchecks_after")
    return {key: sum(getattr(row, key) for row in rows) for key in keys}


def figure6_table(rows: list[ClassMetrics]) -> str:
    """Figure 6: check/phi counts before and after optimisation."""
    header = (f"{'Class Name':24} | {'Phi Instructions':^20} | "
              f"{'Null-Checks':^20} | {'Array-Checks':^20}")
    sub = (f"{'':24} | {'Before':>6} {'After':>6} {'d%':>5} | "
           f"{'Before':>6} {'After':>6} {'d%':>5} | "
           f"{'Before':>6} {'After':>6} {'d%':>5}")
    ruler = "-" * len(sub)
    lines = [header, sub, ruler]
    program = None
    for row in rows:
        if row.program != program:
            program = row.program
            lines.append(f"{program}")
        lines.append(
            f"  {row.class_name:22} | "
            f"{row.phis_before:6} {row.phis_after:6} "
            f"{_fmt_delta(row.phis_before, row.phis_after):>5} | "
            f"{row.nullchecks_before:6} {row.nullchecks_after:6} "
            f"{_fmt_delta(row.nullchecks_before, row.nullchecks_after):>5} | "
            f"{row.idxchecks_before:6} {row.idxchecks_after:6} "
            f"{_fmt_delta(row.idxchecks_before, row.idxchecks_after):>5}")
    total = _totals(rows)
    lines.append(ruler)
    lines.append(
        f"  {'TOTAL':22} | "
        f"{total['phis_before']:6} {total['phis_after']:6} "
        f"{_fmt_delta(total['phis_before'], total['phis_after']):>5} | "
        f"{total['nullchecks_before']:6} {total['nullchecks_after']:6} "
        f"{_fmt_delta(total['nullchecks_before'], total['nullchecks_after']):>5} | "
        f"{total['idxchecks_before']:6} {total['idxchecks_after']:6} "
        f"{_fmt_delta(total['idxchecks_before'], total['idxchecks_after']):>5}")
    return "\n".join(lines)


def phi_pruning_table(results: list[tuple[str, int, int]]) -> str:
    """E3: phi counts with and without Briggs pruning, per program."""
    lines = [f"{'Program':16} {'unpruned':>9} {'pruned':>8} {'d%':>6}",
             "-" * 42]
    total_unpruned = 0
    total_pruned = 0
    for name, unpruned, pruned in results:
        total_unpruned += unpruned
        total_pruned += pruned
        lines.append(f"{name:16} {unpruned:9} {pruned:8} "
                     f"{_fmt_delta(unpruned, pruned):>6}")
    lines.append("-" * 42)
    lines.append(f"{'TOTAL':16} {total_unpruned:9} {total_pruned:8} "
                 f"{_fmt_delta(total_unpruned, total_pruned):>6} "
                 f"(paper: -31% on average)")
    return "\n".join(lines)


def ablation_table(results: list[tuple[str, dict[str, int]]]) -> str:
    """E4: per-pass instruction-count contribution."""
    passes = ("none", "constprop", "cse", "dce", "all")
    header = f"{'Program':16}" + "".join(f"{p:>11}" for p in passes)
    lines = [header, "-" * len(header)]
    for name, counts in results:
        lines.append(f"{name:16}" + "".join(
            f"{counts[p]:11}" for p in passes))
    return "\n".join(lines)


def verifycost_table(rows: list) -> str:
    """E5: SafeTSA verification vs JVM dataflow verification: each
    time's median and IQR in ms, and the per-pair jvm/tsa ratio."""
    width = 16 + 2 * 17 + 11 + 15
    lines = [f"{'':16}" + "".join(f" {label:-^16}" for label in
                                  (" tsa (ms) ", " jvm (ms) ")),
             f"{'Program':16}" + " {:>8}{:>8}".format("median", "iqr") * 2
             + f" {'jvm steps':>10} {'ratio':>6}{'iqr':>6}", "-" * width]
    for row in rows:
        cells = "".join(f" {row[key]['median']:8.2f}{row[key]['iqr']:8.2f}"
                        for key in ("tsa_ms", "jvm_ms"))
        lines.append(f"{row['program']:16}{cells} {row['jvm_steps']:10} "
                     f"{row['ratio']['median']:6.2f}"
                     f"{row['ratio']['iqr']:6.2f}")
    total_tsa, total_jvm = (sum(row[key]["median"] for row in rows)
                            for key in ("tsa_ms", "jvm_ms"))
    lines.append("-" * width)
    lines.append(f"{'TOTAL':16} {total_tsa:8.2f}{'':8} {total_jvm:8.2f}"
                 f"{'':8} {'':10} {total_jvm / total_tsa:6.2f}")
    lines.append(f"median and iqr of {rows[0]['ratio']['n']} alternating "
                 "pairs per program; TOTAL sums the medians")
    return "\n".join(lines)


def bits_table(rows: list[dict]) -> str:
    """E7: the optimised wire stream's bits by section, and both
    formats raw and under zlib."""
    lines = [f"{'Program':16} {'wire B':>7} {'linking':>8} {'cst':>6} "
             f"{'code':>6} {'phi':>5} | {'wire.z':>7} {'class':>7} "
             f"{'class.z':>8}", "-" * 79]
    for row in rows:
        bits = row["wire_bytes"] * 8
        lines.append(
            f"{row['program']:16} {row['wire_bytes']:7} "
            f"{100 * row['linking_bits'] / bits:7.1f}% "
            f"{100 * row['cst_bits'] / bits:5.1f}% "
            f"{100 * row['code_bits'] / bits:5.1f}% "
            f"{100 * row['phi_bits'] / bits:4.1f}% | "
            f"{row['wire_zlib']:7} {row['class_bytes']:7} "
            f"{row['class_zlib']:8}")
    total = {key: sum(row[key] for row in rows) for key in
             ("wire_bytes", "wire_zlib", "class_bytes", "class_zlib")}
    lines.append("-" * 79)
    lines.append(f"{'TOTAL':16} {total['wire_bytes']:7} {'':28} | "
                 f"{total['wire_zlib']:7} {total['class_bytes']:7} "
                 f"{total['class_zlib']:8}")
    return "\n".join(lines)


def extensions_table(totals: dict) -> str:
    """E8: corpus totals per extension configuration."""
    lines = [f"{'config':10} {'passes':34} {'instructions':>13} "
             f"{'nullchecks':>11} {'idxchecks':>10} {'loads':>6}",
             "-" * 89]
    for config, total in totals.items():
        lines.append(
            f"{config:10} {','.join(EXTENSION_CONFIGS[config]):34} "
            f"{total['instructions']:13} {total['nullchecks']:11} "
            f"{total['idxchecks']:10} {total['loads']:6}")
    return "\n".join(lines)


def jitspeed_table(rows: list) -> str:
    """E9: the interpreter's and the JIT's first and warm runs, and the
    per-pair interp/JIT ratio of each."""
    def row(name, cold, warm) -> str:
        return "".join(
            [f"{name:12}"] + [f" {record['interp_ms']:8.1f}ms "
                              f"{record['jit_ms']:7.1f}ms"
                              f" {record['ratio']:5.1f}x"
                              for record in (cold, warm)])

    def medians(record: dict) -> dict:
        return {key: value["median"] for key, value in record.items()}

    lines = [
        "cold: the first run on a freshly decoded module, the",
        "interpreter's block plans or the JIT's translation included;",
        "warm: a fresh runner on a module whose functions already carry",
        "their plans and generated code (nothing is built or linked)",
        "",
        f"{'':12}" + "".join(f" {label:-^27}" for label in
                             (" cold ", " warm ")),
        f"{'Program':12}" + " {:>10} {:>9} {:>6}".format(
            "interp", "jit", "ratio") * 2,
        "-" * 72,
    ]
    lines.extend(row(timings["program"], medians(timings["cold"]),
                     medians(timings["warm"])) for timings in rows)
    totals = [{key: sum(timings[label][key]["median"] for timings in rows)
               for key in ("interp_ms", "jit_ms")}
              for label in ("cold", "warm")]
    for total in totals:
        total["ratio"] = total["interp_ms"] / total["jit_ms"]
    lines.append("-" * 72)
    lines.append(row("TOTAL", *totals))
    lines.append(f"medians of {rows[0]['cold']['ratio']['n']} alternating "
                 "pairs per program; TOTAL sums the medians")
    return "\n".join(lines)
