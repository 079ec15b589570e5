"""E7 in depth: where the bits go, and headroom under compression.

The paper (Section 8) attributes SafeTSA's file sizes partly to
"symbolic linking information and constants" and notes that "any
dictionary encoding scheme can be used to convert the symbol sequence
into a binary stream" -- i.e. the equal-probability prefix coder is the
floor, not the ceiling.  This bench decomposes the wire format and
compares both formats under a dictionary coder (zlib).
"""

from __future__ import annotations

import zlib

import pytest

from repro.api import compile_source
from repro.bench.corpus import CORPUS_PROGRAMS, corpus_source
from repro.encode.serializer import encode_module
from repro.frontend.parser import parse_compilation_unit
from repro.frontend.semantics import analyze
from repro.jvm.classfile import class_file_bytes
from repro.jvm.codegen import compile_unit
from repro.uast.builder import UastBuilder


@pytest.fixture(scope="module")
def measurements():
    rows = []
    for name in CORPUS_PROGRAMS:
        source = corpus_source(name)
        module = compile_source(source, optimize=True)
        report: dict = {}
        wire = encode_module(module, size_report=report)
        phases = report.pop("_phases")
        header = report.pop("_header")
        unit = parse_compilation_unit(source)
        world = analyze(unit)
        builder = UastBuilder(world)
        classes = compile_unit(world, {d.info: builder.build_class(d)
                                       for d in unit.classes})
        class_bytes = b"".join(class_file_bytes(c) for c in classes)
        rows.append({
            "name": name,
            "wire": wire,
            "classfile": class_bytes,
            "header_bits": header,
            "member_bits": sum(report.values())
            - sum(phases.values()),
            "cst_bits": phases["cst"],
            "instr_bits": phases["instructions"],
            "phi_bits": phases["phi_operands"],
        })
    return rows


def test_bit_breakdown_table(measurements):
    print()
    print(f"{'Program':16} {'total B':>8} {'linking%':>9} {'cst%':>6} "
          f"{'code%':>6} {'phi%':>5}")
    for row in measurements:
        total_bits = len(row["wire"]) * 8
        linking = row["header_bits"] + row["member_bits"]
        print(f"{row['name']:16} {len(row['wire']):8} "
              f"{100 * linking / total_bits:8.1f}% "
              f"{100 * row['cst_bits'] / total_bits:5.1f}% "
              f"{100 * row['instr_bits'] / total_bits:5.1f}% "
              f"{100 * row['phi_bits'] / total_bits:4.1f}%")
    # the paper: "a substantial amount of each file consists of symbolic
    # linking information and constants"
    total_bits = sum(len(r["wire"]) * 8 for r in measurements)
    linking = sum(r["header_bits"] + r["member_bits"]
                  for r in measurements)
    assert 0.05 < linking / total_bits < 0.8

    # phases must account for (nearly) the whole stream
    for row in measurements:
        accounted = (row["header_bits"] + row["member_bits"]
                     + row["cst_bits"] + row["instr_bits"]
                     + row["phi_bits"])
        assert abs(accounted - len(row["wire"]) * 8) < 48, row["name"]


def test_dictionary_coding_headroom(measurements):
    """zlib over the symbol stream still wins over zlib over class files
    (the format comparison is not an artifact of raw entropy)."""
    print()
    print(f"{'Program':16} {'wire':>7} {'wire.z':>7} {'class':>7} "
          f"{'class.z':>8}")
    total_wire_z = total_class_z = 0
    for row in measurements:
        wire_z = len(zlib.compress(row["wire"], 9))
        class_z = len(zlib.compress(row["classfile"], 9))
        total_wire_z += wire_z
        total_class_z += class_z
        print(f"{row['name']:16} {len(row['wire']):7} {wire_z:7} "
              f"{len(row['classfile']):7} {class_z:8}")
    assert total_wire_z < total_class_z


def test_wire_always_smaller_than_classfiles(measurements):
    for row in measurements:
        assert len(row["wire"]) < len(row["classfile"]), row["name"]


def test_encode_throughput_benchmark(benchmark):
    module = compile_source(corpus_source("BigInt"), optimize=True)
    wire = benchmark(lambda: encode_module(module))
    assert len(wire) > 100
