"""``repro-cc``: command-line driver for the SafeTSA toolchain.

Subcommands::

    repro-cc compile FILE.java -o FILE.stsa [--optimize] [--passes SPEC]
                     [--no-prune] [--report] [--wire-v2]
    repro-cc run     FILE.java|FILE.stsa|- [--class NAME] [--optimize]
                     [--stream] [--trace[=N]]
    repro-cc disasm  FILE.java|FILE.stsa [--optimize]
    repro-cc verify  FILE.stsa
    repro-cc lint    FILE.java|FILE.stsa [--json] [--optimize]
    repro-cc stats   FILE.java
    repro-cc bench   NAME|all   (a full run of one bench runner entry;
                     ``python -m repro.bench.runner`` lists them)
    repro-cc fuzz    [--seed S] [--budget N] [--mode LANE|all]
                     [--fixtures DIR] [--json PATH] [--no-minimize] [-q]
    repro-cc serve   [--host H] [--port P] [--store DIR] [--key HEX]
    repro-cc publish FILE.java|FILE.stsa --name N --url URL [--optimize]
    repro-cc fetch   DIGEST --url URL [-o FILE] [--run]

``run --stream`` consumes the wire from stdin in chunks through the
incremental :class:`~repro.loader.stream.StreamingLoader` -- execution
can begin while later chunks are still arriving, and a truncated or
tampered stream is rejected with the same stable codes as a one-shot
load.  A rejected wire file prints one ``REJECTED: <message [CODE]>``
line to stderr and exits 1, whichever command loaded it.  ``run
--trace`` executes through the speculative trace tier
(:mod:`repro.interp.trace`): hot loops are recorded and compiled to
guarded straight-line fast paths, with bit-identical fallback on guard
failure.  ``serve`` starts the :mod:`repro.serve` distribution service;
``publish``/``fetch`` are its producer/consumer clients (``fetch``
re-verifies the content address of whatever the server returns).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path


def _load_module(path: str, optimize: bool):
    from repro.api import compile_source
    from repro.loader import load_module
    data = Path(path).read_bytes()
    if path.endswith((".stsa", ".bin")):
        # the fused verifying loader: one decode pass plus the residual
        # sweep
        return load_module(data)
    return compile_source(data.decode("utf-8"), optimize=optimize,
                          filename=path)


def cmd_compile(args) -> int:
    from repro.driver import CompilationSession
    source_path = Path(args.file)
    if args.file.endswith(".stsa"):
        print("compile expects Java source, not .stsa", file=sys.stderr)
        return 1
    try:
        session = CompilationSession(
            optimize=args.optimize, passes=args.passes,
            prune_phis=not args.no_prune, filename=args.file,
            cache=False)
    except ValueError as error:
        print(f"--passes: {error}", file=sys.stderr)
        return 2
    module = session.build_module(source_path.read_text())
    session.optimize(module)
    wire = session.encode(module)
    version = "stsa1"
    if args.wire_v2:
        # self-contained v2 envelope; dictionary factoring and deltas
        # are publisher batch operations (repro.encode.format)
        from repro.encode.format import encode_v2
        wire = encode_v2(wire)
        version = "stsa2"
    out = args.output or str(source_path.with_suffix(".stsa"))
    Path(out).write_bytes(wire)
    print(f"{out}: {len(wire)} bytes ({version}), "
          f"{module.instruction_count()} instructions, "
          f"{len(module.classes)} classes")
    if args.report:
        import json
        print(json.dumps(session.pass_report(), indent=2))
    return 0


def _load_streaming(chunk_size: int) -> "object":
    """Feed stdin through the incremental loader chunk by chunk."""
    from repro.loader.stream import StreamingLoader
    loader = StreamingLoader()
    stdin = sys.stdin.buffer
    while True:
        chunk = stdin.read(chunk_size)
        if not chunk:
            break
        # feed() hands back the module as soon as the header is
        # decoded (bodies stream in behind it); the CLI runs to
        # completion, so keep feeding and let finish() check the tail
        loader.feed(chunk)
    return loader.finish()


def cmd_run(args) -> int:
    from repro.interp.interpreter import Interpreter
    if args.stream:
        if args.file not in ("-", "/dev/stdin"):
            print("--stream reads the wire from stdin; "
                  "pass '-' as FILE", file=sys.stderr)
            return 2
        module = _load_streaming(args.chunk_size)
    else:
        module = _load_module(args.file, args.optimize)
    trace = getattr(args, "trace", None)
    if trace is not None:
        from repro.interp.trace import (TRACE_DEFAULT_THRESHOLD,
                                        TracingInterpreter)
        threshold = TRACE_DEFAULT_THRESHOLD if trace < 0 else trace
        interp = TracingInterpreter(module, max_steps=args.max_steps,
                                    threshold=threshold)
    else:
        interp = Interpreter(module, max_steps=args.max_steps)
    result = interp.run_main(getattr(args, "class"))
    sys.stdout.write(result.stdout)
    if result.exception is not None:
        print(f"Exception in thread \"main\" {result.exception_name()}",
              file=sys.stderr)
        return 1
    return 0


def cmd_disasm(args) -> int:
    module = _load_module(args.file, args.optimize)
    if args.lr:
        from repro.tsa.disasm import format_module_lr
        print(format_module_lr(module))
    else:
        from repro.ssa.printer import format_module
        print(format_module(module))
    return 0


def cmd_verify(args) -> int:
    from repro.analysis.diagnostics import Severity, has_errors
    from repro.tsa.verifier import collect_diagnostics
    try:
        module = _load_module(args.file, optimize=False)
        diagnostics = collect_diagnostics(module)
    except Exception as error:
        print(f"REJECTED: {error}")
        return 1
    for diagnostic in diagnostics:
        print(diagnostic)
    if has_errors(diagnostics):
        errors = sum(d.severity == Severity.ERROR for d in diagnostics)
        print(f"REJECTED: {errors} error(s)")
        return 1
    print(f"OK: {len(module.classes)} classes, "
          f"{module.instruction_count()} instructions verified")
    return 0


def cmd_lint(args) -> int:
    import json

    from repro.analysis.diagnostics import has_errors
    from repro.analysis.lint import lint_module, lint_report
    try:
        module = _load_module(args.file, optimize=args.optimize)
    except Exception as error:
        print(f"REJECTED: {error}", file=sys.stderr)
        return 1
    diagnostics = lint_module(module)
    if args.json:
        print(json.dumps(lint_report(diagnostics), indent=2))
    else:
        for diagnostic in diagnostics:
            print(diagnostic)
        counts = lint_report(diagnostics)["counts"]
        print(f"{counts['error']} error(s), {counts['warning']} "
              f"warning(s), {counts['info']} info")
    return 1 if has_errors(diagnostics) else 0


def cmd_stats(args) -> int:
    from repro.bench.metrics import measure_program
    from repro.bench.tables import figure5_table, figure6_table
    from repro.driver import CompilationSession
    source = Path(args.file).read_text()
    rows = measure_program(Path(args.file).stem, source)
    print(figure5_table(rows))
    print()
    print(figure6_table(rows))
    session = CompilationSession(optimize=True, cache=False,
                                 filename=args.file)
    session.optimize(session.build_module(source))
    report = session.pass_report()
    print()
    print(f"pass pipeline [{report['spec']}] over "
          f"{report['functions']} function(s):")
    for name, seconds in report["pass_seconds"].items():
        print(f"  {name:<10} {seconds * 1e3:8.3f} ms")
    return 0


def cmd_bench(args) -> int:
    from repro.bench.runner import main as bench_main
    return bench_main([args.table])


def cmd_fuzz(args) -> int:
    import json

    from repro.fuzz.campaign import render_report, run_campaign
    progress = None if args.quiet else \
        (lambda message: print(f"  .. {message}", flush=True))
    result = run_campaign(
        seed=args.seed, budget=args.budget, mode=args.mode,
        minimize=not args.no_minimize, fixtures_dir=args.fixtures,
        on_progress=progress)
    print(render_report(result.report()))
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(result.report(), handle, indent=2)
            handle.write("\n")
        print(f"report -> {args.json}")
    return 0 if result.ok else 1


def cmd_serve(args) -> int:
    from repro.serve import ServeServer, ServeService, TenantLimits
    limits = TenantLimits() if not args.no_limits else \
        TenantLimits(requests_per_window=None, stored_bytes=None,
                     compile_seconds=None)
    service = ServeService(store_dir=args.store,
                           signing_key=bytes.fromhex(args.key)
                           if args.key else b"repro-serve-dev-key",
                           limits=limits)
    server = ServeServer(service, host=args.host, port=args.port)
    print(f"repro-serve: listening on {args.host}:{args.port or '?'}"
          f" (store: {args.store or 'memory'})", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    return 0


def cmd_publish(args) -> int:
    from repro.serve import ServeClient, ServeError
    client = ServeClient.for_url(args.url, tenant=args.tenant)
    try:
        if args.file.endswith((".stsa", ".bin")):
            entry = client.publish(args.name,
                                   wire=Path(args.file).read_bytes())
        else:
            entry = client.publish(args.name,
                                   source=Path(args.file).read_text(),
                                   optimize=args.optimize,
                                   wire_v2=args.wire_v2)
    except ServeError as error:
        print(f"REJECTED: {error}", file=sys.stderr)
        return 1
    manifest = entry["entry"]["manifest"]
    print(f"published {args.name}: seq {entry['seq']}, "
          f"{manifest['size']} bytes ({manifest['format']})")
    print(f"digest {entry['digest']}")
    print(f"head   {entry['head']}")
    return 0


def cmd_fetch(args) -> int:
    from repro.interp.interpreter import Interpreter
    from repro.loader import load_module
    from repro.serve import ServeClient, ServeError
    client = ServeClient.for_url(args.url, tenant=args.tenant)
    try:
        wire = client.fetch(args.digest)  # digest re-verified locally
    except ServeError as error:
        print(f"REJECTED: {error}", file=sys.stderr)
        return 1
    if args.output:
        Path(args.output).write_bytes(wire)
        print(f"{args.output}: {len(wire)} bytes "
              f"(digest verified)")
    if args.run:
        try:
            # a v2 unit's shared dictionaries come from the same server
            module = load_module(wire, store=client.dictionary_store())
        except ServeError as error:
            print(f"REJECTED: {error}", file=sys.stderr)
            return 1
        result = Interpreter(module).run_main(getattr(args, "class"))
        sys.stdout.write(result.stdout)
        if result.exception is not None:
            print(f"Exception in thread \"main\" "
                  f"{result.exception_name()}", file=sys.stderr)
            return 1
    elif not args.output:
        sys.stdout.buffer.write(wire)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-cc",
        description="SafeTSA mobile-code toolchain (PLDI 2001 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="Java source -> .stsa wire file")
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.add_argument("--optimize", action="store_true")
    p.add_argument("--passes", default=None, metavar="SPEC",
                   help="explicit pipeline spec, e.g. "
                        "'constprop,cse_fields,dce' ('' disables all "
                        "passes); overrides --optimize")
    p.add_argument("--no-prune", action="store_true",
                   help="keep eagerly inserted phis")
    p.add_argument("--report", action="store_true",
                   help="print the per-pass timing/statistics report")
    p.add_argument("--wire-v2", action="store_true",
                   help="emit a wire-format v2 distribution envelope "
                        "instead of the raw v1 stream")
    p.set_defaults(fn=cmd_compile)

    p = sub.add_parser("run", help="execute a program's static main")
    p.add_argument("file")
    p.add_argument("--class", default=None,
                   help="class whose main to run")
    p.add_argument("--optimize", action="store_true")
    p.add_argument("--max-steps", type=int, default=200_000_000)
    p.add_argument("--stream", action="store_true",
                   help="read the wire from stdin in chunks through "
                        "the incremental streaming loader (FILE must "
                        "be '-')")
    p.add_argument("--chunk-size", type=int, default=4096, metavar="N",
                   help="stdin read granularity for --stream")
    p.add_argument("--trace", nargs="?", const=-1, type=int,
                   default=None, metavar="N",
                   help="enable the speculative trace tier; optional N "
                        "sets the hot-loop threshold (back-edge count "
                        "before recording)")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("disasm", help="print SafeTSA disassembly")
    p.add_argument("file")
    p.add_argument("--optimize", action="store_true")
    p.add_argument("--lr", action="store_true",
                   help="use the paper's (l-r) register notation")
    p.set_defaults(fn=cmd_disasm)

    p = sub.add_parser("verify", help="decode + verify a .stsa file")
    p.add_argument("file")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser(
        "lint", help="verifier + analysis lint with structured diagnostics")
    p.add_argument("file")
    p.add_argument("--json", action="store_true",
                   help="emit the machine-readable report")
    p.add_argument("--optimize", action="store_true",
                   help="lint the optimized module")
    p.set_defaults(fn=cmd_lint)

    p = sub.add_parser("stats", help="Figure 5/6 metrics for one source")
    p.add_argument("file")
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("bench", help="regenerate a paper table or a "
                       "bench file (full run)")
    p.add_argument("table", help="a bench runner entry, or all; an "
                   "unknown name prints the list")
    p.set_defaults(fn=cmd_bench)

    from repro.fuzz.campaign import LANES
    p = sub.add_parser(
        "fuzz", help="differential + wire-mutation fuzzing campaign")
    p.add_argument("--seed", type=int, default=0,
                   help="campaign seed (same seed => same campaign)")
    p.add_argument("--budget", type=int, default=1000,
                   help="cases to draw: a lane's whole budget, or the "
                        "budget each lane takes its share of")
    p.add_argument("--mode", default="all", choices=[*LANES, "all"],
                   help="one lane of the campaign, or every lane at its "
                        "share of the budget")
    p.add_argument("--fixtures", default=None, metavar="DIR",
                   help="persist shrunken findings as regression "
                        "fixtures under DIR")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="also write the machine-readable report")
    p.add_argument("--no-minimize", action="store_true",
                   help="skip delta-debugging shrinks of findings")
    p.add_argument("-q", "--quiet", action="store_true",
                   help="suppress progress lines")
    p.set_defaults(fn=cmd_fuzz)

    p = sub.add_parser(
        "serve", help="start the mobile-code distribution service")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8737)
    p.add_argument("--store", default=None, metavar="DIR",
                   help="persist modules + publish log under DIR "
                        "(default: memory only)")
    p.add_argument("--key", default=None, metavar="HEX",
                   help="publisher signing key (hex); default is the "
                        "well-known development key")
    p.add_argument("--no-limits", action="store_true",
                   help="disable per-tenant quotas")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "publish", help="compile/upload a module to a serve instance")
    p.add_argument("file", help=".java source or pre-built .stsa wire")
    p.add_argument("--name", required=True,
                   help="module name recorded in the signed manifest")
    p.add_argument("--url", required=True,
                   help="serve instance, e.g. http://127.0.0.1:8737")
    p.add_argument("--tenant", default="cli")
    p.add_argument("--optimize", action="store_true")
    p.add_argument("--wire-v2", action="store_true",
                   help="publish as a wire-format v2 envelope")
    p.set_defaults(fn=cmd_publish)

    p = sub.add_parser(
        "fetch", help="download (and optionally run) a published module")
    p.add_argument("digest", help="content address from publish")
    p.add_argument("--url", required=True)
    p.add_argument("--tenant", default="cli")
    p.add_argument("-o", "--output", default=None,
                   help="write the verified wire bytes to FILE "
                        "(default: stdout)")
    p.add_argument("--run", action="store_true",
                   help="load and execute the fetched module")
    p.add_argument("--class", default=None,
                   help="class whose main to run with --run")
    p.set_defaults(fn=cmd_fetch)

    args = parser.parse_args(argv)
    from repro.encode.deserializer import DecodeError
    from repro.frontend.errors import CompileError
    from repro.interp.interpreter import InterpreterError
    from repro.tsa.verifier import VerifyError
    try:
        return args.fn(args)
    except CompileError as error:
        # a source error is a diagnosis, not a crash: one line, exit 1
        where = f":{error.pos}" if error.pos else ""
        print(f"{getattr(args, 'file', '<source>')}{where}: "
              f"{error.message}", file=sys.stderr)
        return 1
    except (DecodeError, VerifyError) as error:
        # so is a wire file the loader rejects
        print(f"REJECTED: {error}", file=sys.stderr)
        return 1
    except InterpreterError as error:
        # and a run that a bound stopped (steps, stack depth)
        print(f"{type(error).__name__}: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
