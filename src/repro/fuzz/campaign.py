"""Budgeted fuzzing campaigns (the engine behind ``repro-cc fuzz``).

Every lane is one row of :data:`LANES`, and one driver runs them all:
it draws a case, judges it, counts its outcome, and shrinks any finding
with :mod:`repro.fuzz.minimize`.

* **programs** -- generated programs through the differential oracle
  (:mod:`repro.fuzz.oracle`); a finding is a divergence, coded by its
  pipeline;
* **streams** -- mutated known-good wire streams against the
  reject-or-equivalent invariant (:mod:`repro.fuzz.mutate`), judged
  with the environment's dictionary store;
* **streams-v2** -- the same invariant over wire-format v2 distribution
  units (shared-dictionary envelopes and deltas), with envelope-targeted
  operators and the lane's own dictionary store;
* **sources** -- seeded splices of corpus and generated sources
  (:mod:`repro.fuzz.sources`), each of which must compile or raise
  ``CompileError``.

A finding shrinks while it stays a finding with the same code; a wire
stream finding can be persisted as a regression fixture.
``mode="all"`` runs every lane at its share of the budget.

Determinism contract: iteration ``i`` of the program lane uses
generator seed ``seed * 1_000_003 + i``; every other lane draws each
decision from its own ``random.Random`` derived from the seed and the
lane's salt, so adding a lane changes no other lane's draws.  Two runs
with the same seed and budget therefore see the same programs, the
same mutants, the same findings, and byte-identical fixtures.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple, Optional

from repro.fuzz.gen import RandomSource, generate_seeded
from repro.fuzz.minimize import minimize_bytes, minimize_lines, save_fixture
from repro.fuzz.mutate import (
    MUTATORS,
    V2_MUTATORS,
    Outcome,
    check_stream,
    mutate_stream,
)
from repro.fuzz.oracle import check_program
from repro.fuzz.sources import check_source, source_bases, splice_source

#: deterministic seed programs whose encodings are the mutation bases;
#: they deliberately span the encoding's feature set (type table,
#: hierarchy + dispatch, fields, arrays + safe planes, try/catch,
#: loops/phis, constants)
BASE_PROGRAMS: tuple[tuple[str, str], ...] = (
    ("arith", """
class T {
    static int f(int a, int b) {
        int r = 0;
        for (int i = 0; i < 4; i++) { r = r + a / b; }
        return r;
    }
    static void main() { System.out.println(f(12, 3)); }
}
"""),
    ("dispatch", """
class A { int v; int get() { return v; } }
class B extends A { int get() { return v * 2; } }
class T {
    static void main() {
        A x = new B();
        x.v = 21;
        System.out.println(x.get());
    }
}
"""),
    ("arrays", """
class T {
    static void main() {
        int[] xs = new int[5];
        int total = 0;
        for (int i = 0; i < 5; i++) { xs[i] = i * i; }
        try { total = xs[7]; }
        catch (ArrayIndexOutOfBoundsException e) { total = -1; }
        for (int i = 0; i < 5; i++) { total += xs[i]; }
        System.out.println(total);
    }
}
"""),
    ("strings", """
class T {
    static String tag(boolean hot) { return hot ? "hot" : "cold"; }
    static void main() {
        System.out.println(tag(true) + "/" + tag(false));
    }
}
"""),
)


@dataclass(frozen=True)
class Finding:
    """One case that broke its lane's invariant, with its shrunken form:
    ``data`` and ``minimized`` are wire bytes or a source text."""

    lane: str
    base: str
    operator: str
    code: str
    detail: str
    data: bytes | str
    minimized: bytes | str


@dataclass
class LaneResult:
    """What one lane saw: its cases counted by outcome kind, by code
    and by applied operator, its findings, and its wall time."""

    cases: int = 0
    kinds: Counter = field(default_factory=Counter)
    taxonomy: Counter = field(default_factory=Counter)
    operators: Counter = field(default_factory=Counter)
    findings: list = field(default_factory=list)
    seconds: float = 0.0

    def report(self) -> dict:
        return {
            "cases": self.cases,
            "kinds": dict(sorted(self.kinds.items())),
            "taxonomy": dict(sorted(self.taxonomy.items())),
            "operators": dict(sorted(self.operators.items())),
            "seconds": round(self.seconds, 3),
            "per_second": round(self.cases / self.seconds, 1)
            if self.seconds else None,
        }


@dataclass
class CampaignResult:
    """One campaign: its arguments and the result of each lane it ran."""

    mode: str
    seed: int
    budget: int
    #: lane name -> its result, in :data:`LANES` order
    lanes: dict = field(default_factory=dict)

    @property
    def findings(self) -> list:
        return [finding for lane in self.lanes.values()
                for finding in lane.findings]

    @property
    def ok(self) -> bool:
        return not self.findings

    def report(self) -> dict:
        """JSON-able campaign report (consumed by ``BENCH_fuzz.json``)."""
        return {
            "mode": self.mode,
            "seed": self.seed,
            "budget": self.budget,
            "lanes": {name: lane.report()
                      for name, lane in self.lanes.items()},
            "findings": [
                {"lane": f.lane, "base": f.base, "operator": f.operator,
                 "code": f.code, "detail": f.detail,
                 "minimized": f.minimized.hex()
                 if isinstance(f.minimized, bytes) else f.minimized}
                for f in self.findings
            ],
        }


def render_report(report: dict) -> str:
    """The text form of a campaign report: one line per lane with its
    outcome kinds, its eight most frequent codes, then every finding."""
    lines = [f"  fuzz campaign: mode={report['mode']} "
             f"seed={report['seed']} budget={report['budget']}"]
    for name, lane in report["lanes"].items():
        kinds = ", ".join(f"{count} {kind}"
                          for kind, count in lane["kinds"].items())
        lines.append(f"  {name:<11} {lane['cases']} cases: {kinds}  "
                     f"[{lane['seconds']:.1f}s, {lane['per_second']}/s]")
        top = sorted(lane["taxonomy"].items(),
                     key=lambda item: (-item[1], item[0]))[:8]
        lines.extend(f"    {code:<24} {count}" for code, count in top)
    lines.extend(f"  FINDING {f['lane']} [{f['code']}] via {f['operator']} "
                 f"on {f['base']}: {f['detail']}"
                 for f in report["findings"])
    return "\n".join(lines)


def program_seed(campaign_seed: int, index: int) -> int:
    """Generator seed for iteration ``index`` (the determinism contract)."""
    return campaign_seed * 1_000_003 + index


def stream_bases() -> list[tuple[str, bytes]]:
    """The known-good wire streams a stream campaign mutates: every
    base program encoded both plain and optimised."""
    from repro.driver.session import CompilationSession
    from repro.encode.serializer import encode_module
    plain = CompilationSession(cache=False)
    optimizing = CompilationSession(optimize=True, cache=False)
    bases = []
    for name, source in BASE_PROGRAMS:
        bases.append((name, encode_module(plain.compile(source))))
        bases.append((f"{name}+opt",
                      encode_module(optimizing.compile(source))))
    return bases


def stream_bases_v2(store) -> list[tuple[str, bytes]]:
    """Known-good *v2* distribution units over the same base programs:
    per program, a shared-dictionary envelope pair (plain + optimised
    factored against their common prefix) and a plain->optimised delta,
    all resolvable through ``store``."""
    from repro.encode.format import encode_delta, encode_modules_v2
    bases = []
    v1 = stream_bases()
    for index in range(0, len(v1), 2):
        (name, plain), (opt_name, optimized) = v1[index], v1[index + 1]
        enveloped = encode_modules_v2([plain, optimized], store=store)
        bases.append((f"{name}+v2", enveloped[0]))
        bases.append((f"{opt_name}+v2", enveloped[1]))
        bases.append((f"{name}+delta",
                      encode_delta(plain, optimized, store=store)))
    return bases


# ======================================================================
# the lanes

def _draw_program(seed: int, _rng, index: int) -> tuple[str, str, str]:
    generated = generate_seeded(program_seed(seed, index))
    return f"seed={generated.seed}", "generate", generated.source


def _check_program(source: str, _store) -> Outcome:
    """The differential oracle's verdict as an outcome: a divergence is
    a finding coded by its pipeline.  A generated program's only
    static ``main`` is ``Main.main``, which the oracle finds unnamed."""
    oracle = check_program(source)
    if oracle.divergence is not None:
        return Outcome("finding", oracle.divergence.pipeline,
                       str(oracle.divergence))
    if oracle.invalid:
        return Outcome("rejected", "CompileError")
    return Outcome("agreed", "agreed")


def _draw_mutant(operators, bases, rng, _index) -> tuple[str, str, bytes]:
    base_name, base = bases[rng.integer(0, len(bases) - 1)]
    operator, mutant = mutate_stream(base, rng, operators)
    return base_name, operator, mutant


class Lane(NamedTuple):
    """One fuzz lane: what it draws from, how it draws, judges and
    shrinks one case, and its share of the budget."""

    #: ``mode="all"`` runs ``max(1, budget // share)`` cases
    share: int
    #: the lane draws from ``RandomSource(seed * 2_147_483_659 + salt)``;
    #: None for the program lane, whose draws are :func:`program_seed`
    salt: Optional[int]
    #: ``bases(seed, store) -> bases``, built when the lane runs
    bases: Callable
    #: ``draw(bases, rng, index) -> (base, operator, case)``
    draw: Callable
    #: ``check(case, store) -> Outcome``
    check: Callable
    #: ``shrink(case, failing) -> minimized``: the smallest part of the
    #: case for which ``failing`` still holds
    shrink: Callable


#: every lane, in the order ``mode="all"`` runs them; ``store`` is the
#: lane's own :class:`~repro.cache.DictionaryStore`, which only the v2
#: lane uses (the v1 lane judges with the environment's store)
LANES: dict[str, Lane] = {
    "programs": Lane(
        share=10, salt=None,
        # no bases: every draw derives from the campaign seed itself
        bases=lambda seed, store: seed,
        draw=_draw_program, check=_check_program, shrink=minimize_lines),
    "streams": Lane(
        share=1, salt=17,
        bases=lambda seed, store: stream_bases(),
        draw=partial(_draw_mutant, MUTATORS),
        check=lambda mutant, store: check_stream(mutant),
        shrink=minimize_bytes),
    "streams-v2": Lane(
        share=2, salt=29,
        bases=lambda seed, store: stream_bases_v2(store),
        draw=partial(_draw_mutant, V2_MUTATORS),
        check=lambda mutant, store: check_stream(mutant, store=store),
        shrink=minimize_bytes),
    "sources": Lane(
        share=10, salt=41,
        bases=lambda seed, store: source_bases(seed),
        draw=lambda bases, rng, index: splice_source(bases, rng),
        check=lambda source, store: check_source(source),
        shrink=minimize_lines),
}


def _shrink(lane: Lane, case, code: str, store):
    """The smallest part of ``case`` that is still a finding with
    ``code``, or ``case`` itself when the finding does not reproduce."""
    def same_finding(candidate) -> bool:
        shrunk = lane.check(candidate, store)
        return shrunk.is_finding and shrunk.code == code

    try:
        return lane.shrink(case, same_finding)
    except ValueError:
        return case


def _run_lane(name: str, lane: Lane, seed: int, budget: int, *,
              minimize: bool, fixtures_dir,
              on_progress: Optional[Callable]) -> LaneResult:
    """Run ``budget`` cases of one lane; a wire finding is saved under
    ``fixtures_dir``."""
    from repro.cache import DictionaryStore
    store = DictionaryStore()
    bases = lane.bases(seed, store)
    rng = None if lane.salt is None else \
        RandomSource(seed * 2_147_483_659 + lane.salt)
    result = LaneResult()
    start = time.perf_counter()
    for index in range(budget):
        base, operator, case = lane.draw(bases, rng, index)
        outcome = lane.check(case, store)
        result.cases += 1
        result.kinds[outcome.kind] += 1
        result.taxonomy[outcome.code] += 1
        result.operators.update(operator.split("+"))
        if outcome.is_finding:
            minimized = _shrink(lane, case, outcome.code, store) \
                if minimize else case
            result.findings.append(Finding(
                name, base, operator, outcome.code, outcome.detail, case,
                minimized))
            if fixtures_dir is not None and isinstance(minimized, bytes):
                save_fixture(fixtures_dir, minimized, {
                    "code": outcome.code,
                    "detail": outcome.detail,
                    "mutator": operator,
                    "base": base,
                    "campaign_seed": seed,
                    "lane": name,
                })
        if on_progress and (index + 1) % max(1, budget // 10) == 0:
            on_progress(f"{name} {index + 1}/{budget}, "
                        f"{len(result.findings)} finding(s)")
    result.seconds = time.perf_counter() - start
    return result


def run_campaign(seed: int = 0, budget: int = 1000, mode: str = "all", *,
                 minimize: bool = True, fixtures_dir=None,
                 on_progress: Optional[Callable] = None) -> CampaignResult:
    """Run one deterministic campaign: the lane named by ``mode`` at
    the full budget, or with ``mode="all"`` every lane at its share."""
    if mode != "all" and mode not in LANES:
        raise ValueError(f"unknown fuzz mode {mode!r}")
    result = CampaignResult(mode=mode, seed=seed, budget=budget)
    for name, lane in LANES.items():
        if mode in (name, "all"):
            result.lanes[name] = _run_lane(
                name, lane, seed,
                budget if mode == name else max(1, budget // lane.share),
                minimize=minimize, fixtures_dir=fixtures_dir,
                on_progress=on_progress)
    return result
