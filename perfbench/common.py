"""Pieces every workload shares: statistics, spans, failure accounting,
the bytecode-baseline oracle and run provenance.

Nothing here times the system by itself: workloads wrap their calls
into the repository's public entry points with :func:`time.perf_counter`
and hand the samples to :func:`summarize`.
"""

from __future__ import annotations

import gc
import hashlib
import math
import os
import platform
import statistics
import sys
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter

#: how often each workload repeats its set-up; ``setup_s`` is the median
SETUP_REPEATS = 5

#: what one call of the speed kernel takes on the reference host, in
#: seconds; every reported time is scaled to that host speed
REFERENCE_KERNEL_S = 0.001
#: kernel calls per speed reading (the reading is their median)
KERNEL_CALLS = 3


# ----------------------------------------------------------------------
# statistics


def quantile(values, q: float) -> float:
    """The ``q``-quantile (0 < q < 1) by linear interpolation between
    closest ranks; exact for any sample size, including one."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no samples")
    position = (len(ordered) - 1) * q
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def summarize(values) -> dict:
    """``n``, median, min and inter-quartile range of one metric's
    samples -- the per-metric record every report carries."""
    values = list(values)
    if not values:
        return {"n": 0}
    return {"n": len(values), "median": statistics.median(values),
            "min": min(values),
            "iqr": quantile(values, 0.75) - quantile(values, 0.25)}


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


# ----------------------------------------------------------------------
# host speed


class _Cell:
    __slots__ = ("key", "value", "next")

    def __init__(self, key, value, next_cell):
        self.key = key
        self.value = value
        self.next = next_cell


def speed_kernel() -> int:
    """A fixed piece of plain Python -- object allocation, string keys,
    dict updates, pointer chasing and a keyed sort -- that shares no
    code with the repository.  Its time tracks how fast the host runs
    the allocation-heavy Python the compiler and interpreter are made
    of."""
    table: dict[str, int] = {}
    head = None
    for i in range(1000):
        key = "n%d" % (i * 7919 % 4093)
        head = _Cell(key, i, head)
        table[key] = table.get(key, 0) + i
    total = 0
    while head is not None:
        total += table[head.key] ^ head.value
        head = head.next
    ordered = sorted(table.items(), key=lambda kv: (kv[1] % 97, kv[0]))
    return total + len(ordered)


class HostSpeed:
    """Scales measured times to a fixed host speed.

    The benchmark shares a host whose speed changes by up to 2x: in
    bursts of tens to hundreds of milliseconds, and in its base level
    over minutes.  A slowdown slows every piece of plain Python about
    alike.  So the workloads cut the measured work into short segments
    (one request, one cell, one batch of loads) and take a reading of
    the speed kernel between two segments; each sample of a segment is
    multiplied by ``REFERENCE_KERNEL_S`` over the mean of the readings
    on either side of it.  A change to the repository moves its samples
    and not the kernel, so it still shows in full.

    Workloads :meth:`add` raw samples into lists; a sample lands there,
    scaled, at the next :meth:`checkpoint`, which takes a reading.
    """

    def __init__(self):
        self.readings: list[float] = []
        self.factors: list[float] = []
        self._pending: list[tuple[list, float]] = []

    def read(self) -> float:
        """Time the kernel with the collector off: a collection would
        charge it for the workload's heap, which is not host speed."""
        times = []
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(KERNEL_CALLS):
                start = perf_counter()
                speed_kernel()
                times.append(perf_counter() - start)
        finally:
            if enabled:
                gc.enable()
        self.readings.append(statistics.median(times))
        return self.readings[-1]

    def add(self, bucket: list, seconds: float) -> None:
        self._pending.append((bucket, seconds))

    def checkpoint(self) -> None:
        """Take a reading and flush the samples added since the last."""
        before = self.readings[-1] if self.readings else None
        after = self.read()
        if not self._pending:
            return
        around = after if before is None else (before + after) / 2
        factor = REFERENCE_KERNEL_S / around
        self.factors.append(factor)
        for bucket, seconds in self._pending:
            bucket.append(seconds * factor)
        self._pending.clear()

    def factor(self) -> float:
        """The run's median scale, for times measured outside segments
        (per-layer spans)."""
        return statistics.median(self.factors) if self.factors else 1.0

    def report(self) -> dict:
        return {"reference_kernel_ms": REFERENCE_KERNEL_S * 1e3,
                "kernel_ms": summarize(r * 1e3 for r in self.readings),
                "factor": summarize(self.factors)}


def repeated_setup(speed: HostSpeed, setup) -> list[float]:
    """Scaled seconds of :data:`SETUP_REPEATS` calls of ``setup``, each
    its own segment between two speed readings."""
    seconds: list[float] = []
    speed.checkpoint()
    for _ in range(SETUP_REPEATS):
        speed.add(seconds, setup())
        speed.checkpoint()
    return seconds


# ----------------------------------------------------------------------
# spans


class Tracer:
    """In-memory spans around calls into the layers.

    A span records its name, start, end, the span that caused it and
    the request it belongs to.  Disabled, :meth:`span` hands back one
    shared no-op context, so the untraced run pays a method call per
    layer boundary and nothing else.
    """

    _NULL = nullcontext()

    def __init__(self, enabled: bool):
        self.enabled = enabled
        #: (request, name, parent, start, end)
        self.records: list[tuple] = []
        self.request = None
        self._stack: list[str] = []

    def span(self, name: str):
        if not self.enabled:
            return self._NULL
        return self._span(name)

    @contextmanager
    def _span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        self._stack.append(name)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.records.append((self.request, name, parent, start, end))

    def totals(self) -> dict[str, float]:
        """Seconds per span name over the top-level spans."""
        out: dict[str, float] = {}
        for _request, name, parent, start, end in self.records:
            if parent is None:
                out[name] = out.get(name, 0.0) + (end - start)
        return out


# ----------------------------------------------------------------------
# failure accounting


class Outcomes:
    """Operations attempted and failed, with each failure's stable code
    or, for an exception that carries none, its type name."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.causes: dict[str, int] = {}

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, cause: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.causes[cause] = self.causes.get(cause, 0) + 1

    def fail_exception(self, error: BaseException) -> None:
        self.fail(error_cause(error))

    @property
    def success_rate(self) -> float:
        return 1.0 - self.failed / self.attempted if self.attempted else 0.0

    def report(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "error_rate": (self.failed / self.attempted
                               if self.attempted else None),
                "causes": dict(sorted(self.causes.items()))}


def error_cause(error: BaseException) -> str:
    """A registered ``DEC-*``/``STSA-*``/``SERVE-*`` code when the error
    carries one, else ``raw:<exception type>``."""
    from repro.analysis.diagnostics import STABLE_CODES
    code = getattr(error, "code", None)
    if isinstance(code, str) and code in STABLE_CODES:
        return code
    return f"raw:{type(error).__name__}"


# ----------------------------------------------------------------------
# the independent oracle


def bytecode_reference(source: str, main_class, max_steps: int):
    """``(stdout, exception name)`` of ``main`` under the Java-bytecode
    baseline -- a second compiler back end and a second interpreter,
    sharing only the front end with the SafeTSA path under test."""
    from repro.driver import CompilationSession
    from repro.jvm import BytecodeInterpreter
    session = CompilationSession(cache=False)
    classes = session.compile_to_classfiles(source)
    _unit, world = session.frontend(source)
    result = BytecodeInterpreter(classes, world,
                                 max_steps=max_steps).run_main(main_class)
    return result.stdout, result.exception_name()


# ----------------------------------------------------------------------
# provenance


def _git_sha(root: Path):
    """The checked-out commit, read from ``.git`` without running git;
    None outside a repository."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def source_digest(root: Path) -> str:
    """sha256 over every Python file under ``src/`` (path and bytes):
    identifies the code measured even where there is no git metadata."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(root: Path, *, workload: str, seed: int, seconds: int,
               traced: bool, nproc: int, pinned_to: list[int]) -> dict:
    """``nproc`` counts the CPUs the checkout may use; ``pinned_to``
    lists those the benchmark process ran on."""
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "traced": traced,
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "nproc": nproc,
        "pinned_to": pinned_to,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "git_sha": _git_sha(root),
        "source_sha256": source_digest(root),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
    }
