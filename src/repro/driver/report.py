"""Structured per-function pass reports.

A :class:`PassReport` records, for one function, every pass that ran:
its name, wall-clock seconds, and the statistics dictionary the pass
returned.  The merged :attr:`PassReport.stats` view accumulates integer
counters and lets **boolean values overwrite** (``isinstance(True,
int)`` is true in Python, so a plain sum would turn two passes both
reporting ``flag: True`` into the nonsense counter ``2``).

Report equality ignores wall-clock seconds: two sessions are considered
to have produced *identical* reports when every pass reports the same
statistics for the same function -- the determinism contract fresh
sessions and rebuilds are tested against.
"""

from __future__ import annotations


def merge_stats(stats: dict, update: dict) -> None:
    """Merge ``update`` into ``stats`` in place.

    Integer counters accumulate; booleans (and any non-int values)
    overwrite -- a ``bool`` is an ``int`` in Python, so the check must
    be explicit on both sides.
    """
    for key, value in update.items():
        if key in stats \
                and isinstance(value, int) \
                and not isinstance(value, bool) \
                and isinstance(stats[key], int) \
                and not isinstance(stats[key], bool):
            stats[key] += value
        else:
            stats[key] = value


class PassReport:
    """What the pass pipeline did to one function."""

    def __init__(self, function: str):
        self.function = function
        #: [{"pass": name, "seconds": float, "stats": dict}] in run order
        self.passes: list[dict] = []

    def record(self, name: str, stats: dict, seconds: float) -> None:
        self.passes.append({"pass": name, "seconds": seconds,
                            "stats": dict(stats)})

    # -- views ----------------------------------------------------------

    @property
    def stats(self) -> dict:
        """Merged statistics across all passes (no timing)."""
        merged: dict = {}
        for entry in self.passes:
            merge_stats(merged, entry["stats"])
        return merged

    @property
    def seconds(self) -> dict:
        """pass name -> wall-clock seconds (summed on repeats)."""
        out: dict[str, float] = {}
        for entry in self.passes:
            out[entry["pass"]] = out.get(entry["pass"], 0.0) \
                + entry["seconds"]
        return out

    def as_dict(self, *, seconds: bool = True) -> dict:
        """JSON-shaped view; ``seconds=False`` gives the deterministic
        part only (what rebuild comparisons use)."""
        entries = [
            {"pass": e["pass"], "stats": dict(e["stats"]),
             **({"seconds": round(e["seconds"], 6)} if seconds else {})}
            for e in self.passes]
        return {"function": self.function, "passes": entries}

    # -- equality: deterministic content only ---------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PassReport):
            return NotImplemented
        return self.as_dict(seconds=False) == other.as_dict(seconds=False)

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    def __repr__(self) -> str:  # pragma: no cover
        names = ",".join(e["pass"] for e in self.passes)
        return f"<PassReport {self.function}: [{names}]>"
