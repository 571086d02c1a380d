"""Span tracing for the benchmark's traced runs.

A traced run replaces the package's public functions, at the names the
calling modules imported them under, with wrappers that record one span
per call: name, start, end and parent span.  Spans stay in memory and
are written to one file when the traced command exits; `summarize`
turns them into per-name call counts, total time and self time (a
span's duration minus the time its child spans cover).

Run as a script, this executes one `lo` command under tracing and
writes its spans:

    PYTHONPATH=src python perfbench/tracer.py SPANS_FILE -- campaign CONFIG --out REPORT
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from contextlib import contextmanager

# (module, attribute, span name).  Each entry is the name a calling
# module looks up at call time, so wrapping it times the calls that
# module makes into the next layer.  A name missing from the package is
# skipped and reported, so a refactor that drops one loses its span but
# does not stop the benchmark.
WRAPS = (
    ("cli", "run_campaign", "campaign.run_campaign"),
    ("cli", "parse_instance", "reduction.parse_instance"),
    ("cli", "verify_instance", "reduction.verify_instance"),
    ("cli", "format_report", "reduction.format_report"),
    ("campaign", "gen_random", "campaign.gen_random"),
    ("campaign", "Instance", "reduction.Instance"),
    ("campaign", "verify_instance", "reduction.verify_instance"),
    ("campaign", "reachable_sums_nd", "concentration.reachable_sums_nd"),
    ("reduction", "Instance", "reduction.Instance"),
    ("reduction", "project", "reduction.project"),
    ("reduction", "perturb_witness", "reduction.perturb_witness"),
    ("reduction", "dual_witness", "norms.dual_witness"),
    ("reduction", "ceil_norm", "norms.ceil_norm"),
    ("reduction", "atom_nd", "concentration.atom_nd"),
    ("reduction", "atom_1d", "concentration.atom_1d"),
    ("reduction", "lo_bound", "exactnum.lo_bound"),
    ("reduction", "ceil_sqrt", "exactnum.ceil_sqrt"),
    ("reduction", "floor_sqrt", "exactnum.floor_sqrt"),
)

# Cache statistic -> the functools caches it sums, read through
# `cache_info()` when the traced command ends.
CACHES = {
    "norms.in_unit_ball": (("reduction", "in_unit_ball"),),
    "concentration.table": (("concentration", "_cached_table_1d"),
                            ("concentration", "_cached_table_nd")),
}

PACKAGE = "littlewood_offord"


class Recorder:
    """In-memory span store.  Spans are appended in start order; span i
    has name `names[name_ids[i]]` and parent span `parents[i]` (-1 for a
    root)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self.missing: list[str] = []

    def wrap(self, name: str, fn):
        """Return `fn` wrapped so that each call records a span `name`."""
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        ids, parents, starts, ends = (self.name_ids, self.parents,
                                      self.starts, self.ends)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(starts)
            ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    @contextmanager
    def installed(self, wraps=WRAPS):
        """Wrap every listed name while the block runs, then put each
        original back, so no wrapper outlives the traced command."""
        saved = []
        try:
            for module_name, attr, span in wraps:
                module = importlib.import_module(f"{PACKAGE}.{module_name}")
                if not hasattr(module, attr):
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(span, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def dump(self, path: str, extra: dict) -> None:
        """Write a one-line JSON header, then the four span arrays."""
        header = dict(extra, names=self.names, count=len(self.starts),
                      missing=self.missing)
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_ids, self.parents, self.starts, self.ends):
                arr.tofile(f)


def load(path: str) -> tuple[dict, array, array, array, array]:
    """Read a file written by `Recorder.dump`."""
    with open(path, "rb") as f:
        header = json.loads(f.readline())
        arrays = []
        for code in ("i", "i", "d", "d"):
            arr = array(code)
            arr.fromfile(f, header["count"])
            arrays.append(arr)
    return (header, *arrays)


def summarize(names, name_ids, parents, starts, ends) -> dict[str, dict]:
    """Per span name: calls, total seconds `s` and self seconds `self_s`.

    Spans of one thread nest strictly, so the time a span's children
    cover is the sum of their durations."""
    durations = [e - s for s, e in zip(starts, ends)]
    self_time = list(durations)
    for i, parent in enumerate(parents):
        if parent >= 0:
            self_time[parent] -= durations[i]
    out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in names}
    for i, nid in enumerate(name_ids):
        entry = out[names[nid]]
        entry["calls"] += 1
        entry["s"] += durations[i]
        entry["self_s"] += self_time[i]
    return out


def merge(summaries) -> dict[str, dict]:
    """Add up per-name summaries from several traced processes."""
    total: dict[str, dict] = {}
    for summary in summaries:
        for name, entry in summary.items():
            acc = total.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for key, value in entry.items():
                acc[key] += value
    return total


def cache_stats() -> dict[str, list[int]]:
    """[hits, misses] per entry of CACHES; a cache the package no longer
    has counts as [0, 0]."""
    out = {}
    for stat, sources in CACHES.items():
        hits = misses = 0
        for module_name, attr in sources:
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
            info = getattr(getattr(module, attr, None), "cache_info", None)
            if info is not None:
                hits += info().hits
                misses += info().misses
        out[stat] = [hits, misses]
    return out


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: tracer.py SPANS_FILE -- LO_ARGS...", file=sys.stderr)
        return 2
    spans_path, lo_args = argv[0], argv[2:]
    cli = importlib.import_module(f"{PACKAGE}.cli")
    recorder = Recorder()
    code = None
    entered = time.monotonic()
    try:
        with recorder.installed():
            # CLOCK_MONOTONIC is system-wide on Linux, so the parent can
            # subtract its spawn time from this to get the start-up time.
            entered = time.monotonic()
            code = recorder.wrap("cli.main", cli.main)(lo_args)
    finally:
        recorder.dump(spans_path, {"main_entered": entered, "exit_code": code,
                                   "caches": cache_stats()})
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
