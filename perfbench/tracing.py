"""Spans around calls into fillperm's layers, recorded from outside the package.

The tracer swaps a timing wrapper in for a module attribute and puts the
original back on exit.  Only calls that cross a module boundary, and cheap
public entry points, are wrapped: a per-element helper such as the census's
label conjugation runs tens of millions of times, so its time is derived as
the self time of its caller instead.

Spans are recorded only while a benchmark operation (a root span opened by the
workload) is open, so the benchmark's own checks never count.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

from fillperm import Permutation

census = importlib.import_module("fillperm.census")
cli = importlib.import_module("fillperm.cli")
surgery = importlib.import_module("fillperm.surgery")


def _full_search_genus(args, kwargs, result):
    # Per-genus figures are of full searches; `roundtrip --k` restricts the
    # search to one piece genus, which takes a fraction of the time.
    return args[0].genus() if kwargs.get("k") is None else None


def _solutions(args, kwargs, result):
    # A list today; a generator would need its span to cover consumption.
    return len(result)


# (owner, attribute, span name, tag taken from the arguments and the result)
WRAPPED = (
    (census, "enumerate_filling", "census.enumerate_filling", _solutions),
    (census, "find_decompositions", "census.find_decompositions", _full_search_genus),
    (census, "validate", "filling.validate", None),
    (cli, "assemble", "surgery.assemble", None),
    (cli, "disassemble", "surgery.disassemble", None),
    (cli, "find_decompositions", "surgery.find_decompositions", _full_search_genus),
    (cli, "round_trip_check", "surgery.round_trip_check", None),
    (cli, "are_equivalent", "twist.are_equivalent", None),
    (cli, "validate", "filling.validate", None),
    (surgery, "assemble", "surgery.assemble", None),
    (surgery, "disassemble", "surgery.disassemble", None),
    (surgery, "validate", "filling.validate", None),
    (Permutation, "from_cycle_string", "perm.from_cycle_string", None),
    (Permutation, "conjugated_by", "perm.conjugated_by", None),
)

CLI_COMMANDS = ("assemble", "info", "decompose", "roundtrip", "equivalent", "extract")
DECOMPOSITION_GENERA = (4, 5, 6, 7, 8)


@dataclass(frozen=True)
class Span:
    name: str
    seconds: float
    self_seconds: float  # seconds minus the time covered by child spans
    tag: int | None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._child_seconds: list[float] = []  # one accumulator per open span
        self._originals: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        """Time the enclosed block; yields a dict whose "tag" the caller may set."""
        info = {"tag": None}
        self._child_seconds.append(0.0)
        t0 = time.perf_counter()
        try:
            yield info
        finally:
            seconds = time.perf_counter() - t0
            child = self._child_seconds.pop()
            if self._child_seconds:
                self._child_seconds[-1] += seconds
            self.spans.append(Span(name, seconds, seconds - child, info["tag"]))

    def _traced(self, fn, name, tag):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._child_seconds:
                return fn(*args, **kwargs)
            with self.span(name) as info:
                result = fn(*args, **kwargs)
                if tag is not None:
                    info["tag"] = tag(args, kwargs, result)
            return result

        return traced

    def __enter__(self):
        for owner, attr, name, tag in WRAPPED:
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                wrapper = classmethod(self._traced(original.__func__, name, tag))
            else:
                wrapper = self._traced(original, name, tag)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc):
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)
        return False


def _p50_ms(values: list[float]) -> float:
    return statistics.median(values) * 1e3 if values else 0.0


def layer_metrics(spans: list[Span], span_marks: list[int], scales: list[float],
                  untraced_wall_s: float) -> dict:
    """Per-layer metrics as {name: (value, unit)}.

    `span_marks[i]` is the number of spans recorded by the end of pass i and
    `scales[i]` its calibration factor; every span is calibrated with the
    factor of its pass.  Times and call counts are per pass (one census pass
    or one stream round); `.p50_ms` values are medians over single calls.
    Root spans are the benchmark's own operations, so their total per pass is
    the traced wall time, and the wrapped census layers plus the census self
    time sum to it.
    """
    seconds = defaultdict(float)
    self_seconds = defaultdict(float)
    durations = defaultdict(list)
    calls = defaultdict(int)
    decompose_by_genus = defaultdict(list)
    cli_self = defaultdict(list)
    root_seconds = 0.0
    passes = len(span_marks)
    start = 0
    for end, k in zip(span_marks, scales):
        for s in spans[start:end]:
            sec, self_sec = s.seconds * k, s.self_seconds * k
            seconds[s.name] += sec
            self_seconds[s.name] += self_sec
            durations[s.name].append(sec)
            calls[s.name] += 1
            if s.name.endswith(".find_decompositions") and s.tag is not None:
                decompose_by_genus[s.tag].append(sec)
            if s.name.startswith("cli."):
                cli_self[s.name].append(self_sec)
            if s.name == "census.census_records" or s.name.startswith("cli."):
                root_seconds += sec
        start = end

    enum_s = seconds["census.enumerate_filling"]
    solutions = sum(s.tag for s in spans if s.name == "census.enumerate_filling")
    traced_wall_s = root_seconds / passes
    metrics = {
        "census.census_records.self_s": (self_seconds["census.census_records"] / passes, "s"),
        "census.enumerate_filling.s": (enum_s / passes, "s"),
        "census.enumerate_filling.solutions_per_s": (
            solutions / enum_s if enum_s else 0.0, "1/s"),
        "census.find_decompositions.calls": (calls["census.find_decompositions"] / passes, "count"),
        "census.find_decompositions.s": (seconds["census.find_decompositions"] / passes, "s"),
    }
    for g in DECOMPOSITION_GENERA:
        metrics[f"surgery.find_decompositions.g{g}.p50_ms"] = (_p50_ms(decompose_by_genus[g]), "ms")
    for name in ("surgery.assemble", "surgery.disassemble", "surgery.round_trip_check",
                 "twist.are_equivalent"):
        metrics[f"{name}.p50_ms"] = (_p50_ms(durations[name]), "ms")
    metrics.update({
        "filling.validate.calls": (calls["filling.validate"] / passes, "count"),
        "filling.validate.s": (seconds["filling.validate"] / passes, "s"),
        "perm.from_cycle_string.s": (seconds["perm.from_cycle_string"] / passes, "s"),
        "perm.conjugated_by.calls": (calls["perm.conjugated_by"] / passes, "count"),
        "perm.conjugated_by.s": (seconds["perm.conjugated_by"] / passes, "s"),
    })
    for command in CLI_COMMANDS:
        metrics[f"cli.{command}.self_p50_ms"] = (_p50_ms(cli_self[f"cli.{command}"]), "ms")
    metrics["trace.wall_s"] = (traced_wall_s, "s")
    metrics["trace.overhead_s"] = (traced_wall_s - untraced_wall_s, "s")
    return metrics
