"""Spans and counters around the program's public calls, recorded from outside.

The program has no hooks of its own. While installed, the tracer replaces each
traced name in the module that looks it up (``pipeline`` binds ``parse_osm``
with ``from .osm import parse_osm``, so the wrapper goes into ``pipeline``) and
puts the originals back on exit. Spans live in memory and are written out once
the run ends. ``geodesy`` gets no span: its work is counted as the points that
``world_model`` and ``replay`` project through it.
"""

import functools
import json
import statistics
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter

MIB = 1024.0 * 1024.0

# spans whose allocation peak the memory pass records
PEAK_SPANS = ("osm.parse", "sdf.emit", "sdf.validate")

TIMED_SPANS = (
    "config.load",
    "osm.parse",
    "osm.filter",
    "world_model.buildings",
    "world_model.roads",
    "sdf.emit",
    "sdf.validate",
    "cli.read",
    "cli.write",
    "replay.parse_csv",
    "replay.headings",
    "replay.simulate",
    "replay.compare",
)
COUNTERS = (
    "osm.nodes",
    "osm.ways",
    "world_model.points",
    "world_model.skipped",
    "sdf.elements",
    "replay.samples",
    "replay.controls",
    "replay.points",
)


def balanced_median(samples: list[tuple[int, float]]) -> float:
    """Mean over CPUs of the median of the (cpu, value) samples taken on
    each, so that CPUs of unequal speed weigh the same in every run."""
    by_cpu: dict[int, list[float]] = defaultdict(list)
    for cpu, value in samples:
        by_cpu[cpu].append(value)
    return statistics.fmean(statistics.median(values) for values in by_cpu.values())


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span, None at top level
    call: int  # the CLI call this span belongs to

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for the calls made while :meth:`installed` is active."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: list[dict[str, float]] = []
        self.peaks: dict[str, float] = {}
        self.memory_calls: set[int] = set()
        self.cpus: list[int] = []  # the CPU each call ran on
        self._stack: list[int] = []

    @property
    def call(self) -> int:
        return len(self.counters) - 1

    def begin_call(self, cpu: int, memory: bool = False) -> None:
        self.counters.append(defaultdict(float))
        self.cpus.append(cpu)
        if memory:
            self.memory_calls.add(self.call)

    def count(self, name: str, amount: float) -> None:
        self.counters[self.call][name] += amount

    @contextmanager
    def span(self, name: str):
        record = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.call)
        self._stack.append(len(self.spans))
        self.spans.append(record)
        peak = self.call in self.memory_calls and name in PEAK_SPANS
        if peak:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
        record.start = perf_counter()
        try:
            yield
        finally:
            record.end = perf_counter()
            self._stack.pop()
            if peak:
                grown = (tracemalloc.get_traced_memory()[1] - base) / MIB
                self.peaks[name] = max(self.peaks.get(name, 0.0), grown)

    def _timed(self, func, name, after=None):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            with self.span(name):
                result = func(*args, **kwargs)
            if after is not None:
                after(result, *args)
            return result

        return traced

    def _counted(self, func, name):
        @functools.wraps(func)
        def counted(*args, **kwargs):
            self.count(name, 1)
            return func(*args, **kwargs)

        return counted

    def _traced_path(self, path_type):
        tracer = self

        class TracedPath(path_type):
            def read_text(self, *args, **kwargs):
                with tracer.span("cli.read"):
                    return super().read_text(*args, **kwargs)

            def write_text(self, *args, **kwargs):
                with tracer.span("cli.write"):
                    return super().write_text(*args, **kwargs)

        return TracedPath

    def _patches(self):
        from dtgen import cli, pipeline, replay, world_model

        def parsed(doc, *_):
            self.count("osm.nodes", len(doc.nodes))
            self.count("osm.ways", len(doc.ways))

        def filtered(doc, *_):
            self.count("osm.ways_kept", len(doc.ways))

        def extracted(result, *_):
            self.count("world_model.skipped", len(result[1]))

        def emitted(world, *_):
            text = world.text
            self.count("sdf.elements", text.count("<") - text.count("</") - text.count("<?"))

        return [
            (cli, "Path", self._traced_path(type(cli.Path()))),
            (cli, "load_config", self._timed(cli.load_config, "config.load")),
            (cli, "generate_world", self._timed(cli.generate_world, "pipeline.generate")),
            (pipeline, "parse_osm", self._timed(pipeline.parse_osm, "osm.parse", parsed)),
            (pipeline, "filter_bbox", self._timed(pipeline.filter_bbox, "osm.filter", filtered)),
            (pipeline, "extract_buildings",
             self._timed(pipeline.extract_buildings, "world_model.buildings", extracted)),
            (pipeline, "extract_roads",
             self._timed(pipeline.extract_roads, "world_model.roads", extracted)),
            (world_model, "project", self._counted(world_model.project, "world_model.points")),
            (pipeline, "emit_world", self._timed(pipeline.emit_world, "sdf.emit", emitted)),
            (cli, "validate_sdf", self._timed(cli.validate_sdf, "sdf.validate")),
            (cli, "parse_trajectory_csv", self._timed(
                cli.parse_trajectory_csv, "replay.parse_csv",
                lambda traj, *_: self.count("replay.samples", len(traj.samples)))),
            (cli, "parse_controls_csv", self._timed(
                cli.parse_controls_csv, "replay.parse_csv",
                lambda controls, *_: self.count("replay.controls", len(controls)))),
            (replay, "project", self._counted(replay.project, "replay.points")),
            (cli, "derive_headings", self._timed(cli.derive_headings, "replay.headings")),
            (replay, "derive_headings", self._timed(replay.derive_headings, "replay.headings")),
            (cli, "simulate_controls", self._timed(cli.simulate_controls, "replay.simulate")),
            (cli, "compute_gap", self._timed(cli.compute_gap, "replay.compare")),
        ]

    @contextmanager
    def installed(self):
        patches = self._patches()
        originals = [(module, name, getattr(module, name)) for module, name, _ in patches]
        for module, name, wrapper in patches:
            setattr(module, name, wrapper)
        try:
            yield
        finally:
            for module, name, original in originals:
                setattr(module, name, original)

    def _inside_stage(self, span: Span) -> bool:
        while span.parent is not None:
            span = self.spans[span.parent]
            if span.name in TIMED_SPANS:
                return True
        return False

    def write(self, path: Path) -> None:
        doc = {
            "spans": [asdict(s) for s in self.spans],
            "call_cpus": self.cpus,
            "memory_calls": sorted(self.memory_calls),
        }
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")

    def layer_metrics(self, untraced: list[tuple[int, float]]) -> dict[str, float]:
        """Per-call values over the timed traced calls (not the memory pass),
        reduced with :func:`balanced_median`.

        A layer's time is the sum of its spans within one call. ``cli.self_s``
        is the CLI call minus its direct child spans. ``trace.stages_s`` is the
        time the stage spans cover, nested ones counted once, to set beside
        ``trace.untraced_s``, the untraced call of this run;
        ``trace.overhead_s`` is the traced call minus the untraced one.
        """
        calls = [c for c in range(len(self.counters)) if c not in self.memory_calls]
        per_call = {c: defaultdict(float) for c in calls}
        for span in self.spans:
            if span.call not in per_call:
                continue
            totals = per_call[span.call]
            totals[span.name] += span.seconds
            if span.parent is not None and self.spans[span.parent].name == "cli.main":
                totals["cli.children"] += span.seconds
            if span.name in TIMED_SPANS and not self._inside_stage(span):
                totals["trace.stages"] += span.seconds
        for c in calls:
            per_call[c]["cli.self"] = per_call[c]["cli.main"] - per_call[c]["cli.children"]
            per_call[c].update(self.counters[c])

        def median(key):
            return balanced_median([(self.cpus[c], per_call[c].get(key, 0.0)) for c in calls])

        metrics = {f"{name}_s": median(name) for name in (*TIMED_SPANS, "cli.self", "trace.stages")}
        metrics["trace.untraced_s"] = balanced_median(untraced)
        metrics["trace.overhead_s"] = median("cli.main") - metrics["trace.untraced_s"]
        for name in COUNTERS:
            metrics[name] = median(name)
        ways = metrics["osm.ways"]
        metrics["osm.ways_kept_ratio"] = median("osm.ways_kept") / ways if ways else 0.0
        for name in PEAK_SPANS:
            metrics[f"{name}_peak_mb"] = self.peaks.get(name, 0.0)
        return metrics
