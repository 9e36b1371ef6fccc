"""Spans around the program's public functions, recorded from outside it.

``Tracer.patched()`` replaces each public function of ``dsl``, ``pathsum``,
``tensornet``, ``measure`` and ``cli`` listed in ``TRACED`` (module
functions and class methods alike) by a wrapper that records a span, and
puts the originals back on exit. Calls inside the program go through the
same module attributes, so nested calls (``path_sum_amplitude`` calling
``enumerate_paths``) give nested spans. Spans stay in memory until
``write``; ``layer_metrics`` derives self times and per-layer metrics.
``contract_peak_bytes`` measures allocation apart from every span, so that
no traced time includes ``tracemalloc``'s cost.
"""

from __future__ import annotations

import contextlib
import json
import time
import tracemalloc
from dataclasses import dataclass, field

from qpath import cli, dsl, measure, pathsum, tensornet


def _lines(args, result) -> int:
    text = args[0]
    return text.count(b"\n" if isinstance(text, bytes) else "\n") + 1


def _count(args, result) -> int:
    return len(result)


def _output_lines(args, result) -> int:
    return result[0].count("\n")


def _shots(args, result) -> int:
    return int(result.shots)


#: (owner, attribute, layer, counter): every wrapped callable. ``counter``
#: maps (call args, result) to the layer's work count for that call.
TRACED = (
    (dsl, "parse_bytes", "dsl.parse", _lines),
    (dsl, "parse", "dsl.parse", _lines),
    (dsl.Document, "network", "tensornet.build", None),
    (tensornet.Network, "__init__", "tensornet.build", None),
    (tensornet.Network, "cut_edge", "tensornet.build", None),
    (tensornet.Network, "wire", "tensornet.build", None),
    (tensornet.Network, "add_node", "tensornet.build", None),
    (tensornet.Network, "insert_ket", "tensornet.build", None),
    (tensornet.Network, "insert_bra", "tensornet.build", None),
    (tensornet.Network, "contract", "tensornet.contract", None),
    (pathsum, "enumerate_paths", "pathsum.enumerate", _count),
    (pathsum, "path_sum_amplitude", "pathsum.sum", None),
    (pathsum, "composition_matrix", "pathsum.matrix", None),
    (pathsum, "interference_report", "pathsum.interference", None),
    (pathsum, "emit_lab_diagram", "pathsum.lab", None),
    (pathsum, "to_dot", "pathsum.lab", None),
    (pathsum.LabDiagram, "input_walks", "pathsum.walks", _count),
    (measure, "born_probabilities", "measure.born", None),
    (measure, "sample", "measure.sample", _shots),
    (measure, "hadamard_test", "measure.hadamard", None),
    (cli, "run_command", "cli.run_command", _output_lines),
    (cli, "main", "cli.main", None),
)

@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    op: int = -1
    count: int = 0
    children_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _op: int = -1

    @contextlib.contextmanager
    def span(self, name: str, op: int = -1):
        """A span of the benchmark's own (an op or a set-up) that program spans nest under."""
        self._op = op
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)
            self._op = -1

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent, op=self._op))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, index: int) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].children_s += span.duration

    def _wrap(self, fn, layer: str, counter, is_method: bool):
        def traced(*args, **kwargs):
            index = self._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if counter is not None:
                self.spans[index].count = counter(args[1:] if is_method else args, result)
            return result

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Wrap every ``TRACED`` callable for the duration of the block."""
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in TRACED]
        try:
            for (owner, attr, layer, counter), (_, _, original) in zip(TRACED, saved):
                setattr(owner, attr, self._wrap(original, layer, counter, isinstance(owner, type)))
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps({
                    "name": span.name, "start": span.start, "end": span.end,
                    "parent": span.parent, "op": span.op, "count": span.count,
                }) + "\n")

    def layer_metrics(self, op_span: str) -> dict[str, float]:
        """Per-layer metrics over every recorded span.

        A layer's calls, busy time and work count come from its outermost
        spans (``parse_bytes`` calling ``parse`` is one parse); its self time
        is each span's duration minus the time its child spans cover.
        """
        layers: dict[str, dict[str, float]] = {}
        ops = op_time = unattributed = 0.0
        paths_under_sum = 0
        for span in self.spans:
            if span.name == op_span:
                ops += 1
                op_time += span.duration
                unattributed += span.self_s
                continue
            agg = layers.setdefault(span.name, dict.fromkeys(
                ("calls", "op_calls", "busy_s", "self_s", "count"), 0.0))
            agg["self_s"] += span.self_s
            parent = self.spans[span.parent].name if span.parent >= 0 else None
            if span.name == "pathsum.enumerate" and parent == "pathsum.sum":
                paths_under_sum += span.count
            if self._outermost(span):
                agg["calls"] += 1
                agg["op_calls"] += span.op >= 0
                agg["busy_s"] += span.duration
                agg["count"] += span.count

        def get(layer, key):
            return layers.get(layer, {}).get(key, 0.0)

        def per(num, den, unit=1.0):
            return num / den * unit if den else 0.0

        return {
            "dsl.parse.calls": get("dsl.parse", "calls"),
            "dsl.parse.busy_s": get("dsl.parse", "busy_s"),
            "dsl.parse.us_per_line": per(get("dsl.parse", "busy_s"), get("dsl.parse", "count"), 1e6),
            "pathsum.enumerate.paths": get("pathsum.enumerate", "count"),
            "pathsum.enumerate.busy_s": get("pathsum.enumerate", "busy_s"),
            "pathsum.enumerate.ns_per_path": per(
                get("pathsum.enumerate", "busy_s"), get("pathsum.enumerate", "count"), 1e9),
            "pathsum.sum.self_s": get("pathsum.sum", "self_s"),
            "pathsum.sum.ns_per_path": per(get("pathsum.sum", "self_s"), paths_under_sum, 1e9),
            "pathsum.matrix.calls_per_op": per(get("pathsum.matrix", "op_calls"), ops),
            "pathsum.matrix.busy_s": get("pathsum.matrix", "busy_s"),
            "pathsum.interference.busy_s": get("pathsum.interference", "busy_s"),
            "pathsum.lab.busy_s": get("pathsum.lab", "busy_s"),
            "pathsum.walks.ns_per_walk": per(
                get("pathsum.walks", "busy_s"), get("pathsum.walks", "count"), 1e9),
            "cli.run_command.self_s": get("cli.run_command", "self_s"),
            "cli.format.ns_per_line": per(
                get("cli.run_command", "self_s"), get("cli.run_command", "count"), 1e9),
            "tensornet.build.calls": get("tensornet.build", "calls"),
            "tensornet.build.busy_s": get("tensornet.build", "busy_s"),
            "tensornet.contract.calls": get("tensornet.contract", "calls"),
            "tensornet.contract.busy_s": get("tensornet.contract", "busy_s"),
            "measure.born.busy_s": get("measure.born", "busy_s"),
            "measure.sample.ns_per_shot": per(
                get("measure.sample", "busy_s"), get("measure.sample", "count"), 1e9),
            "measure.hadamard.busy_s": get("measure.hadamard", "busy_s"),
            "trace.unattributed_share": per(unattributed, op_time),
        }

    def _outermost(self, span: Span) -> bool:
        parent = span.parent
        while parent >= 0:
            if self.spans[parent].name == span.name:
                return False
            parent = self.spans[parent].parent
        return True


@contextlib.contextmanager
def contract_peak_bytes():
    """Record the largest ``tracemalloc`` peak of one ``Network.contract()`` call.

    Yields a one-item list holding that peak in bytes (0 while nothing was
    contracted). Use it around ops run outside every timed span: tracing
    allocations slows each call it covers.
    """
    original = tensornet.Network.__dict__["contract"]
    peak = [0]

    def measured(*args, **kwargs):
        tracemalloc.start()
        try:
            return original(*args, **kwargs)
        finally:
            peak[0] = max(peak[0], tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    tensornet.Network.contract = measured
    try:
        yield peak
    finally:
        tensornet.Network.contract = original
