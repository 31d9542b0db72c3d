"""Outside-in tracing of the ``oddtrans`` layers.

The tracer replaces named public functions by timing wrappers, inside the
benchmark process only and only while installed; no package file changes.
Module attributes are replaced, so calls between layers (``spectral`` into
``transversal`` into ``gf2``) are timed too.  Each call becomes a span
(name, start, end, parent span, op id) kept in memory; self times are the
span durations minus the time covered by their child spans.  A name that
no longer exists is recorded as absent and the metrics built on it are
left out rather than failing the run.
"""

from __future__ import annotations

import gzip
import importlib
import time
from collections import Counter
from pathlib import Path

# Wrapped public functions, each with the metrics read straight off its
# spans: call count, self time, or self time per edge of the input
# hypergraph.  Derived ratios are formed in ``Tracer.layer_metrics``.
TRACED = {
    "hgio.parse_hypergraph": ("calls", "self_s"),
    "gf2.rank": ("calls", "self_s"),
    "gf2.solve": ("calls", "self_s"),
    "hypergraph.Hypergraph.cut_vertices": ("self_s",),
    "hypergraph.Hypergraph.cut_edges": ("self_s",),
    "hypergraph.Hypergraph.is_connected": ("self_s",),
    "hypergraph.Hypergraph.incidence": ("calls",),
    "hypergraph.Hypergraph.is_uniform": ("calls",),
    "transversal.classify": ("calls", "self_s"),
    "transversal.find_odd_transversal": ("calls",),
    "transversal.edge_injection": ("self_s",),
    "spectral.apply": ("calls", "self_s", "ns_per_edge"),
    "spectral.rayleigh": ("calls", "self_s", "ns_per_edge"),
    "spectral.spectral_radius": ("calls", "self_s"),
    "spectral.lambda_min_upper": ("self_s",),
    "spectral.flip_vector": ("calls",),
    "spectral.bound_report": ("calls",),
    "cli.main": ("self_s",),
}
UNITS = {"calls": "count", "self_s": "s", "ns_per_edge": "ns"}


def _span_name(target: str) -> str:
    module, *_, attr = target.split(".")
    return f"{module}.{attr}"


def _resolve(target: str):
    """(owner object, attribute name) for a dotted target, or None if it is gone."""
    module_name, *path = target.split(".")
    try:
        owner = importlib.import_module(f"oddtrans.{module_name}")
    except ImportError:
        return None
    for part in path[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, path[-1], None)):
        return None
    return owner, path[-1]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple[int, int, int, int, int] | None] = []
        self.stack: list[int] = []
        self.op = -1
        self.absent: set[str] = set()
        self.kernel_edges: Counter[str] = Counter()
        self.iterations = 0
        self.converged = 0
        self.distinct_classified = 0
        self._classified_in_op: set = set()
        self._patches: list[tuple[object, str, object, object]] | None = None

    def begin_op(self, op: int) -> None:
        self.op = op
        self._classified_in_op = set()

    def install(self) -> None:
        if self._patches is None:
            self._patches = []
            for target in TRACED:
                name = _span_name(target)
                found = _resolve(target)
                if found is None:
                    self.absent.add(name)
                    continue
                owner, attr = found
                original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
                self._patches.append((owner, attr, original, self._wrap(name, original)))
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches or []):
            setattr(owner, attr, original)

    def _wrap(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self.stack
        clock = time.perf_counter_ns
        observe = {
            "spectral.apply": self._observe_kernel,
            "spectral.rayleigh": self._observe_kernel,
            "spectral.spectral_radius": self._observe_perron,
            "transversal.classify": self._observe_classify,
        }.get(name)

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (index, start, end, parent, self.op)
            if observe is not None:
                observe(name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _observe_kernel(self, name: str, args: tuple, result) -> None:
        self.kernel_edges[name] += getattr(args[0], "m", 0) if args else 0

    def _observe_perron(self, name: str, args: tuple, result) -> None:
        iterations = getattr(result, "iterations", None)
        converged = getattr(result, "converged", None)
        if iterations is None or converged is None:
            self.absent.add("spectral.spectral_radius.result")
            return
        self.iterations += iterations
        self.converged += bool(converged)

    def _observe_classify(self, name: str, args: tuple, result) -> None:
        if args and args[0] not in self._classified_in_op:
            self._classified_in_op.add(args[0])
            self.distinct_classified += 1

    def totals(self) -> tuple[Counter[str], Counter[str]]:
        """Calls and self nanoseconds per span name, computed from the spans."""
        covered = [0] * len(self.spans)
        for span in self.spans:
            _, start, end, parent, _ = span
            if parent >= 0:
                covered[parent] += end - start
        calls: Counter[str] = Counter({name: 0 for name in self.names})
        self_ns: Counter[str] = Counter({name: 0 for name in self.names})
        for sid, (index, start, end, _, _) in enumerate(self.spans):
            name = self.names[index]
            calls[name] += 1
            self_ns[name] += end - start - covered[sid]
        return calls, self_ns

    def layer_metrics(self, passes: int) -> dict[str, dict]:
        """Per-layer metrics per traced pass; counts are exact, times in seconds."""
        calls, self_ns = self.totals()
        present = set(self.names) - self.absent
        classify, radius = "transversal.classify", "spectral.spectral_radius"

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        def plain(name: str, suffix: str) -> float:
            if name not in present:
                raise KeyError(name)
            if suffix == "calls":
                value = calls[name] / passes
                return int(value) if value.is_integer() else value
            if suffix == "self_s":
                return self_ns[name] / 1e9 / passes
            return ratio(self_ns[name], self.kernel_edges[name])

        def perron(value: float) -> float:
            if radius not in present or "spectral.spectral_radius.result" in self.absent:
                raise KeyError(radius)
            return value

        formulas = {
            f"{_span_name(target)}.{suffix}": (
                UNITS[suffix], lambda name=_span_name(target), suffix=suffix: plain(name, suffix))
            for target, suffixes in TRACED.items()
            for suffix in suffixes
        }
        formulas.update({
            "gf2.eliminations_per_classify": ("ratio", lambda: ratio(
                plain("gf2.rank", "calls") + plain("gf2.solve", "calls"),
                plain(classify, "calls"))),
            "transversal.classify.per_hypergraph": ("ratio", lambda: ratio(
                plain(classify, "calls"), self.distinct_classified / passes)),
            "spectral.spectral_radius.iterations": (
                "count", lambda: perron(self.iterations / passes)),
            "spectral.spectral_radius.converged_ratio": (
                "ratio", lambda: perron(ratio(self.converged, calls[radius]))),
        })
        out = {}
        for metric, (unit, formula) in formulas.items():
            try:
                out[metric] = {"value": formula(), "unit": unit}
            except KeyError:
                self.absent.add(metric)
        return out

    def write_spans(self, path: Path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tname\tstart_ns\tend_ns\tparent\top\n")
            for sid, (index, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{sid}\t{self.names[index]}\t{start}\t{end}\t{parent}\t{op}\n")
