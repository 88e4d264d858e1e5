"""Span timers the benchmark wraps around the package's public functions.

A wrapper is installed on the module attribute through which the caller looks
the function up (``hygec.engine.lmmse_block`` for the call inside
``hygec_sweep``, ``hygec.em.hygec_run`` for the call inside the EM loop), so
no file of the package changes. Spans nest: a span's self time is its
duration minus the durations of the wrapped spans it encloses.
"""

from __future__ import annotations

import importlib
import statistics
import time
from dataclasses import dataclass, field

# (module, attribute, span label). The module is the namespace that makes
# the call; the label names the layer that owns the function.
PROBES = (
    ("hygec.engine", "lmmse_block", "engine.lmmse_block"),
    ("hygec.engine", "hygec_sweep", "engine.hygec_sweep"),
    ("hygec.engine", "channel_posterior", "denoisers.channel_posterior"),
    ("hygec.engine", "extrinsic", "denoisers.extrinsic"),
    ("hygec.engine", "x_posterior_spike_slab", "denoisers.x_posterior_spike_slab"),
    ("hygec.engine", "llr_messages", "denoisers.llr_messages"),
    ("hygec.engine", "nmse", "oracle.nmse"),
    ("hygec.engine", "hygec_run", "engine.hygec_run"),
    ("hygec.em", "hygec_run", "em.hygec_run"),
    ("hygec.em", "em_update_rho", "em.em_update_rho"),
    ("hygec.em", "em_hygec_run", "em.em_hygec_run"),
    ("hygec.bench", "hygec_run", "engine.hygec_run"),
    ("hygec.bench", "em_hygec_run", "em.em_hygec_run"),
    ("hygec.bench", "build_instance", "bench.build_instance"),
    ("hygec.bench", "gen_matrix", "ensembles.gen_matrix"),
    ("hygec.bench", "apply_channel", "ensembles.apply_channel"),
    ("hygec.ensembles", "gen_matrix", "ensembles.gen_matrix"),
    ("hygec.ensembles", "apply_channel", "ensembles.apply_channel"),
    ("hygec.oracle", "exact_posterior_small", "oracle.exact_posterior_small"),
)


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    durations: list[float] = field(default_factory=list)

    def p50_ms(self) -> float:
        return 1e3 * statistics.median(self.durations) if self.durations else 0.0


class Tracer:
    """Collects span statistics in memory while installed.

    Use as a context manager: entering wraps every probe that exists in the
    loaded package, leaving restores the original functions.
    """

    def __init__(self):
        self._patched: list[tuple[object, str, object]] = []
        self._stack: list[list[float]] = []  # child time of each open span
        self._open: dict[str, int] = {}
        self.stats: dict[str, SpanStats] = {}
        self.nested: dict[tuple[str, str], int] = {}  # (enclosing, label) -> calls

    def _wrap(self, label, fn):
        stats = self.stats.setdefault(label, SpanStats())

        def traced(*args, **kwargs):
            children = [0.0]
            self._stack.append(children)
            self._open[label] = self._open.get(label, 0) + 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._open[label] -= 1
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += elapsed
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - children[0]
                stats.durations.append(elapsed)
                for enclosing, depth in self._open.items():
                    if depth:
                        key = (enclosing, label)
                        self.nested[key] = self.nested.get(key, 0) + 1

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        for module_name, attr, label in PROBES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            self._patched.append((module, attr, original))
            setattr(module, attr, self._wrap(label, original))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        return False

    def span(self, label: str) -> SpanStats:
        return self.stats.get(label, SpanStats())
