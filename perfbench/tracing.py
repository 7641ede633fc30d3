"""Host-time spans around the program's layer entry points.

The program itself is not instrumented with wall-clock spans, so the
traced run wraps the public entry points of each layer from here, for
the duration of a pass, and restores them afterwards.  A span's *self*
time is its duration minus the time its child spans (calls into other
wrapped entry points made while it was open) cover.  Spans are folded
into per-name totals as they close; nothing per call is kept.  A
generator entry point (``SegmentReader.scan_prefixes``) does its work
as the caller iterates, so each resumption is timed as a piece of its
span.
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Tuple

import repro.backend.ingest as ingest_module
import repro.store.engine as engine_module
from repro.backend.ingest import IngestPipeline
from repro.backend.rollups import RollupStore
from repro.serve.engine import QueryEngine, ReadView
from repro.store.blockcache import BlockCache
from repro.store.engine import StoreEngine
from repro.store.segments import SegmentReader
from repro.store.wal import WriteAheadLog

#: ``(span name, owner, attribute)``: every layer entry point the
#: benchmark's workloads reach.  Module-level functions are patched in
#: the namespace that calls them.
ENTRY_POINTS: List[Tuple[str, object, str]] = [
    ("ingest.handle", IngestPipeline, "handle_batch"),
    ("ingest.parse", ingest_module, "parse_batch_lines"),
    ("rollups.add", RollupStore, "add"),
    ("rollups.clone", RollupStore, "clone"),
    ("wal.commit", WriteAheadLog, "commit"),
    ("engine.flush", StoreEngine, "flush"),
    ("engine.checkpoint", StoreEngine, "checkpoint"),
    ("engine.compact", StoreEngine, "compact"),
    ("engine.recover", StoreEngine, "recover"),
    ("checkpoint.write", engine_module, "write_checkpoint"),
    ("checkpoint.read", engine_module, "read_checkpoint"),
    ("segments.write", engine_module, "write_segment"),
    ("segments.read", SegmentReader, "get"),
    ("segments.read", SegmentReader, "get_many"),
    ("segments.read", SegmentReader, "scan_prefix"),
    ("segments.read", SegmentReader, "scan_prefixes"),
    ("cache", BlockCache, "get"),
    ("cache", BlockCache, "put"),
    ("serve.snapshot", QueryEngine, "snapshot"),
    ("serve.panel", ReadView, "app_panel"),
    ("serve.panel", ReadView, "network_panel"),
]


class SpanTotals:
    """Per-span-name call count, total and self time (seconds)."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        #: While False, wrapped calls run unrecorded (the benchmark's
        #: own correctness checks must not count as layer work).
        self.active = True
        self._open: List[List[float]] = []   # child time per open span

    def _record(self, name: str, elapsed: float, children: float,
                calls: int) -> None:
        self.calls[name] += calls
        self.total_s[name] += elapsed
        self.self_s[name] += elapsed - children
        if self._open:
            self._open[-1][0] += elapsed

    def wrap(self, name: str, fn: Callable) -> Callable:
        clock = time.perf_counter
        open_spans = self._open

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            children = [0.0]
            open_spans.append(children)
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                open_spans.pop()
                self._record(name, elapsed, children[0], 1)

        def traced_generator(*args, **kwargs):
            if not self.active:
                yield from fn(*args, **kwargs)
                return
            steps = fn(*args, **kwargs)
            calls = 1
            while True:
                children = [0.0]
                open_spans.append(children)
                started = clock()
                try:
                    item = next(steps)
                except StopIteration:
                    return
                finally:
                    elapsed = clock() - started
                    open_spans.pop()
                    self._record(name, elapsed, children[0], calls)
                    calls = 0
                yield item

        return traced_generator if inspect.isgeneratorfunction(fn) \
            else traced

    @contextmanager
    def paused(self) -> Iterator[None]:
        self.active = False
        try:
            yield
        finally:
            self.active = True


@contextmanager
def traced(spans: SpanTotals) -> Iterator[SpanTotals]:
    """Wrap every entry point for the duration of the block."""
    originals = []
    try:
        for name, owner, attribute in ENTRY_POINTS:
            original = vars(owner)[attribute]
            originals.append((owner, attribute, original))
            setattr(owner, attribute, spans.wrap(name, original))
        yield spans
    finally:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)
