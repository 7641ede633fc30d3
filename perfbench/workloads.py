"""The workloads: inputs, one measured pass, its checks.

A workload's ``prepare`` generates its inputs and the reference answers
from the seed (once per run, untimed); ``run_pass`` sets the program up
on a fresh store directory (timed as set-up), does a fixed amount of
work against it, times that, checks every answer, and returns a
:class:`PassResult`.  The runner repeats passes until its time is up.
"""

from __future__ import annotations

import gc
import json
import os
import random
import shutil
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.backend.ingest import IngestPipeline
from repro.obs import Observability
from repro.serve import QueryEngine, QueryError, ReadView
from repro.serve.workload import DEFAULT_APP_SHARE, DEFAULT_ZIPF_S
from repro.store import StoreConfig, StoreEngine

from hostspeed import CLOCK, HostClock
from inputs import UploadStream, history_entries, upload_stream
from tracing import SpanTotals

#: Store thresholds for the write workloads, as shares of the stream
#: (every seed has the same record count, inputs.RECORDS): four
#: flushes, and the stream ends half a flush later with a checkpoint
#: and a WAL tail for recovery.  Flushes and ~75 checkpoints land
#: inside single batches, about 1.5% of them, so the ACK p99 falls
#: among those stalls.
FLUSHES_PER_STREAM = 4.5
CHECKPOINTS_PER_STREAM = 80
#: live_mixed: a dashboard refresh (one snapshot plus a page of
#: REFRESH_PANELS panels) every REFRESH_EVERY batches, an operator
#: ``compact()`` every COMPACT_EVERY batches.  Every page holds
#: APP_PANELS app panels and operator panels for the rest, the 70% app
#: share of ``DashboardWorkload`` on each page: an operator panel costs
#: about ten app panels, so pages drawn panel by panel would swing with
#: how many operator panels each happened to get.  Compaction merges
#: once four segments exist; calling it often makes that happen right
#: after the third flush (the history is the first segment) for every
#: seed, so each pass ends with the same store layout.
REFRESH_EVERY = 40
REFRESH_PANELS = 10
APP_PANELS = round(REFRESH_PANELS * DEFAULT_APP_SHARE)
COMPACT_EVERY = 200
#: ``crash()`` + ``recover()`` cycles timed at the end of every pass.
RECOVERIES = 6
#: Program set-ups (open the store, recover it, build the pipeline and
#: query engine) timed at the start of every pass; the last one stays
#: open for the pass.
SETUPS = 5

Panel = Tuple[str, str]


def store_config(records: int) -> StoreConfig:
    return StoreConfig(
        flush_threshold_records=round(records / FLUSHES_PER_STREAM),
        checkpoint_interval_records=round(
            records / CHECKPOINTS_PER_STREAM))


def canonical(value: object) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


@dataclass
class PassResult:
    """What one pass measured and what its checks found.  Timings are
    corrected for the host's CPU speed (see hostspeed.py)."""
    timed_s: float = 0.0        # measured work only, checks excluded
    raw_timed_s: float = 0.0    # the same, uncorrected
    probes_s: List[float] = field(default_factory=list)
    wall_s: float = 0.0         # wall time of the upload stream loop
    work: int = 0               # records acked
    setup_s: List[float] = field(default_factory=list)
    ack_ms: List[float] = field(default_factory=list)
    refresh_ms: List[float] = field(default_factory=list)
    recovery_s: List[float] = field(default_factory=list)
    disk_bytes_per_rec: float = 0.0
    attempted: int = 0
    failed: int = 0
    mismatches: List[str] = field(default_factory=list)
    #: Registry counts (and input sizes) for the per-layer report.
    counts: Dict[str, float] = field(default_factory=dict)


def write_history(store_dir: str, entries) -> None:
    """A store holding ``entries`` in one segment, with no WAL,
    checkpoint or dedup state: what a collector that compacted its
    earlier uploads leaves on disk."""
    shutil.rmtree(store_dir, ignore_errors=True)
    engine = StoreEngine(store_dir, config=StoreConfig(
        flush_threshold_records=len(entries) + 1,
        checkpoint_interval_records=len(entries) + 1))
    try:
        engine.append_entries(entries)
        engine.flush()
    finally:
        engine.close()


def registry_counts(obs: Observability) -> Dict[str, float]:
    names = {
        "duplicate_batches": "backend.duplicate_batches",
        "malformed_lines": "backend.malformed_lines",
        "records_ingested": "backend.records_ingested",
        "wal_fsyncs": "store.wal_fsyncs",
        "wal_bytes": "store.wal_bytes",
        "flushes": "store.flushes",
        "checkpoints": "store.checkpoints",
        "recover_wal_records": "store.wal_replayed_records",
        "blocks_read": "store.blocks_read",
        "blocks_pruned": "store.blocks_pruned",
        "cache_hits": "store.cache.hits",
        "cache_misses": "store.cache.misses",
        "cache_evictions": "store.cache.evictions",
    }
    return {key: float(obs.value(name)) for key, name in names.items()}


def timed_recoveries(engine: StoreEngine, clock: HostClock,
                     cycles: int) -> None:
    """Crash the engine and recover it from disk, ``cycles`` times.
    Each cycle starts with the garbage of the last one collected, so
    no cycle pays for another's."""
    for _ in range(cycles):
        gc.collect()
        clock.probe()
        started = CLOCK()
        engine.crash()
        engine.recover()
        clock.record("recovery", CLOCK() - started)


# -- panel streams ------------------------------------------------------


def subject_catalog(view: ReadView) -> Tuple[List[str], List[str]]:
    """Apps and operators ranked by measurement volume (rank 1 = most
    measured = most viewed), read through the view's table scans."""
    app_volume: Dict[str, int] = {}
    for row in view.table_rows("app"):
        app = row["key"][1]
        app_volume[app] = app_volume.get(app, 0) + row["count"]
    operator_volume: Dict[str, int] = {}
    for row in view.table_rows("network"):
        operator = row["key"][1]
        operator_volume[operator] = \
            operator_volume.get(operator, 0) + row["count"]

    def ranked(volume: Dict[str, int]) -> List[str]:
        return sorted(volume, key=lambda name: (-volume[name], name))

    return ranked(app_volume), ranked(operator_volume)


def _zipf_cdf(n: int) -> List[float]:
    weights = [1.0 / rank ** DEFAULT_ZIPF_S for rank in range(1, n + 1)]
    total = sum(weights)
    cdf, acc = [], 0.0
    for weight in weights:
        acc += weight / total
        cdf.append(acc)
    cdf[-1] = 1.0
    return cdf


def panel_pages(apps: List[str], operators: List[str], count: int,
                rng: random.Random) -> List[List[Panel]]:
    """``count`` dashboard pages of ``(kind, subject)`` panels: APP_PANELS
    app panels, then operator panels, each subject drawn by Zipf
    popularity (s=1.2, as in ``DashboardWorkload``)."""
    app_cdf, operator_cdf = _zipf_cdf(len(apps)), _zipf_cdf(len(operators))
    return [[("app", apps[bisect_left(app_cdf, rng.random())])
             for _ in range(APP_PANELS)]
            + [("network", operators[bisect_left(operator_cdf,
                                                 rng.random())])
               for _ in range(REFRESH_PANELS - APP_PANELS)]
            for _ in range(count)]


def answer(view: ReadView, panel: Panel,
           scan: bool = False) -> Dict[str, object]:
    kind, subject = panel
    if kind == "app":
        return view.app_panel(subject, scan=scan)
    return view.network_panel(subject, scan=scan)


def verify_panels(view: ReadView, answered: List[Tuple[Panel, str]],
                  result: PassResult) -> None:
    """Each pruned answer must serialise byte-identically to the same
    panel recomputed by full scan."""
    for panel, pruned in answered:
        try:
            scanned = canonical(answer(view, panel, scan=True))
        except QueryError as exc:
            result.mismatches.append("scan of %s failed: %s" % (panel, exc))
            continue
        if scanned != pruned:
            result.mismatches.append(
                "pruned %s panel %r differs from its full scan" % panel)


# -- the write workloads --------------------------------------------------


class IngestWorkload:
    """upload_ingest, and live_mixed when ``mixed`` is set."""

    #: Every pass has enough ACKs for a p99 and, in live_mixed, enough
    #: refreshes for a p90.
    min_passes = 1

    def __init__(self, mixed: bool) -> None:
        self.mixed = mixed

    def prepare(self, seed: int, data_dir: str) -> dict:
        """The upload stream, the reference rollup the store must
        match, and for live_mixed the store's history and the catalog
        of panel subjects, ranked by the reference's measurement
        volume.  Untimed: none of it is program work."""
        stream = upload_stream(seed)
        reference = stream.reference()
        state = {"stream": stream, "records": len(stream.acked_records),
                 "stored_records": len(stream.acked_records),
                 "devices": stream.devices, "data_dir": data_dir,
                 "seed": seed}
        if self.mixed:
            history = history_entries(seed)
            reference.add_all(record for record, _line in history)
            state["history_dir"] = os.path.join(data_dir, "history")
            write_history(state["history_dir"], history)
            state["stored_records"] += len(history)
            state["catalog"] = subject_catalog(
                ReadView.from_rollups(reference))
        state["digest"] = reference.digest()
        state["groups"] = reference.group_count()
        return state

    @staticmethod
    def pass_pages(state: dict, index: int) -> List[List[Panel]]:
        """The refresh pages of pass ``index``: a fresh Zipf draw per
        pass, so a run's refreshes sample many subjects, not one set."""
        if "catalog" not in state:
            return []
        apps, operators = state["catalog"]
        return panel_pages(
            apps, operators, len(state["stream"].sends) // REFRESH_EVERY,
            random.Random("perfbench:panels:%d:%d" % (state["seed"],
                                                      index)))

    def open_program(self, store_dir: str, config: StoreConfig,
                     clock: HostClock
                     ) -> Tuple[Observability, StoreEngine, IngestPipeline,
                                Optional[QueryEngine]]:
        """The collector's set-up on the pass directory, SETUPS times:
        open the store (its initial recovery included), the ingest
        pipeline and, for live_mixed, the query engine.  Every set-up
        but the last is closed again, so the later ones reopen the
        directory the first one created."""
        engine = None
        for _ in range(SETUPS):
            if engine is not None:
                engine.close()
            obs = Observability()
            clock.probe_if_due()
            started = CLOCK()
            engine = StoreEngine(store_dir, config=config, obs=obs)
            pipeline = IngestPipeline(store=engine, obs=obs)
            queries = QueryEngine(engine, obs=obs) if self.mixed else None
            clock.record("setup", CLOCK() - started)
        return obs, engine, pipeline, queries

    def run_pass(self, state: dict, index: int, spans: SpanTotals,
                 check: bool = True,
                 recoveries: int = RECOVERIES) -> PassResult:
        """One pass; ``check=False`` skips the digest and panel checks
        (the memory pass of ``rss.py`` runs without them)."""
        stream: UploadStream = state["stream"]
        store_dir = os.path.join(state["data_dir"], "store")
        shutil.rmtree(store_dir, ignore_errors=True)
        if "history_dir" in state:
            shutil.copytree(state["history_dir"], store_dir)
        # Start every pass with no writeback of the last one pending,
        # so its fsyncs do not wait on the previous pass's deletes.
        os.sync()
        result = PassResult()
        clock = HostClock()
        clock.probe()
        with spans.paused():
            obs, engine, pipeline, queries = self.open_program(
                store_dir, store_config(state["records"]), clock)
        pages = self.pass_pages(state, index)
        verify_refresh = random.Random(
            "perfbench:verify:%d:%d" % (state["seed"], index)).randrange(
                max(1, len(stream.sends) // REFRESH_EVERY))
        lines_sent = 0
        wall_started = time.perf_counter()
        try:
            for number, send in enumerate(stream.sends, 1):
                clock.probe_if_due()
                started = CLOCK()
                outcome = pipeline.handle_batch(
                    send.device_id, send.batch_seq, send.payload,
                    send.now_ms)
                clock.record("ack", CLOCK() - started)
                result.attempted += 1
                lines_sent += send.lines
                if outcome.status != "ack" or \
                        outcome.acked != send.expected_ack:
                    result.failed += 1
                    result.mismatches.append(
                        "batch %s/%d: %s %d, expected ack %d"
                        % (send.device_id, send.batch_seq,
                           outcome.status, outcome.acked,
                           send.expected_ack))
                if queries is None:
                    continue
                if number % REFRESH_EVERY == 0:
                    refresh = number // REFRESH_EVERY - 1
                    self._refresh(queries, pages[refresh],
                                  check and refresh == verify_refresh,
                                  spans, clock, result)
                if number % COMPACT_EVERY == 0:
                    clock.probe_if_due()
                    started = CLOCK()
                    engine.compact()
                    clock.record("compact", CLOCK() - started)
            result.wall_s = time.perf_counter() - wall_started
            result.work = state["records"]
            if check and index == 0:
                with spans.paused():
                    self._check_digest(engine, state, "after ingest",
                                       result)
            timed_recoveries(engine, clock, recoveries)
            with spans.paused():
                if check:
                    self._check_digest(engine, state, "after recovery",
                                       result)
                result.counts = registry_counts(obs)
                # The footprint once the stream is in segments: the
                # flush drops the WAL and the checkpoints, whose size
                # depends on where the stream ends between two
                # checkpoints (the WAL's share is wal.bytes_per_rec).
                engine.flush()
                result.disk_bytes_per_rec = \
                    engine.disk_bytes() / state["stored_records"]
        finally:
            engine.close()
        clock.probe()
        corrected, raw = clock.series(), clock.series(corrected=False)
        result.setup_s = corrected["setup"]
        result.ack_ms = [s * 1000.0 for s in corrected["ack"]]
        result.refresh_ms = [s * 1000.0
                             for s in corrected.get("refresh", [])]
        result.recovery_s = corrected["recovery"]
        streamed = ("ack", "refresh", "compact")
        result.timed_s = sum(sum(corrected.get(name, []))
                             for name in streamed)
        result.raw_timed_s = sum(sum(raw.get(name, [])) for name in streamed)
        result.probes_s = clock.probes
        result.counts["lines_sent"] = float(lines_sent)
        result.counts["groups"] = float(state["groups"])
        return result

    def _refresh(self, queries: QueryEngine, panels: List[Panel],
                 verify: bool, spans: SpanTotals, clock: HostClock,
                 result: PassResult) -> None:
        """One dashboard refresh: a snapshot and its panels, timed
        together."""
        clock.probe_if_due()
        started = CLOCK()
        answered = []
        result.attempted += 1 + len(panels)
        try:
            view = queries.snapshot()
        except QueryError as exc:
            result.failed += 1 + len(panels)
            result.mismatches.append("snapshot failed: %s" % exc)
            return
        try:
            for panel in panels:
                try:
                    answered.append((panel, canonical(answer(view, panel))))
                except QueryError as exc:
                    result.failed += 1
                    result.mismatches.append(
                        "%s panel %r failed: %s" % (panel + (exc,)))
            clock.record("refresh", CLOCK() - started)
            if verify:
                with spans.paused():
                    verify_panels(view, answered, result)
        finally:
            view.close()

    @staticmethod
    def _check_digest(engine: StoreEngine, state: dict, when: str,
                      result: PassResult) -> None:
        digest = engine.materialize().digest()
        if digest != state["digest"]:
            result.mismatches.append(
                "rollup digest %s %s != reference %s"
                % (when, digest[:12], state["digest"][:12]))
