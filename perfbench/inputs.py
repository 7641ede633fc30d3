"""Seeded upload streams for the pipeline benchmark.

Everything the program receives is generated here from the workload
seed: the crowd campaign at SCALE (all 2,351 devices), thinned to
exactly RECORDS records by a seeded uniform draw that keeps every
device's first record, cut into per-device upload batches by the rule
``MeasurementUploader`` follows, with its default settings, and
interleaved in sim time.  A
small share of batches loses its ACK (the device sends the batch again)
and a small share carries a torn last line.  The generator also
computes what a correct collector must answer -- the prefix ACK of
every send -- and the records those ACKs cover, whose plain
``RollupStore.add_all`` is the reference rollup.
"""

from __future__ import annotations

import inspect
import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.backend.rollups import RollupStore
from repro.core.persist import record_to_line
from repro.core.records import MeasurementRecord
from repro.core.uploader import MeasurementUploader
from repro.crowd import Campaign, CampaignConfig

#: Input size.  The campaign at SCALE gives every device
#: max(1, round(activity * SCALE)) records, 37k-42k in all over the seeds
#: tried; a seeded uniform draw then keeps exactly RECORDS of them,
#: every device's first record among them, so every seed feeds the
#: program the same number of records from all 2,351 devices.
SCALE = 0.006
RECORDS = 30_000


def _uploader_default(name: str):
    return inspect.signature(
        MeasurementUploader.__init__).parameters[name].default


#: The uploader's periodic rule: every INTERVAL_MS it ships everything
#: pending (at most MAX_BATCH records; None = no cap) once at least
#: MIN_BATCH records are pending; ``stop()`` then flushes the rest
#: whatever its size.  An unanswered upload times out after
#: ACK_TIMEOUT_MS, and the next interval re-sends it verbatim.
INTERVAL_MS = _uploader_default("interval_ms")
MIN_BATCH = _uploader_default("min_batch")
MAX_BATCH = _uploader_default("max_batch")
ACK_TIMEOUT_MS = _uploader_default("ack_timeout_ms")
#: Share of periodic batches whose ACK is lost, and share of batches
#: whose last line is cut in half on the wire.  The repo has no
#: measured rate for either; they are small so that the duplicate and
#: short-ACK paths run in every pass without dominating it.
RESEND_SHARE = 0.02
TORN_SHARE = 0.02

Entries = List[Tuple[MeasurementRecord, bytes]]


@dataclass(frozen=True)
class Send:
    """One ``handle_batch`` call and the ACK it must get back."""
    device_id: str
    batch_seq: int
    payload: bytes
    now_ms: float
    expected_ack: int
    lines: int              # record lines on the wire, torn one included


@dataclass
class UploadStream:
    sends: List[Send]
    #: The records every ACK covers, in send order (first sends only).
    acked_records: List[MeasurementRecord]
    devices: int

    def reference(self) -> RollupStore:
        """What the durable rollup must equal after every acked batch:
        a plain ``RollupStore.add_all`` over the acked records."""
        store = RollupStore()
        store.add_all(self.acked_records)
        return store


def campaign_entries(seed: int) -> Entries:
    """RECORDS records of the campaign, each device's first one
    included, in campaign order, with their canonical JSONL bytes (what
    a shard file or an upload payload carries).  A seed whose campaign
    falls short of RECORDS is generated again at a larger scale."""
    scale = SCALE
    while True:
        records = list(Campaign(config=CampaignConfig(
            scale=scale, seed=seed)).iter_records())
        if len(records) >= RECORDS:
            break
        scale *= 1.25
    seen = set()
    firsts, rest = [], []
    for index, record in enumerate(records):
        if record.device_id in seen:
            rest.append(index)
        else:
            seen.add(record.device_id)
            firsts.append(index)
    rng = random.Random("perfbench:thin:%d" % seed)
    kept = sorted(firsts + rng.sample(rest, RECORDS - len(firsts)))
    return [(records[index],
             record_to_line(records[index]).encode("utf-8"))
            for index in kept]


def history_entries(seed: int) -> Entries:
    """The store's history for live_mixed: RECORDS records of another
    campaign draw over the same catalog and period, as a collector
    that has run before holds them."""
    return campaign_entries(
        random.Random("perfbench:history:%d" % seed).randrange(2 ** 31))


def _tick(grid: float, at_ms: float) -> float:
    """The first uploader tick at or after ``at_ms``."""
    return grid + max(0, math.ceil((at_ms - grid) / INTERVAL_MS)) \
        * INTERVAL_MS


def device_uploads(device_id: str, entries: Entries, rng: random.Random
                   ) -> List[Tuple[Send, List[MeasurementRecord]]]:
    """One device's sends, each with the records its ACK covers.

    The uploader's store holds the records in creation order; it starts
    at a random point of its first interval and stops at the first tick
    after the device's last record.  Sim time is not advanced by the
    upload round trips, except that a lost ACK costs ACK_TIMEOUT_MS."""
    entries = sorted(entries, key=lambda entry: entry[0].timestamp_ms)
    created = [record.timestamp_ms for record, _line in entries]
    grid = rng.uniform(0.0, INTERVAL_MS)
    stop_ms = _tick(grid, created[-1])
    next_tick = grid
    cursor = seq = 0
    sends: List[Tuple[Send, List[MeasurementRecord]]] = []
    while cursor < len(entries):
        fill = cursor + MIN_BATCH - 1
        periodic = False
        if fill < len(entries):
            now_ms = _tick(grid, max(next_tick, created[fill]))
            periodic = now_ms < stop_ms
        if periodic:
            end = bisect_right(created, now_ms)
            next_tick = now_ms + INTERVAL_MS
        else:
            now_ms = max(next_tick - INTERVAL_MS, stop_ms)
            end = len(entries)
        if MAX_BATCH is not None:
            end = min(end, cursor + MAX_BATCH)
        chunk = entries[cursor:end]
        lines = [line for _record, line in chunk]
        acked = len(chunk)
        if acked > 1 and rng.random() < TORN_SHARE:
            # The collector ACKs the prefix; the torn record stays
            # pending and rides in the device's next batch.
            lines[-1] = lines[-1][:len(lines[-1]) // 2]
            acked -= 1
        payload = b"\n".join(lines) + b"\n"
        send = Send(device_id, seq, payload, now_ms, acked, len(lines))
        sends.append((send, [record for record, _line in chunk[:acked]]))
        if periodic and rng.random() < RESEND_SHARE:
            grid = now_ms + ACK_TIMEOUT_MS
            next_tick = grid + INTERVAL_MS
            sends.append((Send(device_id, seq, payload, next_tick, acked,
                               len(lines)), []))
            next_tick += INTERVAL_MS
        cursor += acked
        seq += 1
    return sends


def upload_stream(seed: int) -> UploadStream:
    rng = random.Random("perfbench:uploads:%d" % seed)
    by_device: Dict[str, Entries] = {}
    for entry in campaign_entries(seed):
        by_device.setdefault(entry[0].device_id, []).append(entry)
    scheduled = []
    for device_id, entries in by_device.items():
        for send, records in device_uploads(device_id, entries, rng):
            scheduled.append((send.now_ms, len(scheduled), send, records))
    scheduled.sort(key=lambda item: (item[0], item[1]))
    acked: List[MeasurementRecord] = []
    for _when, _order, _send, records in scheduled:
        acked.extend(records)
    return UploadStream(sends=[item[2] for item in scheduled],
                        acked_records=acked, devices=len(by_device))
