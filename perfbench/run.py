"""Pipeline benchmark: upload bytes -> durable rollup -> dashboard panel.

One process, one caller, a closed loop: generated upload batches go
through ``IngestPipeline.handle_batch`` on a ``StoreEngine`` (WAL,
checkpoints, auto-flush), and dashboard panels through
``QueryEngine.snapshot()`` -> ``ReadView.app_panel``/``network_panel``.
Arrival timing lives in sim time; host CPU time is what is measured,
corrected for the host's CPU speed by a probe loop run between the
timed operations (``hostspeed.py``).

Run from the repository root::

    python3 perfbench/run.py --workload upload_ingest --seed 1 \\
        --seconds 50 --trace 0

Workloads (see BENCHMARK.json for why each exists):

* ``upload_ingest`` -- the campaign's records as per-device upload
  batches (some re-sent, some with a torn last line), then
  ``crash()`` + ``recover()``;
* ``live_mixed`` -- the upload stream again, into a store that already
  holds a history, with a dashboard refresh every 40 batches and an
  operator ``compact()`` every 200.

Inputs and reference answers are generated once per run.  Passes then
repeat until ``--seconds`` is used up; each opens the program on a
fresh store directory five times (``setup_s`` is the median over the
run's set-ups).  ``--trace 0`` prints the end-to-end
metrics, with ``peak_rss_mb`` from one more pass that ``rss.py`` runs
in a fresh process; ``--trace 1`` alternates untraced and traced
passes and prints the per-layer metrics from the traced ones, plus the
tracing overhead.  Every ACK, the rollup digest after ingest and after
recovery, and a seeded sample of panels (against their full-scan
answers) are checked; any mismatch makes the result ``correct: false``
and the exit code 1.  The line before the result holds the run
conditions and the per-workload report under the metric names of the
layer budget.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import pickle
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Stop starting passes after this long, whatever ``--seconds`` says.
HARD_LIMIT_S = 120.0
#: The memory pass takes one plain pass's time, 10-15 s on a 2-vCPU VM.
RSS_PASS_TIMEOUT_S = 50.0


def percentile(samples, q):
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def tail(samples, named):
    """The highest of ``named``, p90, p50 with >= 10 samples beyond it,
    as ``(label, value)``."""
    for q in sorted({named, 0.9, 0.5}, reverse=True):
        if q <= named and len(samples) - math.ceil(q * len(samples)) >= 10:
            return "p%d" % round(q * 100), percentile(samples, q)
    return "p50", percentile(samples, 0.5)


def median(values):
    return statistics.median(values) if values else 0.0


def git_sha():
    """HEAD of the checkout, read from ``.git`` without running git
    (the benchmark may run from a plain copy of the tree)."""
    git_dir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD")) as handle:
            head = handle.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(git_dir, head[5:])) as handle:
                return handle.read().strip()
        return head
    except OSError:
        return "unknown"


def filesystem_of(path):
    """The filesystem type of the mount holding ``path``."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/self/mounts") as handle:
            for line in handle:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1]
                inside = path == mount or path.startswith(
                    mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, kind = mount, fields[2]
    except OSError:
        pass
    return kind


def run_conditions(args, state, data_root):
    from repro.store.blockcache import DEFAULT_CACHE_BYTES

    import hostspeed
    import inputs
    import workloads

    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    config = workloads.store_config(state["records"])
    return {
        "host": platform.node(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": git_sha(),
        "scale": inputs.SCALE,
        "seed": args.seed,
        "records": state["records"],
        "history_records": state["stored_records"] - state["records"],
        "devices": state["devices"],
        "sends": len(state["stream"].sends),
        "uploader": {"interval_ms": inputs.INTERVAL_MS,
                     "min_batch": inputs.MIN_BATCH,
                     "max_batch": inputs.MAX_BATCH,
                     "ack_timeout_ms": inputs.ACK_TIMEOUT_MS},
        "cache_bytes": (DEFAULT_CACHE_BYTES
                        if args.workload == "live_mixed" else None),
        "flush_threshold_records": config.flush_threshold_records,
        "checkpoint_interval_records": config.checkpoint_interval_records,
        "group_commit_records": config.group_commit_records,
        "group_commit_bytes": config.group_commit_bytes,
        "data_dir_fs": filesystem_of(data_root),
        "host_speed_probe": {
            "reference_ms": hostspeed.REFERENCE_PROBE_S * 1000.0,
            "interval_s": hostspeed.PROBE_INTERVAL_S,
            "iterations": hostspeed.PROBE_ITERATIONS},
        "trace": bool(args.trace),
        "run_seconds": args.seconds,
    }


def pass_peak_rss_mb(workload_name, state, data_root):
    """Peak RSS of one pass, from ``rss.py`` in a fresh process.

    In this process the pass would run in memory the input generator
    freed (the allocator keeps it), so its RSS hardly grows.  The child
    loads a pickled copy of the inputs, which leaves few holes, runs
    one pass without checks and reports how far the RSS high-water
    mark rose above its RSS before the pass.  This process waits for
    it, so the run uses at most two processes."""
    stream = state["stream"]
    slim = dict(state, data_dir=os.path.join(data_root, "rss"),
                stream=type(stream)(sends=stream.sends, acked_records=[],
                                    devices=stream.devices))
    path = os.path.join(data_root, "rss-inputs.pickle")
    with open(path, "wb") as handle:
        pickle.dump((workload_name == "live_mixed", slim), handle,
                    protocol=pickle.HIGHEST_PROTOCOL)
    child = subprocess.run(
        [sys.executable, os.path.join(HERE, "rss.py"), path],
        capture_output=True, text=True, timeout=RSS_PASS_TIMEOUT_S)
    if child.returncode != 0:
        raise RuntimeError("rss.py failed (%d): %s"
                           % (child.returncode, child.stderr[-2000:]))
    return json.loads(child.stdout.strip().splitlines()[-1])[
        "peak_rss_mb"]


def measure(workload, state, seconds, trace, deadline):
    """Repeat passes until ``seconds`` are used up; with ``trace``,
    alternate untraced and traced passes.  Returns
    ``[(traced, PassResult, SpanTotals)]``."""
    import tracing

    passes = []
    started = time.perf_counter()
    minimum = max(workload.min_passes, 2 if trace else 1)
    while True:
        # Traced passes repeat the inputs of the untraced pass before
        # them, so each pair measures the tracing overhead.
        traced = trace and len(passes) % 2 == 1
        index = len(passes) // 2 if trace else len(passes)
        spans = tracing.SpanTotals()
        gc.collect()
        began = time.perf_counter()
        if traced:
            with tracing.traced(spans):
                result = workload.run_pass(state, index, spans)
        else:
            result = workload.run_pass(state, index, spans)
        passes.append((traced, result, spans))
        now = time.perf_counter()
        if len(passes) >= minimum and (
                now - started + (now - began) > seconds
                or now > deadline):
            return passes


def pooled(results, samples, named):
    """``(p50, tail label, tail)`` over the samples of every pass."""
    pool = [value for r in results for value in samples(r)]
    label, tail_value = tail(pool, named)
    return percentile(pool, 0.5), label, tail_value


def end_to_end(name, passes, rss_mb):
    """The end-to-end metrics (untraced passes only), plus the report
    under the layer budget's per-workload names.  Every timing pools
    the whole run: the rate is all records over all measured time, the
    percentiles are over the samples of every pass.  Every timing is
    corrected for the host's CPU speed (hostspeed.py); the report has
    the uncorrected rate and the probe's median beside it."""
    results = [result for traced, result, _spans in passes if not traced]
    rate = (sum(r.work for r in results)
            / sum(r.timed_s for r in results))
    ack_p50, ack_label, ack_tail = pooled(results, lambda r: r.ack_ms,
                                          0.99)
    if name == "live_mixed":
        p50, label, tail_ms = pooled(results, lambda r: r.refresh_ms, 0.9)
    else:
        p50, label, tail_ms = ack_p50, ack_label, ack_tail
    metrics = {
        "setup_s": (median([s for _t, result, _s in passes
                            for s in result.setup_s]), "s"),
        "throughput_per_s": (rate, "1/s"),
        "latency_ms_p50": (p50, "ms"),
        "latency_ms_tail": (tail_ms, "ms"),
        "recovery_s": (
            median([s for r in results for s in r.recovery_s]), "s"),
        "disk_bytes_per_rec": (
            median([r.disk_bytes_per_rec for r in results]), "B"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    attempted = sum(result.attempted for _t, result, _s in passes)
    failed = sum(result.failed for _t, result, _s in passes)
    report = {"setup_s": metrics["setup_s"],
              "peak_rss_mb": metrics["peak_rss_mb"],
              "failed_share": (failed / max(1, attempted), "share"),
              "rec_per_s": (rate, "records/s"),
              "rec_per_s_wall": (
                  sum(r.work for r in results)
                  / sum(r.wall_s for r in results), "records/s"),
              "rec_per_s_uncorrected": (
                  sum(r.work for r in results)
                  / sum(r.raw_timed_s for r in results), "records/s"),
              "probe_ms_p50": (1000.0 * median(
                  [p for r in results for p in r.probes_s]), "ms"),
              "ack_ms_p50": (ack_p50, "ms"),
              "ack_ms_%s" % ack_label: (ack_tail, "ms"),
              "recovery_s": metrics["recovery_s"],
              "disk_bytes_per_rec": metrics["disk_bytes_per_rec"]}
    if name == "live_mixed":
        report["refresh_ms_p50"] = (p50, "ms")
        report["refresh_ms_%s" % label] = (tail_ms, "ms")
    report["samples"] = ({"passes": len(results),
                          "acks": sum(len(r.ack_ms) for r in results),
                          "refreshes": sum(len(r.refresh_ms)
                                           for r in results)}, "count")
    return metrics, report


def per_layer(passes):
    """Per-layer metrics: the median over traced passes of each
    layer's span times and registry counts."""
    rows = []
    for traced, result, spans in passes:
        if not traced:
            continue
        counts = result.counts
        total, own = spans.total_s, spans.self_s
        ingested = counts["records_ingested"]
        adds = spans.calls["rollups.add"]
        lookups = counts["cache_hits"] + counts["cache_misses"]
        rows.append({
            "ingest.parse_s": (total["ingest.parse"], "s"),
            "ingest.parse_us_per_rec": (
                total["ingest.parse"] / ingested * 1e6
                if ingested else 0.0, "us"),
            "ingest.handle_self_s": (own["ingest.handle"], "s"),
            "ingest.duplicate_batches": (
                counts["duplicate_batches"], "count"),
            "ingest.malformed_lines": (counts["malformed_lines"], "count"),
            "ingest.ack_ratio": (
                ingested / counts["lines_sent"]
                if counts.get("lines_sent") else 0.0, "ratio"),
            "rollups.add_s": (total["rollups.add"], "s"),
            "rollups.add_us_per_rec": (
                total["rollups.add"] / adds * 1e6 if adds else 0.0, "us"),
            "rollups.groups": (counts["groups"], "count"),
            "rollups.clone_s": (total["rollups.clone"], "s"),
            "wal.commit_s": (total["wal.commit"], "s"),
            "wal.fsyncs": (counts["wal_fsyncs"], "count"),
            "wal.bytes_per_rec": (
                counts["wal_bytes"] / ingested if ingested else 0.0, "B"),
            "engine.flush_s": (total["engine.flush"], "s"),
            "engine.flushes": (counts["flushes"], "count"),
            "engine.checkpoint_s": (total["engine.checkpoint"], "s"),
            "engine.checkpoints": (counts["checkpoints"], "count"),
            "engine.compact_s": (total["engine.compact"], "s"),
            "checkpoint.write_s": (total["checkpoint.write"], "s"),
            "checkpoint.read_s": (total["checkpoint.read"], "s"),
            "engine.recover_s": (total["engine.recover"], "s"),
            "engine.recover_wal_records": (
                counts["recover_wal_records"], "count"),
            "segments.write_s": (total["segments.write"], "s"),
            "segments.read_self_s": (own["segments.read"], "s"),
            "segments.blocks_read": (counts["blocks_read"], "count"),
            "segments.blocks_pruned": (counts["blocks_pruned"], "count"),
            "cache.hits": (counts["cache_hits"], "count"),
            "cache.misses": (counts["cache_misses"], "count"),
            "cache.evictions": (counts["cache_evictions"], "count"),
            "cache.hit_rate": (
                counts["cache_hits"] / lookups if lookups else 0.0,
                "ratio"),
            "serve.snapshot_s": (total["serve.snapshot"], "s"),
            "serve.panel_self_s": (own["serve.panel"], "s"),
        })
    metrics = {name: (median([row[name][0] for row in rows]), unit)
               for name, (_value, unit) in rows[0].items()}
    pairs = len(passes) // 2
    untraced = sum(passes[2 * i][1].timed_s for i in range(pairs))
    traced = sum(passes[2 * i + 1][1].timed_s for i in range(pairs))
    metrics["trace.overhead_share"] = (traced / untraced - 1.0, "share")
    return metrics


def as_json_metrics(metrics):
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["upload_ingest", "live_mixed"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    process_started = time.perf_counter()

    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    try:
        import workloads
    except ImportError as exc:
        print("perfbench: cannot import the program from %s: %s"
              % (os.path.join(ROOT, "src"), exc), file=sys.stderr)
        return 2

    workload = workloads.IngestWorkload(args.workload == "live_mixed")
    data_root = os.path.join(ROOT, ".perfbench-data",
                             "%s-%d" % (args.workload, os.getpid()))
    try:
        began = time.perf_counter()
        state = workload.prepare(args.seed, data_root)
        inputs_s = time.perf_counter() - began
        # The inputs and references live for the whole run; keep the
        # program's garbage collections from traversing them.
        gc.collect()
        gc.freeze()
        passes = measure(workload, state, args.seconds, bool(args.trace),
                         process_started + HARD_LIMIT_S)
        rss_mb = None
        if not args.trace:
            rss_mb = pass_peak_rss_mb(args.workload, state, data_root)
        conditions = run_conditions(args, state, data_root)
    finally:
        shutil.rmtree(data_root, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(data_root))
        except OSError:
            pass

    mismatches = [m for _t, result, _s in passes for m in result.mismatches]
    attempted = sum(result.attempted for _t, result, _s in passes)
    failed = sum(result.failed for _t, result, _s in passes)
    metrics, report = end_to_end(args.workload, passes, rss_mb)
    report["inputs_s"] = (inputs_s, "s")
    print(json.dumps({
        "workload": args.workload,
        "run_conditions": conditions,
        "passes": [{"traced": traced, "timed_s": result.timed_s,
                    "work": result.work}
                   for traced, result, _s in passes],
        "report": as_json_metrics(report),
        "mismatches": mismatches[:20],
    }, sort_keys=True))
    if args.trace:
        metrics = per_layer(passes)
    print(json.dumps({"correct": not mismatches, "attempted": attempted,
                      "failed": failed,
                      "metrics": as_json_metrics(metrics)}))
    return 0 if not mismatches else 1


if __name__ == "__main__":
    sys.exit(main())
