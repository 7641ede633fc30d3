"""Peak RSS of one benchmark pass, measured in a fresh process.

``run.py`` starts this with the path of a pickled ``(mixed, state)``
pair: the run's inputs, without the reference records.  It runs one
pass of the workload without its correctness checks (the parent checks
every pass it times) and prints, as its last line, a JSON object with
``peak_rss_mb``: how far the RSS high-water mark rose above the RSS
the process had before the pass.

    python3 perfbench/rss.py INPUTS.pickle
"""

from __future__ import annotations

import gc
import json
import os
import pickle
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def status_kb(field: str) -> int:
    """A ``VmRSS``/``VmHWM``-style field of this process, in kB."""
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise OSError("no %s in /proc/self/status" % field)


def main(path: str) -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import tracing
    import workloads

    with open(path, "rb") as handle:
        mixed, state = pickle.load(handle)
    gc.collect()
    gc.freeze()
    # Reset the high-water mark to the current RSS, so loading the
    # inputs does not count.
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")
    before_kb = status_kb("VmRSS")
    # One crash + recover cycle: the cycles are identical and each
    # starts with the last one's garbage collected, so more cycles would
    # not raise the peak.
    workloads.IngestWorkload(mixed).run_pass(
        state, 0, tracing.SpanTotals(), check=False, recoveries=1)
    print(json.dumps(
        {"peak_rss_mb": (status_kb("VmHWM") - before_kb) / 1024.0}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
