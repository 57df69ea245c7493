"""One benchmark process: python3 perfbench/child.py SRC FAMILY

It imports sumsign from SRC, resolves FAMILY and prints "ready"; the parent
times that as set-up. It then reads a pickled (workload, reference, seed)
from stdin, written by run.py. Empty stdin makes it a set-up probe that
exits here. Otherwise it times one pass of the workload, part by part,
with a fixed calibration loop before the first part and after each part,
checks the pass, and prints the outcome as one JSON line.
"""

import sys
import time

sys.path.insert(0, sys.argv[1])
import sumsign  # noqa: E402

sumsign.resolve_family(sys.argv[2])
print("ready", flush=True)

import gc  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import resource  # noqa: E402
from dataclasses import asdict  # noqa: E402

CALIBRATION_ROUNDS = 50_000


def calibration_s() -> float:
    """Time of a fixed pure-Python loop that does not touch sumsign.

    The loop uses the operations the workloads spend their time in: integer
    bit operations, dict and set updates, and calls. The parent divides
    pass times by it, which takes out changes in how fast the shared host
    runs this interpreter. It makes no object that the garbage collector
    tracks, and collection is off while it runs, so its time does not
    depend on how many objects the workload left behind.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        seen = dict.fromkeys(range(0x1000), 0)
        masks = set()
        acc = 0
        for i in range(CALIBRATION_ROUNDS):
            key = (i * 2654435761) & 0xFFF
            seen[key] = seen.get(key, 0) + 1
            acc ^= key << (i & 7)
            masks.add(acc & 0xFF)
            acc = max(acc & 0xFFFFF, key)
        return time.perf_counter() - t0
    finally:
        gc.enable()


payload = sys.stdin.buffer.read()
if payload:
    workload, reference, seed = pickle.loads(payload)
    inputs = workload.prepare(sumsign, seed)
    rows, walls, cpu = [], [], 0.0
    calibrations = [calibration_s()]
    for part in workload.parts(inputs):
        c0, t0 = time.process_time(), time.perf_counter()
        rows += workload.run(sumsign, part)
        walls.append(time.perf_counter() - t0)
        cpu += time.process_time() - c0
        calibrations.append(calibration_s())
    tally = workload.check(rows, reference)
    print(json.dumps({
        "part_wall_s": walls,
        "calibration_s": calibrations,
        "cpu_s": cpu,
        "tally": asdict(tally),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }), flush=True)
