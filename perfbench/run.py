"""sumsign benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` it measures the workload end to end, by calling the
package's public entry points from one thread, and prints the end-to-end
metrics. Each timed pass runs in a fresh interpreter (child.py), as one
command-line call would, and passes start until S seconds have gone by.
With ``--trace 1`` it runs the workload once untraced and once traced,
records a span around every call into each layer, and prints the per-layer
metrics. Every output is checked against the references in
``perfbench/references.json``. The last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it records the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCES = HERE / "references.json"

if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from spans import SpanRecorder  # noqa: E402
from workloads import WORKLOADS, Tally  # noqa: E402

CHILD = HERE / "child.py"
# Reference time of one block of child.py's calibration loop: near its time
# on a 2-core Intel Xeon VM under Python 3.11. It only fixes the unit of the
# scaled times; see ``scaled``.
CALIBRATION_REF_S = 0.031
# Each run starts this many set-up probes before its passes. The first one
# may compile bytecode and is not counted; setup_s is the median over the
# other probes and the set-up of every pass.
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 150

END_TO_END = {
    "wall_s": "s",
    "cases_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}

# Layers whose spans give a call count and a self time.
SPAN_LAYERS = (
    "verify.verify_theorem",
    "verify.sweep_sign_patterns",
    "transforms.subdivide_edge",
    "transforms.elementary_transformation",
    "labeling.derive",
    "labeling.validate_aiasl",
    "intsets.sumset",
    "graphs.Graph",
    "graphs.simple_cycles",
    "graphs.cut_edges",
    "balance.is_balanced_fast",
    "balance.is_balanced_oracle",
)
PER_LAYER = {
    "verify.enumerate.labelings": "count",
    "verify.enumerate.s": "s",
    "verify.enumerate.labelings_per_s": "1/s",
    "verify.counterexamples": "count",
    "verify.report_bytes": "bytes",
    "verify.sweep.patterns_per_s": "1/s",
    "verify.sweep.plane_xors": "count",
    "verify.sweep.plane_bytes": "bytes",
    "transforms.collision_ratio": "ratio",
    "families.resolve_family.s": "s",
    "trace.overhead": "ratio",
    "trace.spans": "count",
}
for _layer in SPAN_LAYERS:
    PER_LAYER[f"{_layer}.calls"] = "count"
    PER_LAYER[f"{_layer}.self_s"] = "s"


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _import_sumsign():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import sumsign

    return sumsign


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str:
    """HEAD of the checkout's own .git, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(seed: int) -> dict:
    import networkx
    import numpy

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "nproc": nproc,
        "cpu": _cpu_model(),
        "commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def child(workload, payload: bytes = b"") -> tuple[float, dict | None]:
    """Run child.py in a fresh interpreter.

    Returns the set-up time (start to "ready") and, when ``payload`` holds a
    pickled pass, the pass outcome. An empty payload makes a set-up probe.
    """
    start = time.perf_counter()
    deadline = start + CHILD_TIMEOUT_S
    with subprocess.Popen(
        [sys.executable, str(CHILD), str(SRC), workload.family],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
    ) as proc:
        try:
            try:
                proc.stdin.write(payload)
                proc.stdin.close()
            except BrokenPipeError:
                pass
            readable, _, _ = select.select([proc.stdout], [], [], CHILD_TIMEOUT_S)
            line = proc.stdout.readline() if readable else b""
            setup = time.perf_counter() - start
            proc.wait(timeout=max(0.0, deadline - time.perf_counter()))
            rest = proc.stdout.read()
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchmarkError(f"benchmark process ran over {CHILD_TIMEOUT_S} s") from None
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if line != b"ready\n" or proc.returncode != 0:
        raise BenchmarkError(f"benchmark process failed with exit code {proc.returncode}")
    return setup, json.loads(rest) if payload else None


def scaled(seconds: float, calibration_s: float) -> float:
    """``seconds`` as it would read at the reference speed.

    The shared host changes how fast it runs the interpreter from one minute
    to the next, by up to a factor of two. The calibration loop in child.py
    slows down with it, so a time measured next to it is multiplied by
    ``CALIBRATION_REF_S / calibration_s``. On a host that runs the loop in
    ``CALIBRATION_REF_S`` the scaled time is the wall time.
    """
    return seconds * CALIBRATION_REF_S / calibration_s


def _add(total, tally) -> None:
    total.attempted += tally.attempted
    total.failed += tally.failed


def fresh_pass(workload, reference: dict, seed: int) -> tuple[float, dict]:
    """Set-up time and outcome of one pass in its own interpreter.

    The outcome gains ``wall_s``, the pass's wall time, and
    ``scaled_wall_s``: each part scaled by the mean of the calibrations
    just before and just after it.
    """
    setup, outcome = child(workload, pickle.dumps((workload, reference, seed)))
    outcome["tally"] = Tally(**outcome["tally"])
    walls, cals = outcome["part_wall_s"], outcome["calibration_s"]
    outcome["wall_s"] = sum(walls)
    outcome["scaled_wall_s"] = sum(
        scaled(wall, (before + after) / 2)
        for wall, before, after in zip(walls, cals, cals[1:])
    )
    return setup, outcome


def timed_run(workload, reference: dict, seed: int, seconds: float):
    """End-to-end metrics, with tracing off.

    Pass times are scaled to the reference speed by the calibration loops
    run next to them in the same process (see ``scaled``). Set-up times are
    not: most of set-up is imports and page faults, which the calibration
    loop does not follow.
    """
    # The first probe may compile bytecode.
    setups = [child(workload)[0] for _ in range(SETUP_PROBES)][1:]
    walls: list[float] = []
    raw_walls: list[float] = []
    cpus: list[float] = []
    calibrations: list[list[float]] = []
    rates: list[float] = []
    peaks: list[float] = []
    total = Tally()
    begin = time.perf_counter()
    pass_s = 0.0
    # Start a pass only if it should end within the run, going by the last
    # one; the first pass always runs.
    while not walls or time.perf_counter() - begin + pass_s <= seconds:
        start = time.perf_counter()
        setup_s, outcome = fresh_pass(workload, reference, seed)
        pass_s = time.perf_counter() - start
        tally = outcome["tally"]
        _add(total, tally)
        wall = outcome["scaled_wall_s"]
        setups.append(setup_s)
        walls.append(wall)
        raw_walls.append(outcome["wall_s"])
        cpus.append(outcome["cpu_s"])
        calibrations.append(outcome["calibration_s"])
        rates.append(tally.work / wall)
        peaks.append(outcome["peak_rss_mb"])
    values = {
        "wall_s": statistics.median(walls),
        "cases_per_s": statistics.median(rates),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(peaks),
        "ok_frac": 1 - total.failed / total.attempted,
    }
    samples = {"wall_s": walls, "unscaled_wall_s": raw_walls, "cpu_s": cpus,
               "calibration_s": calibrations, "setup_s": setups, "peak_rss_mb": peaks}
    return values, total, samples


def traced_run(workload, reference: dict, seed: int, name: str):
    """Per-layer metrics from a traced pass in this process.

    Tracing overhead compares it with an untraced pass in a fresh process;
    both are the first pass of their interpreter.
    """
    _, outcome = fresh_pass(workload, reference, seed)
    untraced, total = outcome["wall_s"], outcome["tally"]
    sumsign = _import_sumsign()
    rec = SpanRecorder()
    with rec:
        setup_run = rec.begin_run("setup")
        sumsign.resolve_family(workload.family)
    inputs = workload.prepare(sumsign, seed)

    with rec:
        work_run = rec.begin_run("workload")
        t0 = time.perf_counter()
        raw = workload.run(sumsign, inputs)
        traced = time.perf_counter() - t0
    tally = workload.check(raw, reference)
    del raw
    _add(total, tally)

    with rec:
        enum_run = rec.begin_run("enumerate")
        labelings = workload.enumerate_labelings(sumsign, inputs)
    plane_xors, plane_bytes = workload.kernel_counts(sumsign, inputs)

    work = rec.summary({work_run})
    enum_s = rec.summary({enum_run})["verify.count_aiasl"]["s"]
    sweep_s = work["verify.sweep_sign_patterns"]["s"]
    values = {
        "verify.enumerate.labelings": labelings,
        "verify.enumerate.s": enum_s,
        "verify.enumerate.labelings_per_s": _ratio(labelings, enum_s),
        "verify.counterexamples": tally.counterexamples,
        "verify.report_bytes": tally.report_bytes,
        "verify.sweep.patterns_per_s": _ratio(tally.work, sweep_s),
        "verify.sweep.plane_xors": plane_xors,
        "verify.sweep.plane_bytes": plane_bytes,
        "transforms.collision_ratio": _ratio(
            tally.transform_skipped, tally.transform_cases + tally.transform_skipped
        ),
        "families.resolve_family.s": rec.summary({setup_run})["families.resolve_family"]["s"],
        "trace.overhead": traced / untraced,
        "trace.spans": sum(row["calls"] for row in work.values()),
    }
    for layer in SPAN_LAYERS:
        values[f"{layer}.calls"] = work[layer]["calls"]
        values[f"{layer}.self_s"] = work[layer]["self_s"]
    rec.write(OUT / f"spans-{name}.npz")
    samples = {"untraced_wall_s": untraced, "traced_wall_s": traced}
    return values, total, samples


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None, workloads=WORKLOADS, references=None) -> int:
    args = parse_args(argv)
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads)}", file=sys.stderr)
        return 2
    workload = workloads[args.workload]
    if not (SRC / "sumsign" / "__init__.py").is_file():
        print(f"error: no sumsign sources under {SRC}", file=sys.stderr)
        return 2
    try:
        if references is None:
            references = json.loads(REFERENCES.read_text())
        reference = references[args.workload]
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: no reference for {args.workload}: {exc!r}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            values, total, samples = traced_run(workload, reference, args.seed, args.workload)
            units = PER_LAYER
        else:
            values, total, samples = timed_run(workload, reference, args.seed, args.seconds)
            units = END_TO_END
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = {
        "correct": total.attempted > 0 and total.failed == 0,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    record = {"env": environment(args.seed), "workload": args.workload,
              "trace": args.trace, "samples": samples}
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**record, "result": result}, indent=1) + "\n"
    )
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
