"""Pin the benchmark's references from the current sources.

    python3 perfbench/pin.py

Runs every workload once with seed 0 and writes ``perfbench/references.json``.
Pin only from a commit whose outputs are known good: the benchmark counts
every later difference from these references as a failed call.
"""

from __future__ import annotations

import json

from run import REFERENCES, _import_sumsign
from workloads import WORKLOADS


def main() -> None:
    sumsign = _import_sumsign()
    references = {}
    for name, workload in WORKLOADS.items():
        raw = workload.run(sumsign, workload.prepare(sumsign, 0))
        references[name] = workload.pin(raw)
        print(name, json.dumps(references[name]))
    REFERENCES.write_text(json.dumps(references, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
