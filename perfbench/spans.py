"""In-memory span recorder for the traced benchmark run.

The recorder wraps public functions of the ``sumsign`` modules in every
``sumsign`` namespace that binds them, so callers that imported a name with
``from .x import name`` are traced as well. Nothing under ``src/`` changes:
``uninstall`` puts every original object back.

Spans are kept in flat columns (name id, parent index, start, end, run id)
so a run with a few million calls stays small, and are written out only
when the run ends.
"""

from __future__ import annotations

import sys
from array import array
from pathlib import Path
from time import perf_counter_ns

import numpy as np

# (module, attribute) pairs recorded as spans. A span name is
# "<module>.<attribute>"; for a class, its constructor is recorded.
TRACED = (
    ("families", "resolve_family"),
    ("verify", "verify_theorem"),
    ("verify", "count_aiasl"),
    ("verify", "sweep_sign_patterns"),
    ("transforms", "subdivide_edge"),
    ("transforms", "elementary_transformation"),
    ("labeling", "derive"),
    ("labeling", "validate_aiasl"),
    ("intsets", "sumset"),
    ("graphs", "Graph"),
    ("graphs", "simple_cycles"),
    ("graphs", "cut_edges"),
    ("balance", "is_balanced_fast"),
    ("balance", "is_balanced_oracle"),
)

NO_PARENT = -1


class SpanRecorder:
    """Records nested spans of one thread; children close before parents."""

    def __init__(self):
        self.names: list[str] = []
        self.run_labels: list[str] = []
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.run_id = array("i")
        self._stack = [NO_PARENT]
        self._run = -1
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def begin_run(self, label: str) -> int:
        """Start a new workload run; later spans carry its id."""
        self.run_labels.append(label)
        self._run = len(self.run_labels) - 1
        return self._run

    def _wrap(self, name: str, fn):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        name_id, parent, start, end, run_id = (
            self.name_id, self.parent, self.start, self.end, self.run_id,
        )
        stack = self._stack
        recorder = self

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            run_id.append(recorder._run)
            end.append(0)
            stack.append(idx)
            start.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter_ns()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every TRACED name in each sumsign namespace that binds it."""
        if self._undo:
            raise RuntimeError("tracing is already installed")
        modules = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == "sumsign" or key.startswith("sumsign."))
        ]
        for mod_name, attr in TRACED:
            home = sys.modules[f"sumsign.{mod_name}"]
            original = getattr(home, attr)
            name = f"{mod_name}.{attr}"
            if isinstance(original, type):
                init = original.__dict__["__init__"]
                self._undo.append((original, "__init__", init))
                setattr(original, "__init__", self._wrap(name, init))
                continue
            traced = self._wrap(name, original)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, traced)

    def uninstall(self) -> None:
        """Put back every object install replaced."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- analysis ----------------------------------------------------------

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
            "run_id": np.frombuffer(self.run_id, dtype=np.int32).copy(),
        }

    def summary(self, runs: set[int] | None = None) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children. Spans of one thread nest, so the children are disjoint and
        cover exactly that much of the parent's interval.
        """
        cols = self.columns()
        dur = (cols["end_ns"] - cols["start_ns"]).astype(np.float64)
        has_parent = cols["parent"] != NO_PARENT
        child_ns = np.bincount(
            cols["parent"][has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        self_ns = dur - child_ns[: len(dur)]
        keep = np.ones(len(dur), dtype=bool)
        if runs is not None:
            keep = np.isin(cols["run_id"], sorted(runs))
        ids = cols["name_id"][keep]
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        total = np.bincount(ids, weights=dur[keep], minlength=k)
        own = np.bincount(ids, weights=self_ns[keep], minlength=k)
        return {
            name: {
                "calls": int(calls[i]),
                "s": float(total[i]) / 1e9,
                "self_s": float(own[i]) / 1e9,
            }
            for i, name in enumerate(self.names)
        }

    def write(self, path: Path) -> None:
        """Write every span, with the name and run tables, as one .npz file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            run_labels=np.array(self.run_labels),
            **self.columns(),
        )
