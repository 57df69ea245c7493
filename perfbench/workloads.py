"""The benchmark's workloads: the inputs each one builds, the public calls it
times, and how each output is checked against the pinned references.

Every workload has four steps. ``prepare`` builds the inputs from the seed
(untimed), as a list of items. ``run`` makes the public calls for a list of
items (timed) and returns one output row per item. ``check`` compares the
rows with the references (untimed) and returns a Tally. ``pin`` turns the
rows into references. ``parts`` splits the items into the parts that a
timed pass runs one after another, with a short calibration loop between
them; parts of a few tenths of a second let the loop follow the host's
speed. For the traced run, ``enumerate_labelings``
and ``kernel_counts`` give the per-layer counts that are computed rather
than timed. Calls are looked up on the ``sumsign`` module at call time, so
the traced run sees them through its wrappers.
"""

from __future__ import annotations

import hashlib
import random
import sys
import traceback
from dataclasses import dataclass

TRANSFORM_THEOREMS = ("SUBDIVISION", "HOMEOMORPHISM")
SWEEP_PARTS = 40


@dataclass
class Tally:
    """What one pass of a workload did, and how much of it was wrong."""

    attempted: int = 0
    failed: int = 0
    work: int = 0
    counterexamples: int = 0
    report_bytes: int = 0
    transform_cases: int = 0
    transform_skipped: int = 0


def _report_failure(what: str) -> None:
    print(f"benchmark: {what} raised", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


class VerifyWorkload:
    """``verify_theorem`` for each theorem on each graph of the family, then
    ``to_text`` of its report.

    One call per graph lets a pass run calibration loops between calls.
    The search is exhaustive, so the seed does not change the input.
    """

    def __init__(self, family: str, universe_max: int, max_label_size: int,
                 theorems: tuple[str, ...]):
        self.family = family
        self.universe_max = universe_max
        self.max_label_size = max_label_size
        self.theorems = theorems

    def prepare(self, sumsign, seed: int) -> list:
        """One item (key, theorem, graph, bounds) per theorem and graph."""
        bounds = sumsign.SearchBounds(self.universe_max, self.max_label_size)
        graphs = sumsign.resolve_family(self.family)
        return [(f"{theorem}/{i}", theorem, g, bounds)
                for theorem in self.theorems for i, g in enumerate(graphs)]

    def parts(self, items: list) -> list:
        """One part per call."""
        return [[item] for item in items]

    def run(self, sumsign, items: list) -> list:
        out = []
        for key, theorem, g, bounds in items:
            try:
                report = sumsign.verify_theorem(theorem, [g], bounds)
                out.append((key, report, report.to_text()))
            except Exception:
                _report_failure(f"verify_theorem({key})")
                out.append((key, None, None))
        return out

    @staticmethod
    def _summary(report, text: str) -> dict:
        return {
            "cases": report.cases_checked,
            "skipped": report.skipped,
            "verdict": report.verdict.value,
            "counterexamples": len(report.counterexamples),
            "sha256": hashlib.sha256(text.encode()).hexdigest(),
        }

    def pin(self, raw: list) -> dict:
        return {key: self._summary(report, text) for key, report, text in raw}

    def check(self, raw: list, reference: dict) -> Tally:
        t = Tally()
        for key, report, text in raw:
            t.attempted += 1
            if report is None:
                t.failed += 1
                continue
            if self._summary(report, text) != reference.get(key):
                print(f"benchmark: {key} output differs from the reference",
                      file=sys.stderr)
                t.failed += 1
            t.work += report.cases_checked + report.skipped
            t.counterexamples += len(report.counterexamples)
            t.report_bytes += len(text.encode())
            if report.theorem_id.value in TRANSFORM_THEOREMS:
                t.transform_cases += report.cases_checked
                t.transform_skipped += report.skipped
        return t

    def enumerate_labelings(self, sumsign, items: list) -> int:
        """Labelings ``count_aiasl`` finds over the family within bounds."""
        bounds = items[0][3]
        return sum(
            sumsign.count_aiasl(g, bounds)
            for g in sumsign.resolve_family(self.family)
        )

    def kernel_counts(self, sumsign, items: list) -> tuple[int, int]:
        return 0, 0


def _fundamental_cycle_lengths(g) -> list[int]:
    """Edge count of each fundamental cycle of a BFS spanning forest of g."""
    depth: dict[str, int] = {}
    parent: dict[str, str | None] = {}
    tree: set[tuple[str, str]] = set()
    for root in g.vertices:
        if root in depth:
            continue
        depth[root], parent[root] = 0, None
        queue, head = [root], 0
        while head < len(queue):
            v = queue[head]
            head += 1
            for w in g.neighbors(v):
                if w not in depth:
                    depth[w], parent[w] = depth[v] + 1, v
                    tree.add((min(v, w), max(v, w)))
                    queue.append(w)
    lengths = []
    for u, v in g.edges:
        if (u, v) in tree:
            continue
        a, b, hops = u, v, 1
        while a != b:
            if depth[a] < depth[b]:
                a, b = b, a
            a = parent[a]
            hops += 1
        lengths.append(hops)
    return lengths


class SweepWorkload:
    """``sweep_sign_patterns`` over every connected graph on up to
    ``max_vertices`` vertices, plus scalar checks of sampled patterns.

    The seed picks ``samples`` patterns per graph. Each goes through
    ``signed_graph_from_pattern`` and both balance checks, which must agree
    with the sweep.
    """

    def __init__(self, max_vertices: int, samples: int):
        self.max_vertices = max_vertices
        self.samples = samples
        self.family = f"connected:{max_vertices}"

    def prepare(self, sumsign, seed: int) -> list:
        rng = random.Random(seed)
        return [
            (g, rng.sample(range(1 << g.m), min(self.samples, 1 << g.m)))
            for g in sumsign.connected_graphs(self.max_vertices)
        ]

    def parts(self, items: list) -> list:
        """``SWEEP_PARTS`` parts; taking every k-th graph gives each part a
        like mix of small and large graphs."""
        return [items[k::SWEEP_PARTS] for k in range(SWEEP_PARTS)
                if items[k::SWEEP_PARTS]]

    def run(self, sumsign, inputs: list) -> list:
        """One row per graph: (graph, sweep or None, scalar checks, scalar failures)."""
        rows = []
        for g, patterns in inputs:
            try:
                sweep = sumsign.sweep_sign_patterns(g)
            except Exception:
                _report_failure("sweep_sign_patterns")
                rows.append((g, None, 0, 0))
                continue
            balanced = set(sweep.balanced_patterns)
            bad = 0
            for p in patterns:
                expected = p in balanced
                try:
                    sg = sumsign.signed_graph_from_pattern(g, p, sweep.edge_order)
                    verdicts = (sumsign.is_balanced_oracle(sg)[0],
                                sumsign.is_balanced_fast(sg)[0])
                except Exception:
                    # A raise fails both checks of this pattern.
                    _report_failure("scalar balance check")
                    bad += 2
                    continue
                bad += sum(v != expected for v in verdicts)
            rows.append((g, sweep, 2 * len(patterns), bad))
        return rows

    @staticmethod
    def _totals(rows: list) -> dict:
        done = [sweep for _, sweep, _, _ in rows if sweep is not None]
        return {
            "graphs": len(rows),
            "patterns": sum(s.patterns_checked for s in done),
            "balanced_patterns": sum(len(s.balanced_patterns) for s in done),
            "disagreements": sum(len(s.disagreements) for s in done),
        }

    def pin(self, rows: list) -> dict:
        return self._totals(rows)

    def check(self, rows: list, reference: dict) -> Tally:
        """Each sweep must cover all 2^m patterns with no disagreement and
        find the 2^(n-1) balanced ones a connected graph has; each scalar
        check must match the sweep; the totals must match the reference."""
        t = Tally()
        for g, sweep, checks, bad in rows:
            t.attempted += 1 + checks
            t.failed += bad
            if sweep is None:
                t.failed += 1
                continue
            t.work += sweep.patterns_checked
            if (sweep.patterns_checked != 1 << g.m or sweep.disagreements
                    or len(sweep.balanced_patterns) != 1 << (g.n - 1)):
                t.failed += 1
        if self._totals(rows) != reference:
            print("benchmark: sweep totals differ from the reference", file=sys.stderr)
            t.failed = min(t.attempted, t.failed + 1)
        return t

    def enumerate_labelings(self, sumsign, inputs) -> int:
        return 0

    def kernel_counts(self, sumsign, inputs: list) -> tuple[int, int]:
        """(plane XORs, plane bytes) of the bit-plane sweep over all graphs.

        A sweep folds one uint8 plane per edge of each cycle and of each
        fundamental cycle, for every one of the 2^m patterns of a graph.
        """
        xors = planes = 0
        for g, _ in inputs:
            patterns = 1 << g.m
            popcount = sum(len(c) for c in sumsign.simple_cycles(g, max_vertices=max(g.n, 1)))
            popcount += sum(_fundamental_cycle_lengths(g))
            xors += patterns * popcount
            planes += patterns * g.m
        return xors, planes


WORKLOADS = {
    "transform_theorems": VerifyWorkload("connected:5", 2, 2, TRANSFORM_THEOREMS),
    "balance_rev": VerifyWorkload("connected:5", 3, 2, ("BALANCE_BIPARTITE_REV",)),
    "sign_sweep": SweepWorkload(7, 8),
}
