"""Mutants the tests must kill.

Each row breaks the package in one place: it names a source file under
``src/sumsign``, a text that occurs exactly once in it, the text that
replaces it, and the test that must fail on the result. The check copies
``src/`` to a temporary directory, applies the one replacement and runs the
named test there in a fresh interpreter, with ``PYTHONPATH`` set to the
copy (``conftest.py`` then imports the copy). Only pytest's exit code 1,
tests failed, is a kill: 2 is a collection error, 4 a usage error and 5 a
test that was not collected. A mutant that survives is a gap in the tests;
its row stays.

The killer runs without the hypothesis plugin, whose terminal summary
imports the whole package and takes most of a short killer's time. No
killer uses ``@given``; one that does must be shown to fail as it does
with the plugin.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

import sumsign

SRC = Path(sumsign.__file__).resolve().parent.parent
ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    source: str
    text: str
    replacement: str
    killer: str


MUTANTS = [
    Mutant(
        "closing-edge-bit-dropped",
        "graphs.py",
        "cycles.append((tuple(path), mask | bit))",
        "cycles.append((tuple(path), mask))",
        "tests/test_graphs.py::TestCycleMasks::test_masks_follow_simple_cycles",
    ),
    Mutant(
        "mask-stack-kept-on-backtrack",
        "graphs.py",
        "                stack.pop()\n                mask ^= bits.pop()\n",
        "                stack.pop()\n",
        "tests/test_graphs.py::TestCycleMasks::test_masks_follow_simple_cycles",
    ),
    Mutant(
        "both-orientations-listed",
        "graphs.py",
        "if len(path) >= 3 and path[1] < path[-1]:",
        "if len(path) >= 3:",
        "tests/test_graphs.py::TestSimpleCycles::test_matches_oracle_on_small_connected_graphs",
    ),
    Mutant(
        "first-step-cut-drops-the-smallest-neighbour",
        "graphs.py",
        "        first.pop()\n",
        "        first.pop(0)\n",
        "tests/test_graphs.py::TestCycleMasks::test_connected_7_listing_is_pinned",
    ),
    Mutant(
        "sweep-fast-side-reads-oracle-patterns",
        "verify.py",
        "fast = _even_patterns(fundamental_cycle_masks(g), m)",
        "fast = balanced",
        "tests/test_verify.py::TestSweepSignPatterns::test_sweep_equals_a_literal_recount",
    ),
    Mutant(
        "sweep-disagreements-oracle-side-only",
        "verify.py",
        "set(balanced).symmetric_difference(fast)",
        "set(balanced).difference(fast)",
        "tests/test_verify.py::TestSweepSignPatterns::test_sweep_equals_a_literal_recount",
    ),
    Mutant(
        "sweep-disagreements-fast-side-only",
        "verify.py",
        "set(balanced).symmetric_difference(fast)",
        "set(fast).difference(balanced)",
        "tests/test_verify.py::TestSweepSignPatterns::test_sweep_equals_a_literal_recount",
    ),
    Mutant(
        "sweep-counts-its-balanced-patterns",
        "verify.py",
        "patterns_checked=1 << m,",
        "patterns_checked=len(balanced),",
        "tests/test_verify.py::TestSweepSignPatterns::test_triangle_even_popcount_patterns",
    ),
    Mutant(
        "solve-skips-the-reduction-by-earlier-rows",
        "verify.py",
        "mask ^= rows[lead]",
        "pass",
        "tests/test_verify.py::TestSweepSignPatterns::test_even_patterns_equal_a_brute_force_recount",
    ),
    Mutant(
        "solve-skips-the-back-substitution",
        "verify.py",
        "                if row & lead:\n                    rows[other] = row ^ mask\n",
        "                pass\n",
        "tests/test_verify.py::TestSweepSignPatterns::test_even_patterns_equal_a_brute_force_recount",
    ),
    Mutant(
        "solve-leading-bit-off-by-one",
        "verify.py",
        "lead = mask & -mask",
        "lead = (mask & -mask) << 1",
        "tests/test_verify.py::TestSweepSignPatterns::test_even_patterns_equal_a_brute_force_recount",
    ),
    Mutant(
        "solve-leads-each-row-by-its-highest-bit",
        "verify.py",
        "lead = mask & -mask",
        "lead = 1 << mask.bit_length() - 1",
        "tests/test_verify.py::TestSweepSignPatterns::test_sweep_equals_a_literal_recount",
    ),
    Mutant(
        "solve-complement-vector-lacks-the-leading-bits",
        "verify.py",
        "vector |= lead",
        "vector |= 0",
        "tests/test_verify.py::TestSweepSignPatterns::test_even_patterns_equal_a_brute_force_recount",
    ),
    Mutant(
        "solve-adds-each-vector-alone",
        "verify.py",
        "patterns += [p ^ vector for p in patterns]",
        "patterns.append(vector)",
        "tests/test_verify.py::TestSweepSignPatterns::test_tree_every_pattern_balanced",
    ),
    Mutant(
        "oracle-sign-read-by-count",
        "balance.py",
        "_SIGN_OF_PARITY[k & 1]",
        "_SIGN_OF_PARITY[k]",
        "tests/test_balance.py::TestBalanceExamples::test_c4_two_negatives",
    ),
    Mutant(
        "plan-key-without-dropped-vertex",
        "transforms.py",
        "@lru_cache(maxsize=_TRANSFORM_PLANS)\ndef _plan(\n",
        "_PLANS = {}\n\n\n"
        "def _plan(g, drop_vertex, drop_edges, new_vertex, new_edges):\n"
        "    key = (g, drop_edges, new_vertex, new_edges)\n"
        "    if key not in _PLANS:\n"
        "        _PLANS[key] = _any_plan(g, drop_vertex, drop_edges, new_vertex, new_edges)\n"
        "    return _PLANS[key]\n\n\n"
        "def _any_plan(\n",
        "tests/test_transforms.py::TestTransformPlans::test_same_neighbours_give_different_plans",
    ),
    Mutant(
        "every-query-under-one-memo-key",
        "graphs.py",
        "            return g._memo[query]\n"
        "        except KeyError:\n"
        "            value = g._memo[query] = query(g)\n",
        "            return g._memo[None]\n"
        "        except KeyError:\n"
        "            value = g._memo[None] = query(g)\n",
        "tests/test_graphs.py::TestMemo",
    ),
    Mutant(
        "memo-value-never-stored",
        "graphs.py",
        "value = g._memo[query] = query(g)",
        "value = query(g)",
        "tests/test_graphs.py::TestMemo",
    ),
    Mutant(
        "bridges-are-the-covered-edges",
        "graphs.py",
        "return tuple(e for i, e in enumerate(g.edges) if not covered >> i & 1)",
        "return tuple(e for i, e in enumerate(g.edges) if covered >> i & 1)",
        "tests/test_graphs.py::TestCutEdges::test_triangle_with_pendant",
    ),
    Mutant(
        "edge-named-in-one-order-only",
        "graphs.py",
        "key = edge_key(u, v)",
        "key = (u, v)",
        "tests/test_graphs.py::TestEdge::test_a_pair_names_its_edge_in_either_order",
    ),
    Mutant(
        "edge-without-the-membership-check",
        "graphs.py",
        "        if not self.has_edge(*key):\n"
        "            raise UnknownEdge(f\"edge {key} is not in the graph\")\n",
        "",
        "tests/test_graphs.py::TestEdge::test_a_pair_that_is_no_edge_is_refused",
    ),
    Mutant(
        "bipartition-folds-no-negative-edge",
        "graphs.py",
        "return _partition(g, (1 << g.m) - 1)",
        "return _partition(g, 0)",
        "tests/test_balance.py::TestSignPartition::test_bipartition_is_the_all_negative_witness",
    ),
    Mutant(
        "cycle-bound-check-removed",
        "graphs.py",
        "    check_count(\"cycle bound\", max_vertices)\n",
        "",
        "tests/test_graphs.py::TestSimpleCycles::test_bound_must_be_an_int",
    ),
    Mutant(
        "incidence-from-one-endpoint",
        "graphs.py",
        "        incidence[pos[u]] |= 1 << i\n        incidence[pos[v]] |= 1 << i\n",
        "        incidence[pos[u]] |= 1 << i\n",
        "tests/test_balance.py::TestSignPartition::test_the_fold_equals_the_set_and_dict_fold",
    ),
    Mutant(
        "side-fold-reads-the-parent-bit",
        "graphs.py",
        "side[p] ^ (neg >> i & 1)",
        "side[p] ^ (neg >> p & 1)",
        "tests/test_balance.py::TestSignPartition::test_the_fold_equals_the_set_and_dict_fold",
    ),
    Mutant(
        "sumset-memo-drops-the-second-operand",
        "intsets.py",
        "    return _sumset(x, y) if x <= y else _sumset(y, x)\n",
        "    return sumset.__dict__.setdefault(x if x <= y else y, _sumset(x, y) if x <= y else _sumset(y, x))\n",
        "tests/test_intsets.py::TestMemos::test_sumset_memo_is_bounded_and_its_results_are_checked_sets",
    ),
    Mutant(
        "set-equality-reads-the-text",
        "intsets.py",
        "isinstance(other, IntegerSet) and self.elements == other.elements",
        "isinstance(other, IntegerSet) and self._text == other._text",
        "tests/test_intsets.py::TestMemos::test_a_set_with_its_text_kept_copies_and_compares_as_before",
    ),
    Mutant(
        "replay-keeps-ids-in-reverse-order",
        "verify.py",
        "g.vertices, tuple(map(sets.__getitem__, indices))",
        "g.vertices[::-1], tuple(map(sets.__getitem__, indices[::-1]))",
        "tests/test_verify.py::test_replayed_labelings_equal_the_public_construction",
    ),
    Mutant(
        "labeling-get-without-the-id-check",
        "labeling.py",
        "            if vertices[i] == v:\n                return self._sets[i]\n",
        "            return self._sets[i]\n",
        "tests/test_labeling.py::TestGet::test_an_unlabeled_id_is_missing[between]",
    ),
    Mutant(
        "plan-positions-read-from-the-result-graph",
        "transforms.py",
        "source = {x: i for i, x in enumerate(g.vertices)}",
        "source = {x: i for i, x in enumerate(graph.vertices)}",
        "tests/test_transforms.py::TestTransformPlans::test_equal_transforms_share_the_result_graph",
    ),
    Mutant(
        "sort-key-without-the-graph-text",
        "search.py",
        "n * per_n + text_rank[format_graph(g)] * per_text",
        "n * per_n",
        "tests/test_verify.py::test_report_order_is_the_sort_key_order[rev-custom]",
    ),
    Mutant(
        "derive-without-the-duplicate-check",
        "labeling.py",
        "        if elements in seen:\n"
        "            raise DuplicateLabel(\n"
        "                f\"vertices {seen[elements]!r} and {v!r} share the set-label {label.to_text()}\"\n"
        "            )\n",
        "",
        "tests/test_labeling.py::TestDerive::test_error_texts[duplicate]",
    ),
    Mutant(
        "derive-checks-injectivity-on-looked-up-labels-only",
        "labeling.py",
        "        if elements in seen:\n",
        "        if elements in seen and labels is not f._sets:\n",
        "tests/test_labeling.py::TestDerive::test_error_texts[duplicate]",
    ),
    Mutant(
        "derive-without-the-strict-vertex-check",
        "labeling.py",
        "        if strict and elements[-1] > universe_max:\n"
        "            raise UniverseViolation(\n"
        "                f\"label {label.to_text()} of vertex {v!r} escapes universe_max={universe_max}\"\n"
        "            )\n",
        "",
        "tests/test_labeling.py::TestDerive::test_error_texts[strict-vertex]",
    ),
    Mutant(
        "derive-without-the-extra-vertex-check",
        "labeling.py",
        "    if len(f._vertices) != len(seen):\n"
        "        extra = sorted(set(f._vertices) - set(vertices))\n"
        "        raise UnknownVertex(f\"labeled vertices not in the graph: {', '.join(extra)}\")\n",
        "",
        "tests/test_labeling.py::TestDerive::test_error_texts[extra-vertex]",
    ),
    Mutant(
        "derive-sign-table-reversed",
        "intsets.py",
        "_SIGN_OF_PARITY = (sign_of_size(0), sign_of_size(1))",
        "_SIGN_OF_PARITY = (sign_of_size(1), sign_of_size(0))",
        "tests/test_labeling.py::TestDerive::test_every_enumerated_labeling_equals_a_literal_recomputation[lenient]",
    ),
    Mutant(
        "negative-mask-bit-never-shifted",
        "balance.py",
        "            neg |= bit\n        bit <<= 1\n",
        "            neg |= bit\n",
        "tests/test_balance.py::TestBalanceExamples::test_c4_two_negatives",
    ),
    Mutant(
        "labeling-text-loses-its-last-newline",
        "labeling.py",
        'return f"universe_max = {lab.universe_max}\\n" + "".join(lines)',
        'return f"universe_max = {lab.universe_max}\\n" + "".join(lines)[:-1]',
        "tests/test_labeling.py::TestDerive::test_every_enumerated_labeling_equals_a_literal_recomputation[lenient]",
    ),
    Mutant(
        "set-text-kept-per-length",
        "intsets.py",
        "        text = self._text\n"
        "        if text is None:\n"
        "            text = \"{\" + \",\".join(map(str, self.elements)) + \"}\"\n"
        "            object.__setattr__(self, \"_text\", text)\n",
        "        kept = IntegerSet.to_text.__dict__\n"
        "        text = kept.get(len(self.elements))\n"
        "        if text is None:\n"
        "            text = kept[len(self.elements)] = \"{\" + \",\".join(map(str, self.elements)) + \"}\"\n",
        "tests/test_intsets.py::TestMemos::test_every_candidate_text_equals_an_uncached_rendering",
    ),
    Mutant(
        "set-pickle-carries-the-text",
        "intsets.py",
        "        return IntegerSet, (self.elements,)\n",
        "        return IntegerSet, (self.elements,), self._text\n\n"
        "    def __setstate__(self, text):\n"
        "        object.__setattr__(self, \"_text\", text)\n",
        "tests/test_intsets.py::TestMemos::test_a_set_with_its_text_kept_copies_and_compares_as_before[pickle]",
    ),
    Mutant(
        "replay-takes-max-label-size-as-universe-max",
        "verify.py",
        "space.bounds.universe_max, g.vertices",
        "space.bounds.max_label_size, g.vertices",
        "tests/test_verify.py::test_replayed_labelings_equal_the_public_construction",
    ),
    Mutant(
        "homeomorphism-counts-the-cycle-vertices-alone",
        "search.py",
        "labelings * len(eligible)",
        "labelings * len(rows)",
        "tests/test_verify.py::test_reports_equal_an_object_level_recomputation[connected:4-(3,2)-HOMEOMORPHISM]",
    ),
    Mutant(
        "homeomorphism-keeps-its-first-failing-vertex",
        "search.py",
        "failed.append(v)",
        "failed.append(v) if not failed else None",
        "tests/test_verify.py::test_findings_are_closed_under_the_claims_symmetries[homeomorphism]",
    ),
    Mutant(
        "orbit-walk-drops-the-first-level-constraints",
        "search.py",
        "for w, transversal in automorphism_chain(g):",
        "for w, transversal in automorphism_chain(g)[1:]:",
        "tests/test_verify.py::test_reports_match_golden_hashes[connected:4-(2,2)]",
    ),
    Mutant(
        "orbit-constraint-reversed",
        "search.py",
        "allowed &= -(2 << assign[q])",
        "allowed &= (1 << assign[q]) - 1",
        "tests/test_verify.py::test_orbit_walks_yield_the_least_labeling_of_each_orbit",
    ),
    Mutant(
        "orbit-counts-not-multiplied",
        "search.py",
        "order = automorphism_count(g)",
        "order = 1",
        "tests/test_verify.py::test_reports_match_golden_hashes[connected:4-(2,2)]",
    ),
    Mutant(
        "orbit-findings-not-expanded",
        "search.py",
        "for source, image in images:",
        "for source, image in images[:1]:",
        "tests/test_verify.py::test_reports_match_golden_hashes[connected:4-(2,2)]",
    ),
    Mutant(
        "orbit-image-targets-unmapped",
        "search.py",
        "tuple(sorted(map(image.__getitem__, targets)))",
        "targets",
        "tests/test_verify.py::test_reports_equal_an_object_level_recomputation[connected:4-(2,2)-HOMEOMORPHISM]",
    ),
    Mutant(
        "search-imports-a-labeling-function",
        "search.py",
        "from .intsets import IntegerSet, ap_pair, ap_profile\n",
        "from .intsets import IntegerSet, ap_pair, ap_profile\nfrom .labeling import derive\n",
        "tests/test_source_hygiene.py::test_the_search_imports_no_replay_module",
    ),
    Mutant(
        "fwd-merge-never-moves-on",
        "search.py",
        "            expected = next(balanced, None)\n",
        "            pass\n",
        "tests/test_verify.py::test_reports_match_golden_hashes[connected:4-(2,2)]",
    ),
    Mutant(
        "count-not-multiplied-by-the-group-order",
        "verify.py",
        "return _count_indices(g, _labeling_space(b)) * automorphism_count(g)",
        "return _count_indices(g, _labeling_space(b))",
        "tests/test_verify.py::TestEnumerateAiasl::test_count_helper[P3-default]",
    ),
    Mutant(
        "pair-claims-walk-every-ordered-pair",
        "verify.py",
        "for indices in _visit(_K2, tally.space, orbits=True):",
        "for indices in _visit(_K2, tally.space):",
        "tests/test_verify.py::test_reports_match_golden_hashes[connected:4-(2,2)]",
    ),
]


def _run_killer(mutant, tmp_path):
    """The finished killer run on a copy of ``src/`` with the mutant applied."""
    copy = tmp_path / "src"
    shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    path = copy / "sumsign" / mutant.source
    source = path.read_text(encoding="utf-8")
    assert source.count(mutant.text) == 1
    path.write_text(source.replace(mutant.text, mutant.replacement), encoding="utf-8")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "-p", "no:hypothesispytest", mutant.killer],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(copy), "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
    )


def test_every_row_applies_and_names_a_collected_killer():
    """Each row's text occurs exactly once in its source, and one
    ``--collect-only`` run collects every killer, so a stale row fails here
    once, by name, before the mutants are run."""
    stale = [m.name for m in MUTANTS
             if (SRC / "sumsign" / m.source).read_text(encoding="utf-8").count(m.text) != 1]
    assert stale == []
    killers = sorted({m.killer for m in MUTANTS})
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider",
         "-p", "no:hypothesispytest", *killers],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
    )
    collected = run.stdout.splitlines()
    missing = [k for k in killers
               if not any(c == k or c.startswith((k + "::", k + "[")) for c in collected)]
    assert missing == [], run.stdout[-2000:] + run.stderr[-2000:]


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_is_killed(mutant, tmp_path):
    run = _run_killer(mutant, tmp_path)
    assert run.returncode == 1, run.stdout[-2000:] + run.stderr[-2000:]


def test_a_replacement_that_changes_nothing_survives(tmp_path):
    """The harness tells a survivor from a kill: with the text replaced by
    itself, the killer runs and passes."""
    mutant = MUTANTS[0]._replace(replacement=MUTANTS[0].text)
    run = _run_killer(mutant, tmp_path)
    assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]
