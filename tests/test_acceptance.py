"""Acceptance suite: every shipped claim checked at its stated scale.

One test per criterion, each printing a single PASS line with the scale it
ran at (visible with ``pytest -s`` or in the captured output). All expected
values come from independent oracles coded here (brute-force sumsets, subset
filters, permutation enumeration) or from exhaustive search, never from the
code paths they check.
"""

import os
import subprocess
import sys
import time
from itertools import combinations

from sumsign import transforms
from sumsign.balance import is_balanced_fast, is_balanced_oracle, is_clusterable
from sumsign.families import bipartite_family, connected_graphs
from sumsign.graphs import Graph, fundamental_cycle_masks, is_bipartite
from sumsign.intsets import IntegerSet, ap_sumset_cardinality
from sumsign.labeling import Labeling, derive, predicted_sign, validate_aiasl
from sumsign.verify import (
    SearchBounds,
    Verdict,
    construct_balanced_bipartite_labeling,
    enumerate_aiasl,
    signed_graph_from_pattern,
    sweep_sign_patterns,
    verify_theorem,
)
from sumsign.search import _edge_ends, _LabelingSpace, _visit

K2 = Graph(["u", "v"], [("u", "v")])


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------

def brute_sumset_size(xs, ys):
    return len({x + y for x in xs for y in ys})


def ap_family(max_first, max_diff, max_len):
    """(elements, diff or None, length) for every progression in the box."""
    out = [((f,), None, 1) for f in range(max_first + 1)]
    for f in range(max_first + 1):
        for d in range(1, max_diff + 1):
            for n in range(2, max_len + 1):
                out.append((tuple(f + i * d for i in range(n)), d, n))
    return out


def oracle_admissible(a, b):
    """(ok, m, n, k) with m the size of the smaller-difference endpoint."""
    (_, da, na), (_, db, nb) = a, b
    if da is None and db is None:
        return True, na, nb, 1
    if da is None:
        return True, na, nb, 1
    if db is None:
        return True, nb, na, 1
    lo, hi = sorted((da, db))
    if hi % lo != 0:
        return False, 0, 0, 0
    k = hi // lo
    m, n = (na, nb) if da <= db else (nb, na)
    return k <= m, m, n, k


def _negative_mask(ends, odd, indices):
    """The edge bits of ``ends`` whose pair of sets has an odd sumset."""
    mask = 0
    for a, b, bit in ends:
        if odd[indices[a]] >> indices[b] & 1:
            mask |= bit
    return mask


def _balanced(neg_mask, cycles):
    """Even negative count on every fundamental cycle, hence on every cycle."""
    return all((neg_mask & c).bit_count() % 2 == 0 for c in cycles)


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------

def test_c01_cardinality_formula():
    """Closed form equals brute-force sumset size, first<=20 diff<=5 len<=6."""
    start = time.time()
    family = ap_family(20, 5, 6)
    checked = 0
    for i, a in enumerate(family):
        for b in family[i:]:
            ok, m, n, k = oracle_admissible(a, b)
            if not ok:
                continue
            assert ap_sumset_cardinality(m, n, k) == brute_sumset_size(a[0], b[0])
            checked += 1
    elapsed = time.time() - start
    assert checked > 50000
    assert elapsed < 10.0
    print(f"ACCEPTANCE 1 PASS: cardinality formula exact on {checked} "
          f"admissible progression pairs in {elapsed:.1f}s")


def test_c02_positive_edge_prediction():
    """Parity prediction equals derived sign, first<=6 diff<=4 len<=5."""
    start = time.time()
    family = ap_family(6, 4, 5)
    checked = 0
    for i, a in enumerate(family):
        for b in family[i + 1:]:
            if set(a[0]) == set(b[0]):
                continue
            ok, _, _, _ = oracle_admissible(a, b)
            if not ok:
                continue
            slg = derive(
                K2, Labeling(40, {"u": IntegerSet(a[0]), "v": IntegerSet(b[0])})
            )
            assert predicted_sign(slg, ("u", "v")) is slg.signs[("u", "v")]
            checked += 1
    elapsed = time.time() - start
    assert checked > 2000
    assert elapsed < 30.0
    print(f"ACCEPTANCE 2 PASS: sign prediction matched the derived sign on "
          f"{checked} admissible pairs in {elapsed:.1f}s")


def test_c03_balance_check_equivalence():
    """Oracle and fast balance agree on every sign pattern, graphs <= 7.

    The sweep evaluates both definitions on all 2^|E| patterns per graph.
    The scalar public functions are then cross-validated against the sweep:
    exhaustively for graphs up to 4 vertices, and on every balanced pattern
    plus boundary samples for the larger graphs.
    """
    start = time.time()
    patterns = 0
    scalar_checks = 0
    for g in connected_graphs(7):
        sweep = sweep_sign_patterns(g)
        assert sweep.disagreements == ()
        patterns += sweep.patterns_checked
        balanced = set(sweep.balanced_patterns)
        if g.n <= 4:
            sample = range(sweep.patterns_checked)
        else:
            boundary = list(range(0, min(32, sweep.patterns_checked)))
            boundary += [sweep.patterns_checked - 1 - i for i in range(min(32, sweep.patterns_checked))]
            step = max(1, sweep.patterns_checked // 13)
            sample = sorted(set(list(balanced) + boundary + list(range(0, sweep.patterns_checked, step))))
        for pattern in sample:
            sg = signed_graph_from_pattern(g, pattern, sweep.edge_order)
            expected = pattern in balanced
            assert is_balanced_oracle(sg)[0] == expected
            assert is_balanced_fast(sg)[0] == expected
            scalar_checks += 1
    elapsed = time.time() - start
    assert patterns == 12481647
    assert elapsed < 300.0
    print(f"ACCEPTANCE 3 PASS: zero disagreements over {patterns} sign patterns "
          f"(996 graphs, {scalar_checks} scalar cross-checks) in {elapsed:.1f}s")


def test_c04_bipartite_construction():
    """The same-parity-per-side construction is valid and balanced, <= 8 vertices."""
    start = time.time()
    members = bipartite_family(8)
    for g in members:
        labeling = construct_balanced_bipartite_labeling(g)
        slg = derive(g, labeling)
        assert validate_aiasl(slg).ok
        assert is_balanced_fast(slg)[0]
        assert is_balanced_oracle(slg)[0]
        assert is_clusterable(slg).clusterable
    elapsed = time.time() - start
    assert len(members) > 60
    assert elapsed < 60.0
    print(f"ACCEPTANCE 4 PASS: balanced progression labeling constructed for "
          f"all {len(members)} bipartite family members in {elapsed:.1f}s")


def test_c05_odd_ratio_balance_law():
    """All-odd-ratio labelings are balanced iff the graph is bipartite.

    Bounds: graphs <= 6 vertices, universe {0..8}, label size <= 3. Two
    exhaustive layers discharge the quantifier:

    1. literal sweep of every labeling for graphs up to 4 vertices;
    2. for graphs of 5..6 vertices, a per-edge lemma (the sign of an
       odd-ratio edge depends only on the endpoint size parities; checked
       over every admissible odd pair in the space) plus one fully derived
       witness per (graph, size-parity vector). Since the lemma makes every
       labeling's sign map a function of its parity vector, and balance is a
       function of the sign map, checking one witness per vector covers
       every labeling in that class.
    """
    start = time.time()
    bounds = SearchBounds(universe_max=8, max_label_size=3, odd_ratios_only=True)
    space = _LabelingSpace(bounds)

    # Layer 2a: the per-edge sign lemma, exhaustive over the whole space.
    lemma_pairs = 0
    for i in range(len(space.sets)):
        for j in range(i + 1, len(space.sets)):
            if not space.compat[i] >> j & 1:
                continue
            same_parity = len(space.sets[i]) % 2 == len(space.sets[j]) % 2
            assert bool(space.odd[i] >> j & 1) == same_parity
            lemma_pairs += 1

    # Layer 1: literal enumeration for every graph on up to 4 vertices.
    literal = 0
    for g in connected_graphs(4):
        ends, cycles = _edge_ends(g), fundamental_cycle_masks(g)
        bip = is_bipartite(g)
        for n, indices in enumerate(_visit(g, space)):
            literal += 1
            balanced = _balanced(_negative_mask(ends, space.odd, indices), cycles)
            assert balanced == bip
            if n % 500000 == 0:
                # Tie the batched path to the public pipeline.
                lab = Labeling(8, {v: space.sets[k] for v, k in zip(g.vertices, indices)})
                slg = derive(g, lab)
                assert validate_aiasl(slg).ok
                assert is_balanced_fast(slg)[0] == balanced

    # Layer 2b: one public-pipeline witness per parity vector, graphs <= 6.
    witnesses = 0
    for g in connected_graphs(6):
        bip = is_bipartite(g)
        for vector in range(1 << g.n):
            assignment = {}
            odd_seen = even_seen = 0
            for idx, v in enumerate(g.vertices):
                if (vector >> idx) & 1:
                    assignment[v] = IntegerSet([even_seen, even_seen + 1])
                    even_seen += 1
                else:
                    assignment[v] = IntegerSet([odd_seen])
                    odd_seen += 1
            slg = derive(g, Labeling(8, assignment))
            check = validate_aiasl(slg)
            assert check.ok
            assert is_balanced_fast(slg)[0] == bip
            witnesses += 1
    elapsed = time.time() - start
    assert elapsed < 600.0
    print(f"ACCEPTANCE 5 PASS: balanced iff bipartite across {literal} literal "
          f"labelings (<=4 vertices), {lemma_pairs} lemma pairs and {witnesses} "
          f"parity-class witnesses (<=6 vertices) in {elapsed:.1f}s")


def test_c06_triangle_counterexample_to_reverse_direction():
    """Balanced non-bipartite labelings of the triangle exist and replay."""
    start = time.time()
    report = verify_theorem(
        "BALANCE_BIPARTITE_REV", "triangle", SearchBounds(universe_max=8, max_label_size=3)
    )
    assert report.verdict is Verdict.COUNTEREXAMPLE_FOUND
    first = report.counterexamples[0]
    slg = derive(first.graph, first.labeling)
    assert is_balanced_fast(slg)[0]
    assert is_balanced_oracle(slg)[0]
    assert not is_bipartite(first.graph)
    # The known instance {0,1}, {0,2}, {0,2,4} appears, and the first
    # counterexample dominates it in the (vertex count, label mass) order.
    target = {(0, 1), (0, 2), (0, 2, 4)}
    present = [
        ce for ce in report.counterexamples
        if {s.elements for _, s in ce.labeling.items()} == target
    ]
    assert present
    assert first.sort_key() <= present[0].sort_key()
    elapsed = time.time() - start
    print(f"ACCEPTANCE 6 PASS: reverse direction refuted on the triangle with "
          f"{len(report.counterexamples)} counterexamples; first has label mass "
          f"{first.labeling.label_mass()} (known instance mass "
          f"{present[0].labeling.label_mass()}) in {elapsed:.1f}s")


def test_c07_subdivision_cut_edges_preserve_balance():
    """Cut-edge subdivisions never break balance; one non-cut case must."""
    start = time.time()
    bounds = SearchBounds(universe_max=3, max_label_size=3)
    report = verify_theorem("SUBDIVISION", "connected:5", bounds)
    cut_violations = [
        ce for ce in report.counterexamples
        if "cut edge subdivision broke balance" in ce.explanation
    ]
    assert cut_violations == []
    # The balanced triangle instance whose non-cut subdivision goes
    # unbalanced, checked through the public pipeline.
    triangle = Graph(["u", "v", "w"], [("u", "v"), ("u", "w"), ("v", "w")])
    slg = derive(
        triangle,
        Labeling(8, {"u": IntegerSet([0, 1]), "v": IntegerSet([0, 2]),
                     "w": IntegerSet([0, 2, 4])}),
    )
    assert is_balanced_oracle(slg)[0]
    from sumsign.transforms import subdivide_edge

    outcome = subdivide_edge(slg, ("u", "v"))
    assert not is_balanced_oracle(outcome.result)[0]
    elapsed = time.time() - start
    assert elapsed < 600.0
    print(f"ACCEPTANCE 7 PASS: {report.cases_checked} subdivisions "
          f"({report.skipped} label collisions skipped), zero cut-edge balance "
          f"violations; triangle non-cut case goes unbalanced, in {elapsed:.1f}s")


def test_c08_homeomorphism_off_cycle_preserves_balance():
    """Eligible off-cycle transformations never break balance."""
    start = time.time()
    bounds = SearchBounds(universe_max=3, max_label_size=3)
    plans_before = transforms._plan.cache_info()
    report = verify_theorem("HOMEOMORPHISM", "connected:5", bounds)
    off_cycle_violations = [
        ce for ce in report.counterexamples
        if "on no cycle broke balance" in ce.explanation
    ]
    assert off_cycle_violations == []
    elapsed = time.time() - start
    assert elapsed < 600.0
    # Replay builds one result graph per (member, vertex), however many
    # labelings it replays there, and the plan memo stays within its bound.
    plans = transforms._plan.cache_info()
    targets = {(ce.graph, ce.explanation.split(":")[0]) for ce in report.counterexamples}
    assert plans.misses - plans_before.misses <= len(targets) < 100
    assert plans.hits - plans_before.hits >= len(report.counterexamples) - len(targets)
    assert plans.currsize <= transforms._TRANSFORM_PLANS
    print(f"ACCEPTANCE 8 PASS: {report.cases_checked} eligible transformations, "
          f"zero off-cycle balance violations ({len(report.counterexamples)} "
          f"on-cycle transformations preserved balance, a recorded finding) "
          f"in {elapsed:.1f}s")


def test_c09_enumeration_completeness():
    """Enumeration yields exactly a brute oracle's labelings, in its order."""
    start = time.time()

    def oracle_enumerate(g, universe_max, max_size):
        sets = []
        for size in range(1, max_size + 1):
            for combo in combinations(range(universe_max + 1), size):
                gaps = {b - a for a, b in zip(combo, combo[1:])}
                if len(gaps) <= 1:
                    sets.append(combo)
        sets.sort(key=lambda t: (len(t), t))

        def admissible(xs, ys):
            dx = xs[1] - xs[0] if len(xs) > 1 else None
            dy = ys[1] - ys[0] if len(ys) > 1 else None
            if dx is None or dy is None:
                return True
            lo, hi = sorted((dx, dy))
            if hi % lo != 0:
                return False
            return hi // lo <= (len(xs) if dx <= dy else len(ys))

        results = []

        def rec(i, chosen):
            if i == g.n:
                results.append(tuple(chosen))
                return
            for s in sets:
                if s in chosen:
                    continue
                chosen.append(s)
                rec(i + 1, chosen)
                chosen.pop()

        rec(0, [])
        pos = {v: i for i, v in enumerate(g.vertices)}
        return [
            r for r in results
            if all(admissible(r[pos[u]], r[pos[v]]) for u, v in g.edges)
        ]

    def union(a, b):
        return Graph(
            [f"a.{v}" for v in a.vertices] + [f"b.{v}" for v in b.vertices],
            [(f"a.{u}", f"a.{v}") for u, v in a.edges]
            + [(f"b.{u}", f"b.{v}") for u, v in b.edges],
        )

    two_k2 = union(Graph(["x", "y"], [("x", "y")]), Graph(["x", "y"], [("x", "y")]))
    family = list(connected_graphs(4)) + [
        two_k2,
        Graph(["a", "b", "c", "z"], [("a", "b"), ("b", "c"), ("a", "c")]),
    ]
    compared = 0
    for g in family:
        for universe_max in (2, 3, 4):
            bounds = SearchBounds(universe_max=universe_max, max_label_size=3)
            walked = [
                tuple(s.elements for _, s in lab.items())
                for lab in enumerate_aiasl(g, bounds)
            ]
            # The oracle assigns vertices in sorted order, each trying the
            # sets by (size, elements): the walk's canonical order.
            assert walked == oracle_enumerate(g, universe_max, 3)
            compared += len(walked)
    # Frozen small case: K2 over {0,1} with labels of up to two elements.
    k2_labelings = list(enumerate_aiasl(K2, SearchBounds(1, 2)))
    assert len(k2_labelings) == 6
    elapsed = time.time() - start
    assert elapsed < 60.0
    print(f"ACCEPTANCE 9 PASS: enumeration and the brute oracle agree in order "
          f"on {compared} labelings across {3 * len(family)} (graph, universe) "
          f"combinations; K2 yields exactly 6, in {elapsed:.1f}s")


def test_c10_cli_determinism(tmp_path):
    """Every CLI verb is byte-identical across runs and hash seeds."""
    start = time.time()
    graph = tmp_path / "t.graph"
    graph.write_text("u v\nu w\nv w\n")
    labeling = tmp_path / "t.labeling"
    labeling.write_text("universe_max = 8\nu: {0,1}\nv: {0,2}\nw: {0,2,4}\n")
    path_graph_file = tmp_path / "p.graph"
    path_graph_file.write_text("a b\nb c\n")
    path_labeling = tmp_path / "p.labeling"
    path_labeling.write_text("universe_max = 4\na: {0,1}\nb: {4}\nc: {2,3}\n")
    k2_graph = tmp_path / "k2.graph"
    k2_graph.write_text("u v\n")

    g, l = str(graph), str(labeling)
    commands = [
        ["derive", "--graph", g, "--labeling", l],
        ["check", "aiasl", "--graph", g, "--labeling", l],
        ["check", "iasi", "--graph", g, "--labeling", l],
        ["check", "balance", "--graph", g, "--labeling", l],
        ["check", "cluster", "--graph", g, "--labeling", l],
        ["transform", "subdivide", "--edge", "u v", "--graph", g, "--labeling", l],
        ["transform", "delete-vertex", "--vertex", "w", "--graph", g, "--labeling", l],
        ["transform", "span", "--keep", "u v", "--keep", "u w", "--graph", g, "--labeling", l],
        ["transform", "homeo", "--vertex", "b", "--graph", str(path_graph_file),
         "--labeling", str(path_labeling)],
        ["enumerate", "--graph", str(k2_graph), "--universe-max", "1",
         "--max-label-size", "2"],
        ["verify", "--theorem", "BALANCE_BIPARTITE_REV", "--family", "triangle",
         "--universe-max", "4", "--max-label-size", "3"],
    ]
    for argv in commands:
        runs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            proc = subprocess.run(
                [sys.executable, "-m", "sumsign.cli", *argv],
                capture_output=True,
                env=env,
            )
            runs.append((proc.returncode, proc.stdout))
        assert runs[0] == runs[1], f"nondeterministic output for {argv}"
    elapsed = time.time() - start
    print(f"ACCEPTANCE 10 PASS: {len(commands)} CLI verbs byte-identical across "
          f"hash seeds in {elapsed:.1f}s")
