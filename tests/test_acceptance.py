"""Acceptance suite: one test per release criterion.

Every test prints a single PASS/FAIL line (visible with ``pytest -s`` or
in the failure report) and asserts the criterion exactly; there are no
tolerances anywhere, all comparisons are exact.

Run with:  pytest tests/test_acceptance.py -v -s
"""

from __future__ import annotations

import itertools
import time

from support import (
    decode_graph6,
    decode_sparse6,
    level_path_sums,
    level_sets,
    level_transmissions,
    levels_from_parents,
    parents_from_edges,
    prufer_to_edges,
    subtree_sizes_from_parents,
    to_edge_list,
)
from titrees import (
    canonical_form,
    cli,
    enumerate_free_trees,
    generate_ti_trees,
    graph6_line,
    sparse6_line,
    transmissions_bfs,
)
from titrees.enumeration import generate_wti_trees
from titrees.wti import SINGLE_VERTEX, join_wti_trees

KNOWN_TI_COUNTS = {
    1: 1, 2: 0, 3: 0, 4: 0, 5: 0, 6: 0, 7: 1, 8: 0, 9: 1, 10: 0,
    11: 6, 12: 0, 13: 24, 14: 1, 15: 82, 16: 10, 17: 324, 18: 47,
    19: 1574, 20: 165, 21: 6944, 22: 733, 23: 30913, 24: 2947,
    25: 143690, 26: 13357, 27: 702945, 28: 67685, 29: 3277565, 30: 302163,
}

FREE_TREE_COUNTS_TO_18 = [
    1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159, 7741,
    19320, 48629, 123867,
]


def report(criterion: str, passed: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert passed, line


def test_criterion_1_census_small(capsysbinary):
    """Count mode, n_max=15, unbounded degree: known counts for orders 1..15."""
    start = time.perf_counter()
    status = cli.main(["-c", "15", "--threads", "1"])
    out = capsysbinary.readouterr().out
    elapsed = time.perf_counter() - start
    expected = "".join(f"{k} {KNOWN_TI_COUNTS[k]}\n" for k in range(1, 16)).encode()
    with capsysbinary.disabled():
        report(
            "1 census n<=15",
            status == 0 and out == expected,
            f"{elapsed:.3f}s",
        )


def test_criterion_2_census_medium(capsysbinary):
    """n_max=26 reproduces the known counts exactly through order 26."""
    start = time.perf_counter()
    census = generate_ti_trees(26)
    elapsed = time.perf_counter() - start
    expected = {k: KNOWN_TI_COUNTS[k] for k in range(1, 27)}

    status = cli.main(["-c", "26", "--threads", "1"])
    out = capsysbinary.readouterr().out
    expected_lines = "".join(f"{k} {KNOWN_TI_COUNTS[k]}\n" for k in range(1, 27)).encode()
    with capsysbinary.disabled():
        report(
            "2 census n<=26",
            census == expected and status == 0 and out == expected_lines,
            f"{elapsed:.2f}s",
        )


def test_criterion_3_census_stretch():
    """n_max=30 reproduces orders 29 and 30 exactly."""
    start = time.perf_counter()
    census = generate_ti_trees(30)
    elapsed = time.perf_counter() - start
    passed = census == {k: KNOWN_TI_COUNTS[k] for k in range(1, 31)}
    report(
        "3 census n<=30",
        passed and census[29] == 3277565 and census[30] == 302163,
        f"{elapsed:.1f}s",
    )


def test_criterion_4_oracle_equivalence(tmp_path):
    """Generator output equals the oracle's TI filter as canonical-form
    multisets for every order up to 18, as ``titrees verify 18`` reports."""
    path = tmp_path / "verify.txt"
    status = cli.main(["verify", "18", "--threads", "1", "--output", str(path)])
    lines = path.read_text().splitlines()
    passed = (
        status == cli.EXIT_OK
        and len(lines) == 18
        and all(line == f"order {k}: OK ({KNOWN_TI_COUNTS[k]} trees)" for k, line in enumerate(lines, start=1))
    )
    report("4 oracle equivalence n<=18", passed, f"exit {status}, {len(lines)} lines")


def test_criterion_5_oracle_self_check():
    """Free-tree counts match the known sequence through 18; the Prufer
    path agrees with the level-sequence path through 8."""
    counts_ok = True
    for n, expected in enumerate(FREE_TREE_COUNTS_TO_18, start=1):
        got = 0

        def bump(tree):
            nonlocal got
            got += 1

        enumerate_free_trees(n, bump)
        if got != expected:
            counts_ok = False
            break

    prufer_ok = True
    for n in range(3, 9):
        via_levels: set[bytes] = set()
        enumerate_free_trees(n, lambda t: via_levels.add(canonical_form(t)))
        via_prufer = {
            canonical_form(parents_from_edges(n, prufer_to_edges(code)))
            for code in itertools.product(range(n), repeat=n - 2)
        }
        if via_prufer != via_levels:
            prufer_ok = False
            break
    report("5 oracle self-check", counts_ok and prufer_ok)


def test_criterion_6_incremental_arithmetic():
    """On every pool tree of order <= 12, every vertex v at depth d has
    T(v) - T(root) = n * d - 2P(v) by BFS, P(v) being the sum of the
    subtree sizes on its root path; the stored level bitsets equal the
    doubled path sums derived from the parent array; the level
    transmissions derived from the parent array equal BFS-computed ones;
    and the edge-step identity holds on every edge."""
    pool = generate_wti_trees(12, 12)
    levels_ok = True
    edges_ok = True
    for k in range(1, 13):
        for tree in pool[k]:
            bfs = transmissions_bfs(tree.parents)
            level = levels_from_parents(tree.parents)
            size = subtree_sizes_from_parents(tree.parents)
            path_sum = [0] * k
            for v in range(1, k):
                path_sum[v] = path_sum[tree.parents[v]] + size[v]
                if k * level[v] - 2 * path_sum[v] != bfs[v] - bfs[0]:
                    levels_ok = False
            if level_sets(tree) != [set(values) for values in level_path_sums(tree.parents)]:
                levels_ok = False
            grouped = tuple(
                tuple(bfs[v] for v in range(tree.order) if level[v] == i)
                for i in range(len(tree.levels))
            )
            if grouped != level_transmissions(tree.parents):
                levels_ok = False
            for x in range(1, tree.order):
                if bfs[x] - bfs[tree.parents[x]] != tree.order - 2 * size[x]:
                    edges_ok = False
    report("6 incremental arithmetic vs BFS", levels_ok and edges_ok)


def test_criterion_7_degree_cap():
    """census(n=20, m) is coordinatewise nondecreasing in m and reaches
    the unbounded census at m = 19."""
    n = 20
    unbounded = generate_ti_trees(n)
    previous = None
    monotone = True
    for m in range(2, n):
        current = generate_ti_trees(n, m)
        if previous is not None and any(previous[k] > current[k] for k in current):
            monotone = False
        previous = current
    report("7 degree-cap behavior n=20", monotone and previous == unbounded)


def test_criterion_8_format_round_trips():
    """Both decoders recover the edge set of every TI tree of order <= 14;
    the '@' and 'A_' lines hold."""
    literals_ok = (
        graph6_line((0,)) == b"@\n"
        and graph6_line(join_wti_trees([SINGLE_VERTEX]).parents) == b"A_\n"
    )
    trees = []
    generate_ti_trees(14, None, trees.append)
    round_trips_ok = True
    for parents in trees:
        edges = to_edge_list(parents)
        if decode_graph6(graph6_line(parents)) != (len(parents), edges):
            round_trips_ok = False
        if decode_sparse6(sparse6_line(parents)) != (len(parents), edges):
            round_trips_ok = False
    report("8 format round-trips", literals_ok and round_trips_ok, f"{len(trees)} trees")


def test_criterion_9_determinism_and_parallel(capsysbinary):
    """Deterministic runs are byte-identical; a parallel census equals the
    deterministic one for n_max = 24."""
    cli.main(["-p", "20", "--threads", "1"])
    first = capsysbinary.readouterr().out
    cli.main(["-p", "20", "--threads", "1"])
    second = capsysbinary.readouterr().out

    serial = generate_ti_trees(24)
    parallel = generate_ti_trees(24, workers=2)
    with capsysbinary.disabled():
        report(
            "9 determinism and parallel consistency",
            first == second and serial == parallel,
            f"{len(first.splitlines())} lines compared",
        )
