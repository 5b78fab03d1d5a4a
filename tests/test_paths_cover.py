"""Path enumeration and the exact minimum blocking-set solver."""

import dataclasses
import itertools
import math
from unittest import mock

import numpy as np
import pytest

import surveysense.paths as paths
from surveysense import cover, enumerate_paths, solve_separating_set
from surveysense.cover import STATUS_DIRECT, STATUS_FOUND, STATUS_NONE
from surveysense.errors import DetectionError
from surveysense.mrf import MixedGraph
from surveysense.paths import PathMatrix


def graph_from_edges(names, edges):
    weights = np.zeros((len(names), len(names)))
    idx = {n: i for i, n in enumerate(names)}
    for a, b in edges:
        weights[idx[a], idx[b]] = weights[idx[b], idx[a]] = 1.0
    return MixedGraph(
        names=tuple(names),
        kinds={n: "continuous" for n in names},
        weights=weights,
        node_lambdas={n: 0.0 for n in names},
    )


CHAIN = graph_from_edges(("y", "v", "x"), [("y", "v"), ("v", "x")])
CYCLE = graph_from_edges(
    ("y", "a", "b", "v"), [("y", "a"), ("a", "v"), ("y", "b"), ("b", "v")]
)


class TestEnumeratePaths:
    @staticmethod
    def test_chain_single_path():
        pmat = enumerate_paths(CHAIN, "y", ("x",))
        assert pmat.paths == (("y", "v", "x"),)
        assert pmat.columns == ("v", "x")
        assert pmat.rows == (frozenset({0, 1}),)
        np.testing.assert_array_equal(pmat.matrix, [[True, True]])

    @staticmethod
    def test_cycle_two_routes():
        pmat = enumerate_paths(CYCLE, "y", ("v",))
        assert sorted(pmat.paths) == [("y", "a", "v"), ("y", "b", "v")]

    @staticmethod
    def test_path_recorded_at_every_target_passed():
        line = graph_from_edges(("y", "s1", "s2"), [("y", "s1"), ("s1", "s2")])
        pmat = enumerate_paths(line, "y", ("s1", "s2"))
        assert ("y", "s1") in pmat.paths
        assert ("y", "s1", "s2") in pmat.paths

    @staticmethod
    def test_max_len_cuts_long_paths():
        # paths.MAX_PATH_EDGES is 8: a chain of 8 edges is one path, of 9 none
        for edges, n_paths in ((paths.MAX_PATH_EDGES, 1), (paths.MAX_PATH_EDGES + 1, 0)):
            names = ("y",) + tuple(f"m{i}" for i in range(1, edges)) + ("x",)
            chain = graph_from_edges(names, list(zip(names[:-1], names[1:])))
            assert enumerate_paths(chain, "y", ("x",)).n_paths == n_paths

    @staticmethod
    def test_cap_is_enforced():
        with mock.patch.object(paths, "PATH_CAP", 1), \
                pytest.raises(DetectionError, match="more than 1 paths"):
            enumerate_paths(CYCLE, "y", ("v",))

    @staticmethod
    def test_node_validation():
        with pytest.raises(DetectionError):
            enumerate_paths(CHAIN, "z", ("x",))
        with pytest.raises(DetectionError):
            enumerate_paths(CHAIN, "y", ("y",))
        with pytest.raises(DetectionError):
            enumerate_paths(CHAIN, "y", ("q",))


class TestSolveSeparatingSet:
    @staticmethod
    def test_chain_blocked_by_middle_node():
        result = solve_separating_set(enumerate_paths(CHAIN, "y", ("x",)))
        assert result.status == STATUS_FOUND
        assert result.nodes == ("v",)
        assert result.certificate == ("v",)

    @staticmethod
    def test_cycle_with_partial_terminal_needs_both_routes():
        pmat = enumerate_paths(CYCLE, "y", ("v",))
        result = solve_separating_set(pmat, partial=("v",))
        assert result.status == STATUS_FOUND
        assert result.nodes == ("a", "b")

    @staticmethod
    def test_cycle_without_partial_uses_shared_terminal():
        result = solve_separating_set(enumerate_paths(CYCLE, "y", ("v",)))
        assert result.nodes == ("v",)

    @staticmethod
    def test_direct_edge_to_partial_is_unblockable():
        direct = graph_from_edges(("y", "v"), [("y", "v")])
        result = solve_separating_set(
            enumerate_paths(direct, "y", ("v",)), partial=("v",)
        )
        assert result.status == STATUS_DIRECT
        assert result.nodes == ()
        assert result.blocked_paths == (("y", "v"),)
        assert result.relaxed_nodes == ("v",)
        assert result.relaxed_partial == ("v",)

    @staticmethod
    def test_all_partial_long_path_reports_none_exists():
        pmat = enumerate_paths(CHAIN, "y", ("x",))
        result = solve_separating_set(pmat, partial=("v", "x"))
        assert result.status == STATUS_NONE
        assert result.relaxed_partial  # fallback had to spend a partial node

    @staticmethod
    def test_unknown_partial_rejected():
        with pytest.raises(DetectionError, match="partial"):
            solve_separating_set(enumerate_paths(CHAIN, "y", ("x",)), partial=("q",))


def brute_force_min_cover(matrix):
    """Smallest column subset hitting every row, by exhaustive search."""
    n_rows, n_cols = matrix.shape
    row_masks = [
        int("".join("1" if matrix[r, c] else "0" for c in range(n_cols))[::-1], 2)
        for r in range(n_rows)
    ]
    for size in range(n_cols + 1):
        for combo in itertools.combinations(range(n_cols), size):
            mask = sum(1 << c for c in combo)
            if all(row & mask for row in row_masks):
                return size
    return None


def random_path_matrix(rng, q):
    columns = tuple(f"n{j}" for j in range(q))
    rows = tuple(
        frozenset(rng.choice(q, size=int(rng.integers(1, max(2, q // 2))), replace=False).tolist())
        for _ in range(int(rng.integers(1, 10)))
    )
    paths = tuple(("y",) + tuple(columns[j] for j in sorted(row)) for row in rows)
    return PathMatrix(columns=columns, rows=rows, paths=paths)


def test_solver_matches_exhaustive_search():
    rng = np.random.default_rng(77)
    for _ in range(60):
        pmat = random_path_matrix(rng, q=int(rng.integers(3, 9)))
        result = solve_separating_set(pmat)
        expected = brute_force_min_cover(pmat.matrix)
        assert result.status == STATUS_FOUND
        assert len(result.nodes) == expected
        chosen = set(result.nodes)
        for row in pmat.matrix:
            assert chosen & {pmat.columns[j] for j in np.flatnonzero(row)}


# --- the LP-only search, the oracle of the packing-first one -------------------
# The branch and bound as it ran before the packing bound: every search node
# solves the LP relaxation. A packing bound never exceeds the LP value, and the
# LP still runs wherever the packing bound cannot prune, so the package must
# return the same cover and explore no more nodes.


def _lp_only_cover(rows, costs):
    forced = set()
    active = cover._reduce_rows(rows)
    while True:
        singles = [next(iter(row)) for row in active if len(row) == 1]
        if not singles:
            break
        forced.update(singles)
        active = cover._reduce_rows([row for row in active if not row.intersection(forced)])
    if not active:
        return forced, 0
    incumbent = forced | cover._greedy_cover(active, costs)
    best_cost = sum(costs[j] for j in incumbent)
    explored = 0

    def dfs(uncovered, chosen, cost):
        nonlocal incumbent, best_cost, explored
        explored += 1
        if explored > cover.NODE_LIMIT:
            raise DetectionError("node limit")
        if not uncovered:
            if cost < best_cost:
                best_cost, incumbent = cost, set(chosen)
            return
        if cost + math.ceil(cover._lp_bound(uncovered, costs) - 1e-9) >= best_cost:
            return
        branch_row = min(uncovered, key=lambda row: (len(row), sorted(row)))
        for j in sorted(branch_row, key=lambda j: (costs[j], j)):
            chosen.add(j)
            dfs([row for row in uncovered if j not in row], chosen, cost + costs[j])
            chosen.discard(j)

    dfs(active, set(forced), float(sum(costs[j] for j in forced)))
    return incumbent, explored


def _dense_rows(seed, q=30, n_rows=350):
    """Rows of 2-4 of ``q`` columns, column j drawn with weight
    (j + 1) ** -0.8, so that most rows share a few popular columns."""
    rng = np.random.default_rng(seed)
    weights = np.arange(1, q + 1) ** -0.8
    weights /= weights.sum()
    return [
        frozenset(rng.choice(q, size=int(rng.integers(2, 5)), replace=False, p=weights).tolist())
        for _ in range(n_rows)
    ]


def _assert_matches_lp_only(rows, costs):
    got, explored = cover._min_cost_cover(rows, costs)
    want, want_explored = _lp_only_cover(rows, costs)
    assert got == want
    assert explored <= want_explored
    return got, explored, want_explored


def test_packing_first_search_matches_lp_only_oracle():
    rng = np.random.default_rng(12)
    for _ in range(60):
        pmat = random_path_matrix(rng, q=int(rng.integers(3, 13)))
        rows = list(pmat.rows)
        q = len(pmat.columns)
        _assert_matches_lp_only(rows, dict.fromkeys(range(q), 1.0))
        # partial nodes cost q + 1, as in the relaxed cover
        partial = set(rng.choice(q, size=int(rng.integers(1, q)), replace=False).tolist())
        _assert_matches_lp_only(rows, {j: q + 1.0 if j in partial else 1.0 for j in range(q)})
        # and through the public solver: the same sets and certificates
        names = tuple(pmat.columns[j] for j in sorted(partial))
        with mock.patch.object(cover, "_min_cost_cover", _lp_only_cover):
            want = solve_separating_set(pmat, names)
        got = solve_separating_set(pmat, names)
        assert got.nodes_explored <= want.nodes_explored
        assert dataclasses.replace(got, nodes_explored=0) == dataclasses.replace(
            want, nodes_explored=0
        )


def test_relaxed_solve_reports_its_search_count():
    # a row of partial nodes alone makes the status a failure; the relaxed
    # cover's search count is reported, not dropped
    rows = tuple(_dense_rows(0)) + (frozenset({28, 29}),)
    columns = tuple(f"n{j:02d}" for j in range(30))
    pmat = PathMatrix(columns, rows, tuple(("y", *(columns[j] for j in sorted(row))) for row in rows))
    result = solve_separating_set(pmat, partial=("n28", "n29"))
    assert result.status == STATUS_NONE
    costs = {j: 31.0 if j >= 28 else 1.0 for j in range(30)}
    _, explored = cover._min_cost_cover(list(rows), costs)
    assert result.nodes_explored == explored > 0


@pytest.mark.parametrize("seed", [0, 2, 5])
def test_dense_instances_match_lp_only_oracle(seed):
    _, explored, _ = _assert_matches_lp_only(_dense_rows(seed), dict.fromkeys(range(30), 1.0))
    assert explored > 1


FANO_LINES = [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5)]


def test_packing_bound_alone_would_pass_the_node_limit():
    # four disjoint Fano planes on 28 of 30 columns: any two lines of a plane
    # meet, so a packing takes one line per plane, a bound of 4 where a cover
    # needs 3 points per plane; the LP relaxation (7/3 per plane) is what
    # keeps the search in hand
    rows = [frozenset(7 * plane + j for j in line) for plane in range(4) for line in FANO_LINES]
    costs = dict.fromkeys(range(30), 1.0)
    with mock.patch.object(cover, "_lp_bound", lambda rows, costs: 0.0), \
            pytest.raises(DetectionError, match="exceeded"):
        cover._min_cost_cover(rows, costs)
    got, explored, want_explored = _assert_matches_lp_only(rows, costs)
    assert len(got) == 12
    assert explored == want_explored < cover.NODE_LIMIT
