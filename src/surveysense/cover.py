"""Minimum blocking sets over the path matrix.

Finding the smallest set of fully observed nodes that touches every
outcome-to-sampling-set path is a set-cover problem: rows are paths,
columns are candidate nodes, and a valid weighting set must hit every row.
Solved exactly by branch and bound from a greedy incumbent, pruned by a
packing bound (disjoint rows each need a column of their own) and, only
where that fails, by the LP relaxation (HiGHS), which is never weaker: the
search finds the cover the LP bound alone finds, in no more nodes. When
partially observed nodes make full coverage impossible, a relaxed solve
reports the cover using as few partial nodes as possible.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from math import ceil

import numpy as np

from .errors import DetectionError
from .paths import PathMatrix

__all__ = ["SeparatingSetResult", "solve_separating_set"]

STATUS_FOUND = "found"
STATUS_NONE = "none-exists"
STATUS_DIRECT = "direct-edge-blocker"

NODE_LIMIT = 100_000


@dataclass(frozen=True)
class SeparatingSetResult:
    status: str
    nodes: tuple[str, ...]
    certificate: tuple[str, ...]  # blocker per path, aligned with the path matrix
    blocked_paths: tuple[tuple[str, ...], ...]
    relaxed_nodes: tuple[str, ...]
    relaxed_partial: tuple[str, ...]
    nodes_explored: int


def _lp_bound(rows: list[frozenset[int]], costs: dict[int, float]) -> float:
    from scipy.optimize import linprog

    cols = sorted(set().union(*rows))
    pos = {j: k for k, j in enumerate(cols)}
    a_ub = np.zeros((len(rows), len(cols)))
    for r, row in enumerate(rows):
        for j in row:
            a_ub[r, pos[j]] = -1.0
    c = np.array([costs[j] for j in cols])
    res = linprog(
        c,
        A_ub=a_ub,
        b_ub=-np.ones(len(rows)),
        bounds=[(0.0, 1.0)] * len(cols),
        method="highs",
    )
    if not res.success:  # every row has a column, so only numeric failure lands here
        return 0.0
    return float(res.fun)


def _packing_bound(rows: list[frozenset[int]], costs: dict[int, float]) -> float:
    """A cover pays for a distinct column of each row in a greedy set of
    pairwise disjoint rows: at least their cheapest costs, summed."""
    used, total = set(), 0.0
    for row in rows:
        if used.isdisjoint(row):
            used |= row
            total += min(costs[j] for j in row)
    return total


def _reduce_rows(rows: list[frozenset[int]]) -> list[frozenset[int]]:
    """Unique rows with supersets dropped (covering a subset covers them)."""
    unique = sorted(set(rows), key=lambda row: (len(row), sorted(row)))
    kept: list[frozenset[int]] = []
    for row in unique:
        if not any(small < row for small in kept):
            kept.append(row)
    return kept


def _greedy_cover(rows: list[frozenset[int]], costs: dict[int, float]) -> set[int]:
    uncovered = list(rows)
    chosen: set[int] = set()
    while uncovered:
        counts: dict[int, int] = {}
        for row in uncovered:
            for j in row:
                counts[j] = counts.get(j, 0) + 1
        best = min(counts, key=lambda j: (-counts[j] / costs[j], j))
        chosen.add(best)
        uncovered = [row for row in uncovered if best not in row]
    return chosen


def _min_cost_cover(
    rows: list[frozenset[int]], costs: dict[int, float]
) -> tuple[set[int], int]:
    """Exact minimum-cost cover; returns (cover, nodes explored).

    Costs are integral, so LP bounds are rounded up before pruning.
    """
    forced: set[int] = set()
    active = _reduce_rows(rows)
    while True:
        singles = [next(iter(row)) for row in active if len(row) == 1]
        if not singles:
            break
        forced.update(singles)
        active = _reduce_rows(
            [row for row in active if not row.intersection(forced)]
        )
    base_cost = sum(costs[j] for j in forced)
    if not active:
        return forced, 0

    incumbent = forced | _greedy_cover(active, costs)
    best_cost = sum(costs[j] for j in incumbent)
    explored = 0

    def dfs(uncovered: list[frozenset[int]], chosen: set[int], cost: float) -> None:
        nonlocal incumbent, best_cost, explored
        explored += 1
        if explored > NODE_LIMIT:
            raise DetectionError(
                f"set-cover search exceeded {NODE_LIMIT} nodes; "
                "the graph is too dense to verify exactly"
            )
        if not uncovered:
            if cost < best_cost:
                best_cost = cost
                incumbent = set(chosen)
            return
        if cost + _packing_bound(uncovered, costs) >= best_cost or (
                cost + ceil(_lp_bound(uncovered, costs) - 1e-9) >= best_cost):
            return
        branch_row = min(uncovered, key=lambda row: (len(row), sorted(row)))
        for j in sorted(branch_row, key=lambda j: (costs[j], j)):
            chosen.add(j)
            dfs([row for row in uncovered if j not in row], chosen, cost + costs[j])
            chosen.discard(j)

    dfs(active, set(forced), float(base_cost))
    return incumbent, explored


def solve_separating_set(pmat: PathMatrix, partial: tuple[str, ...] = ()) -> SeparatingSetResult:
    """Smallest fully observed node set covering every path.

    Partial nodes cannot serve as blockers. A path whose nodes are all
    partial makes exact blocking impossible: a two-node path (a direct
    edge into a partial node) yields ``direct-edge-blocker``, anything
    longer ``none-exists``. Both failure statuses carry a relaxed cover
    minimising first the number of partial nodes used, then total size.
    """
    unknown = set(partial).difference(pmat.columns)
    if unknown:
        raise DetectionError(
            f"partial nodes not among path-matrix columns: {sorted(unknown)}"
        )
    partial_idx = {pmat.columns.index(name) for name in partial}

    all_rows = [frozenset(compress(range(len(pmat.columns)), row)) for row in pmat.matrix.tolist()]
    allowed_rows = [row.difference(partial_idx) for row in all_rows]
    blocked = [r for r, row in enumerate(allowed_rows) if not row]

    if blocked:
        status = (
            STATUS_DIRECT
            if any(pmat.is_direct[r] for r in blocked)
            else STATUS_NONE
        )
        penalty = float(len(pmat.columns) + 1)
        costs = {j: penalty if j in partial_idx else 1.0 for j in range(len(pmat.columns))}
        cover, _ = _min_cost_cover(all_rows, costs)
        relaxed_nodes = tuple(sorted(pmat.columns[j] for j in cover))
        relaxed_partial = tuple(name for name in relaxed_nodes if name in set(partial))
        return SeparatingSetResult(
            status=status,
            nodes=(),
            certificate=(),
            blocked_paths=tuple(pmat.paths[r] for r in blocked),
            relaxed_nodes=relaxed_nodes,
            relaxed_partial=relaxed_partial,
            nodes_explored=0,
        )

    costs = {j: 1.0 for j in range(len(pmat.columns))}
    cover, explored = _min_cost_cover(allowed_rows, costs)
    names = tuple(sorted(pmat.columns[j] for j in cover))
    certificate = []
    for row in allowed_rows:
        hit = sorted(row.intersection(cover))
        if not hit:
            raise DetectionError("cover verification failed; solver bug")
        certificate.append(pmat.columns[hit[0]])
    return SeparatingSetResult(
        status=STATUS_FOUND,
        nodes=names,
        certificate=tuple(certificate),
        blocked_paths=(),
        relaxed_nodes=(),
        relaxed_partial=(),
        nodes_explored=explored,
    )
