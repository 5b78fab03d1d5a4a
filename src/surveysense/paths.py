"""Simple-path enumeration between the outcome and the sampling set.

Every simple path from the outcome node to any sampling-set node is a
dependence channel that weighting must block. Each path becomes one row:
the set of candidate nodes (every node except the outcome) lying on it,
all of which are eligible to block it by conditioning. A direct edge has a
single candidate, its own endpoint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DetectionError
from .mrf import MixedGraph

__all__ = ["PathMatrix", "enumerate_paths"]

MAX_PATH_EDGES = 8
PATH_CAP = 1_000_000


@dataclass(frozen=True)
class PathMatrix:
    """Paths as rows over candidate blocker columns.

    ``rows[r]`` holds the indices into ``columns`` of the candidates on path
    r (the outcome is never a candidate). ``paths`` keeps the full node
    sequences for certificates and reporting.
    """

    columns: tuple[str, ...]
    rows: tuple[frozenset[int], ...]
    paths: tuple[tuple[str, ...], ...]

    @property
    def matrix(self) -> np.ndarray:
        """The rows as a bool (n_paths, n_candidates) matrix."""
        matrix = np.zeros((len(self.rows), len(self.columns)), dtype=bool)
        for r, row in enumerate(self.rows):
            matrix[r, list(row)] = True
        return matrix

    @property
    def n_paths(self) -> int:
        return len(self.paths)


def enumerate_paths(graph: MixedGraph, outcome: str, sampling_set: tuple[str, ...]) -> PathMatrix:
    """All simple paths of up to ``MAX_PATH_EDGES`` edges from the outcome
    into the sampling set.

    A path is recorded at every sampling-set node it reaches, including
    nodes passed through on the way to another; recording more than
    ``PATH_CAP`` paths raises ``DetectionError``.
    """
    if outcome not in graph.names:
        raise DetectionError(f"outcome {outcome!r} is not a graph node")
    targets = set(sampling_set)
    if outcome in targets:
        raise DetectionError("the outcome cannot be part of the sampling set")
    missing = targets.difference(graph.names)
    if missing:
        raise DetectionError(f"sampling-set nodes not in the graph: {sorted(missing)}")

    adjacency = graph.adjacency()
    index = {name: i for i, name in enumerate(graph.names)}
    neighbor_lists = {
        name: [graph.names[j] for j in np.flatnonzero(adjacency[index[name]])]
        for name in graph.names
    }

    found: list[tuple[str, ...]] = []
    on_path = {outcome}
    path = [outcome]

    def walk(node: str) -> None:
        for neighbor in neighbor_lists[node]:
            if neighbor in on_path:
                continue
            path.append(neighbor)
            on_path.add(neighbor)
            if neighbor in targets:
                found.append(tuple(path))
                if len(found) > PATH_CAP:
                    raise DetectionError(
                        f"more than {PATH_CAP} paths between {outcome!r} and the sampling set"
                    )
            if len(path) - 1 < MAX_PATH_EDGES:
                walk(neighbor)
            on_path.discard(neighbor)
            path.pop()

    walk(outcome)

    columns = tuple(name for name in graph.names if name != outcome)
    col_index = {name: c for c, name in enumerate(columns)}
    return PathMatrix(
        columns=columns,
        rows=tuple(frozenset(col_index[name] for name in nodes[1:]) for nodes in found),
        paths=tuple(found),
    )
