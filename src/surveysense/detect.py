"""End-to-end screening for which variables to weight on.

Fits the conditional-dependence graph from raw columns, enumerates every
dependence path between the outcome and the sampling set, and solves for
a smallest fully observed blocking set. A breadth-first walk over the
graph then looks for a path the set misses (one longer than path
enumeration reaches); each such path becomes one more row of the cover,
which is solved again until the walk finds none. The report says what to
weight on, or why no defensible set exists and what to do instead.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .cover import (
    STATUS_DIRECT,
    STATUS_FOUND,
    SeparatingSetResult,
    solve_separating_set,
)
from .errors import DetectionError
from .mrf import MixedGraph, fit_mrf
from .paths import PathMatrix, enumerate_paths

__all__ = ["DetectionReport", "detect", "graph_to_dot"]


@dataclass(frozen=True)
class DetectionReport:
    graph: MixedGraph
    path_matrix: PathMatrix
    result: SeparatingSetResult
    outcome: str
    sampling_set: tuple[str, ...]
    partial: tuple[str, ...]
    recommendation: str

    @property
    def status(self) -> str:
        return self.result.status

    @property
    def separating_set(self) -> tuple[str, ...]:
        return self.result.nodes

    def to_dict(self) -> dict:
        """JSON-ready summary; floats stay floats, everything else str/int."""
        return {
            "outcome": self.outcome,
            "sampling_set": list(self.sampling_set),
            "partial": list(self.partial),
            "nodes": list(self.graph.names),
            "kinds": list(self.graph.kinds),
            "node_lambdas": [
                float(self.graph.node_lambdas[name]) for name in self.graph.names
            ],
            "edges": [
                {"a": a, "b": b, "weight": float(w)} for a, b, w in self.graph.edges()
            ],
            "flags": list(self.graph.flags),
            "path_count": self.path_matrix.n_paths,
            "status": self.result.status,
            "separating_set": list(self.result.nodes),
            "certificate": [
                {"path": list(path), "blocked_by": blocker}
                for path, blocker in zip(self.path_matrix.paths, self.result.certificate)
            ],
            "blocked_paths": [list(path) for path in self.result.blocked_paths],
            "relaxed_set": list(self.result.relaxed_nodes),
            "relaxed_partial": list(self.result.relaxed_partial),
            "recommendation": self.recommendation,
        }


def _recommendation(result: SeparatingSetResult, partial: tuple[str, ...]) -> str:
    if result.status == STATUS_FOUND:
        if not result.nodes:
            return (
                "no dependence path links the outcome to the sampling set; "
                "the fitted graph supports unweighted estimation"
            )
        return "weight on {" + ", ".join(result.nodes) + "} to block every dependence path"
    culprits = sorted({path[-1] for path in result.blocked_paths} | set(result.relaxed_partial))
    shown = ", ".join(culprits) if culprits else ", ".join(partial)
    if result.status == STATUS_DIRECT:
        head = (
            "the outcome depends directly on partially observed node(s) "
            f"{{{shown}}}; no fully observed blocking set exists"
        )
    else:
        head = (
            "every blocker on some dependence path is partially observed "
            f"({{{shown}}}); no fully observed blocking set exists"
        )
    if result.relaxed_nodes:
        return (
            head
            + "; weight on {"
            + ", ".join(result.relaxed_nodes)
            + "} and sweep the posited margins of {"
            + ", ".join(result.relaxed_partial)
            + "}"
        )
    return head


def detect(
    columns: Mapping[str, np.ndarray],
    kinds: Mapping[str, str],
    outcome: str,
    sampling_set: Sequence[str],
    partial: Sequence[str] = (),
    *,
    lam: float | str = "cv",
    seed: int = 0,
) -> DetectionReport:
    """Fit the graph over ``columns`` and screen weighting variables.

    ``sampling_set`` names the variables suspected to drive inclusion;
    ``partial`` flags those among them observed only in the sample.
    """
    names = list(columns)
    if outcome not in names:
        raise DetectionError(f"outcome {outcome!r} is not a data column")
    missing = [v for v in sampling_set if v not in names]
    if missing:
        raise DetectionError(f"sampling-set variables not in the data: {missing}")
    if outcome in set(sampling_set):
        raise DetectionError("the outcome cannot be part of the sampling set")
    stray = sorted(set(partial).difference(sampling_set))
    if stray:
        raise DetectionError(
            f"partial variables must belong to the sampling set; got {stray}"
        )

    graph = fit_mrf(columns, kinds, lam=lam, seed=seed)
    pmat = enumerate_paths(graph, outcome, tuple(sampling_set))
    while True:
        result = solve_separating_set(pmat, tuple(partial))
        blockers = result.nodes if result.status == STATUS_FOUND else result.relaxed_nodes
        leak = _shortest_leak(graph, outcome, tuple(sampling_set), blockers)
        if leak is None:
            break
        # every separator blocks this path too, and the set misses it, so the
        # loop adds a new row each time and ends
        row = frozenset(pmat.columns.index(name) for name in leak[1:])
        pmat = replace(pmat, rows=(*pmat.rows, row), paths=(*pmat.paths, leak))
    return DetectionReport(
        graph=graph,
        path_matrix=pmat,
        result=result,
        outcome=outcome,
        sampling_set=tuple(sampling_set),
        partial=tuple(partial),
        recommendation=_recommendation(result, tuple(partial)),
    )


def _shortest_leak(
    graph: MixedGraph, outcome: str, sampling_set: tuple[str, ...], blockers: tuple[str, ...]
) -> tuple[str, ...] | None:
    """The shortest path from the outcome to the first sampling node that a
    breadth-first walk over ``graph``, in node order, reaches without passing
    a node of ``blockers``; None when the blockers separate them."""
    adjacency = graph.adjacency()
    index = {name: i for i, name in enumerate(graph.names)}
    targets = {index[name] for name in sampling_set}
    cut = {index[name] for name in blockers}
    parent = {index[outcome]: None}
    order = [index[outcome]]
    for i in order:
        for j in np.flatnonzero(adjacency[i]).tolist():
            if j in parent or j in cut:
                continue
            parent[j] = i
            if j in targets:
                path = [j]
                while parent[path[-1]] is not None:
                    path.append(parent[path[-1]])
                return tuple(graph.names[k] for k in reversed(path))
            order.append(j)
    return None


def graph_to_dot(report: DetectionReport) -> str:
    """Graphviz source for the fitted graph with roles styled.

    Outcome doubled, sampling set boxed, partial nodes dashed, selected
    blockers filled. Edge labels carry the dependence weight.
    """
    partial = set(report.partial)
    sampling = set(report.sampling_set)
    selected = set(report.separating_set) | set(report.result.relaxed_nodes)
    lines = ["graph dependence {", "  layout=neato;", "  node [fontname=Helvetica];"]
    for name in report.graph.names:
        attrs = []
        if name == report.outcome:
            attrs.append("shape=doubleoctagon")
        elif name in sampling:
            attrs.append("shape=box")
        if name in partial:
            attrs.append("style=dashed")
        elif name in selected:
            attrs.append('style=filled fillcolor="#cfe3f5"')
        suffix = f" [{' '.join(attrs)}]" if attrs else ""
        lines.append(f"  {_dot_id(name)}{suffix};")
    for a, b, w in report.graph.edges():
        lines.append(f'  {_dot_id(a)} -- {_dot_id(b)} [label="{w:.3f}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_id(name: str) -> str:
    """A node name as a DOT quoted id: each backslash written ``\\\\`` and
    then each quote ``\\"``, the two pairs DOT's quoted-string scanner reads."""
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'
