"""Detection pipeline: graph fit, path screen, recommendation text."""

import importlib
import itertools
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surveysense import detect, enumerate_paths, solve_separating_set
from surveysense.cover import STATUS_DIRECT, STATUS_FOUND
from surveysense.detect import graph_to_dot
from surveysense.errors import DetectionError
from surveysense.mrf import fit_mrf
from surveysense.simulate import gaussian_mrf_sample
from test_paths_cover import graph_from_edges


def chain_data(n=2000, seed=0):
    precision = np.array([[1.0, 0.6, 0.0], [0.6, 2.0, 0.6], [0.0, 0.6, 1.0]])
    cols = gaussian_mrf_sample(precision, ("x", "v", "y"), n, seed=seed)
    return cols, {k: "continuous" for k in cols}


def cycle_data(n=2000, seed=0):
    precision = np.array(
        [
            [2.0, 0.8, 0.8, 0.0],
            [0.8, 2.0, 0.0, 0.8],
            [0.8, 0.0, 2.0, 0.8],
            [0.0, 0.8, 0.8, 2.0],
        ]
    )
    cols = gaussian_mrf_sample(precision, ("y", "a", "b", "v"), n, seed=seed)
    return cols, {k: "continuous" for k in cols}


def test_chain_yields_single_blocker():
    cols, kinds = chain_data()
    report = detect(cols, kinds, "y", ("x",))
    assert report.status == STATUS_FOUND
    assert len(report.separating_set) == 1
    chosen = report.separating_set[0]
    assert all(chosen in path for path in report.path_matrix.paths)
    assert f"weight on {{{chosen}}}" in report.recommendation


def test_chain_with_partial_terminal_forces_middle():
    cols, kinds = chain_data()
    report = detect(cols, kinds, "y", ("x",), partial=("x",))
    assert report.status == STATUS_FOUND
    assert report.separating_set == ("v",)


def test_cycle_with_partial_terminal():
    cols, kinds = cycle_data()
    report = detect(cols, kinds, "y", ("v",), partial=("v",))
    assert report.separating_set == ("a", "b")
    edges = {frozenset((a, b)) for a, b, _ in report.graph.edges()}
    assert frozenset(("y", "v")) not in edges


def test_direct_dependence_on_partial_node():
    rng = np.random.default_rng(4)
    n = 3000
    v = rng.standard_normal(n)
    y = 1.5 * v + 0.5 * rng.standard_normal(n)
    report = detect(
        {"v": v, "y": y},
        {"v": "continuous", "y": "continuous"},
        "y",
        ("v",),
        partial=("v",),
    )
    assert report.status == STATUS_DIRECT
    assert report.result.relaxed_partial == ("v",)
    assert "sweep the posited margins" in report.recommendation


def graph_of(names, edges):
    """The unit-weight graph over ``names`` with ``edges`` as index pairs."""
    return graph_from_edges(names, [(names[i], names[j]) for i, j in edges])


def detect_on(graph, outcome, sampling_set, partial=()):
    """``detect`` with the graph fit replaced by ``graph``."""
    detect_module = importlib.import_module("surveysense.detect")
    columns = {name: np.zeros(3) for name in graph.names}
    with mock.patch.object(detect_module, "fit_mrf", lambda *args, **kwargs: graph):
        return detect(columns, graph.kinds, outcome, sampling_set, partial)


def reached(graph, outcome, blockers):
    """Every node an unlimited breadth-first walk from the outcome reaches
    without passing a blocker."""
    adjacency, index = graph.adjacency(), {name: i for i, name in enumerate(graph.names)}
    seen = {index[outcome]}
    frontier = [index[outcome]]
    while frontier:
        for j in np.flatnonzero(adjacency[frontier.pop()]).tolist():
            if j not in seen and graph.names[j] not in blockers:
                seen.add(j)
                frontier.append(j)
    return {graph.names[i] for i in seen}


def smallest_separator(graph, outcome, sampling_set, partial):
    """The size of a smallest fully observed separating set, by exhaustive search."""
    candidates = [n for n in graph.names if n != outcome and n not in partial]
    for size in range(len(candidates) + 1):
        for combo in itertools.combinations(candidates, size):
            if reached(graph, outcome, set(combo)).isdisjoint(sampling_set):
                return size
    return None


def test_paths_past_the_edge_limit_become_rows():
    # On an 11-node chain the outcome reaches c10 only along 10 edges, past
    # paths.MAX_PATH_EDGES = 8: no path is enumerated and the empty set is
    # found, so the walk over the graph finds the chain, which becomes a row.
    # With a partial node p on a direct edge, the relaxed set {p} is walked
    # and gains c01 the same way.
    names = tuple(f"c{i:02d}" for i in range(11)) + ("p",)
    graph = graph_of(names, [(i, i + 1) for i in range(10)] + [(0, 11)])
    result = solve_separating_set(enumerate_paths(graph, "c00", ("c10",)))
    assert (result.status, result.nodes, result.certificate) == (STATUS_FOUND, (), ())

    report = detect_on(graph, "c00", ("c10",))
    assert (report.status, report.separating_set) == (STATUS_FOUND, ("c01",))
    assert report.path_matrix.paths == (names[:11],)
    payload = report.to_dict()
    assert payload["path_count"] == 1
    assert payload["certificate"] == [{"path": list(names[:11]), "blocked_by": "c01"}]
    assert report.recommendation == "weight on {c01} to block every dependence path"

    report = detect_on(graph, "c00", ("p", "c10"), partial=("p",))
    assert report.status == STATUS_DIRECT
    assert report.result.relaxed_nodes == ("c01", "p")
    assert report.path_matrix.paths == (("c00", "p"), names[:11])


def test_a_seeded_24_node_graph_blocks_its_one_long_leak():
    # chords only within the first and the last six nodes of a 24-node chain:
    # n03 is reached within 8 edges, n23 only along the 12-edge middle
    rng = np.random.default_rng(24)
    names = tuple(f"n{i:02d}" for i in range(24))
    chords = [tuple(rng.choice(6, size=2, replace=False) + base) for base in (0, 18)
              for _ in range(4)]
    graph = graph_of(names, [(i, i + 1) for i in range(23)] + chords)
    sampling = ("n03", "n23")
    enumerated = enumerate_paths(graph, "n00", sampling)
    assert {path[-1] for path in enumerated.paths} == {"n03"}
    report = detect_on(graph, "n00", sampling)
    assert report.path_matrix.n_paths > enumerated.n_paths
    assert report.path_matrix.paths[-1][-1] == "n23"
    assert report.status == STATUS_FOUND and report.separating_set
    assert reached(graph, "n00", set(report.separating_set)).isdisjoint(sampling)
    assert len(report.separating_set) == smallest_separator(graph, "n00", sampling, ())


@st.composite
def sparse_graphs(draw):
    """A spanning path over 11-16 nodes plus up to three chords, the outcome
    among its first three nodes, one or two sampling nodes in its second
    half, and which of those are partial."""
    n = draw(st.integers(11, 16))
    names = tuple(f"v{i:02d}" for i in range(n))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    chords = draw(st.lists(pairs, max_size=3))
    graph = graph_of(names, [(i, i + 1) for i in range(n - 1)] + chords)
    outcome = names[draw(st.integers(0, 2))]
    sampling = tuple(draw(st.lists(st.sampled_from(names[n // 2:]), min_size=1, max_size=2,
                                   unique=True)))
    partial = tuple(name for name in sampling if draw(st.booleans()))
    return graph, outcome, sampling, partial


@settings(max_examples=300, deadline=None, derandomize=True)
@given(sparse_graphs())
def test_sparse_graphs_get_a_separating_set(case):
    graph, outcome, sampling, partial = case
    report = detect_on(graph, outcome, sampling, partial)
    blockers = report.separating_set if report.status == STATUS_FOUND else report.result.relaxed_nodes
    assert reached(graph, outcome, set(blockers)).isdisjoint(sampling)
    if report.status == STATUS_FOUND:
        assert len(blockers) == smallest_separator(graph, outcome, sampling, partial)


@st.composite
def small_graphs(draw):
    """Any graph of 2-9 nodes, where no simple path exceeds 8 edges."""
    n = draw(st.integers(2, 9))
    names = tuple(f"v{i}" for i in range(n))
    pairs = list(itertools.combinations(range(n), 2))
    edges = [pair for pair in pairs if draw(st.booleans())]
    nodes = draw(st.lists(st.sampled_from(names), min_size=2, max_size=min(n, 4), unique=True))
    partial = tuple(name for name in nodes[1:] if draw(st.booleans()))
    return graph_of(names, edges), nodes[0], tuple(nodes[1:]), partial


@settings(max_examples=150, deadline=None, derandomize=True)
@given(small_graphs())
def test_graphs_within_the_edge_limit_add_no_row(case):
    graph, outcome, sampling, partial = case
    report = detect_on(graph, outcome, sampling, partial)
    assert report.path_matrix == enumerate_paths(graph, outcome, sampling)


def test_input_validation():
    cols, kinds = chain_data(n=100)
    with pytest.raises(DetectionError, match="not a data column"):
        detect(cols, kinds, "z", ("x",))
    with pytest.raises(DetectionError, match="not in the data"):
        detect(cols, kinds, "y", ("q",))
    with pytest.raises(DetectionError, match="cannot be part"):
        detect(cols, kinds, "y", ("y",))
    with pytest.raises(DetectionError, match="belong to the sampling set"):
        detect(cols, kinds, "y", ("x",), partial=("v",))


def test_report_serializes_to_json():
    cols, kinds = chain_data()
    report = detect(cols, kinds, "y", ("x",))
    payload = report.to_dict()
    text = json.dumps(payload)  # raises on stray numpy types
    parsed = json.loads(text)
    assert parsed["status"] == "found"
    assert parsed["separating_set"] == list(report.separating_set)
    assert parsed["nodes"] == ["x", "v", "y"]
    assert len(parsed["node_lambdas"]) == 3
    assert all(isinstance(v, float) for v in parsed["node_lambdas"])
    for entry in parsed["certificate"]:
        assert entry["blocked_by"] in entry["path"]


def test_dot_output_styles_roles():
    cols, kinds = cycle_data()
    report = detect(cols, kinds, "y", ("v",), partial=("v",))
    dot = graph_to_dot(report)
    assert dot.startswith("graph dependence {")
    assert '"y" [shape=doubleoctagon];' in dot
    assert "style=dashed" in dot  # the partial node
    assert dot.count("fillcolor") == 2  # both selected blockers
    assert "--" in dot and dot.rstrip().endswith("}")


def dot_quoted_string(text, start):
    """The quoted string opening at ``text[start]`` with each pair ``\\"``
    and ``\\\\`` read as its second character, as a node's default label
    shows it (the id itself keeps ``\\\\`` as two characters), and the
    index past its closing quote; None when no quote closes it on the
    line."""
    chars, i = [], start + 1
    while i < len(text) and text[i] != "\n":
        if text[i] == '"':
            return "".join(chars), i + 1
        if text[i] == "\\" and text[i + 1 : i + 2] in ('"', "\\"):
            i += 1
        chars.append(text[i])
        i += 1
    return None


def test_dot_ids_read_back_names_holding_a_backslash():
    cols, kinds = chain_data()
    rename = {"x": "a\\", "v": 'x\\"y'}
    cols = {rename.get(k, k): v for k, v in cols.items()}
    kinds = {rename.get(k, k): v for k, v in kinds.items()}
    report = detect(cols, kinds, "y", ("a\\",))
    lines = graph_to_dot(report).splitlines()[3 : 3 + len(report.graph.names)]
    for name, line in zip(report.graph.names, lines):
        start = line.index('"')
        read = dot_quoted_string(line, start)
        assert read is not None, line
        assert read[0] == name
        assert line[read[1]:] == ";" or line[read[1]:].startswith(" [")


def test_detection_is_deterministic():
    cols, kinds = chain_data(n=800, seed=6)
    a = detect(cols, kinds, "y", ("x",), seed=3)
    b = detect(cols, kinds, "y", ("x",), seed=3)
    assert a.to_dict() == b.to_dict()


@pytest.mark.parametrize(
    "lam", [True, False, float("nan"), float("inf"), float("-inf"), 0.0, -0.5, "CV", "", None],
    ids=repr,
)
def test_bad_penalty_is_refused(lam):
    # the config check's rule: "cv" or a finite positive number, not a bool;
    # True would otherwise run every node at 1.0 and NaN or inf return an
    # empty graph
    cols, kinds = chain_data(n=200)
    message = f'lam must be "cv" or a positive number, not {lam!r}'
    with pytest.raises(DetectionError) as err:
        fit_mrf(cols, kinds, lam=lam)
    assert str(err.value) == message
    with pytest.raises(DetectionError) as err:
        detect(cols, kinds, "y", ("x",), lam=lam)
    assert str(err.value) == message


def test_detect_leaves_scipy_optimize_unimported(tmp_path, run_fresh):
    # HiGHS runs only at a search node that the packing bound cannot prune;
    # a chain's one path is pruned at the root, so a detect job never pays
    # for importing scipy.optimize
    cols, _ = chain_data(n=300)
    rows = ["x,v,y"] + [f"{a!r},{b!r},{c!r}" for a, b, c in zip(*(cols[k].tolist() for k in "xvy"))]
    (tmp_path / "survey.csv").write_text("\n".join(rows) + "\n")
    (tmp_path / "margins.csv").write_text("variable,level,value\nv,,0.0\n")
    config = {
        "survey": str(tmp_path / "survey.csv"),
        "margins": str(tmp_path / "margins.csv"),
        "columns": {"x": "continuous", "v": "continuous", "y": "continuous"},
        "outcome": "y",
        "weighting": {"variables": ["v"]},
        "detection": {"sampling_set": ["x"], "lambda": "cv"},
    }
    (tmp_path / "config.json").write_text(json.dumps(config))
    script = f"""
import contextlib, io, json, sys
import surveysense.cli

with contextlib.redirect_stdout(io.StringIO()):
    code = surveysense.cli.main(["detect", "--config", {str(tmp_path / "config.json")!r},
                                 "--out", {str(tmp_path / "out")!r}])
assert code == 0
report = json.loads(open({str(tmp_path / "out" / "detection.json")!r}).read())
assert len(report["separating_set"]) == 1 and len(report["certificate"]) == 1
print(sorted(m for m in sys.modules if m.startswith("scipy.optimize")))
"""
    assert run_fresh(script).strip() == "[]"
