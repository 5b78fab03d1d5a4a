"""Detection pipeline: graph fit, path screen, recommendation text."""

import importlib
import json
import re
from unittest import mock

import numpy as np
import pytest

from surveysense import detect, enumerate_paths, solve_separating_set
from surveysense.cover import STATUS_DIRECT, STATUS_FOUND
from surveysense.detect import graph_to_dot
from surveysense.errors import DetectionError
from surveysense.mrf import MixedGraph, fit_mrf
from surveysense.simulate import gaussian_mrf_sample


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


def test_paths_past_the_edge_limit_fail_detection():
    # On an 11-node chain the outcome reaches c10 only along 10 edges, past
    # MAX_PATH_EDGES = 8: no path is enumerated and the empty set is found,
    # so the walk over the graph must refuse it rather than recommend
    # unweighted estimation. With a partial node p on a direct edge, the
    # relaxed set {p} is the one walked.
    detect_module = importlib.import_module("surveysense.detect")
    names = tuple(f"c{i:02d}" for i in range(11)) + ("p",)
    weights = np.zeros((12, 12))
    for i, j in [(i, i + 1) for i in range(10)] + [(0, 11)]:
        weights[i, j] = weights[j, i] = 1.0
    kinds = dict.fromkeys(names, "continuous")
    graph = MixedGraph(names, kinds, weights, dict.fromkeys(names, 0.0))
    result = solve_separating_set(enumerate_paths(graph, "c00", ("c10",)))
    assert (result.status, result.nodes, result.certificate) == (STATUS_FOUND, (), ())

    def leak(blockers):
        return re.escape(
            "sampling-set node(s) ['c10'] stay connected to 'c00' past the blocking set "
            f"{blockers}, by paths longer than the 8 edges (MAX_PATH_EDGES) that path "
            "enumeration covers"
        )

    with pytest.raises(DetectionError, match=leak([])):
        detect_module._check_separated(graph, "c00", ("c10",), result.nodes)
    detect_module._check_separated(graph, "c00", ("c10",), ("c05",))
    columns = {name: np.zeros(3) for name in names}
    with mock.patch.object(detect_module, "fit_mrf", lambda *args, **kwargs: graph):
        with pytest.raises(DetectionError, match=leak([])):
            detect(columns, kinds, "c00", ("c10",))
        with pytest.raises(DetectionError, match=leak(["p"])):
            detect(columns, kinds, "c00", ("p", "c10"), partial=("p",))


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
