"""Tests for the <R,F,P> framework, I/O, generators, and the bench harness."""

import math

import pytest

from repro.bench.harness import ExperimentResult, available, run_experiment
from repro.bench.metrics import Stopwatch, graph_memory_bytes, ratio_percent, time_call
from repro.core.base import CompressionStats
from repro.graph.digraph import DiGraph
from repro.graph.generators import (
    assign_labels,
    gnm_random_graph,
    layered_dag,
    preferential_attachment_graph,
    random_dag,
    union_disjoint,
)
from repro.graph.io import (
    escape_token,
    read_edge_list,
    read_graph,
    read_json,
    unescape_token,
    write_edge_list,
    write_graph,
    write_json,
)
from repro.graph.traversal import is_acyclic
from repro.queries.reachability import ReachabilityQuery, evaluate_reachability


# ----------------------------------------------------------------------
# CompressionStats
# ----------------------------------------------------------------------
def test_compression_stats_math():
    s = CompressionStats(100, 400, 10, 40)
    assert s.original_size == 500 and s.compressed_size == 50
    assert s.ratio == pytest.approx(0.1)
    assert s.reduction == pytest.approx(0.9)
    assert "ratio" in str(s)
    empty = CompressionStats(0, 0, 0, 0)
    assert empty.ratio == 0.0


# ----------------------------------------------------------------------
# Reachability query objects
# ----------------------------------------------------------------------
def test_reachability_query_objects():
    g = DiGraph.from_edges([(1, 2), (2, 3)])
    q = ReachabilityQuery(1, 3)
    assert q.evaluate(g) is True
    assert q.evaluate(g, algorithm="bibfs") is True
    assert q.evaluate(g, algorithm="dfs") is True
    assert ReachabilityQuery(3, 1).evaluate(g) is False
    rewritten = q.rewrite(lambda v: v * 10)
    assert rewritten == ReachabilityQuery(10, 30)
    assert evaluate_reachability(g, 1, 99) is False  # missing node convention
    with pytest.raises(ValueError):
        evaluate_reachability(g, 1, 2, algorithm="warp")


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------
def test_generator_shapes_and_determinism():
    g1 = gnm_random_graph(20, 50, seed=1)
    g2 = gnm_random_graph(20, 50, seed=1)
    assert g1.structure_equal(g2)
    assert g1.order() == 20 and g1.size() == 50
    with pytest.raises(ValueError):
        gnm_random_graph(5, 100)
    dag = random_dag(20, 40, seed=2)
    assert is_acyclic(dag)
    layered = layered_dag([3, 5, 8], seed=3)
    assert is_acyclic(layered)
    pa = preferential_attachment_graph(30, out_degree=2, reciprocity=0.5, seed=4)
    assert pa.order() == 30
    labeled = assign_labels(gnm_random_graph(10, 10, seed=5), 3, seed=6)
    assert labeled.label_set() <= {"L0", "L1", "L2"}
    both = union_disjoint([g1, dag])
    assert both.order() == g1.order() + dag.order()


# ----------------------------------------------------------------------
# I/O round-trips
# ----------------------------------------------------------------------
def test_edge_list_roundtrip(tmp_path):
    g = gnm_random_graph(15, 40, num_labels=3, seed=7)
    path = tmp_path / "graph.txt"
    write_edge_list(g, path)
    back = read_edge_list(path)
    assert back.structure_equal(g)


def test_plain_snap_file(tmp_path):
    path = tmp_path / "snap.txt"
    path.write_text("# comment\n1\t2\n2\t3\n")
    g = read_edge_list(path)
    assert set(g.edges()) == {(1, 2), (2, 3)}


def test_unescaped_legacy_file_keeps_literal_backslashes(tmp_path):
    """Files without the #!escaped marker load backslashes verbatim."""
    path = tmp_path / "legacy.txt"
    path.write_text("a\\tb\tc\n#!labels\na\\tb\tC:\\temp\n")
    g = read_edge_list(path)
    assert g.has_edge("a\\tb", "c")  # literal backslash-t, not a tab
    assert g.label("a\\tb") == "C:\\temp"


def test_json_roundtrip(tmp_path):
    g = gnm_random_graph(10, 25, num_labels=2, seed=8)
    path = tmp_path / "graph.json"
    write_json(g, path)
    back = read_json(path)
    assert back.order() == g.order() and back.size() == g.size()
    assert sorted(back.labels().values()) == sorted(g.labels().values())


def test_edge_list_hostile_labels_roundtrip(tmp_path):
    """Labels with tabs, newlines, CRs, leading # and backslashes survive."""
    g = DiGraph()
    g.add_edge("u", "v")
    g.set_label("u", "tab\there")
    g.set_label("v", "line\nbreak")
    g.add_node("w", "#looks-like-comment")
    g.add_node("x", "back\\slash\r")
    g.add_node("#!labels", "sentinel-name")  # node named like the section marker
    path = tmp_path / "hostile.txt"
    write_edge_list(g, path)
    back = read_edge_list(path)
    assert back.structure_equal(g)


def test_edge_list_labeled_isolated_node_survives_roundtrip(tmp_path):
    """Regression: a labeled node with no edges must not be dropped."""
    g = DiGraph()
    g.add_edge(1, 2)
    g.add_node(42, "LONELY")
    g.add_node(43)  # isolated with the default label
    path = tmp_path / "isolated.txt"
    write_edge_list(g, path)
    back = read_edge_list(path)
    assert back.structure_equal(g)
    assert back.label(42) == "LONELY"
    assert back.has_node(43)


def test_token_escaping_helpers():
    for raw in ["plain", "a\tb", "x\ny", "#lead", "tr\\icky\\", "\t\n\r#\\",
                " padded ", "  two  ", " ", ""]:
        assert unescape_token(escape_token(raw)) == raw
    assert escape_token("plain") == "plain"  # no-op stays allocation-free
    with pytest.raises(ValueError):
        unescape_token("bad\\q")
    with pytest.raises(ValueError):
        unescape_token("dangling\\")


def test_edge_list_numeric_looking_string_ids_stay_strings(tmp_path):
    """int() coercion must not collapse " 5"/"+7"/"07" onto int nodes."""
    g = DiGraph()
    g.add_edge(5, " 5")
    g.add_edge("+7", "07")
    path = tmp_path / "numericish.txt"
    write_edge_list(g, path)
    back = read_edge_list(path)
    assert back.structure_equal(g)
    assert back.has_node(5) and back.has_node(" 5")


def test_edge_list_boundary_spaces_and_empty_labels(tmp_path):
    """Boundary spaces and empty labels survive the reader's line.strip()."""
    g = DiGraph()
    g.add_edge(" lead", "trail ")
    g.set_label(" lead", " spaced out ")
    g.set_label("trail ", "")
    path = tmp_path / "spaces.txt"
    write_edge_list(g, path)
    back = read_edge_list(path)
    assert back.structure_equal(g)
    assert back.label(" lead") == " spaced out "
    assert back.label("trail ") == ""


def test_format_registry_dispatch(tmp_path):
    g = gnm_random_graph(12, 30, num_labels=2, seed=11)
    for name in ["g.txt", "g.edges", "g.snap", "g.json", "g.rgs"]:
        path = tmp_path / name
        write_graph(g, path)
        back = read_graph(path)
        assert back.order() == g.order() and back.size() == g.size()
    # .rgs and edge-list formats preserve structure exactly.
    assert read_graph(tmp_path / "g.rgs").structure_equal(g)
    assert read_graph(tmp_path / "g.txt").structure_equal(g)
    with pytest.raises(ValueError):
        write_graph(g, tmp_path / "g.unknown")
    with pytest.raises(ValueError):
        read_graph(tmp_path / "g.unknown")


# ----------------------------------------------------------------------
# Bench harness plumbing
# ----------------------------------------------------------------------
def test_metrics_helpers():
    sw = Stopwatch()
    with sw.measure():
        sum(range(100))
    assert sw.total > 0 and len(sw.laps) == 1
    assert time_call(lambda: None) >= 0
    g = DiGraph.from_edges([(1, 2)])
    assert graph_memory_bytes(g) == 16 * 1 + 24 * 2
    assert ratio_percent(1, 4) == 25.0
    assert ratio_percent(1, 0) == 0.0


def test_experiment_result_rendering():
    res = ExperimentResult(
        experiment="demo",
        title="Demo",
        columns=["a", "b"],
        rows=[{"a": 1, "b": 2.5}, {"a": "x", "b": math.pi}],
        checks=[("always true", True)],
        notes="note",
    )
    text = res.to_text()
    assert "demo" in text and "PASS" in text and "note" in text
    assert res.passed() and res.failed_checks() == []
    res.checks.append(("broken", False))
    assert not res.passed() and res.failed_checks() == ["broken"]


def test_registry_lists_all_paper_artifacts():
    ids = available()
    # Exactly the 16 paper ids; no repo-internal experiment is registered.
    assert sorted(ids) == sorted(
        ["table1", "table2", "fig1", "ablations"]
        + [f"fig12{c}" for c in "abcdefghijkl"]
    )
    assert not {"kernels", "store", "engine", "service"} & set(ids)
    with pytest.raises(ValueError):
        run_experiment("fig99")
