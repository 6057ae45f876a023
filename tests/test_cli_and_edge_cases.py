"""CLI coverage and edge cases across the public API."""

from repro import (
    DiGraph,
    GraphPattern,
    IncrementalPatternCompressor,
    IncrementalReachabilityCompressor,
    compress_pattern,
    compress_reachability,
    match,
)
from repro.bench.__main__ import main as bench_main
from repro.bench.harness import run_experiment
from repro.queries.matching import MatchContext


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_bench_cli_unknown_experiment(capsys):
    # 'check' / 'trend' are not subcommands: unknown ids like any other.
    for eid in ("fig99", "check", "trend"):
        assert bench_main([eid]) == 2
        err = capsys.readouterr().err
        assert f"unknown experiment {eid!r}" in err and "available: [" in err


def test_bench_cli_runs_one_experiment(capsys, tmp_path, monkeypatch):
    # fig12i is the fastest experiment; exit code 0 means checks passed.
    monkeypatch.chdir(tmp_path)
    assert bench_main(["fig12i"]) == 0
    out = capsys.readouterr().out
    assert "fig12i" in out and "PASS" in out
    assert list(tmp_path.iterdir()) == []  # the CLI writes no file


def test_ablations_experiment_passes():
    result = run_experiment("ablations")
    assert result.passed(), result.failed_checks()


# ----------------------------------------------------------------------
# Degenerate graphs through the whole pipeline
# ----------------------------------------------------------------------
def test_isolated_nodes_compress_together():
    g = DiGraph()
    for v in range(5):
        g.add_node(v)
    rc = compress_reachability(g)
    # Isolated nodes share (∅, ∅) signatures: one hypernode.
    assert rc.compressed.n == 1
    assert rc.query(0, 0) is True
    assert rc.query(0, 1) is False
    pc = compress_pattern(g)
    assert pc.compressed.n == 1


def test_two_node_cycle_pipeline():
    g = DiGraph.from_edges([("a", "b"), ("b", "a")])
    rc = compress_reachability(g)
    assert rc.compressed.n == 1
    assert rc.query("a", "b") and rc.query("b", "a")
    pc = compress_pattern(g)
    assert pc.compressed.n == 1
    assert pc.compressed.has_edge(
        pc.node_class("a"), pc.node_class("a")
    )  # quotient keeps the self-loop for pattern semantics


def test_pattern_self_loop_query_on_cycle():
    g = DiGraph.from_edges([("a", "b"), ("b", "a")])
    q = GraphPattern()
    q.add_node(0, "σ")
    q.add_edge(0, 0, 2)  # node within 2 hops of itself
    pc = compress_pattern(g)
    assert pc.query(q, match) == match(q, g) == {0: {"a", "b"}}


def test_incremental_from_empty_graph():
    g = DiGraph()
    g.add_node("seed")
    inc_r = IncrementalReachabilityCompressor(g)
    inc_p = IncrementalPatternCompressor(g)
    inc_r.apply([("+", "seed", "x"), ("+", "x", "y"), ("+", "y", "seed")])
    inc_p.apply([("+", "seed", "x"), ("+", "x", "y"), ("+", "y", "seed")])
    assert inc_r.compression().query("x", "seed") is True
    assert inc_p.compression().compressed.n == 1  # one 3-cycle class


def test_empty_batch_is_noop():
    g = DiGraph.from_edges([(1, 2)])
    inc = IncrementalReachabilityCompressor(g)
    before = inc.compression().stats()
    inc.apply([])
    assert inc.compression().stats() == before


def test_match_context_star_cache_reuse():
    g = DiGraph.from_edges([(1, 2), (2, 3), (3, 1), (3, 4)])
    ctx = MatchContext(g)
    star1 = ctx.star_reach()
    star2 = ctx.star_reach()
    assert star1 is star2  # cached
    # Rows are indexed by dense id.  Cycle members reach themselves; the
    # sink does not.
    row = ctx.indexer.index
    assert star1[row(1)] & (1 << row(1))
    assert not star1[row(4)]


def test_compression_stats_equality_semantics():
    g = DiGraph.from_edges([(1, 2)])
    a = compress_reachability(g).stats()
    b = compress_reachability(g).stats()
    assert a == b  # frozen dataclass equality
