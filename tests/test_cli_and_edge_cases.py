"""CLI coverage and edge cases across the public API."""

import pytest

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
    assert bench_main(["fig99"]) == 2
    assert "error" in capsys.readouterr().err


def test_bench_cli_runs_one_experiment(capsys):
    # fig12i is the fastest experiment; exit code 0 means checks passed.
    assert bench_main(["fig12i"]) == 0
    out = capsys.readouterr().out
    assert "fig12i" in out and "PASS" in out


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
    assert rc.compressed.order() == 1
    assert rc.query(0, 0) is True
    assert rc.query(0, 1) is False
    pc = compress_pattern(g)
    assert pc.compressed.order() == 1


def test_two_node_cycle_pipeline():
    g = DiGraph.from_edges([("a", "b"), ("b", "a")])
    rc = compress_reachability(g)
    assert rc.compressed.order() == 1
    assert rc.query("a", "b") and rc.query("b", "a")
    pc = compress_pattern(g)
    assert pc.compressed.order() == 1
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
    assert inc_p.compression().compressed.order() == 1  # one 3-cycle class


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


# ----------------------------------------------------------------------
# Benchmark-regression gate (python -m repro.bench check)
# ----------------------------------------------------------------------
def _bench_payload(experiment, rows, gates=()):
    return {
        "experiment": experiment,
        "rows": rows,
        "checks": [
            {"description": d, "passed": ok, "gate": True} for d, ok in gates
        ],
    }


def test_regression_check_passes_within_tolerance(tmp_path, capsys):
    import json
    from repro.bench.__main__ import main as bench_main

    base = tmp_path / "baselines"
    cur = tmp_path / "current"
    base.mkdir(), cur.mkdir()
    baseline = _bench_payload(
        "kernels",
        [{"graph": "g", "task": "scc+sig", "speedup": 3.0}],
        gates=[("byte-identical backends", True)],
    )
    current = _bench_payload(
        "kernels",
        [{"graph": "g", "task": "scc+sig", "speedup": 2.0}],  # -33% < 50% band
        gates=[("byte-identical backends", True)],
    )
    (base / "BENCH_kernels.json").write_text(json.dumps(baseline))
    (cur / "BENCH_kernels.json").write_text(json.dumps(current))
    assert bench_main(
        ["check", "--no-history", "--baseline", str(base), "--current", str(cur)]
    ) == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_regression_check_fails_on_ratio_collapse_and_gate(tmp_path, capsys):
    import json
    from repro.bench.__main__ import main as bench_main
    from repro.bench.regression import check_against_baselines

    base = tmp_path / "baselines"
    cur = tmp_path / "current"
    base.mkdir(), cur.mkdir()
    baseline = _bench_payload(
        "engine", [{"graph": "g", "warm/direct x": 2.0, "batch/one-shot x": 1.5}]
    )
    collapsed = _bench_payload(
        "engine", [{"graph": "g", "warm/direct x": 0.4, "batch/one-shot x": 1.5}]
    )
    (base / "BENCH_engine.json").write_text(json.dumps(baseline))
    (cur / "BENCH_engine.json").write_text(json.dumps(collapsed))
    assert bench_main(
        ["check", "--no-history", "--baseline", str(base), "--current", str(cur)]
    ) == 1
    assert "FAIL" in capsys.readouterr().out

    # A failing semantic gate fails the check even with healthy ratios.
    bad_gate = _bench_payload(
        "engine", [{"graph": "g", "warm/direct x": 2.0, "batch/one-shot x": 1.5}],
        gates=[("routed == direct", False)],
    )
    (cur / "BENCH_engine.json").write_text(json.dumps(bad_gate))
    ok, lines = check_against_baselines(base, cur)
    assert not ok and any("semantic gate" in ln for ln in lines)

    # A baseline whose current file vanished is a failure too.
    (cur / "BENCH_engine.json").unlink()
    ok, lines = check_against_baselines(base, cur)
    assert not ok and any("not produced" in ln for ln in lines)


def test_regression_check_bad_args(tmp_path):
    import pytest
    from repro.bench.regression import check_against_baselines

    ok, lines = check_against_baselines(tmp_path, tmp_path)  # no baselines
    assert not ok
    with pytest.raises(ValueError):
        check_against_baselines(tmp_path, tmp_path, tolerance=1.5)


def test_committed_baselines_are_current_schema():
    """The baselines shipped in-repo parse and carry comparable ratios."""
    import json
    from pathlib import Path
    from repro.bench.regression import EXPERIMENT_RATIOS, _numeric, _row_key

    root = Path(__file__).resolve().parent.parent / "benchmarks" / "baselines"
    files = sorted(root.glob("BENCH_*.json"))
    assert len(files) >= 4  # kernels, store, engine, service
    for path in files:
        payload = json.loads(path.read_text())
        spec = EXPERIMENT_RATIOS[payload["experiment"]]
        comparable = [
            row for row in payload["rows"]
            if any(_numeric(row.get(f)) is not None for f in spec["ratios"])
        ]
        assert comparable, f"{path.name} has no comparable ratio rows"
        keys = [_row_key(r, spec["key"]) for r in comparable]
        assert len(keys) == len(set(keys)), f"{path.name} has ambiguous row keys"
