"""Fig 12(d) — memory cost (benchmark: TOL label construction on Gr)."""
from conftest import report
from repro.core.reachability import compress_reachability
from repro.datasets.catalog import load
from repro.index.tol import TOLIndex


def test_fig12d_memory_cost(benchmark, experiment_runner):
    g = load("wikiVote", seed=1, scale=0.5)
    gr = compress_reachability(g).compressed
    benchmark(TOLIndex, gr)
    report(experiment_runner("fig12d"))
