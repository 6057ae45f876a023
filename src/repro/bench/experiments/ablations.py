"""Ablations for this repo's implementation choices (beyond the paper).

Two implementation choices deserve measurement:

* ``compressR`` computes ``Re`` with topologically-ordered bitsets instead
  of the paper's per-node BFS — same unique output, very different constant
  factors (this is why the Fig. 12(e/f) benchmarks show both baselines);
* ``compressB`` uses rank-stratified (Dovier–Piazza–Policriti) refinement
  instead of the naive global fixpoint.

Both pairs must produce *identical* compressions, which is asserted here on
top of the timing comparison.
"""

from __future__ import annotations

from repro.bench.harness import ExperimentResult
from repro.bench.metrics import time_call
from repro.core.pattern import compress_pattern, compress_pattern_csr
from repro.core.reachability import compress_reachability, compress_reachability_bfs
from repro.datasets.catalog import CATALOG
from repro.graph.csr import CSRGraph


def _canon(comp):
    """A compression with its hypernode ids erased: the member sets, and
    the quotient edges between them."""
    gr = comp.compressed
    mem = {h: frozenset(comp.members(h)) for h in gr.node_order()}
    return (
        frozenset(mem.values()),
        frozenset((mem[a], mem[b]) for a, b in gr.edge_list()),
    )


def run(quick: bool = True) -> ExperimentResult:
    scale = 0.35 if quick else 0.8
    rows = []
    identical = True
    speedups = []

    for name in ("p2p", "socEpinions"):
        g = CATALOG[name].build(seed=1, scale=scale)
        fast = compress_reachability(g)
        slow = compress_reachability_bfs(g)
        identical &= _canon(fast) == _canon(slow)
        t_fast = time_call(lambda: compress_reachability(g))
        t_slow = time_call(lambda: compress_reachability_bfs(g))
        speedups.append(t_slow / t_fast if t_fast else 1.0)
        rows.append(
            {
                "ablation": "compressR: bitset vs paper BFS",
                "dataset": name,
                "optimized (s)": round(t_fast, 4),
                "paper variant (s)": round(t_slow, 4),
                "speedup": round(t_slow / t_fast, 1) if t_fast else "-",
            }
        )

    for name in ("youtube", "california"):
        g = CATALOG[name].build(seed=1, scale=scale)
        csr = CSRGraph.from_digraph(g)  # the served kernel runs on the frozen graph
        strat = compress_pattern_csr(csr)
        naive = compress_pattern(g, algorithm="naive")
        identical &= _canon(strat) == _canon(naive)
        t_strat = time_call(lambda: compress_pattern_csr(csr))
        t_naive = time_call(lambda: compress_pattern(g, algorithm="naive"))
        rows.append(
            {
                "ablation": "compressB: stratified vs naive fixpoint",
                "dataset": name,
                "optimized (s)": round(t_strat, 4),
                "paper variant (s)": round(t_naive, 4),
                "speedup": round(t_naive / t_strat, 1) if t_strat else "-",
            }
        )

    checks = [
        ("every algorithm pair produces the identical compression", identical),
        (
            "bitset compressR is at least 5x faster than per-node BFS",
            min(speedups) > 5.0,
        ),
    ]
    return ExperimentResult(
        experiment="ablations",
        title="Implementation ablations (identical outputs, different constants)",
        columns=["ablation", "dataset", "optimized (s)", "paper variant (s)", "speedup"],
        rows=rows,
        checks=checks,
        notes=(
            "compressB times the served kernel: compress_pattern_csr on the "
            "frozen graph against the naive fixpoint quotiented on the dict "
            "graph.  At 1-4k nodes the naive fixpoint converges in a few "
            "passes, so the rank-stratified kernel only draws level with it "
            "(1.0-1.4x on a 2-core box) - outputs are identical either way"
        ),
    )
