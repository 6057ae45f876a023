"""Fig. 12(e) — ``incRCM`` vs ``compressR`` under edge insertions.

socEpinions, growing ``Δ|E|`` in fixed increments; at each point the
*cumulative* incremental maintenance time is compared against compressing
the updated graph from scratch with the paper's ``compressR`` (Fig. 5 —
per-node BFS, ``O(|V||E|)``), the algorithm the paper itself benchmarks.
Shape check: ``incRCM`` wins while the accumulated change is small (the
paper's crossover is ~20% of ``|E|``).

This repo's optimized bitset ``compressR`` is reported as an ablation
column: it is so much faster than the paper's variant that it beats
cumulative incremental maintenance at these scales — an honest deviation
from the paper.
"""

from __future__ import annotations

import time

from repro.bench.harness import ExperimentResult
from repro.core.incremental_reach import IncrementalReachabilityCompressor
from repro.core.reachability import compress_reachability, compress_reachability_bfs
from repro.datasets.catalog import CATALOG
from repro.datasets.updates import insertion_batch


def run(quick: bool = True) -> ExperimentResult:
    g = CATALOG["socEpinions"].build(seed=1, scale=0.35 if quick else 0.8)
    steps = 4 if quick else 9
    step_size = max(1, int(g.size() * 0.024))

    inc = IncrementalReachabilityCompressor(g)
    work = g.copy()
    rows = []
    inc_total = 0.0
    seed = 100
    for i in range(1, steps + 1):
        batch = insertion_batch(work, step_size, seed=seed + i)
        for _, u, v in batch:
            work.add_edge(u, v)
        start = time.perf_counter()
        inc.apply(batch)
        inc.compression()
        inc_total += time.perf_counter() - start

        start = time.perf_counter()
        compress_reachability_bfs(work)
        paper_batch = time.perf_counter() - start

        start = time.perf_counter()
        compress_reachability(work)
        fast_batch = time.perf_counter() - start

        rows.append(
            {
                "Δ|E|": i * step_size,
                "Δ%": round(100.0 * i * step_size / g.size(), 1),
                "incRCM cum (s)": round(inc_total, 3),
                "compressR paper (s)": round(paper_batch, 3),
                "compressR bitset (s)": round(fast_batch, 3),
                "cone": inc.last_cone_size,
                "winner": "incRCM" if inc_total < paper_batch else "compressR",
            }
        )

    checks = [
        (
            "incRCM beats the paper's compressR at every increment",
            all(r["winner"] == "incRCM" for r in rows),
        ),
        (
            "incremental advantage persists past 5% of |E| (paper: up to ~20%)",
            all(r["winner"] == "incRCM" for r in rows if r["Δ%"] <= 20.0),
        ),
    ]
    return ExperimentResult(
        experiment="fig12e",
        title="incRCM vs compressR under edge insertions (socEpinions)",
        columns=[
            "Δ|E|", "Δ%", "incRCM cum (s)", "compressR paper (s)",
            "compressR bitset (s)", "cone", "winner",
        ],
        rows=rows,
        checks=checks,
        notes="baseline = paper's O(|V||E|) compressR; bitset column is this repo's ablation",
    )
