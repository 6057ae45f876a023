"""Fig. 12(d) — memory cost: ``G``, ``Gr``, reachability labels on ``G`` and on ``Gr``.

The paper's log-scale bar chart: the 2-hop index over the original graph
dwarfs everything (234MB vs 8.9MB graph on wikiVote), while the compressed
graph and its index are tiny.  The labels drawn here are TOL
(:class:`~repro.index.tol.TOLIndex`): pruned landmark labeling under a
total order, which is how a 2-hop cover is built in practice (Zhu et al.,
SIGMOD'14), with the butterfly order in place of the degree order.  Shape
checks: ``Gr`` saves >=90% of ``G``'s memory on social stand-ins, and
TOL-on-``Gr`` is far smaller than TOL-on-``G``.
"""

from __future__ import annotations

from repro.bench.harness import ExperimentResult
from repro.bench.metrics import graph_memory_bytes
from repro.core.reachability import compress_reachability
from repro.datasets.catalog import CATALOG
from repro.index.tol import TOLIndex

DATASETS = ["p2p", "wikiVote", "citHepTh", "socEpinions", "facebook", "notredame"]


def run(quick: bool = True) -> ExperimentResult:
    scale = 0.5 if quick else 1.0
    rows = []
    social_savings = []
    label_ratios = []
    for name in DATASETS:
        spec = CATALOG[name]
        g = spec.build(seed=1, scale=scale)
        rc = compress_reachability(g)
        gr = rc.compressed
        tol_g = TOLIndex(g)
        tol_gr = TOLIndex(gr)
        kb = lambda b: round(b / 1024.0, 1)
        g_mem = graph_memory_bytes(g)
        gr_mem = graph_memory_bytes(gr)
        rows.append(
            {
                "dataset": name,
                "G (KB)": kb(g_mem),
                "Gr (KB)": kb(gr_mem),
                "TOL on G (KB)": kb(tol_g.memory_cost()),
                "TOL on Gr (KB)": kb(tol_gr.memory_cost()),
            }
        )
        if spec.family == "social":
            social_savings.append(1 - gr_mem / g_mem)
        label_ratios.append(tol_gr.memory_cost() / max(1, tol_g.memory_cost()))

    checks = [
        (
            "Gr saves >=90% of G's memory on social stand-ins",
            all(s >= 0.9 for s in social_savings),
        ),
        (
            "TOL over Gr is <20% the size of TOL over G (average)",
            sum(label_ratios) / len(label_ratios) < 0.2,
        ),
    ]
    return ExperimentResult(
        experiment="fig12d",
        title="Memory cost comparison (graphs and TOL reachability labels)",
        columns=["dataset", "G (KB)", "Gr (KB)", "TOL on G (KB)", "TOL on Gr (KB)"],
        rows=rows,
        checks=checks,
        notes="the paper's 2-hop index drawn as TOL labels, a 2-hop cover "
        "built by pruned landmark labeling under the butterfly order",
    )
