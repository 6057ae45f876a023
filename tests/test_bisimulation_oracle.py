"""The bisimulation kernel against the paper-literal fixpoint.

``csr_bisimulation_blocks`` refines each rank stratum incrementally: it
caches every node's signature and, after a split, re-signs only the
same-rank predecessors of the nodes that moved.
``bisimulation_partition_naive`` is the global signature fixpoint straight
from the definition.  On every graph below the two must produce the same
canonical blocks — in particular on chains of same-rank SCCs, where a split
deep in the chain has to travel back through every SCC before it.
"""

from __future__ import annotations

import random

import pytest

from repro.core.bisimulation import bisimulation_partition_naive
from repro.graph.csr import CSRGraph
from repro.graph.digraph import DiGraph
from repro.graph.generators import (
    assign_labels,
    attach_equivalent_leaves,
    preferential_attachment_graph,
    random_dag,
)
from repro.graph.kernels import csr_bisimulation_blocks, csr_condensation


def _random_graph(rng: random.Random) -> DiGraph:
    """1–3 labels; self-loops, cycles, sinks; often a chain of SCCs."""
    n = rng.randrange(1, 28)
    labels = "ABC"[: rng.randint(1, 3)]
    g = DiGraph()
    for v in range(n):
        g.add_node(v, rng.choice(labels))
    if rng.random() < 0.35:
        for _ in range(rng.randrange(3 * n + 1)):
            g.add_edge(rng.randrange(n), rng.randrange(n))
        return g
    # Consecutive runs of nodes: most close into a cycle (some with chords),
    # each points into the next, and a run left open at the end is a sink.
    runs, v = [], 0
    while v < n:
        size = min(n - v, rng.randint(1, 5))
        runs.append(list(range(v, v + size)))
        v += size
    for i, run in enumerate(runs):
        if i < len(runs) - 1 or rng.random() < 0.5:
            if len(run) > 1 or rng.random() < 0.6:
                for a, b in zip(run, run[1:] + run[:1]):
                    g.add_edge(a, b)
            for _ in range(rng.randrange(2)):
                g.add_edge(rng.choice(run), rng.choice(run))
        if i + 1 < len(runs):
            for _ in range(rng.randint(1, 2)):
                g.add_edge(rng.choice(run), rng.choice(runs[i + 1]))
        if i and rng.random() < 0.2:  # a shortcut to a later SCC's sink side
            g.add_edge(rng.choice(runs[i - 1]), rng.choice(runs[-1]))
    return g


def _social(seed: int) -> DiGraph:
    g = preferential_attachment_graph(30, out_degree=3, reciprocity=0.5, seed=seed)
    attach_equivalent_leaves(g, [4, 4, 3], parents_per_group=2, seed=seed + 1)
    return assign_labels(g, 2, seed=seed)


def _graphs():
    rng = random.Random(20121)
    for i in range(300):
        yield f"random-{i}", _random_graph(rng)
    for seed in range(10):
        yield f"social-fans-{seed}", _social(seed)
    for seed in range(10):
        yield f"dag-{seed}", random_dag(25 + 2 * seed, 50 + 5 * seed, seed=seed)


GRAPHS = list(_graphs())


def _oracle_blocks(g: DiGraph, csr: CSRGraph):
    blocks = [sorted(map(csr.id_of, block)) for block in bisimulation_partition_naive(g).blocks()]
    return sorted(blocks)


@pytest.mark.parametrize("chunk", range(4))
def test_kernel_blocks_equal_the_naive_fixpoint(chunk):
    for name, g in GRAPHS[chunk::4]:
        csr = CSRGraph.from_digraph(g)
        assert csr_bisimulation_blocks(csr) == _oracle_blocks(g, csr), name


def test_the_pool_chains_cyclic_sccs():
    """The pool exercises what the incremental re-signing must get right."""
    multi_scc = sum(
        sum(csr_condensation(CSRGraph.from_digraph(g)).cyclic) >= 2 for _, g in GRAPHS[:300]
    )
    assert len(GRAPHS) >= 320 and multi_scc >= 100
