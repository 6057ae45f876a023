"""Kernels microbenchmark — the CSR bisimulation kernel, checked against
the naive fixpoint (repo-internal)."""
from repro.core.bisimulation import bisimulation_partition, bisimulation_partition_naive
from repro.graph.generators import preferential_attachment_graph


def test_kernels_bisimulation_csr(benchmark):
    g = preferential_attachment_graph(800, out_degree=3, reciprocity=0.4, seed=9)
    ref = bisimulation_partition_naive(g)

    result = benchmark(lambda: bisimulation_partition(g))
    assert result.as_frozen() == ref.as_frozen()
