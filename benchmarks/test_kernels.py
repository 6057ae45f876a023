"""Kernels microbenchmark — CSR fast path vs dict backend (repo-internal)."""
from repro.core.bisimulation import bisimulation_partition
from repro.graph.generators import preferential_attachment_graph


def test_kernels_bisimulation_csr(benchmark):
    g = preferential_attachment_graph(800, out_degree=3, reciprocity=0.4, seed=9)
    ref = bisimulation_partition(g, backend="dict")

    result = benchmark(lambda: bisimulation_partition(g, backend="csr"))
    assert result.as_frozen() == ref.as_frozen()
