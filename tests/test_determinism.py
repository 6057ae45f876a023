"""Regression tests: compression output must not depend on hash seeds.

``DiGraph`` adjacency is stored in sets, so iteration order — and with it
Tarjan traversal order, SCC numbering, and historically the hypernode ids
of ``compress_reachability`` — used to vary with ``PYTHONHASHSEED`` on
string-node graphs.  Class/block ids are now assigned canonically (first
member in node insertion order) on every backend, so building the same
graph twice, with any backend, in any interpreter, yields byte-identical
compression artifacts, partitions and benchmark outputs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from repro.core.bisimulation import bisimulation_partition
from repro.core.equivalence import reachability_partition
from repro.core.reachability import compress_reachability

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def _build_graph():
    """A string-node graph (string hashes are what PYTHONHASHSEED shuffles)."""
    from repro.graph.digraph import DiGraph
    from repro.graph.generators import attach_equivalent_leaves

    g = DiGraph()
    ring = [f"core{i}" for i in range(9)]
    for a, b in zip(ring, ring[1:] + ring[:1]):
        g.add_edge(a, b)
    g.add_edge("core3", "core0")  # chord
    for i, h in enumerate(f"hub{j}" for j in range(6)):
        g.add_edge(ring[i % 9], h)
        g.set_label(h, f"L{i % 2}")
    attach_equivalent_leaves(g, [5, 4, 4, 3], parents_per_group=2, seed=13)
    return g


def _fingerprint():
    """Canonical rendering of every deterministic output, as JSON."""
    g = _build_graph()
    out = {}
    for backend in ("csr", "dict"):
        rc = compress_reachability(g, backend=backend)
        gr = rc.compressed
        out[f"compress-{backend}"] = {
            "stats": [
                rc.stats().original_nodes, rc.stats().original_edges,
                rc.stats().compressed_nodes, rc.stats().compressed_edges,
            ],
            "nodes": sorted(gr.nodes()),
            "edges": sorted(gr.edges()),
            "class_of": sorted((str(v), rc.node_class(v)) for v in g.nodes()),
            "members": {
                str(h): [str(v) for v in rc.members(h)] for h in gr.nodes()
            },
        }
        reach = reachability_partition(g, backend=backend)
        out[f"reach-partition-{backend}"] = sorted(
            (str(v), reach.block_of(v)) for v in g.nodes()
        )
        bisim = bisimulation_partition(g, backend=backend)
        out[f"bisim-partition-{backend}"] = sorted(
            (str(v), bisim.block_of(v)) for v in g.nodes()
        )
    return out


def test_same_graph_twice_same_output():
    """Satellite regression: two builds of one graph, identical artifacts."""
    assert _fingerprint() == _fingerprint()


def test_backends_agree_on_ids():
    fp = _fingerprint()
    assert fp["compress-csr"] == fp["compress-dict"]
    assert fp["reach-partition-csr"] == fp["reach-partition-dict"]
    assert fp["bisim-partition-csr"] == fp["bisim-partition-dict"]


def _run_with_hash_seed(seed: str, module: str = "test_determinism"):
    """Compute *module*'s ``_fingerprint()`` in a fresh interpreter with a
    fixed hash seed (other test modules reuse this harness)."""
    code = (
        "import json, sys\n"
        f"sys.path.insert(0, {SRC!r})\n"
        f"sys.path.insert(0, {os.path.dirname(__file__)!r})\n"
        f"from {module} import _fingerprint\n"
        "print(json.dumps(_fingerprint(), sort_keys=True))\n"
    )
    env = dict(os.environ, PYTHONHASHSEED=seed)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return json.loads(proc.stdout)


def test_output_identical_across_hash_seeds():
    """The historical bug: ids varied across PYTHONHASHSEED runs."""
    a = _run_with_hash_seed("0")
    b = _run_with_hash_seed("12345")
    assert a == b
