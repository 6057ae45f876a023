"""Seeded inputs for the end-to-end benchmark.

Everything a workload feeds the program is made here, from ``--seed`` alone:
the graph (handed over as a text edge list), the request stream and the
update batches.  The program under test never sees the seed.

A *request* is what one closed-loop client call carries: one query for the
``single`` client, a chunk of 64 for the ``executor`` client.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Dict, List, Tuple

from repro.datasets.patterns import random_pattern
from repro.graph.digraph import DiGraph
from repro.graph.generators import (
    attach_equivalent_leaves,
    preferential_attachment_graph,
    random_dag,
)
from repro.queries.pattern import GraphPattern
from repro.queries.reachability import ReachabilityQuery

Request = List[Any]
EdgeUpdate = Tuple[str, Any, Any]

#: ``--seconds`` the cycle counts below are sized for (BENCHMARK.json's
#: ``run_seconds``); another value scales the number of cycles linearly.
NOMINAL_SECONDS = 20

HOT_NODES = 32
HOT_PATTERNS = 8
CHUNK = 64
CHUNK_PATTERNS = 2  # 2 of 64 = 3 % of a mixed chunk
BATCH_EDGES = 50
BATCH_INSERTS = 30  # insert ratio 0.6
FAN_GROUP = 12


@dataclass(frozen=True)
class Spec:
    """One workload: graph shape, request stream, drive, and work per cycle.

    A run is ``cycles`` lifecycles one after another (set-up, warm opens,
    routed rounds, direct replay, write rounds); the other counts are per
    cycle.  ``cycles`` is for ``NOMINAL_SECONDS`` and scales with
    ``--seconds``.  Work is fixed per (seed, seconds), never paced by the
    clock, so two runs of one seed do exactly the same operations.
    """

    name: str
    why: str
    graph: Tuple[Any, ...]  # ("dag", n, m) | ("social", core, fans)
    stream: str  # "reach" | "pattern" | "mixed" (62 reach + 2 hot patterns per 64)
    hot_source_share: float
    driver: str  # "single" (service.query) | "executor" (submit_batch)
    cycles: int
    warm_opens: int
    round_len: int  # requests per routed round
    routed_rounds: int
    direct_requests: int  # prefix of the cycle's first round replayed on="original"
    write_rounds: int  # one update batch per round; the first is a warm-up
    #: serve_rw_social: the routed rounds *are* the write rounds, and the
    #: writer runs beside the reader; elsewhere a write round is ``apply``
    #: and then the first read of the new version, one after the other.
    writes_during_routed: bool = False


SPECS: Dict[str, Spec] = {
    s.name: s
    for s in (
        Spec(
            name="reach_dag",
            why="Gr keeps nearly every node of a random DAG, so compression cannot help: "
                "TOL lookups, rewrite and engine/service glue are the whole query.",
            graph=("dag", 4000, 19200),
            stream="reach", hot_source_share=0.2, driver="single",
            cycles=3, warm_opens=2, round_len=20000, routed_rounds=4,
            direct_requests=800, write_rounds=4,
        ),
        Spec(
            name="pattern_social",
            why="Every pattern is distinct, so the per-epoch memo is bypassed and "
                "matching on Gb plus map-back to G do the work at tens of ms a query.",
            graph=("social", 5000, 7000),
            stream="pattern", hot_source_share=0.0, driver="single",
            cycles=4, warm_opens=2, round_len=40, routed_rounds=1,
            direct_requests=10, write_rounds=4,
        ),
        Spec(
            name="lifecycle_social",
            why="The largest graph: parse, freeze, compression, codec, catalog variants "
                "and rehydration dominate set-up, cold build and warm open.",
            graph=("social", 8000, 11200),
            stream="reach", hot_source_share=0.8, driver="single",
            cycles=4, warm_opens=3, round_len=20000, routed_rounds=3,
            direct_requests=400, write_rounds=4,
        ),
        Spec(
            name="serve_rw_social",
            why="Hot reads through the executor while a writer publishes: Gr is ~10 "
                "hypernodes and patterns hit the memo, so epoch rebuild and publish dominate.",
            graph=("social", 5000, 7000),
            stream="mixed", hot_source_share=0.8, driver="executor",
            cycles=3, warm_opens=2, round_len=130, routed_rounds=4,
            direct_requests=3, write_rounds=4,
            writes_during_routed=True,
        ),
    )
}


def smoke(spec: Spec) -> Spec:
    """The same workload on a graph ~25x smaller, for the drift-guard test."""
    kind, a, b = spec.graph
    return replace(
        spec,
        graph=(kind, max(60, a // 25), max(240, b // 25)),
        round_len=max(4, spec.round_len // 20),
    )


def pattern_key(p: GraphPattern) -> Tuple[Any, ...]:
    """Order-independent identity of a pattern (the memo's notion of equal)."""
    return (tuple(sorted(p.nodes.items())), tuple(sorted(p.edges.items(), key=repr)))


class Inputs:
    """The generated inputs of one (workload, seed, seconds) run."""

    def __init__(self, spec: Spec, seed: int, seconds: float) -> None:
        self.spec = spec
        self.seed = seed
        self.cycles = max(1, round(spec.cycles * seconds / NOMINAL_SECONDS))
        self.direct_requests = min(spec.round_len, spec.direct_requests)

        self.graph = self._build_graph()
        self.nodes = self.graph.node_list()
        # Edges in an order that does not depend on set iteration.
        index = {v: i for i, v in enumerate(self.nodes)}
        self.edges = sorted(self.graph.edges(), key=lambda e: (index[e[0]], index[e[1]]))
        rng = self._rng("streams")
        # The hot sources belong to the data set, like the graph: what a
        # direct BFS costs depends on how much each of them reaches.  They
        # have successors (a fan is a sink; a BFS from it costs nothing).
        active = [v for v in self.nodes if self.graph.out_degree(v)]
        self.hot = random.Random(f"{spec.name}:hot").sample(active, min(HOT_NODES, len(active)))
        # random_pattern draws labels by frequency over the graph it is given
        # (an O(|V|) pass per call); these graphs carry one label, so a
        # one-node stand-in gives the same patterns at no cost.
        labels = sorted(self.graph.label_set())
        self._alphabet = DiGraph()
        for label in labels:
            self._alphabet.add_node(label, label)
        label = labels[0]
        # The hot pool and the probe pattern are constants of the workload,
        # like the pool sizes: the same shapes whatever the seed, so the cost
        # of a warm open or of a mixed chunk does not depend on which bounds
        # a seed happened to draw.
        self.hot_patterns = self._distinct_patterns(random.Random("hot-patterns"), HOT_PATTERNS)
        self.patterns = (
            self._distinct_patterns(rng, spec.round_len * spec.routed_rounds * self.cycles)
            if spec.stream == "pattern" else self.hot_patterns
        )
        # First reach + first pattern answer of every set-up and warm open.
        self.probe = [
            ReachabilityQuery(self.hot[0], self.nodes[-1]),
            GraphPattern.from_parts({0: label, 1: label, 2: label}, [(0, 1, 1), (1, 2, 2)]),
        ]
        # Every cycle starts from the generated graph and applies the same batches.
        self.batches = self._update_batches(self._rng("updates"), spec.write_rounds)
        self._round0: List[Request] = []
        self._round0 = self.round(0)

    def _rng(self, purpose: str) -> random.Random:
        # str seeds go through sha512, so streams do not depend on PYTHONHASHSEED.
        return random.Random(f"{self.seed}:{self.spec.name}:{purpose}")

    # -- graph ------------------------------------------------------------
    def _build_graph(self) -> DiGraph:
        kind, a, b = self.spec.graph
        # The graph is the workload's data set: the same in every run.  Drawn
        # per seed, the label count of a random DAG moves by 5-10 % and with
        # it set-up, open and look-up times - more than the machine's noise.
        seed = random.Random(f"{self.spec.name}:graph").randrange(1 << 30)
        if kind == "dag":
            return random_dag(a, b, seed=seed)
        # Reciprocal core plus groups of equivalent fans: the social shape
        # whose Gr collapses to a handful of hypernodes.
        g = preferential_attachment_graph(a, out_degree=4, reciprocity=0.5, seed=seed)
        attach_equivalent_leaves(
            g, [FAN_GROUP] * (b // FAN_GROUP), parents_per_group=3, seed=seed + 1
        )
        return g

    def write_edge_list(self, path: Path) -> None:
        """The text edge list the program loads (``read_graph`` format)."""
        with path.open("w", encoding="utf-8") as fh:
            fh.write(f"# nodes {self.graph.order()} edges {self.graph.size()}\n")
            for u, v in self.edges:
                fh.write(f"{u}\t{v}\n")
            fh.write("#!labels\n")
            for v in self.nodes:
                fh.write(f"{v}\t{self.graph.label(v)}\n")

    # -- request stream -----------------------------------------------------
    def _distinct_patterns(self, rng: random.Random, count: int) -> List[GraphPattern]:
        """A third ``(Vp, Ep, k) = (3, 3, 3)``, the rest ``(4, 5, 3)``, no two alike.

        Not half and half: the median latency would then sit on the edge
        between the two cost classes and jump from seed to seed.  One label
        leaves only a few hundred distinct 3-node patterns, so a long run
        that has used them up takes 4-node patterns instead.
        """
        out: List[GraphPattern] = []
        seen = set()
        misses = 0
        while len(out) < count:
            vp, ep = (3, 3) if len(out) % 3 == 0 and misses < 200 else (4, 5)
            p = random_pattern(
                self._alphabet, vp, ep, max_bound=3, star_prob=0.2,
                seed=rng.randrange(1 << 30),
            )
            key = pattern_key(p)
            if key in seen:
                misses += 1
                continue
            misses = 0
            seen.add(key)
            out.append(p)
        return out

    def reach_query(self, rng: random.Random) -> ReachabilityQuery:
        hot = rng.random() < self.spec.hot_source_share
        source = rng.choice(self.hot) if hot else rng.choice(self.nodes)
        return ReachabilityQuery(source, rng.choice(self.nodes))

    def round(self, k: int, length: int = 0) -> List[Request]:
        """Requests of routed round *k* (the same for every call)."""
        length = length or self.spec.round_len
        if k == 0 and self._round0:
            return self._round0[:length]
        if self.spec.stream == "pattern":
            start = k * self.spec.round_len
            return [[p] for p in self.patterns[start:start + length]]
        rng = self._rng(f"round:{k}")
        size = CHUNK if self.spec.driver == "executor" else 1
        hot = CHUNK_PATTERNS if self.spec.stream == "mixed" else 0
        requests = []
        for _ in range(length):
            request: Request = [self.reach_query(rng) for _ in range(size - hot)]
            if hot:
                request += [rng.choice(self.hot_patterns) for _ in range(hot)]
                rng.shuffle(request)
            requests.append(request)
        return requests

    def warm_up(self, k: int) -> List[Request]:
        """A short pass before round *k* is timed, so lazy builds are over.

        Distinct patterns would be memoised by a pass over the round itself;
        hot patterns touch the same bounds.
        """
        if self.spec.stream == "pattern":
            return [[p] for p in self.hot_patterns[:4]]
        return self.round(k, max(1, self.spec.round_len // 20))

    # -- updates ----------------------------------------------------------
    def _update_batches(self, rng: random.Random, count: int) -> List[List[EdgeUpdate]]:
        """*count* batches of 30 insertions + 20 deletions, valid in sequence.

        A DAG stays one (new edges point from the lower to the higher id, as
        ``random_dag`` draws them): an insertion that closed a cycle would
        merge SCCs and shrink ``Gr``, and the cost of the next publication
        would depend on the luck of the draw.
        """
        acyclic = self.spec.graph[0] == "dag"
        live = list(self.edges)
        rng.shuffle(live)
        present = set(live)
        batches = []
        for _ in range(count):
            batch: List[EdgeUpdate] = []
            for _ in range(BATCH_EDGES - BATCH_INSERTS):
                edge = live.pop()
                present.discard(edge)
                batch.append(("-", *edge))
            fresh = []
            while len(fresh) < BATCH_INSERTS:
                edge = (rng.choice(self.nodes), rng.choice(self.nodes))
                if acyclic:
                    edge = (min(edge), max(edge))
                if edge[0] != edge[1] and edge not in present:
                    present.add(edge)
                    fresh.append(edge)
                    batch.append(("+", *edge))
            rng.shuffle(batch)
            # Inserted edges may be deleted by a later batch.
            live[:0] = fresh
            batches.append(batch)
        return batches

    def graph_at(self, version: int) -> DiGraph:
        """The graph after the first *version* batches, built from scratch."""
        g = self.graph.copy()
        for batch in self.batches[:version]:
            for op, u, v in batch:
                (g.add_edge if op == "+" else g.remove_edge)(u, v)
        return g

    # -- identity -----------------------------------------------------------
    def sha256(self) -> str:
        """Hash of the graph and of the query/update stream."""
        h = hashlib.sha256()
        h.update(repr((self.spec.name, self.graph.order(), self.edges)).encode())
        for k in range(min(2, self.spec.routed_rounds * self.cycles)):
            for request in self.round(k):
                for q in request:
                    h.update(repr(pattern_key(q) if isinstance(q, GraphPattern) else q).encode())
        h.update(repr([pattern_key(p) for p in self.hot_patterns]).encode())
        h.update(repr(self.batches).encode())
        return h.hexdigest()
