"""The traced run of one workload: per-layer probes and a span per request.

Nothing here is inside ``src/repro``: each probe times a call into one
module's public functions, from the benchmark, on the workload's own inputs.
A ``MetricsRegistry`` is installed for the whole run so the counters the
program already keeps (memo lookups, TOL lookups and fallbacks, executor
queue wait) can be read next to the timings.

The replay sends a slice of round 0 through the same client as the timed
run.  Each request gets a root span around the real public call; right after
it, the layer calls that request needs are made again from outside and
recorded as probe spans with the root as parent.  ``engine.glue_us`` is what
is left of the root once the probes are taken out: the self time of router,
epoch, service front and (for the executor client) the queue hand-off.
"""

from __future__ import annotations

import json
import random
import statistics
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from inputs import CHUNK, Inputs, Request, pattern_key
from workloads import Client, Tally, Truth, now, open_service, percentile

from repro.core.pattern import compress_pattern_csr
from repro.core.reachability import compress_reachability_csr
from repro.engine import Epoch, GraphEngine, PatternMaintainer, QueryRouter, ReachabilityMaintainer
from repro.graph.csr import CSRGraph
from repro.graph.io import read_graph
from repro.index.tol import TOLIndex
from repro.obs.metrics import MetricsRegistry, install_registry, uninstall_registry
from repro.queries.matching import MatchContext, match
from repro.queries.pattern import STAR, GraphPattern
from repro.queries.reachability import evaluate_reachability
from repro.service import EngineService, QueryExecutor
from repro.store import (
    SnapshotCatalog,
    load_snapshot,
    merge_deltas,
    save_snapshot,
    save_snapshot_v2,
)

BOUNDS = (1, 2, 3, STAR)
REACH_SAMPLE = 2000
PATTERN_SAMPLE = 6
MMAP_ROWS = 20000
#: Requests replayed with spans: a quarter of round 0, at most this many
#: single-query requests / chunks (the trace file stays a few MB).
REPLAY_SINGLE = 4000
REPLAY_CHUNKS = 40
WRITE_BATCHES = 2


def seconds(fn: Callable[[], Any]) -> Tuple[float, Any]:
    """Median wall time of *fn*: three calls when one takes < 0.5 s, else one."""
    t0 = time.perf_counter()
    result = fn()
    first = time.perf_counter() - t0
    if first >= 0.5:
        return first, result
    times = [first]
    for _ in range(2):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def per_item(fn: Callable[[Any], Any], items: Iterable[Any]) -> float:
    """Mean seconds of ``fn(item)`` over *items* (one clock pair for the loop)."""
    items = list(items)
    t0 = time.perf_counter()
    for item in items:
        fn(item)
    return (time.perf_counter() - t0) / max(1, len(items))


class Spans:
    """Spans kept in memory; written as JSON lines when the run ends.

    One flat list per field: appending floats and ints creates no object the
    cyclic collector tracks, so recording never triggers a collection over
    the graph-sized heap in the middle of a request.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self.parents: List[int] = []  # -1: a root span
        self.requests: List[int] = []
        self.starts: List[float] = []
        self.ends: List[float] = []

    def add(self, name: str, start: float, end: float, request: int, parent: int = -1) -> int:
        self.names.append(name)
        self.parents.append(parent)
        self.requests.append(request)
        self.starts.append(start)
        self.ends.append(end)
        return len(self.names) - 1

    def probe(self, name: str, request: int, parent: int, fn: Callable[[], Any]) -> Any:
        start = time.perf_counter()
        result = fn()
        self.add(name, start, time.perf_counter(), request, parent)
        return result

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for span, name in enumerate(self.names):
                parent = self.parents[span]
                fh.write(json.dumps({
                    "span": span, "parent": None if parent < 0 else parent,
                    "request": self.requests[span], "name": name,
                    "start": self.starts[span], "end": self.ends[span],
                }) + "\n")

    def self_time_table(self, queries: int) -> Dict[str, Any]:
        """Root time split into probe rows and glue (all in seconds)."""
        rows: Dict[str, List[float]] = {}
        root_total = 0.0
        for name, parent, start, end in zip(self.names, self.parents, self.starts, self.ends):
            if parent < 0:
                root_total += end - start
            else:
                row = rows.setdefault(name, [0, 0.0])
                row[0] += 1
                row[1] += end - start
        probes = sum(total for _, total in rows.values())
        return {"rows": rows, "request_s": root_total, "probes_s": probes,
                "glue_s": root_total - probes, "queries": queries}


def pin_once(service: EngineService) -> None:
    with service.pin():
        pass


def counter_total(registry: MetricsRegistry, name: str, label: Optional[str] = None) -> float:
    metric = registry.get(name)
    if metric is None:
        return 0.0
    values = metric.values()  # type: ignore[attr-defined]
    if label is None:
        return float(sum(values.values()))
    return float(sum(v for labels, v in values.items() if label in labels))


# ----------------------------------------------------------------------
# Probe groups
# ----------------------------------------------------------------------
def build_probes(inputs: Inputs, workdir: Path, m: Dict[str, float]) -> Dict[str, Any]:
    """graph / core / index / store codec: text file -> artifacts."""
    text = workdir / "graph.txt"
    inputs.write_edge_list(text)
    edges = inputs.graph.size()
    m["graph.parse_s"], parsed = seconds(lambda: read_graph(text))
    m["graph.freeze_s"], csr = seconds(lambda: CSRGraph.from_digraph(parsed))
    m["core.compress_r_s"], rc = seconds(lambda: compress_reachability_csr(csr))
    m["core.compress_b_s"], pc = seconds(lambda: compress_pattern_csr(csr))
    m["core.gr_ratio"] = rc.stats().ratio
    m["core.gb_ratio"] = pc.stats().ratio
    m["index.tol_build_s"], tol = seconds(lambda: TOLIndex(rc.compressed, backend="csr"))
    m["index.tol_entries"] = tol.entry_count()

    v1, v2 = workdir / "probe-v1.rgs", workdir / "probe-v2.rgs"
    m["store.encode_v1_s"], _ = seconds(lambda: save_snapshot(csr, v1))
    m["store.encode_v2_s"], _ = seconds(lambda: save_snapshot_v2(csr, v2))
    m["store.load_v1_ms"] = seconds(lambda: load_snapshot(v1))[0] * 1e3
    m["store.load_v2_ms"] = seconds(lambda: load_snapshot(v2))[0] * 1e3
    m["store.v1_bytes_per_edge"] = v1.stat().st_size / edges
    m["store.v2_bytes_per_edge"] = (
        v2.stat().st_size + v2.with_suffix(".obl").stat().st_size
    ) / edges
    return {"parsed": parsed, "csr": csr, "rc": rc, "pc": pc, "tol": tol}


def catalog_probes(inputs: Inputs, workdir: Path, parsed: Any,
                   m: Dict[str, float]) -> Tuple[Path, str]:
    """store catalog: put, cold variants, then everything again on fresh handles."""
    rng = random.Random(f"{inputs.seed}:{inputs.spec.name}:mmap-rows")
    rows = [rng.randrange(inputs.graph.order()) for _ in range(MMAP_ROWS)]
    reps: Dict[str, List[float]] = {}

    def timed(key: str, fn: Callable[[], Any]) -> Any:
        t0 = time.perf_counter()
        result = fn()
        reps.setdefault(key, []).append(time.perf_counter() - t0)
        return result

    for rep in range(2):
        root = workdir / f"probe-catalog-{rep}"
        csr = CSRGraph.from_digraph(parsed)  # a new instance: no memoised digest
        catalog = SnapshotCatalog(root)
        digest = timed("store.catalog_put_s", lambda: catalog.put(csr))
        timed("store.variant_build_s", lambda: (
            catalog.reachability(digest), catalog.bisimulation(digest), catalog.tol(digest)))
        catalog.base_mmap(digest).close()  # writes the offsets sidecar
        fresh = SnapshotCatalog(root)
        timed("store.base_load_ms", lambda: fresh.base(digest))
        timed("store.variant_rehydrate_ms", lambda: (
            fresh.reachability(digest), fresh.bisimulation(digest), fresh.tol(digest)))
        view = timed("store.mmap_open_ms", lambda: fresh.base_mmap(digest))
        reps.setdefault("store.mmap_row_us", []).append(per_item(view.successors, rows))
        view.close()
    for key, values in reps.items():
        scale = 1e3 if key.endswith("_ms") else 1e6 if key.endswith("_us") else 1.0
        m[key] = statistics.median(values) * scale
    return root, digest


def query_probes(inputs: Inputs, service: EngineService, art: Dict[str, Any],
                 m: Dict[str, float]) -> None:
    """engine route / service pin / core F and P / index lookup / queries match."""
    rc, pc, tol, csr = art["rc"], art["pc"], art["tol"], art["csr"]
    rng = random.Random(f"{inputs.seed}:{inputs.spec.name}:probe-queries")
    reach = [inputs.reach_query(rng) for _ in range(REACH_SAMPLE)]
    patterns = inputs.patterns[:PATTERN_SAMPLE]
    router = QueryRouter()
    m["engine.route_us"] = per_item(router.route, reach + patterns) * 1e6

    m["service.pin_us"] = per_item(lambda _: pin_once(service), range(REACH_SAMPLE)) * 1e6
    m["core.rewrite_us"] = per_item(lambda q: rc.rewrite(q.source, q.target), reach) * 1e6
    rewritten = [pair for _verdict, pair in
                 (rc.rewrite(q.source, q.target) for q in reach) if pair is not None]
    if not rewritten:  # every sampled pair fell in one hypernode
        rewritten = [(rc.node_class(q.source), rc.node_class(q.target)) for q in reach[:1]]
    m["index.tol_lookup_us"] = per_item(lambda p: tol.reachable(p[0], p[1]), rewritten) * 1e6
    m["queries.reach_g_us"] = per_item(
        lambda q: evaluate_reachability(csr, q.source, q.target), reach[:REACH_SAMPLE // 8]
    ) * 1e6

    gb = pc.compressed
    t0 = time.perf_counter()
    ctx_b = MatchContext(gb, backend="csr").prepare(BOUNDS)
    m["queries.ctx_prepare_ms"] = (time.perf_counter() - t0) * 1e3
    ctx_g = MatchContext(csr).prepare(BOUNDS)
    on_gb: List[Any] = []
    m["queries.match_gb_ms"] = per_item(lambda p: on_gb.append(match(p, gb, ctx_b)), patterns) * 1e3
    m["queries.match_g_ms"] = per_item(lambda p: match(p, csr, ctx_g), patterns) * 1e3
    m["core.post_process_ms"] = per_item(pc.post_process, on_gb) * 1e3
    art["ctx_b"] = ctx_b


def replay(inputs: Inputs, client: Client, art: Dict[str, Any], spans: Spans,
           registry: MetricsRegistry, tally: Tally, m: Dict[str, float]) -> Dict[str, Any]:
    """Bare pass, then the traced pass with probe spans; returns the table."""
    spec = inputs.spec
    single = spec.driver == "single"
    count = min(REPLAY_SINGLE if single else REPLAY_CHUNKS, max(1, spec.round_len // 4))
    requests = inputs.round(0, 2 * count if spec.stream == "pattern" else count)
    bare = requests[:count]
    # Distinct patterns would all be memo hits on a second pass, so the
    # traced pass takes the next slice; the other streams replay the same one.
    traced = requests[-count:]
    rc, pc, tol, ctx_b = art["rc"], art["pc"], art["tol"], art["ctx_b"]
    gb = pc.compressed
    router = QueryRouter()

    # Caches warm before either pass: the slice itself, or for distinct
    # patterns (which a warm-up would memoise) the tail of the pool, which
    # touches the same bounds.
    for request in ([[p] for p in inputs.patterns[-8:]] if spec.stream == "pattern" else bare):
        client.send(request)

    uninstall_registry()
    bare_lat: List[float] = []
    for request in bare:
        s = now()
        client.send(request)
        bare_lat.append(now() - s)
    install_registry(registry)

    def counters() -> List[float]:
        return [counter_total(registry, "tol_lookups_total"),
                counter_total(registry, "tol_fallbacks_total"),
                counter_total(registry, "match_memo_lookups_total"),
                counter_total(registry, "match_memo_lookups_total", "hit")]

    before = counters()

    # The probes re-derive each answer layer by layer; a request whose answer
    # differs from what its own probes give is a failed operation.
    memoised: Dict[Any, Any] = {}
    if spec.stream != "pattern":  # the bare pass left these in the service's memo
        for query in {pattern_key(q): q for r in bare for q in r
                      if isinstance(q, GraphPattern)}.values():
            memoised[pattern_key(query)] = pc.post_process(match(query, gb, ctx_b))
    failed = queries = 0
    for rid, request in enumerate(traced):
        s = now()
        _version, answers = client.send(request)
        root = spans.add("request." + ("service.query" if single else "executor.submit_batch"),
                         s, now(), rid)
        queries += len(request)
        if answers is None:
            failed += len(request)
            continue
        spans.probe("service.pin", rid, root, lambda: pin_once(client.service))
        for query, answer in zip(request, answers):
            spans.probe("engine.route", rid, root, lambda: router.route(query))
            if isinstance(query, GraphPattern):
                key = pattern_key(query)
                if key in memoised:
                    expected = spans.probe(
                        "queries.memo_copy", rid, root,
                        lambda: {u: set(vs) for u, vs in memoised[key].items()})
                else:
                    on_gb = spans.probe("queries.match_gb", rid, root,
                                        lambda: match(query, gb, ctx_b))
                    expected = memoised[key] = spans.probe(
                        "core.post_process", rid, root, lambda: pc.post_process(on_gb))
            else:
                verdict, pair = spans.probe("core.rewrite", rid, root,
                                            lambda: rc.rewrite(query.source, query.target))
                expected = verdict == "true" if pair is None else spans.probe(
                    "index.tol_lookup", rid, root, lambda: tol.reachable(pair[0], pair[1]))
            failed += answer != expected
    tally.add("traced", queries, failed)

    table = spans.self_time_table(queries)
    lookups, fallbacks, memo, hits = (after - b for after, b in zip(counters(), before))
    m["index.tol_fallback_share"] = fallbacks / lookups if lookups else 0.0
    m["queries.memo_hit_share"] = hits / memo if memo else 0.0
    m["engine.glue_us"] = table["glue_s"] / queries * 1e6
    per_query = sorted(lat / len(r) for lat, r in zip(bare_lat, bare))
    m["service.query_p50_us"] = percentile(per_query, 50) * 1e6
    m["service.query_p95_us"] = percentile(per_query, 95) * 1e6
    m["obs.trace_overhead_x"] = (table["request_s"] / len(traced)) / (sum(bare_lat) / len(bare))
    table["untraced_request_s"] = sum(bare_lat) / len(bare) * len(traced)
    return table


def write_probes(inputs: Inputs, csr: CSRGraph, m: Dict[str, float]) -> None:
    """core incremental / store delta merge / engine apply / service publish."""
    batches = inputs.batches[:WRITE_BATCHES]

    def per_batch(apply: Callable[[Any], Any]) -> float:
        times = []
        for batch in batches:
            t0 = time.perf_counter()
            apply(batch)
            times.append(time.perf_counter() - t0)
        return statistics.median(times) * 1e3

    m["core.inc_r_ms"] = per_batch(ReachabilityMaintainer(inputs.graph.copy()).apply)
    m["core.inc_b_ms"] = per_batch(PatternMaintainer(inputs.graph.copy()).apply)

    frozen = [csr]

    def merge(batch: List[Any]) -> None:
        frozen[0] = merge_deltas(
            frozen[0],
            [(u, v) for op, u, v in batch if op == "+"],
            [(u, v) for op, u, v in batch if op == "-"],
        )

    m["store.merge_deltas_ms"] = per_batch(merge)

    # A standalone session with both representations materialised keeps them
    # exact through the incremental maintainers ...
    session = GraphEngine(inputs.graph.copy(), refreeze_threshold=None)
    for query in inputs.probe:
        session.query(query)
    m["engine.session_apply_ms"] = per_batch(session.apply)
    # ... the service's own session never materialises them (epochs do), so
    # its apply is the bare graph mutation; the rest of EngineService.apply
    # is freeze + publish.
    bare_ms = per_batch(GraphEngine(inputs.graph.copy(), refreeze_threshold=None).apply)
    with EngineService(inputs.graph.copy()) as scratch:
        for query in inputs.probe:
            scratch.query(query)
        m["service.publish_ms"] = max(0.0, per_batch(scratch.apply) - bare_ms)
        m["service.refreeze_ms"] = seconds(scratch.refreeze)[0] * 1e3

    def first_use(keys: Tuple[str, ...], call: str) -> float:
        epoch = Epoch(csr)
        t0 = time.perf_counter()
        for key in keys:
            getattr(epoch, call)(key)
        return (time.perf_counter() - t0) * 1e3

    m["engine.epoch_artifact_ms"] = first_use(("reachability", "pattern"), "artifact")
    m["engine.epoch_context_ms"] = first_use(("reachability", "pattern", "original"), "context_for")


def executor_probes(inputs: Inputs, service: EngineService, cpus: int,
                    registry: MetricsRegistry, m: Dict[str, float]) -> None:
    """service executor: the same chunks closed-loop through ``submit_batch``
    and straight through ``query_batch`` (memo warm for both)."""
    spec = inputs.spec
    flat = [q for request in inputs.round(0, max(1, spec.round_len // 4)) for q in request]
    flat = flat[:CHUNK * REPLAY_CHUNKS if spec.stream != "pattern" else CHUNK]
    chunks = [flat[i:i + CHUNK] for i in range(0, len(flat), CHUNK)]

    def wall(send: Callable[[Request], Any]) -> float:
        for chunk in chunks:
            send(chunk)
        t0 = time.perf_counter()
        for chunk in chunks:
            send(chunk)
        return time.perf_counter() - t0

    batch_wall = wall(service.query_batch)
    with QueryExecutor(service, workers=min(2, cpus), mode="thread") as executor:
        waits = registry.histogram("executor_queue_wait_seconds")
        count, total = waits.count(), waits.sum()
        executor_wall = wall(lambda chunk: executor.submit_batch(chunk).result())
        m["service.executor_mean_batch"] = executor.workload_stats()["mean_batch"]
    m["service.executor_overhead_x"] = executor_wall / batch_wall
    m["service.queue_wait_us"] = (waits.sum() - total) / (waits.count() - count) * 1e6


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------
UNITS = {"_s": "s", "_ms": "ms", "_us": "us", "_x": "x", "_share": "ratio",
         "_ratio": "ratio", "_per_edge": "bytes", "_entries": "count", "_batch": "count"}


def unit_of(name: str) -> str:
    return next(unit for suffix, unit in UNITS.items() if name.endswith(suffix))


def run_traced(inputs: Inputs, workdir: Path, cpus: int) -> Dict[str, Any]:
    """Measure every per-layer metric of one workload; collect the spans."""
    m: Dict[str, float] = {}
    tally = Tally()
    spans = Spans()
    registry = install_registry(MetricsRegistry())
    try:
        art = build_probes(inputs, workdir, m)
        root, digest = catalog_probes(inputs, workdir, art["parsed"], m)
        service, answers = open_service(root, digest, inputs)
        truth = Truth(inputs, 0)
        tally.add("open", 1 + len(answers),
                  sum(a != truth.answer(q) for a, q in zip(answers, inputs.probe)))
        client = Client(service, inputs.spec.driver, cpus)
        try:
            query_probes(inputs, service, art, m)
            table = replay(inputs, client, art, spans, registry, tally, m)
            executor_probes(inputs, service, cpus, registry, m)
        finally:
            client.close()
            service.close()
        write_probes(inputs, art["csr"], m)
    finally:
        uninstall_registry()
    notes = [f"service error: {e}" for e in client.errors[:5]]
    return {
        "metrics": {name: (value, unit_of(name)) for name, value in sorted(m.items())},
        "tally": tally, "notes": notes, "spans": spans, "table": table,
        "detail": {},
    }
