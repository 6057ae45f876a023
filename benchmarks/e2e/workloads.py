"""The timed run of one workload: no registry, tracer or probe is active.

A run is a few *lifecycles* one after another.  Every workload walks the
same lifecycle over its own inputs, so every end-to-end metric is defined
once and measured everywhere:

1. **set-up** — text edge list -> ``read_graph`` -> ``CSRGraph`` ->
   ``SnapshotCatalog.warm`` (``cold_build_s``) -> ``EngineService`` that has
   answered its first reach and first pattern query (``setup_s``);
2. **warm opens** — fresh catalog handle -> first two answers -> close;
3. **routed rounds** — the request stream through the closed-loop client,
   ``on="auto"``; then a prefix replayed ``on="original"`` and compared
   answer by answer (``direct_qps``);
4. **write rounds** — one update batch per round, then the first read of the
   new version.  ``serve_rw_social`` applies the batch from a writer thread
   while the client keeps reading its round (progress-paced: a clock-paced
   writer moved read throughput by 30 % run to run); the other workloads
   apply and read one after the other, because two threads passing the GIL
   back and forth across two shared cores doubled ``apply`` whenever the
   host was busy.  The first write round of a lifecycle is a warm-up.

Within a lifecycle a metric is the median of its samples (one set-up, a few
opens, rounds, timed applies); the run reports the best lifecycle's value.
Noise on a shared host only ever adds time, in bursts of seconds: the phases
of one kind are spread over the whole run this way, and a burst has to cover
every lifecycle to move a metric.  (With one median over all samples instead,
two of three set-ups caught by a burst moved ``setup_s`` by 15 % between runs
of the same code; the best lifecycle moved by 5 %.)

What differs per workload is the graph, the stream, the client and how much
of each phase a lifecycle does (``inputs.SPECS``).
"""

from __future__ import annotations

import gc
import os
import random
import resource
import shutil
import statistics
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from inputs import Inputs, Request, pattern_key

from repro.graph.csr import CSRGraph
from repro.graph.io import read_graph
from repro.queries.matching import MatchContext, match
from repro.queries.pattern import GraphPattern
from repro.service import EngineService, QueryExecutor
from repro.store import SnapshotCatalog

#: A write round gives up waiting for the new version after this long.
FRESH_TIMEOUT_S = 60.0
#: Versions whose sampled pattern answers are re-derived from scratch (the
#: match context over G costs about a second per version on the big graph);
#: sampled reach answers are re-derived on every version.
VERIFY_PATTERN_VERSIONS = 1

now = time.perf_counter


class Tally:
    """Operations attempted and failed, per phase."""

    def __init__(self) -> None:
        self.phases: Dict[str, List[int]] = {}

    def add(self, phase: str, attempted: int, failed: int = 0) -> None:
        row = self.phases.setdefault(phase, [0, 0])
        row[0] += attempted
        row[1] += failed

    @property
    def attempted(self) -> int:
        return sum(a for a, _ in self.phases.values())

    @property
    def failed(self) -> int:
        return sum(f for _, f in self.phases.values())

    def lines(self) -> List[str]:
        return [
            f"  phase {phase:<12} attempted {a:>8}  succeeded {a - f:>8}  failed {f}"
            for phase, (a, f) in self.phases.items()
        ]


class Client:
    """One closed-loop client over the public API.

    ``single`` sends each one-query request through ``service.query``;
    ``executor`` sends each chunk through ``QueryExecutor.submit_batch`` and
    waits for it.  An exception from the service is a failed operation,
    never a crashed benchmark.
    """

    def __init__(self, service: EngineService, driver: str, cpus: int) -> None:
        self.service = service
        self.executor = (
            QueryExecutor(service, workers=min(2, cpus), mode="thread")
            if driver == "executor" else None
        )
        self.errors: List[str] = []

    def send(self, request: Request, on: str = "auto") -> Tuple[Optional[int], Optional[List[Any]]]:
        try:
            if self.executor is None:
                version, answer = self.service.query_versioned(request[0], on=on)
                return version, [answer]
            future = self.executor.submit_batch(request, on=on)
            answers = future.result()
            return future.epoch_version, answers  # type: ignore[attr-defined]
        except Exception as exc:  # noqa: BLE001 - counted, reported, not raised
            self.errors.append(f"{type(exc).__name__}: {exc}")
            return None, None

    def close(self) -> None:
        if self.executor is not None:
            self.executor.shutdown(wait=True)


def percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def top_percentile(count: int) -> float:
    """The highest percentile that still has ten samples beyond it."""
    return 100.0 * (1 - 10 / count) if count > 10 else 0.0


# ----------------------------------------------------------------------
# Ground truth: evaluation from scratch on the generated graph
# ----------------------------------------------------------------------
class Truth:
    """From-scratch answers on the exact graph of one version."""

    def __init__(self, inputs: Inputs, version: int) -> None:
        self.graph = inputs.graph_at(version) if version else inputs.graph
        self._descendants: Dict[Any, Any] = {}
        self._context: Optional[MatchContext] = None
        self._matches: Dict[Any, Any] = {}

    def answer(self, query: Any) -> Any:
        if isinstance(query, GraphPattern):
            key = pattern_key(query)
            if key not in self._matches:
                if self._context is None:
                    self._context = MatchContext(self.graph)
                self._matches[key] = match(query, self.graph, self._context)
            return self._matches[key]
        if query.source not in self._descendants:
            self._descendants[query.source] = self._bfs(query.source)
        return query.target in self._descendants[query.source]

    def _bfs(self, source: Any) -> set:
        """*source* and everything reachable from it (QR(v, v) holds)."""
        seen = {source}
        frontier = [source]
        while frontier:
            nxt = []
            for v in frontier:
                for w in self.graph.successors(v):
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
        return seen


# ----------------------------------------------------------------------
# Phases
# ----------------------------------------------------------------------
def entry_bytes(root: Path, digest: str) -> int:
    return sum(
        os.path.getsize(os.path.join(dirpath, name))
        for dirpath, _dirs, names in os.walk(root / digest)
        for name in names
    )


def open_service(root: Path, digest: str, inputs: Inputs,
                 catalog: Optional[SnapshotCatalog] = None) -> Tuple[EngineService, List[Any]]:
    """Catalog entry -> service that has answered the two probe queries."""
    if catalog is None:
        catalog = SnapshotCatalog(root)  # a fresh handle: nothing memoised
    service = EngineService(catalog.base(digest), catalog=catalog)
    return service, [service.query(q) for q in inputs.probe]


def set_up(text: Path, root: Path,
           inputs: Inputs) -> Tuple[EngineService, str, List[Any], float, float]:
    """One cold set-up; returns (service, digest, probe answers, cold s, total s)."""
    t0 = now()
    csr = CSRGraph.from_digraph(read_graph(text))
    catalog = SnapshotCatalog(root)
    digest = catalog.warm(csr)
    t1 = now()
    service, answers = open_service(root, digest, inputs, catalog)
    return service, digest, answers, t1 - t0, now() - t0


def run_round(client: Client, requests: List[Request], on: str = "auto",
              keep: bool = False) -> Dict[str, Any]:
    """Send *requests* one after another; time each and the whole round
    (*keep*: hand the answers back too)."""
    latencies: List[float] = []
    kept: List[Optional[List[Any]]] = []
    failed = 0
    send = client.send
    t0 = now()
    for request in requests:
        s = now()
        _version, answers = send(request, on)
        latencies.append(now() - s)
        if answers is None:
            failed += len(request)
        if keep:
            kept.append(answers)
    wall = now() - t0
    queries = sum(len(r) for r in requests)
    return {"wall": wall, "queries": queries, "failed": failed,
            "latencies": latencies, "kept": kept}


def run_write_round(client: Client, requests: List[Request], batch: List[Any], target: int,
                    sample_index: int, at_least: int, concurrent: bool) -> Dict[str, Any]:
    """One update batch, and the client reading *requests* until it has sent
    *at_least* of them and has had an answer from version *target*.

    *concurrent*: a writer thread applies the batch while the client reads;
    otherwise the batch is applied first and the client reads afterwards.
    ``fresh`` is the time from the ``apply`` call to the end of the first
    request answered on *target*.
    """
    write: Dict[str, Any] = {}

    def writer() -> None:
        write["called"] = now()
        try:
            client.service.apply(batch)
        except Exception as exc:  # noqa: BLE001 - counted, reported, not raised
            write["error"] = f"{type(exc).__name__}: {exc}"
        write["returned"] = now()

    thread = threading.Thread(target=writer, name="e2e-writer")
    latencies: List[float] = []
    failed = queries = 0
    first_fresh: Optional[float] = None
    sample: Optional[Sample] = None
    i = 0
    t0 = now()
    if concurrent:
        thread.start()
    else:
        writer()
    while i < at_least or (first_fresh is None and "error" not in write):
        request = requests[i % len(requests)]
        s = now()
        version, answers = client.send(request)
        e = now()
        latencies.append(e - s)
        queries += len(request)
        if answers is None:
            failed += len(request)
        else:
            if version == target and first_fresh is None:
                first_fresh = e
            if i == sample_index or (sample is None and version == target):
                sample = (version, request, answers)
        i += 1
        if e - t0 > FRESH_TIMEOUT_S:
            break
    wall = now() - t0
    if concurrent:
        thread.join()
    return {
        "wall": wall, "queries": queries, "failed": failed, "latencies": latencies,
        "apply_s": write["returned"] - write["called"],
        "fresh_s": None if first_fresh is None else first_fresh - write["called"],
        "apply_error": write.get("error"), "sample": sample,
    }


Sample = Tuple[int, Request, List[Any]]  # (version that answered, request, answers)


def verify_samples(inputs: Inputs, samples: List[Sample]) -> Tuple[int, int]:
    """Re-derive sampled answers on ``graph_at(version)``; (checked, wrong)."""
    checked = wrong = 0
    by_version: Dict[int, List[Tuple[Request, List[Any]]]] = {}
    for version, request, answers in samples:
        by_version.setdefault(version, []).append((request, answers))
    for n, version in enumerate(sorted(by_version)):
        truth = Truth(inputs, version)
        for request, answers in by_version[version]:
            for query, answer in zip(request, answers):
                if isinstance(query, GraphPattern) and n >= VERIFY_PATTERN_VERSIONS:
                    continue
                checked += 1
                wrong += answer != truth.answer(query)
    return checked, wrong


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------
SAMPLE_KEYS = ("setup", "cold", "open", "qps", "p50", "p95", "direct",
               "apply", "fresh", "first_apply", "first_fresh")


class TimedRun:
    """``inputs.cycles`` lifecycles one after another: a metric is the median
    of its samples within a lifecycle, and the best lifecycle's value."""

    def __init__(self, inputs: Inputs, workdir: Path, cpus: int) -> None:
        self.inputs = inputs
        self.workdir = workdir
        self.cpus = cpus
        self.tally = Tally()
        self.notes: List[str] = []
        self.errors: List[str] = []
        self.walls: Dict[str, float] = {}
        self._lap_start = now()
        #: Samples of the lifecycle under way, and the medians of those done:
        #: setup / cold / open / apply / fresh in seconds; qps; p50 / p95 of a
        #: round's request latencies in seconds; direct in queries per second.
        self.samples: Dict[str, List[float]] = {key: [] for key in SAMPLE_KEYS}
        self.lifecycles: List[Dict[str, float]] = []
        self.raw: Dict[str, List[float]] = {key: [] for key in SAMPLE_KEYS}
        self.pooled: List[float] = []
        self.verify: List[Sample] = []
        self.sample_rng = random.Random(f"{inputs.seed}:{inputs.spec.name}:verify")
        self.stored = 0.0
        self.text = workdir / "graph.txt"
        inputs.write_edge_list(self.text)
        truth0 = Truth(inputs, 0)
        self.probe_truth = [truth0.answer(q) for q in inputs.probe]
        self.lap("prepare")

    def lap(self, phase: str) -> None:
        """Wall time since the previous lap, booked to *phase*."""
        t = now()
        self.walls[phase] = self.walls.get(phase, 0.0) + t - self._lap_start
        self._lap_start = t

    def probe_failures(self, answers: List[Any]) -> int:
        return sum(a != t for a, t in zip(answers, self.probe_truth))

    def record(self, result: Dict[str, Any]) -> None:
        """One routed round: its throughput and its latency percentiles."""
        ordered = sorted(result["latencies"])
        self.samples["qps"].append(result["queries"] / result["wall"])
        self.samples["p50"].append(percentile(ordered, 50))
        self.samples["p95"].append(percentile(ordered, 95))
        self.pooled.extend(ordered)

    def write_round(self, client: Client, k: int, requests: List[Request]) -> Dict[str, Any]:
        spec = self.inputs.spec
        gc.collect()
        # serve_rw_social reads the whole round beside the writer; elsewhere
        # the round is apply, then one read of the new version.
        result = run_write_round(
            client, requests, self.inputs.batches[k], k + 1,
            self.sample_rng.randrange(len(requests)),
            at_least=len(requests) if spec.writes_during_routed else 1,
            concurrent=spec.writes_during_routed,
        )
        tally = self.tally
        # The first apply of a service's life also makes the session's
        # mutable copy of the graph and takes twice as long: that round is
        # checked like the others but timed apart, as a warm-up.
        first = "first_" if k == 0 else ""
        tally.add("write_reads", result["queries"], result["failed"])
        tally.add("apply", 1, result["apply_error"] is not None)
        if result["apply_error"] is None:
            self.samples[first + "apply"].append(result["apply_s"])
        else:
            self.notes.append(f"write round {k}: apply failed: {result['apply_error']}")
        tally.add("fresh_answer", 1, result["fresh_s"] is None)
        if result["fresh_s"] is not None:
            self.samples[first + "fresh"].append(result["fresh_s"])
        if result["sample"] is not None:
            self.verify.append(result["sample"])
        return result

    def lifecycle(self, cycle: int) -> None:
        inputs, spec, tally = self.inputs, self.inputs.spec, self.tally
        root = self.workdir / f"catalog-{cycle}"
        first = cycle * spec.routed_rounds  # this cycle's first round of the stream

        # 1. cold set-up.
        gc.collect()
        service, digest, answers, cold, total = set_up(self.text, root, inputs)
        self.samples["cold"].append(cold)
        self.samples["setup"].append(total)
        tally.add("setup", 1 + len(answers), self.probe_failures(answers))
        self.stored = entry_bytes(root, digest) / inputs.graph.size()
        self.lap("setup")
        try:
            self._serve(service, root, digest, first)
        finally:
            service.close()
        shutil.rmtree(root)
        self.lifecycles.append(
            {key: statistics.median(values) for key, values in self.samples.items() if values})
        for key, values in self.samples.items():
            self.raw[key].extend(values)
            values.clear()
        self.lap("prepare")

    def _serve(self, service: EngineService, root: Path, digest: str, first: int) -> None:
        """Phases 2 to 4 of a lifecycle, on the service its set-up made."""
        inputs, spec, tally = self.inputs, self.inputs.spec, self.tally

        # 2. warm opens on the catalog the set-up left behind.
        for _ in range(spec.warm_opens):
            gc.collect()
            t0 = now()
            try:
                opened, answers = open_service(root, digest, inputs)
            except Exception as exc:  # noqa: BLE001 - counted, reported, not raised
                tally.add("warm_open", 1 + len(self.probe_truth), 1 + len(self.probe_truth))
                self.notes.append(f"warm open failed: {type(exc).__name__}: {exc}")
                continue
            self.samples["open"].append(now() - t0)
            opened.close()
            tally.add("warm_open", 1 + len(answers), self.probe_failures(answers))
        self.lap("warm_open")

        client = Client(service, spec.driver, self.cpus)
        try:
            # Caches warm: one short pass so lazy builds are not in the window.
            run_round(client, inputs.warm_up(first))
            self.lap("prepare")

            # 3. routed rounds (serve_rw_social: each beside an update batch, see 4).
            for r in range(spec.routed_rounds):
                requests = inputs.round(first + r)
                if spec.writes_during_routed:
                    result = self.write_round(client, r, requests)
                    if r:  # round 0 is the warm-up write round
                        self.record(result)
                else:
                    gc.collect()
                    result = run_round(client, requests)
                    tally.add("routed", result["queries"], result["failed"])
                    self.record(result)
            self.lap("write_rounds" if spec.writes_during_routed else "routed")

            # 3b. a prefix of the first round routed, then on="original",
            # compared answer by answer (both on the version the rounds left).
            prefix = inputs.round(first, inputs.direct_requests)
            gc.collect()
            routed = run_round(client, prefix, keep=True)
            self.lap("routed")
            direct = run_round(client, prefix, on="original", keep=True)
            self.lap("direct")
            mismatched = sum(
                a != b
                for got, want in zip(direct["kept"], routed["kept"])
                if got is not None and want is not None
                for a, b in zip(got, want)
            )
            tally.add("routed", routed["queries"], routed["failed"])
            tally.add("direct", direct["queries"], direct["failed"] + mismatched)
            self.samples["direct"].append(direct["queries"] / direct["wall"])

            # 4. write rounds (already done for serve_rw_social).
            if not spec.writes_during_routed:
                for k in range(spec.write_rounds):
                    self.write_round(client, k, prefix)
                self.lap("write_rounds")
        finally:
            client.close()
            self.errors.extend(client.errors)

    def result(self) -> Dict[str, Any]:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        # From-scratch verification of the sampled write-round answers.
        checked, wrong = verify_samples(self.inputs, self.verify)
        self.tally.add("verify_rw", checked, wrong)
        self.lap("verify")
        self.notes.extend(f"service error: {error}" for error in self.errors[:5])

        def best(key: str, scale: float = 1.0, pick: Any = min) -> float:
            values = [cycle[key] for cycle in self.lifecycles if key in cycle]
            return pick(values) * scale if values else float("nan")

        metrics = {
            "setup_s": (best("setup"), "s"),
            "cold_build_s": (best("cold"), "s"),
            "warm_open_ms": (best("open", 1e3), "ms"),
            "stored_bytes_per_edge": (self.stored, "bytes"),
            "routed_qps": (best("qps", pick=max), "1/s"),
            "direct_qps": (best("direct", pick=max), "1/s"),
            "routed_p50_ms": (best("p50", 1e3), "ms"),
            "apply_p50_ms": (best("apply", 1e3), "ms"),
            "fresh_answer_p50_ms": (best("fresh", 1e3), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        pooled = sorted(self.pooled)
        top = top_percentile(len(pooled))
        return {
            "metrics": metrics,
            "tally": self.tally,
            "notes": self.notes,
            "detail": {
                "latency_samples": len(pooled),
                "queries_per_request": len(self.inputs.round(0, 1)[0]),
                "routed_p95_ms": best("p95", 1e3),
                "first_apply_ms": best("first_apply", 1e3),
                "first_fresh_answer_ms": best("first_fresh", 1e3),
                "top_percentile": top,
                "top_percentile_ms": percentile(pooled, top) * 1e3 if top else None,
                "routed_vs_direct_x": metrics["routed_qps"][0] / metrics["direct_qps"][0],
                "lifecycles": self.lifecycles,
                "samples": self.raw,
                "phase_wall_s": self.walls,
            },
        }


def run_timed(inputs: Inputs, workdir: Path, cpus: int) -> Dict[str, Any]:
    """Measure every end-to-end metric of one workload."""
    run = TimedRun(inputs, workdir, cpus)
    for cycle in range(inputs.cycles):
        run.lifecycle(cycle)
    return run.result()
