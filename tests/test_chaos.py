"""Chaos and degradation tests for the hardened serving stack.

The invariant every test here enforces, one layer at a time and then all
at once: *degradation may change latency and route — never answers*.
Faults are injected through seeded :class:`~repro.faults.plan.FaultPlan`
schedules, so a failing case replays exactly.
"""

import json
import tempfile

import pytest

from repro.engine import GraphEngine
from repro.engine.counters import RouterStats
from repro.engine.router import QueryRouter, RepresentationUnavailable
from repro.faults.breaker import OPEN, CircuitBreaker
from repro.faults.plan import FaultPlan, FaultRule
from repro.graph.generators import attach_equivalent_leaves, gnm_random_graph
from repro.obs.metrics import MetricsRegistry, installed
from repro.queries.reachability import ReachabilityQuery
from repro.service import (
    ApplyError,
    EngineService,
    QueryExecutor,
    QueryTimeout,
    RetriesExhausted,
    ServiceFault,
    chaos_plan,
    freeze_answer,
    run_stress,
)
from repro.service.epoch_stress import direct_answer, publish


def _graph(seed=11, n=40, m=110):
    g = gnm_random_graph(n, m, num_labels=4, seed=seed)
    attach_equivalent_leaves(g, [4, 3], parents_per_group=2, seed=seed + 1)
    return g


def _reach_queries(graph, count=6, seed=5):
    import random

    rng = random.Random(seed)
    nodes = graph.node_list()
    return [
        ReachabilityQuery(rng.choice(nodes), rng.choice(nodes))
        for _ in range(count)
    ]


# ----------------------------------------------------------------------
# Engine: sticky per-epoch degradation, fallback routing
# ----------------------------------------------------------------------
class TestEpochDegradation:
    def test_failed_build_degrades_epoch_and_answers_stay_exact(self):
        g = _graph()
        queries = _reach_queries(g)
        expected = [freeze_answer(direct_answer(g, q)) for q in queries]

        engine = GraphEngine(g.copy())
        epoch = engine.epoch(0)
        plan = FaultPlan(
            [FaultRule(point="epoch.build.reachability", kind="error",
                       times=None)]
        )
        stats = RouterStats()
        router = QueryRouter()
        with plan.installed():
            with pytest.raises(RepresentationUnavailable) as excinfo:
                epoch.artifact("reachability")
            assert excinfo.value.key == "reachability"
            # The router's production dispatch path absorbs the
            # degradation: direct-on-G answers, fallback recorded.
            got = [
                freeze_answer(router.dispatch(q, epoch, stats=stats))
                for q in queries
            ]
        assert got == expected
        assert stats.fallbacks("reachability") == len(queries)
        # Sticky for the epoch's lifetime: the plan is gone, yet the epoch
        # does not retry the build (no rebuild storms mid-epoch).
        with pytest.raises(RepresentationUnavailable):
            epoch.artifact("reachability")
        assert "reachability" in epoch.describe()["degraded"]

    def test_unknown_key_is_a_caller_error_not_a_degraded_build(self):
        engine = GraphEngine(_graph())
        epoch = engine.epoch(0)
        registry = MetricsRegistry()
        with installed(registry):
            with pytest.raises(ValueError):
                epoch.artifact("interval")
        assert epoch.describe()["degraded"] == {}
        assert "degraded_builds" not in engine.counters
        assert registry.get("epoch_degraded_total") is None

    def test_build_deadline_degrades_slow_builds(self):
        g = _graph()
        engine = GraphEngine(g.copy())
        epoch = engine.epoch(0, build_deadline_s=0.05)
        plan = FaultPlan(
            [FaultRule(point="epoch.build.pattern", kind="delay",
                       delay_s=0.5, times=None)]
        )
        with plan.installed():
            with pytest.raises(RepresentationUnavailable) as excinfo:
                epoch.artifact("pattern")
        assert "deadline" in excinfo.value.reason
        # The undegraded representation still builds normally.
        assert epoch.artifact("reachability") is not None

    def test_next_epoch_is_clean(self):
        g = _graph()
        service = EngineService(g.copy())
        plan = FaultPlan(
            [FaultRule(point="epoch.build.*", kind="error", times=None)]
        )
        q = _reach_queries(g, count=1)[0]
        with plan.installed():
            degraded = service.query(q)  # routed through the fallback
        assert freeze_answer(degraded) == freeze_answer(direct_answer(g, q))
        service.refreeze()  # publish a fresh epoch, faults uninstalled
        with service.pin() as epoch:
            assert epoch.artifact("reachability") is not None
            assert epoch.describe()["degraded"] == {}
        service.close()


# ----------------------------------------------------------------------
# Service: transactional apply with rollback
# ----------------------------------------------------------------------
class TestTransactionalApply:
    def test_publish_failure_rolls_back_and_later_apply_succeeds(self):
        g = _graph()
        service = EngineService(g.copy())
        graphs = {0: g.copy()}
        queries = _reach_queries(g)
        before = [freeze_answer(service.query(q)) for q in queries]

        plan = FaultPlan(
            [FaultRule(point="service.publish", kind="error", times=1)]
        )
        batch = [("+", g.node_list()[0], g.node_list()[1])]
        with plan.installed():
            with pytest.raises(ApplyError) as excinfo:
                publish(service, graphs, batch)
        assert excinfo.value.version == 0 and list(graphs) == [0]
        assert service.version == 0
        assert service.counters["apply_rollbacks"] == 1
        # Post-rollback the service answers exactly as before the attempt.
        assert [freeze_answer(service.query(q)) for q in queries] == before

        # The same batch applies cleanly once the fault is gone, and the
        # recorded graphs of both versions answer exactly as served.
        publish(service, graphs, batch)
        assert service.version == 1
        g0, g1 = graphs[0], graphs[1]
        assert not g0.has_edge(batch[0][1], batch[0][2])
        assert g1.has_edge(batch[0][1], batch[0][2])
        assert [freeze_answer(service.query(q)) for q in queries] == [
            freeze_answer(direct_answer(g1, q)) for q in queries
        ]
        service.close()

    def test_apply_failure_before_mutation_also_rolls_back(self):
        g = _graph()
        service = EngineService(g.copy())
        plan = FaultPlan(
            [FaultRule(point="service.apply", kind="io_error", times=1)]
        )
        with plan.installed():
            with pytest.raises(ApplyError):
                service.apply([("+", g.node_list()[2], g.node_list()[3])])
        assert service.version == 0
        service.close()

    def test_caller_input_errors_are_not_wrapped(self):
        service = EngineService(_graph().copy())
        with pytest.raises((TypeError, ValueError)):
            service.apply([("bogus-op", 1, 2)])
        service.close()


# ----------------------------------------------------------------------
# Executor: timeouts, retries, breaker, worker death
# ----------------------------------------------------------------------
class TestExecutorHardening:
    def test_transient_faults_are_retried_to_success(self):
        g = _graph()
        service = EngineService(g.copy())
        ex = QueryExecutor(service, 1, retries=3, backoff_s=0.001)
        queries = _reach_queries(g, count=4)
        plan = FaultPlan(
            [FaultRule(point="executor.dispatch", kind="io_error", times=2)]
        )
        try:
            with plan.installed():
                answers = ex.map(queries)
            assert plan.fired() == 2
            assert [freeze_answer(a) for a in answers] == [
                freeze_answer(direct_answer(g, q)) for q in queries
            ]
        finally:
            ex.shutdown()
            service.close()

    def test_retries_exhausted_is_typed_with_cause(self):
        g = _graph()
        service = EngineService(g.copy())
        ex = QueryExecutor(service, 1, retries=1, backoff_s=0.001)
        plan = FaultPlan(
            [FaultRule(point="executor.dispatch", kind="io_error", times=None)]
        )
        try:
            with plan.installed():
                fut = ex.submit(_reach_queries(g, count=1)[0])
                with pytest.raises(RetriesExhausted) as excinfo:
                    fut.result(timeout=30.0)
            assert isinstance(excinfo.value.__cause__, OSError)
        finally:
            ex.shutdown()
            service.close()

    def test_slow_dispatch_raises_query_timeout(self):
        g = _graph()
        service = EngineService(g.copy())
        ex = QueryExecutor(service, 1, timeout_s=0.05, retries=0)
        plan = FaultPlan(
            [FaultRule(point="executor.dispatch", kind="delay",
                       delay_s=0.5, times=None)]
        )
        try:
            with plan.installed():
                fut = ex.submit(_reach_queries(g, count=1)[0])
                with pytest.raises(QueryTimeout):
                    fut.result(timeout=30.0)
        finally:
            ex.shutdown()
            service.close()

    def test_breaker_trips_then_degrades_to_exact_answers(self):
        g = _graph()
        queries = _reach_queries(g, count=5)
        service = EngineService(g.copy())
        breaker = CircuitBreaker(threshold=2, cooldown_s=60.0)
        ex = QueryExecutor(service, 1, retries=0, breaker=breaker)
        plan = FaultPlan(
            [FaultRule(point="executor.dispatch", kind="io_error", times=2)]
        )
        try:
            with plan.installed():
                # Two failures trip the reachability circuit ...
                for q in queries[:2]:
                    with pytest.raises(ServiceFault):
                        ex.submit(q).result(timeout=30.0)
                assert breaker.state("reachability") == OPEN
                # ... so later queries route direct-on-G without even
                # attempting the tripped representation — and stay exact.
                got = [
                    freeze_answer(ex.submit(q).result(timeout=30.0))
                    for q in queries[2:]
                ]
            assert got == [
                freeze_answer(direct_answer(g, q)) for q in queries[2:]
            ]
            assert service.stats.fallbacks("reachability") >= len(queries[2:])
        finally:
            ex.shutdown()
            service.close()


# ----------------------------------------------------------------------
# The full chaos harness
# ----------------------------------------------------------------------
class TestChaosHarness:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_thread_chaos_never_changes_answers(self, tmp_path, seed):
        report = run_stress(
            _graph(), executor_workers=2, readers=3, batch_size=6, seed=seed,
            writer_batches=3, queries_per_reader=10,
            catalog_dir=str(tmp_path), plan=chaos_plan(seed),
        )
        assert report["errors"] == []
        assert report["mismatches"] == 0
        assert report["checked"] == report["queries"] > 0
        assert report["faults"]["total_fired"] > 0  # chaos actually happened

    def test_cli_rounds_leave_no_temp_directory(self, tmp_path, monkeypatch,
                                                capsys):
        from repro.service.__main__ import main

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        assert tempfile.gettempdir() == str(tmp_path)
        small = ["--quick", "--nodes", "30", "--edges", "80"]
        out = tmp_path / "chaos.json"
        assert main(["chaos", "--seeds", "0", "--out", str(out), *small]) == 0
        assert main(["metrics", "--workers", "1", *small]) == 0
        # Both rounds ran on a catalog ...
        assert "quarantined" in json.loads(out.read_text())["runs"][0]
        assert "catalog_base_loads_total" in capsys.readouterr().out
        # ... which is gone with its round.
        assert [p.name for p in tmp_path.iterdir()
                if p.name.startswith("repro-")] == []

    def test_chaos_plan_is_deterministic_per_seed(self):
        a, b = chaos_plan(7), chaos_plan(7)
        assert [r.point for r in a.rules] == [r.point for r in b.rules]
        assert a.seed == b.seed == 7
        assert not any(r.kind == "kill" for r in a.rules)
