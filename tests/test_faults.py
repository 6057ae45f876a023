"""Unit tests for the fault-injection framework and the hardened store.

Covers the :mod:`repro.faults` primitives themselves (plan determinism,
windowing, the deadline helper, the circuit breaker) plus the store-layer
robustness satellites: kill-a-writer-mid-write atomicity, stale-lock
reclamation tied to pid liveness, and bit-flip fuzzing over the snapshot
format's header / label-table / varint regions.
"""

import gc
import os
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path

import pytest

from repro.faults.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.faults.deadline import DeadlineExceeded, run_with_deadline
from repro.faults.plan import (
    KILL_EXIT_CODE,
    FaultPlan,
    FaultRule,
    InjectedFault,
    InjectedIOError,
    current_plan,
    fault_data,
    fault_point,
    install_plan,
    uninstall_plan,
)
from repro.graph.csr import CSRGraph
from repro.graph.generators import attach_equivalent_leaves, gnm_random_graph
from repro.store.catalog import CatalogLockError, SnapshotCatalog, _DirectoryLock
from repro.store.format import (
    HEADER_SIZE,
    SnapshotError,
    dump_bytes,
    load_snapshot,
)


def _graph(seed=3, n=30, m=70):
    g = gnm_random_graph(n, m, num_labels=4, seed=seed)
    attach_equivalent_leaves(g, [4, 3], parents_per_group=2, seed=seed + 1)
    return g


# ----------------------------------------------------------------------
# FaultPlan / fault_point / fault_data
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_points_are_noops_without_a_plan(self):
        assert current_plan() is None
        fault_point("anything.at.all")  # must not raise
        assert fault_data("anything.bytes", b"payload") == b"payload"

    def test_installed_context_manager_restores_previous(self):
        outer = FaultPlan([], seed=1)
        inner = FaultPlan([], seed=2)
        install_plan(outer)
        try:
            assert current_plan() is outer
            with inner.installed():
                assert current_plan() is inner
            assert current_plan() is outer
        finally:
            uninstall_plan()
        assert current_plan() is None

    def test_windowing_after_and_times(self):
        plan = FaultPlan(
            [FaultRule(point="p.x", kind="error", after=2, times=3)], seed=0
        )
        outcomes = []
        with plan.installed():
            for _ in range(8):
                try:
                    fault_point("p.x")
                    outcomes.append(False)
                except InjectedFault:
                    outcomes.append(True)
        # hits 0-1 pass, hits 2-4 fire, hits 5+ pass again.
        assert outcomes == [False, False, True, True, True, False, False, False]
        assert plan.fired() == 3

    def test_unbounded_times_none(self):
        plan = FaultPlan([FaultRule(point="p.*", kind="io_error", times=None)])
        with plan.installed():
            for _ in range(5):
                with pytest.raises(InjectedIOError):
                    fault_point("p.anything")
        assert plan.fired("io_error") == 5

    def test_io_error_is_an_oserror(self):
        plan = FaultPlan([FaultRule(point="p", kind="io_error")])
        with plan.installed():
            with pytest.raises(OSError):
                fault_point("p")

    def test_probability_coin_is_deterministic(self):
        def firing_pattern():
            plan = FaultPlan(
                [FaultRule(point="p", kind="error", probability=0.5, times=None)],
                seed=42,
            )
            fired = []
            with plan.installed():
                for _ in range(64):
                    try:
                        fault_point("p")
                        fired.append(False)
                    except InjectedFault:
                        fired.append(True)
            return fired

        first, second = firing_pattern(), firing_pattern()
        assert first == second
        assert any(first) and not all(first)  # the coin actually varies

    def test_corrupt_fires_only_at_data_points(self):
        plan = FaultPlan(
            [FaultRule(point="p", kind="corrupt", times=None, flips=2)]
        )
        payload = bytes(range(64))
        with plan.installed():
            fault_point("p")  # control point: corrupt rule must not fire
            assert plan.fired() == 0
            mangled = fault_data("p", payload)
        assert mangled != payload
        assert len(mangled) == len(payload)
        assert plan.fired("corrupt") == 1

    def test_control_kinds_never_fire_at_data_points(self):
        plan = FaultPlan([FaultRule(point="p", kind="io_error", times=None)])
        with plan.installed():
            assert fault_data("p", b"abc") == b"abc"
        assert plan.fired() == 0

    def test_delay_sleeps(self):
        plan = FaultPlan(
            [FaultRule(point="p", kind="delay", delay_s=0.05)]
        )
        with plan.installed():
            start = time.perf_counter()
            fault_point("p")
            assert time.perf_counter() - start >= 0.04

    def test_rule_validation(self):
        with pytest.raises(ValueError):
            FaultRule(point="p", kind="nonsense")
        with pytest.raises(ValueError):
            FaultRule(point="p", kind="error", times=0)
        with pytest.raises(ValueError):
            FaultRule(point="p", kind="error", after=-1)
        with pytest.raises(ValueError):
            FaultRule(point="p", kind="error", probability=0.0)

    def test_report_shape(self):
        plan = FaultPlan([FaultRule(point="a.*", kind="error")], seed=9)
        with plan.installed():
            with pytest.raises(InjectedFault):
                fault_point("a.b")
            fault_point("other")
        report = plan.report()
        assert report["seed"] == 9
        assert report["total_fired"] == 1
        assert report["point_hits"] == {"a.b": 1, "other": 1}
        assert report["rules"][0]["fired"] == 1
        assert report["events"][0]["point"] == "a.b"


# ----------------------------------------------------------------------
# run_with_deadline
# ----------------------------------------------------------------------
class TestDeadline:
    def test_none_runs_inline(self):
        assert run_with_deadline(lambda: 41 + 1, None) == 42

    def test_fast_callable_returns(self):
        assert run_with_deadline(lambda: "ok", 5.0, label="fast") == "ok"

    def test_slow_callable_raises_deadline_exceeded(self):
        with pytest.raises(DeadlineExceeded) as excinfo:
            run_with_deadline(lambda: time.sleep(0.5), 0.05, label="slowpoke")
        assert excinfo.value.label == "slowpoke"
        assert excinfo.value.timeout == 0.05
        assert isinstance(excinfo.value, TimeoutError)

    def test_underlying_exception_is_relayed(self):
        def boom():
            raise KeyError("inner")

        with pytest.raises(KeyError):
            run_with_deadline(boom, 5.0)

    # With the collector off, what ``fn`` held must die by reference
    # counting alone once the call is over: a relayed exception or the
    # late one of an abandoned helper must not sit in a reference cycle
    # with the frames that raised it.
    @staticmethod
    def _held_by(body):
        """A callable running ``body(held)`` for a fresh ``held``, and a
        weak reference to that object."""

        class Held:
            pass

        held = Held()
        return (lambda: body(held)), weakref.ref(held)

    @staticmethod
    def _join_helpers(label):
        for thread in threading.enumerate():
            if thread.name == f"repro-deadline-{label}":
                thread.join(10)

    def test_relayed_exception_frees_what_fn_held_without_the_collector(self):
        def boom(held):
            raise KeyError("inner")

        fn, ref = self._held_by(boom)
        gc.disable()
        try:
            try:
                run_with_deadline(fn, 5.0, label="relay")
            except KeyError:
                pass
            del fn
            self._join_helpers("relay")
            assert ref() is None
        finally:
            gc.enable()

    def test_abandoned_helper_that_raises_frees_what_fn_held_without_the_collector(self):
        release = threading.Event()

        def late(held):
            release.wait(10)
            raise RuntimeError("late")

        fn, ref = self._held_by(late)
        gc.disable()
        try:
            try:
                run_with_deadline(fn, 0.01, label="abandoned")
            except DeadlineExceeded:
                pass
            del fn
            release.set()
            self._join_helpers("abandoned")
            assert ref() is None
        finally:
            gc.enable()


# ----------------------------------------------------------------------
# CircuitBreaker (fake clock: no sleeping)
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def test_state_machine(self):
        now = [0.0]
        b = CircuitBreaker(threshold=2, cooldown_s=10.0, clock=lambda: now[0])
        assert b.state("k") == CLOSED and b.allow("k")
        b.record_failure("k")
        assert b.state("k") == CLOSED  # one short of the threshold
        b.record_failure("k")
        assert b.state("k") == OPEN
        assert not b.allow("k")  # cooldown not elapsed
        now[0] = 11.0
        assert b.allow("k")  # this caller is the half-open probe
        assert b.state("k") == HALF_OPEN
        assert not b.allow("k")  # everyone else keeps degrading
        b.record_success("k")
        assert b.state("k") == CLOSED and b.allow("k")

    def test_failed_probe_reopens_for_a_fresh_cooldown(self):
        now = [0.0]
        b = CircuitBreaker(threshold=1, cooldown_s=5.0, clock=lambda: now[0])
        b.record_failure("k")
        assert b.state("k") == OPEN
        now[0] = 6.0
        assert b.allow("k")
        b.record_failure("k")  # probe failed
        assert b.state("k") == OPEN
        now[0] = 10.0  # 4s into the *new* cooldown
        assert not b.allow("k")
        now[0] = 11.1
        assert b.allow("k")

    def test_success_resets_the_consecutive_count(self):
        b = CircuitBreaker(threshold=3, cooldown_s=1.0)
        b.record_failure("k")
        b.record_failure("k")
        b.record_success("k")
        b.record_failure("k")
        b.record_failure("k")
        assert b.state("k") == CLOSED

    def test_keys_are_independent(self):
        b = CircuitBreaker(threshold=1, cooldown_s=100.0)
        b.record_failure("bad")
        assert b.state("bad") == OPEN
        assert b.state("good") == CLOSED and b.allow("good")
        snap = b.snapshot()
        assert snap["bad"]["trips"] == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(cooldown_s=-1.0)


# ----------------------------------------------------------------------
# Satellite 1 — a writer killed mid-write leaves no corrupt visible file
# ----------------------------------------------------------------------
_KILL_WRITER_SCRIPT = """
import sys
from repro.faults.plan import FaultPlan, FaultRule, install_plan
from repro.graph.csr import CSRGraph
from repro.graph.generators import attach_equivalent_leaves, gnm_random_graph
from repro.store.catalog import SnapshotCatalog
from repro.store.format import save_snapshot

point, root = sys.argv[1], sys.argv[2]
g = gnm_random_graph(30, 70, num_labels=4, seed=3)
attach_equivalent_leaves(g, [4, 3], parents_per_group=2, seed=4)
csr = CSRGraph.from_digraph(g)
install_plan(FaultPlan([FaultRule(point=point, kind="kill", times=None)]))
if point.startswith("catalog"):
    SnapshotCatalog(root).warm(csr)        # dies inside the variant write
else:
    save_snapshot(csr, root + "/direct.rgs")  # dies inside the snapshot write
print("UNREACHABLE")
"""


class TestKillWriterMidWrite:
    def _run_killed_writer(self, tmp_path, point):
        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.run(
            [sys.executable, "-c", _KILL_WRITER_SCRIPT, point, str(tmp_path)],
            capture_output=True, text=True, env=env, cwd=Path(__file__).parent.parent,
        )
        assert proc.returncode == KILL_EXIT_CODE, proc.stderr
        assert "UNREACHABLE" not in proc.stdout

    def test_snapshot_killed_before_rename_leaves_no_file(self, tmp_path):
        # The kill fires at store.write.replace: bytes are on disk in the
        # temp file, but the visible name must not exist at all — partial
        # writes never pass an exists() check.
        self._run_killed_writer(tmp_path, "store.write.replace")
        assert not (tmp_path / "direct.rgs").exists()

    def test_variant_writer_killed_mid_write_leaves_loadable_catalog(self, tmp_path):
        self._run_killed_writer(tmp_path, "store.write.replace")
        # The catalog the dead writer left behind: whatever files *are*
        # visible must all load cleanly; the killed variant is simply
        # recomputed (cold miss) by the next session.
        catalog = SnapshotCatalog(tmp_path)
        for digest in catalog.digests():
            csr = catalog.base(digest)
            comp = catalog.reachability(digest)  # recompute-or-rehydrate
            assert comp.canonical_form()  # a real artifact either way
            assert csr.digest() == digest
        assert catalog.quarantined() == []

    def test_fresh_session_survives_orphaned_tmp_files(self, tmp_path):
        self._run_killed_writer(tmp_path, "store.write.replace")
        g = _graph()
        csr = CSRGraph.from_digraph(g)
        catalog = SnapshotCatalog(tmp_path)  # sweeps stale temps on open
        digest = catalog.warm(csr)
        assert catalog.base(digest).digest() == digest


# ----------------------------------------------------------------------
# Satellite 2 — stale-lock reclamation tied to pid liveness
# ----------------------------------------------------------------------
class TestStaleLockReclamation:
    def _plant_lock(self, tmp_path, pid, age_s=120.0):
        lock_path = tmp_path / ".lock"
        lock_path.write_text(
            f"pid={pid} owner=1 acquired={time.time() - age_s:.3f}\n"
        )
        old = time.time() - age_s
        os.utime(lock_path, (old, old))
        return lock_path

    def test_dead_owner_lock_is_reclaimed(self, tmp_path):
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait()
        self._plant_lock(tmp_path, child.pid)
        lock = _DirectoryLock(tmp_path / ".lock", timeout=2.0, stale_after=1.0)
        with lock:  # breaks the stale file, acquires
            assert (tmp_path / ".lock").exists()
        assert not (tmp_path / ".lock").exists()

    def test_live_owner_with_stale_heartbeat_is_honoured(self, tmp_path):
        # A stale mtime alone is not proof of death: the owner's heartbeat
        # thread can die while its critical section lives on.  Our own pid
        # is definitionally alive, so the lock must NOT be reclaimed.
        self._plant_lock(tmp_path, os.getpid())
        lock = _DirectoryLock(tmp_path / ".lock", timeout=0.3, stale_after=1.0)
        with pytest.raises(CatalogLockError):
            with lock:
                pass
        assert (tmp_path / ".lock").exists()  # untouched

    def test_unreadable_pid_falls_back_to_age(self, tmp_path):
        lock_path = tmp_path / ".lock"
        lock_path.write_text("gibberish with no token\n")
        old = time.time() - 120.0
        os.utime(lock_path, (old, old))
        lock = _DirectoryLock(lock_path, timeout=2.0, stale_after=1.0)
        with lock:
            pass
        assert not lock_path.exists()

    def test_fresh_lock_is_never_broken(self, tmp_path):
        self._plant_lock(tmp_path, 999999, age_s=0.0)  # just touched
        lock = _DirectoryLock(tmp_path / ".lock", timeout=0.3, stale_after=60.0)
        with pytest.raises(CatalogLockError):
            with lock:
                pass


# ----------------------------------------------------------------------
# Satellite 3 — bit-flip fuzzing over the snapshot format
# ----------------------------------------------------------------------
class TestBitFlipFuzzing:
    @pytest.fixture(scope="class")
    def snapshot_bytes(self):
        return dump_bytes(CSRGraph.from_digraph(_graph()))

    def _flip_positions(self, data):
        # Deterministic sample across the three format regions: the fixed
        # header, the early body (counts + label table + node ids), and
        # the varint adjacency tail.
        positions = list(range(HEADER_SIZE))  # every header byte
        body_len = len(data) - HEADER_SIZE
        early = [HEADER_SIZE + (k * 7) % max(1, body_len // 3)
                 for k in range(12)]
        tail_base = HEADER_SIZE + (2 * body_len) // 3
        tail = [tail_base + (k * 11) % max(1, len(data) - tail_base)
                for k in range(12)]
        return sorted(set(positions + early + tail))

    def test_every_flip_raises_a_typed_snapshot_error(self, tmp_path, snapshot_bytes):
        path = tmp_path / "fuzz.rgs"
        for pos in self._flip_positions(snapshot_bytes):
            for mask in (0x01, 0x80):
                mangled = bytearray(snapshot_bytes)
                mangled[pos] ^= mask
                path.write_bytes(bytes(mangled))
                # The contract: *always* the typed error, never IndexError,
                # struct.error, UnicodeDecodeError or a silently-wrong graph.
                with pytest.raises(SnapshotError):
                    load_snapshot(path)

    def test_truncations_raise_typed_errors(self, tmp_path, snapshot_bytes):
        path = tmp_path / "trunc.rgs"
        for cut in (0, 3, HEADER_SIZE - 1, HEADER_SIZE,
                    HEADER_SIZE + 5, len(snapshot_bytes) - 1):
            path.write_bytes(snapshot_bytes[:cut])
            with pytest.raises(SnapshotError):
                load_snapshot(path)

    def test_intact_snapshot_still_loads(self, tmp_path, snapshot_bytes):
        path = tmp_path / "ok.rgs"
        path.write_bytes(snapshot_bytes)
        g = _graph()
        assert load_snapshot(path).digest() == CSRGraph.from_digraph(g).digest()

    def test_corrupt_variant_quarantined_exactly_once(self, tmp_path):
        catalog = SnapshotCatalog(tmp_path)
        csr = CSRGraph.from_digraph(_graph())
        digest = catalog.put(csr)
        clean = catalog.reachability(digest).canonical_form()
        variant = tmp_path / digest / "variants" / "reachability.rpv"
        data = bytearray(variant.read_bytes())
        data[HEADER_SIZE + 9] ^= 0xFF
        variant.write_bytes(bytes(data))

        # First read: corruption detected, file quarantined, artifact
        # recomputed from the base — byte-identical to the clean run.
        assert catalog.reachability(digest).canonical_form() == clean
        assert len(catalog.quarantined()) == 1
        # The rebuild rewrote the variant; the next read is a warm hit and
        # must not quarantine anything further.
        assert variant.exists()
        assert catalog.reachability(digest).canonical_form() == clean
        assert len(catalog.quarantined()) == 1

    def test_corrupt_base_quarantined_and_repairable(self, tmp_path):
        from repro.store.catalog import CatalogError

        catalog = SnapshotCatalog(tmp_path)
        csr = CSRGraph.from_digraph(_graph())
        digest = catalog.put(csr)
        base = tmp_path / digest / "base.rgs"
        data = bytearray(base.read_bytes())
        data[HEADER_SIZE + 4] ^= 0x42
        base.write_bytes(bytes(data))

        fresh = SnapshotCatalog(tmp_path)  # no memo cache
        with pytest.raises(CatalogError):
            fresh.base(digest)
        assert len(fresh.quarantined()) == 1
        assert digest not in fresh  # the entry stopped advertising itself
        # Re-putting the graph repairs the entry in place.
        assert fresh.put(csr) == digest
        fresh2 = SnapshotCatalog(tmp_path)
        assert fresh2.base(digest).digest() == digest
