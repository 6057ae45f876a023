"""Drift guard for the repository benchmark (``BENCHMARK.json`` + this directory).

A ``--scale smoke`` run of all four workloads, both passes, checked for:
the printed workload / metric names and units are exactly the declared ones;
no operation failed; the seed (and nothing else, not even ``PYTHONHASHSEED``)
decides the inputs and every exact count; nothing tracked is written.
No assertion here depends on a timing.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Counts that must repeat exactly for one seed (marked † in the README).
EXACT = {
    "end_to_end": ["stored_bytes_per_edge"],
    "per_layer": ["core.gr_ratio", "core.gb_ratio", "index.tol_entries",
                  "store.v1_bytes_per_edge", "store.v2_bytes_per_edge"],
}


def start_bench(out: Path, *args: str, hashseed: str = "0") -> subprocess.Popen:
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    return subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--scale", "smoke", "--seconds", "1",
         "--out", str(out), *args],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )


def finish(process: subprocess.Popen) -> str:
    stdout, _ = process.communicate(timeout=180)
    assert process.returncode == 0, stdout[-3000:]
    return stdout


def git_status() -> str | None:
    if shutil.which("git") is None or not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                          capture_output=True, text=True)
    return done.stdout if done.returncode == 0 else None


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """Seed 7 under two hash seeds (side by side), and one workload of seed 8."""
    out, again, other = (tmp_path_factory.mktemp(name) for name in ("smoke", "again", "other"))
    before = git_status()
    runs = [start_bench(out, "--seed", "7"),
            start_bench(again, "--seed", "7", hashseed="1"),
            start_bench(other, "--seed", "8", "--workload", "pattern_social", "--trace", "0")]
    stdout = [finish(run) for run in runs][0]
    after = git_status()
    return {"result": json.loads((out / "result.json").read_text()),
            "again": json.loads((again / "result.json").read_text()),
            "other": json.loads((other / "run_pattern_social_trace0.json").read_text()),
            "stdout": stdout, "out": out, "git": (before, after)}


def exact_counts(result: dict) -> dict:
    return {
        (workload, metric): entry[section][metric]["values"]
        for workload, entry in result["workloads"].items()
        for section, metrics in EXACT.items()
        for metric in metrics
    }


def test_printed_names_and_units_are_the_declared_ones(smoke):
    result = smoke["result"]
    assert sorted(result["workloads"]) == sorted(w["name"] for w in DECLARED["workloads"])
    for section in ("end_to_end", "per_layer"):
        declared = {m["name"]: m["unit"] for m in DECLARED[section]}
        for workload, entry in result["workloads"].items():
            printed = {name: cell["unit"] for name, cell in entry[section].items()}
            assert printed == declared, (workload, section)
    # The last line of every single run is the driver's JSON object.
    finals = [json.loads(line) for line in smoke["stdout"].splitlines() if line.startswith("{")]
    assert len(finals) == 2 * len(DECLARED["workloads"])
    for final in finals:
        assert sorted(final) == ["attempted", "correct", "failed", "metrics"]


def test_every_answer_is_right_and_every_metric_is_a_number(smoke):
    for workload, entry in smoke["result"]["workloads"].items():
        assert entry["failed"] == [0, 0], workload
        assert all(n >= 1 for n in entry["attempted"]), workload
        for section in ("end_to_end", "per_layer"):
            for name, cell in entry[section].items():
                (value,) = cell["values"]
                assert value == value and abs(value) != float("inf"), (workload, name)
        for name, cell in entry["end_to_end"].items():
            assert cell["values"][0] > 0, (workload, name)
    payload = smoke["result"]
    assert payload["cpus"] == os.cpu_count() and payload["scale"] == "smoke"
    assert payload["python"] and payload["seed"] == 7


def test_trace_files_hold_roots_and_probes(smoke):
    for workload in smoke["result"]["workloads"]:
        spans = [json.loads(line)
                 for line in (smoke["out"] / f"trace_{workload}.jsonl").read_text().splitlines()]
        roots = [s for s in spans if s["parent"] is None]
        assert roots and len(roots) < len(spans)
        assert all(s["end"] >= s["start"] for s in spans)
        assert {s["parent"] for s in spans if s["parent"] is not None} <= {s["span"] for s in roots}


def test_the_seed_alone_decides_inputs_and_exact_counts(smoke):
    first, same = smoke["result"], smoke["again"]  # PYTHONHASHSEED 0 and 1
    for workload, entry in first["workloads"].items():
        assert same["workloads"][workload]["inputs_sha256"] == entry["inputs_sha256"], workload
        assert len(entry["inputs_sha256"]) == 1  # both passes saw the same inputs
    assert exact_counts(same) == exact_counts(first)
    seed7 = first["workloads"]["pattern_social"]["inputs_sha256"]
    assert [smoke["other"]["inputs_sha256"]] != seed7


def test_a_run_leaves_the_work_tree_as_it_was(smoke):
    before, after = smoke["git"]
    if before is None:
        pytest.skip("not a git checkout")
    assert after == before
    assert not list(smoke["out"].glob("work-*")), "scratch directories are removed"


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "reach_dag", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())


def test_compare_tells_regressed_from_unresolved(tmp_path):
    def result(values):
        cell = {"unit": "1/s", "values": values}
        return {"workloads": {"reach_dag": {"end_to_end": {"routed_qps": cell}, "per_layer": {}}}}

    bound = next(m["bound"] for m in DECLARED["end_to_end"] if m["name"] == "routed_qps")
    steady = [100.0, 100.5, 99.5, 100.2]
    cases = {
        "ok": [v * (1 - bound / 2) for v in steady],
        "regressed": [v * (1 - 2 * bound) for v in steady],
        "unresolved": [100.0, 100.0 * (1 + 4 * bound), 100.0 / (1 + 4 * bound), 100.0],
    }
    (tmp_path / "a.json").write_text(json.dumps(result(steady)))
    for status, values in cases.items():
        (tmp_path / "b.json").write_text(json.dumps(result(values)))
        done = subprocess.run(
            [sys.executable, str(HERE / "compare.py"), str(tmp_path / "a.json"),
             str(tmp_path / "b.json")], capture_output=True, text=True, timeout=60,
        )
        row = next(line for line in done.stdout.splitlines() if line.startswith("routed_qps"))
        assert row.split()[-1] == status, done.stdout
        assert done.returncode == (1 if status == "regressed" else 0)
