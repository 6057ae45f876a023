"""The package's public surface and the example scripts that use it.

``repro.__all__`` is pinned name by name, so adding or removing an export
is a deliberate edit here and in the table of the package docstring.  The
scripts under ``examples/`` run end to end in a subprocess, from an empty
working directory they must leave empty.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))

PUBLIC_NAMES = [
    "CSRGraph",
    "CompressionStats",
    "DiGraph",
    "EngineService",
    "Epoch",
    "GraphEngine",
    "GraphPattern",
    "IncrementalMatcher",
    "IncrementalPatternCompressor",
    "IncrementalReachabilityCompressor",
    "MatchContext",
    "NodeIndexer",
    "Partition",
    "PatternCompression",
    "QueryExecutor",
    "QueryPreservingCompression",
    "QueryRouter",
    "ReachabilityCompression",
    "ReachabilityQuery",
    "RouterStats",
    "STAR",
    "SnapshotCatalog",
    "__version__",
    "bisimulation_partition",
    "boolean_match",
    "compress_pattern",
    "compress_reachability",
    "evaluate_reachability",
    "load_snapshot",
    "match",
    "merge_deltas",
    "reachability_partition",
    "save_snapshot",
    "simulation",
]


def test_engine_exports_no_epoch_lifecycle_error():
    """``EpochRetired`` was removed from ``repro.engine`` (and from the
    executor's retryable errors): an epoch has no retired or freed state to
    refuse from.  Reference counting frees it when its last reader drops it,
    so a reader can never hold a freed one."""
    import repro.engine

    assert "EpochRetired" not in repro.engine.__all__
    assert not hasattr(repro.engine, "EpochRetired")
    assert not hasattr(repro.engine.Epoch, "retire")


def test_public_names_are_pinned_documented_and_resolve():
    assert sorted(repro.__all__) == PUBLIC_NAMES
    for name in repro.__all__:
        getattr(repro, name)
        assert f"``{name}``" in repro.__doc__, name


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_runs_and_writes_nothing(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert list(tmp_path.iterdir()) == []
