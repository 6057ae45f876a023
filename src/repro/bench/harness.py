"""Experiment framework: results, rendering and the experiment registry."""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple


@dataclass
class ExperimentResult:
    """One regenerated table/figure.

    ``rows`` hold the data series the paper plots; ``checks`` are the
    paper's qualitative claims evaluated against the measured data —
    ``(description, passed)`` pairs that the pytest benchmarks assert.
    """

    experiment: str
    title: str
    columns: List[str]
    rows: List[dict]
    checks: List[Tuple[str, bool]] = field(default_factory=list)
    notes: str = ""

    def passed(self) -> bool:
        return all(ok for _, ok in self.checks)

    def failed_checks(self) -> List[str]:
        return [desc for desc, ok in self.checks if not ok]

    def to_text(self) -> str:
        """Render as a monospace table with the check summary."""
        widths = {c: len(c) for c in self.columns}
        formatted: List[Dict[str, str]] = []
        for row in self.rows:
            out = {}
            for c in self.columns:
                val = row.get(c, "")
                if isinstance(val, float):
                    text = f"{val:.3g}" if abs(val) < 1000 else f"{val:.0f}"
                else:
                    text = str(val)
                out[c] = text
                widths[c] = max(widths[c], len(text))
            formatted.append(out)
        lines = [f"== {self.experiment}: {self.title} =="]
        header = "  ".join(c.ljust(widths[c]) for c in self.columns)
        lines.append(header)
        lines.append("-" * len(header))
        for out in formatted:
            lines.append("  ".join(out[c].ljust(widths[c]) for c in self.columns))
        if self.notes:
            lines.append(f"note: {self.notes}")
        for desc, ok in self.checks:
            lines.append(f"[{'PASS' if ok else 'FAIL'}] {desc}")
        return "\n".join(lines)


#: experiment id -> module path implementing ``run(quick: bool)``.
_EXPERIMENTS: Dict[str, str] = {
    "table1": "repro.bench.experiments.table1",
    "table2": "repro.bench.experiments.table2",
    "fig1": "repro.bench.experiments.fig1",
    "fig12a": "repro.bench.experiments.fig12a",
    "fig12b": "repro.bench.experiments.fig12b",
    "fig12c": "repro.bench.experiments.fig12c",
    "fig12d": "repro.bench.experiments.fig12d",
    "fig12e": "repro.bench.experiments.fig12e",
    "fig12f": "repro.bench.experiments.fig12f",
    "fig12g": "repro.bench.experiments.fig12g",
    "fig12h": "repro.bench.experiments.fig12h",
    "fig12i": "repro.bench.experiments.fig12i",
    "fig12j": "repro.bench.experiments.fig12j",
    "fig12k": "repro.bench.experiments.fig12k",
    "fig12l": "repro.bench.experiments.fig12l",
    "ablations": "repro.bench.experiments.ablations",
}

REGISTRY: Dict[str, Callable[[bool], ExperimentResult]] = {}


def _loader(module_path: str) -> Callable[[bool], ExperimentResult]:
    def run(quick: bool = True) -> ExperimentResult:
        module = importlib.import_module(module_path)
        return module.run(quick=quick)

    return run


for _eid, _path in _EXPERIMENTS.items():
    REGISTRY[_eid] = _loader(_path)


def available() -> List[str]:
    return list(_EXPERIMENTS)


def run_experiment(experiment_id: str, quick: bool = True) -> ExperimentResult:
    """Run one experiment by id (see :func:`available`)."""
    try:
        runner = REGISTRY[experiment_id]
    except KeyError:
        raise ValueError(
            f"unknown experiment {experiment_id!r}; available: {available()}"
        ) from None
    return runner(quick)
