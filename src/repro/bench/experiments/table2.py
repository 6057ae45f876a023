"""Table 2 — graph pattern preserving compression ratios (``PCr``).

Shape claims: graphs compress meaningfully under bisimulation (suite avg
well below 100%), the Internet hierarchy compresses best, and every
dataset's ``PCr`` exceeds its ``RCr`` (pattern preservation demands more
structure than reachability preservation — the paper's Section 6
observation "compressR performs better than compressB over all datasets").
The datasets are the synthetic stand-ins of :mod:`repro.datasets.catalog`:
compare shape only.
"""

from __future__ import annotations

from repro.bench.harness import ExperimentResult
from repro.core.pattern import compress_pattern
from repro.core.reachability import compress_reachability
from repro.datasets.catalog import pattern_suite


def run(quick: bool = True) -> ExperimentResult:
    scale = 0.6 if quick else 1.0
    rows = []
    measured = {}
    for spec in pattern_suite():
        g = spec.build(seed=1, scale=scale)
        pc = compress_pattern(g)
        rc = compress_reachability(g)
        pcr = 100.0 * pc.stats().ratio
        rcr = 100.0 * rc.stats().ratio
        measured[spec.name] = (pcr, rcr)
        rows.append(
            {
                "dataset": spec.name,
                "|V|": g.order(),
                "|E|": g.size(),
                "|L|": len(g.label_set()),
                "PCr%": round(pcr, 2),
                "paper PCr%": spec.paper_table2,
                "RCr%": round(rcr, 3),
            }
        )

    checks = [
        (
            "pattern compression is effective (suite avg PCr < 70%)",
            sum(m[0] for m in measured.values()) / len(measured) < 70.0,
        ),
        (
            "internet (regular hierarchy) compresses best",
            measured["internet"][0] == min(m[0] for m in measured.values()),
        ),
        (
            "compressR beats compressB on every dataset (RCr < PCr)",
            all(rcr < pcr for pcr, rcr in measured.values()),
        ),
    ]
    return ExperimentResult(
        experiment="table2",
        title="Pattern preserving compression ratios",
        columns=["dataset", "|V|", "|E|", "|L|", "PCr%", "paper PCr%", "RCr%"],
        rows=rows,
        checks=checks,
        notes="synthetic stand-ins (see the table2 docstring); compare shape, not absolutes",
    )
