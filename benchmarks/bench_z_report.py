"""Assembles EXPERIMENTS.md from all staged benchmark sections.

Runs last (alphabetical collection order) so every bench in this session
has already staged its section; stale sections from earlier sessions are
kept, so partial re-runs refresh only what they ran.
"""

from __future__ import annotations

from repro.analysis.reporting import write_experiments_md

from benchmarks.common import REPO_ROOT, RESULTS_DIR, run_once

#: Machine-readable artifacts the bench suite stages (one per bench
#: that calls ``stage_json``); a full run should leave exactly these
#: under ``benchmarks/results/`` for CI to archive.
EXPECTED_ARTIFACTS = (
    "BENCH_E16.json",  # batched decision core
    "BENCH_E17.json",  # out-of-core trace store
    "BENCH_E18.json",  # admission service over HTTP
    "BENCH_E19.json",  # group-commit batching
)

HEADER = """\
# EXPERIMENTS — paper claims vs. measured results

Reproduction of **"Video Distribution Under Multiple Constraints"**
(Patt-Shamir & Rawitz, ICDCS 2008; TCS 412(2011) 3717-3730).

The paper is analytic — it proves worst-case approximation and
competitive ratios and contains **no experimental tables**; its figures
are a system schematic (Fig. 1), a notation glossary (Fig. 2) and an
illustration of the interval decomposition (Fig. 3).  The reproduction
therefore regenerates an *empirical validation of every theorem* plus
the paper's motivating system-level claim, as indexed in DESIGN.md §4.
Every section below is emitted by one bench target under `benchmarks/`
(run `pytest benchmarks/ --benchmark-only -s` to regenerate); "paper
bound" columns are the proved worst-case constants evaluated at each
instance's own parameters, and measured ratios must stay below them.

Reading guide: measured ratios far below the bounds are the expected
outcome — the paper proves *worst-case* guarantees, and only the §4.2
adversarial family (E6) is designed to make the machinery actually pay
its full price.
"""


def bench_z_assemble_report(benchmark):
    def assemble():
        return write_experiments_md(
            str(RESULTS_DIR), str(REPO_ROOT / "EXPERIMENTS.md"), HEADER
        )

    document = run_once(benchmark, assemble)
    assert "## E1" in document
    print(f"\nEXPERIMENTS.md written ({len(document)} chars, "
          f"{document.count('## ')} sections)")
    artifacts = sorted(RESULTS_DIR.glob("BENCH_*.json"))
    if artifacts:
        print(f"raw artifacts staged ({len(artifacts)}):")
        for path in artifacts:
            print(f"  {path.relative_to(REPO_ROOT)}")
    staged = {path.name for path in artifacts}
    missing = [name for name in EXPECTED_ARTIFACTS if name not in staged]
    if missing:
        # Partial re-runs legitimately skip benches; say what's absent
        # instead of letting a silently missing artifact look complete.
        print(f"expected artifacts not staged this run: {', '.join(missing)}")
