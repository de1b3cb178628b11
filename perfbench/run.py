"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload replay_churn --seed 3 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (with its tracing overhead).  Human-readable
lines (host record, output checks, details) come first; the last line
of standard output is the JSON result.  Any failed output check makes
``correct`` false and the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("serve_http", "replay_churn", "sweep")
#: The seed whose oracle results are recorded in goldens.json.
DEFAULT_SEED = 0
GOLDENS = Path(__file__).resolve().parent / "goldens.json"


@dataclass
class Context:
    """What a workload's ``run`` receives."""

    seed: int
    seconds: float
    trace: bool
    root: Path
    work: Path
    goldens: "dict[str, str]" = field(default_factory=dict)
    recorded: "dict[str, str]" = field(default_factory=dict)

    def golden(self, key: str, compute) -> str:
        """The recorded oracle value for the default seed, else ``compute()``."""
        if self.seed == DEFAULT_SEED and key in self.goldens:
            return self.goldens[key]
        value = compute()
        if self.seed == DEFAULT_SEED:
            self.recorded[key] = value
        return value


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-goldens", action="store_true",
                        help="recompute the default seed's oracle results "
                        "and write them to goldens.json")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}; run from a "
              "full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    import importlib

    from perfbench import common

    module = importlib.import_module(f"perfbench.{args.workload}")
    goldens = {}
    if GOLDENS.is_file() and not args.record_goldens:
        goldens = json.loads(GOLDENS.read_text())["values"]
    with common.WorkDir(ROOT, args.workload) as work:
        host = common.host_record(work)
        ctx = Context(seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
                      root=ROOT, work=work, goldens=goldens)
        result = module.run(ctx)

    if args.record_goldens:
        if args.seed != DEFAULT_SEED:
            print("error: goldens are recorded for the default seed", file=sys.stderr)
            return 2
        stored = json.loads(GOLDENS.read_text()) if GOLDENS.is_file() else {
            "seed": DEFAULT_SEED, "values": {}}
        stored["values"].update(ctx.recorded)
        GOLDENS.write_text(json.dumps(stored, indent=2, sort_keys=True) + "\n")

    checks = result["checks"]
    print("host: " + json.dumps(host, sort_keys=True))
    print("checks: " + json.dumps(checks, sort_keys=True))
    print("details: " + json.dumps(result.get("details", {}), sort_keys=True))
    if args.trace:
        print("untraced end_to_end: " + json.dumps(result["end_to_end"], sort_keys=True))
        values, units = result["layers"], common.PER_LAYER
    else:
        values, units = result["end_to_end"], common.END_TO_END
    correct = all(checks.values())
    print(result_line(correct, result["attempted"], result["failed"], values, units))
    return 0 if correct else 1


def result_line(correct: bool, attempted: int, failed: int, values, units) -> str:
    """The final JSON line: every metric of ``units`` by name, with its unit."""
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    })


if __name__ == "__main__":
    sys.exit(main())
