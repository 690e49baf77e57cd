"""Seeded multi-hop QA benchmark for tasr.

Usage, from the repository root:

    python3 perfbench/run.py --workload remote-chain --seed 1 --seconds 20 --trace 0

Generates the workload's corpus, dataset and gold files from the seed, builds
the pipeline on fresh state several times, answers questions for
``--seconds`` and checks the answers. ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs an untraced pass and then the same questions
traced, and prints the per-layer metrics. The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``. The exit
code is 0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "tasr").is_dir():
        print(f"perfbench: no tasr sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import harness

    if args.workload not in harness.WORKLOADS:
        known = ", ".join(sorted(harness.WORKLOADS))
        print(f"perfbench: unknown workload {args.workload!r} (known: {known})", file=sys.stderr)
        return 2
    inp = harness.prepare(args.workload, args.seed, OUT)
    run = harness.traced_run if args.trace else harness.untraced_run
    result, failures = run(inp, args.seconds)
    (inp.out_dir / f"result-trace{args.trace}.json").write_text(
        json.dumps(result, indent=2) + "\n", encoding="utf-8"
    )
    for failure in failures:
        print(f"perfbench: FAIL {failure}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} machine={json.dumps(result['machine'])}")
    for name, metric in result["metrics"].items():
        print(f"# {name:40s} {metric['value']:14.6g} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": result["metrics"],
            }
        )
    )
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
