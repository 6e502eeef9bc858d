"""Run one benchmark workload and print its result.

Usage, from the repository root::

    python3 perfbench/run.py --workload retrieve-hot --seed 1 \\
        --seconds 12 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The lines above it repeat the numbers by name and unit, with the
correctness checks.  Exit code 0 when every check passed, 1 when one
failed, 2 on bad arguments or a checkout without the program's sources.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("retrieve-hot", "daemon-churn")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"error: no program sources under {ROOT / 'src'} — run from a "
            "full checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import harness

    if args.workload == "daemon-churn":
        from perfbench.daemon import daemon_churn as workload
    else:
        from perfbench.inprocess import retrieve_hot as workload
    outcome = workload(args.seed, args.seconds, bool(args.trace))
    print("\n".join(harness.render(outcome)), flush=True)
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
