#!/usr/bin/env python3
"""Rewrite ``expected.json``: the verdicts of round 0 at the default seed.

    python3 perfbench/record_expected.py

``run.py`` compares every round-0 verdict of a default-seed run with this
file and counts each difference as a wrong verdict.  Regenerate it only for
an intended change of verdicts or of the request generator, and review the
diff.  A request whose outcome fails the oracle stops the rewrite.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracle  # noqa: E402
from run import DEFAULT_SEED  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    out = {"seed": DEFAULT_SEED, "round": 0, "workloads": {}}
    for name, cls in WORKLOADS.items():
        if name == "paper-suite":       # fixed expectation: exit 0, "12/12"
            continue
        verdicts = {}
        for req in cls(HERE.parent).round(DEFAULT_SEED, 0):
            outcome = req.run()
            problems = oracle.check(req, outcome)
            if problems:
                print(f"{name} {req.qid}: {problems}", file=sys.stderr)
                return 1
            verdicts[req.qid] = oracle.summary(req, outcome)
        out["workloads"][name] = verdicts
    (HERE / "expected.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
