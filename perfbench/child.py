"""Traced child interpreter for the workloads that start a fresh process.

    python3 perfbench/child.py setup SPANS.json
    python3 perfbench/child.py suite SPANS.json [--criteria N,...]

``setup`` imports ``mtlfi.cli`` and builds a ``Workspace``; ``suite`` runs
``mtlfi.cli.main(["suite", "paper", ...])``.  The tracer is installed right
after the import, whose duration is recorded as the ``setup.import_ns``
counter; spans and counters are written to SPANS.json at exit.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))


def main() -> int:
    mode, spans_path = sys.argv[1], sys.argv[2]
    start = time.perf_counter_ns()
    import mtlfi.cli
    import_ns = time.perf_counter_ns() - start
    from tracing import Tracer
    tracer = Tracer()
    tracer.query_id = mode
    tracer.install()
    try:
        if mode == "setup":
            mtlfi.cli.Workspace()
            code = 0
        else:
            code = mtlfi.cli.main(["suite", "paper"] + sys.argv[3:])
    finally:
        tracer.uninstall()
    tracer.counters["setup.import_ns"] = import_ns
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
