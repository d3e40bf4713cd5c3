"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import json
import math
import random
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import NAMES, WORKLOADS, FiniteSearch, consequence, instance  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_emits_every_named_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0",
                  "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    declared = BENCH["end_to_end" if trace == "0" else "per_layer"]
    assert {k: v["unit"] for k, v in out["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _bench("--workload", "finite-search", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _first(reqs, pred):
    return next(q for q in reqs if pred(q))


def test_wrong_expected_verdict_is_caught():
    reqs = FiniteSearch(ROOT, "tiny").round(run.DEFAULT_SEED, 0)
    req = _first(reqs, lambda q: q.expect == "holds")
    record = run.Record(req, 0.0, req.run())
    assert run.verify([record], {})[0] == 0
    req.expect = "fails"                                # deliberately wrong
    assert run.verify([record], {})[0] == 1
    req.expect = None
    assert run.verify([record], {req.qid: "fails"})[0] == 1   # wrong expected.json


def test_bogus_countermodel_is_caught():
    reqs = FiniteSearch(ROOT, "tiny").round(run.DEFAULT_SEED, 0)
    req = _first(reqs, lambda q: q.expect == "holds")
    res, premises, goal = req.run()
    res.verdict = "fails"
    res.assignment = {name: 1 for name in NAMES}    # a valid schema is 1 there
    req.expect = None
    assert oracle.check(req, (res, premises, goal))


def test_deadline_overrun_lands_in_failed_share():
    model = FiniteSearch(ROOT, "tiny").models["W15"]
    # six variables on W15: 16**6 assignments, far beyond a one-second deadline
    req = consequence("r0.q0", model, "truth", [],
                      instance(random.Random(0), "A1", NAMES[:6], (2,)))
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    try:
        wall, records = run.run_round([req], 1, math.inf)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert records[0].error.startswith("missed")
    wrong, decided, failed, _ = run.verify(records, {})
    assert (wrong, decided, failed) == (0, 0, 1)


def test_tracer_patches_every_importer_and_restores():
    import mtlfi.cli as cli
    import mtlfi.semantics as sem
    import mtlfi.suite as suite
    original, criterion = sem.truth_consequence, suite.criterion_3
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert sem.truth_consequence is not original
        assert suite.truth_consequence is sem.truth_consequence
        assert cli.truth_consequence is sem.truth_consequence
        assert suite.CRITERIA[3] is suite.criterion_3 is not criterion
        assert suite.CRITERIA[3]().passed
    finally:
        tracer.uninstall()
    assert sem.truth_consequence is suite.truth_consequence is original
    assert suite.CRITERIA[3] is criterion
    names = {span[0] for span in tracer.spans}
    assert {"suite.criterion_03", "operators.enumerate_ops"} <= names
    assert tracer.counters["operators.enumerate_ops.candidates"] > 0
    self_ns = tracing.self_times_ns(tracer.spans)
    total = sum(end - start for name, start, end, parent, _ in tracer.spans if parent < 0)
    assert sum(self_ns.values()) == total
