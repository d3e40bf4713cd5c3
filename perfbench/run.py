#!/usr/bin/env python3
"""The mtlfi benchmark: one in-process client, closed loop, no threads.

    python3 perfbench/run.py --workload finite-search --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  It builds nothing: the program is the
``src/mtlfi`` package of the checkout.  A run measures set-up time, then
runs seeded rounds of requests (see ``workloads.py``) until ``--seconds``
have passed, checks every verdict (``oracle.py``) and prints a table of the
metrics followed by one JSON line with ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced copies of each round and reports per-layer
metrics (``tracing.py``).  A result file with a provenance block is written
to ``perfbench/results/``.

Each request runs under a per-query deadline enforced with ``signal.alarm``
in the main thread; a request that raises or misses it counts as failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

DEFAULT_SEED = 1
SETUP_LAUNCHES = 7
TRACED_SETUP_LAUNCHES = 3
GRACE_S = 60        # no request starts later than --seconds plus this

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "latency_ms.p50": "ms", "latency_ms.p90": "ms",
    "decided_share": "ratio", "peak_rss_mb": "MB",
}
SELF_MS = [
    "semantics.consequence_finite", "semantics.compile_finite",
    "semantics.consequence_sampled", "semantics.consequence_standard",
    "semantics.check_propagation", "semantics.check_lfi",
    "semantics.check_dat_axiom", "semantics.pdat_search",
    "operators.enumerate_ops", "operators.validate_c",
    "operators.validate_algebraic", "operators.validate_bullet",
    "hilbert.parse_proof", "hilbert.verify_proof", "hilbert.validate_pairing",
    "hilbert.soundness_bridge", "formula.parse", "formula.normalize",
    "formula.match_schema", "chain.validate_mtl_laws", "chain.builtin_chains",
    "cli.main",
]
COUNTS = [
    "semantics.consequence_finite.assignments", "semantics.consequence_finite.sampled",
    "semantics.consequence_standard.assignments", "semantics.evaluate.nodes",
    "chain.standard_arith.calls", "operators.value.calls",
    "operators.enumerate_ops.candidates", "hilbert.lines_checked",
    "formula.parse.calls",
]


class Deadline(Exception):
    pass


def _on_alarm(signum, frame):
    raise Deadline()


@dataclass
class Record:
    req: object
    latency_s: float
    out: object = None
    error: str = None
    traced: bool = False


def execute(req, deadline_s: int):
    """Run one request under the deadline; returns (outcome, error)."""
    signal.alarm(deadline_s)
    try:
        try:
            return req.run(), None
        finally:
            signal.alarm(0)
    except Deadline:
        return None, f"missed the {deadline_s} s deadline"
    except Exception as exc:  # a failed request is counted, the run goes on
        return None, f"{type(exc).__name__}: {exc}"


def run_round(reqs, deadline_s, stop_at, traced=False):
    """Closed loop over one round; returns (wall_s, records)."""
    records, first, last = [], None, None
    for req in reqs:
        if time.perf_counter() > stop_at:
            records.append(Record(req, 0.0, None, "not started: run budget spent", traced))
            continue
        t0 = time.perf_counter()
        out, error = execute(req, deadline_s)
        t1 = time.perf_counter()
        first = t0 if first is None else first
        last = t1
        records.append(Record(req, t1 - t0, out, error, traced))
    return (last - first if first is not None else 0.0), records


# ---------------------------------------------------------------------------
# Set-up time

class SetupClock:
    """Seconds from a fresh interpreter to ``Workspace()`` ready, per launch.

    The machine's speed drifts over seconds, so the launches are spread over
    the run instead of taken back to back: an untimed warm-up launch (it
    fills the file cache) and one timed launch before the first round, two
    after each round, and the rest after the last round.
    """

    def __init__(self, launches: int):
        self.left = launches
        self.times = []
        self._launch()
        self.take(1)

    @staticmethod
    def _launch() -> float:
        from workloads import child_env
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import mtlfi.cli; mtlfi.cli.Workspace()"],
                       cwd=ROOT, env=child_env(ROOT), check=True)
        return time.perf_counter() - t0

    def take(self, n: int) -> None:
        for _ in range(min(n, self.left)):
            self.times.append(self._launch())
            self.left -= 1


def traced_setup(launches: int, scratch: Path) -> dict:
    from tracing import self_times_ns
    from workloads import child_env
    imports, builds = [], []
    path = scratch / "setup-spans.json"
    for _ in range(launches):
        subprocess.run([sys.executable, str(HERE / "child.py"), "setup", str(path)],
                       cwd=ROOT, env=child_env(ROOT), check=True)
        data = json.loads(path.read_text())
        path.unlink()
        imports.append(data["counters"]["setup.import_ns"] / 1e6)
        builds.append(self_times_ns(data["spans"]).get("chain.builtin_chains", 0) / 1e6)
    return {"setup.import_ms": statistics.median(imports),
            "setup.builtin_chains_ms": statistics.median(builds)}


# ---------------------------------------------------------------------------
# The run

def run_workload(workload, seed, seconds, deadline_s, trace, scratch, after_round):
    """Rounds until ``seconds`` pass.  Returns (walls, latencies, traced,
    records); ``latencies`` holds each untraced round's latencies in ms."""
    from tracing import Tracer
    start = time.perf_counter()
    stop_at = start + seconds + GRACE_S
    walls, latencies, traced, records = [], [], [], []
    r = 0
    while r == 0 or time.perf_counter() - start < seconds:
        wall, recs = run_round(workload.round(seed, r), deadline_s, stop_at)
        walls.append(wall)
        latencies.append([rec.latency_s * 1e3 for rec in recs])
        records += recs
        if trace:
            if workload.name == "paper-suite":
                spans_path = scratch / f"suite-spans-r{r}.json"
                wall_t, recs = run_round(workload.round(seed, r, spans_path),
                                         deadline_s, stop_at, traced=True)
                data = (json.loads(spans_path.read_text()) if spans_path.exists()
                        else {"spans": [], "counters": {}})
                spans_path.unlink(missing_ok=True)
                spans, counters = data["spans"], data["counters"]
            else:
                reqs = workload.round(seed, r)
                tracer = Tracer()
                for req in reqs:
                    req.run = _with_query_id(tracer, req)
                tracer.install()
                try:
                    wall_t, recs = run_round(reqs, deadline_s, stop_at, traced=True)
                finally:
                    tracer.uninstall()
                spans, counters = tracer.spans, dict(tracer.counters)
            traced.append({"round": r, "wall_s": wall_t, "untraced_wall_s": wall,
                           "spans": spans, "counters": counters})
            records += recs
        after_round()
        r += 1
    return walls, latencies, traced, records


def _with_query_id(tracer, req):
    run = req.run

    def wrapped():
        tracer.query_id = req.qid
        return run()

    return wrapped


# ---------------------------------------------------------------------------
# Metrics

def nearest_rank(values, p):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def supported_percentile(n: int) -> str:
    """Highest reported percentile with at least ten samples beyond it."""
    best = "none"
    for p in (50, 90, 99):
        if n * (100 - p) / 100 >= 10:
            best = f"p{p}"
    return best


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_CHILDREN if workload.name == "paper-suite" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def layer_metrics(traced, setup_layers) -> dict:
    from tracing import durations_ns, self_times_ns
    n = len(traced)
    self_ns, dur_ns, counts = {}, {}, {}
    for rnd in traced:
        for k, v in self_times_ns(rnd["spans"]).items():
            self_ns[k] = self_ns.get(k, 0) + v
        for k, v in durations_ns(rnd["spans"]).items():
            dur_ns[k] = dur_ns.get(k, 0) + v
        for k, v in rnd["counters"].items():
            counts[k] = counts.get(k, 0) + v
    m = {}
    for name in SELF_MS:
        m[f"{name}.self_ms"] = (self_ns.get(name, 0) / 1e6 / n, "ms")
    for name in COUNTS:
        m[name] = (counts.get(name, 0) / n, "count")

    def ratio(a, b):
        return a / b if b else 0.0

    m["semantics.consequence_finite.ns_per_assignment"] = (
        ratio(self_ns.get("semantics.consequence_finite", 0),
              counts.get("semantics.consequence_finite.assignments", 0)), "ns")
    m["semantics.consequence_standard.us_per_assignment"] = (
        ratio(self_ns.get("semantics.consequence_standard", 0) / 1e3,
              counts.get("semantics.consequence_standard.assignments", 0)), "us")
    m["semantics.consequence_standard.unknown_share"] = (
        ratio(counts.get("semantics.consequence_standard.unknown", 0),
              counts.get("semantics.consequence_standard.searches", 0)), "ratio")
    m["operators.enumerate_ops.valid_ratio"] = (
        ratio(counts.get("operators.enumerate_ops.valid", 0),
              counts.get("operators.enumerate_ops.candidates", 0)), "ratio")
    for c in range(1, 13):
        m[f"suite.criterion_{c:02d}_s"] = (
            dur_ns.get(f"suite.criterion_{c:02d}", 0) / 1e9 / n, "s")
    for name, value in setup_layers.items():
        m[name] = (value, "ms")
    wall_ms = sum(rnd["wall_s"] for rnd in traced) * 1e3 / n
    named = sum(self_ns.get(name, 0) for name in SELF_MS) / 1e6 / n
    other = sum(v for k, v in self_ns.items() if k not in SELF_MS) / 1e6 / n
    m["trace.wall_ms"] = (wall_ms, "ms")
    m["trace.other_layers_ms"] = (other, "ms")
    m["trace.unattributed_ms"] = (wall_ms - named - other, "ms")
    m["trace.overhead_ratio"] = (
        sum(rnd["wall_s"] for rnd in traced)
        / sum(rnd["untraced_wall_s"] for rnd in traced), "ratio")
    return m


def load_expected(workload, seed, size) -> dict:
    """Round-0 verdicts recorded in ``expected.json`` for the default seed."""
    if seed != DEFAULT_SEED or size != "full":
        return {}
    data = json.loads((HERE / "expected.json").read_text())
    return data["workloads"].get(workload.name, {})


def verify(records, expected) -> tuple:
    """Oracle pass: (wrong, decided, failed, problems) over all records."""
    import oracle
    wrong = decided = failed = 0
    problems = []
    for rec in records:
        if rec.error is not None:
            failed += 1
            problems.append(f"{rec.req.qid} failed: {rec.error}")
            continue
        found = oracle.check(rec.req, rec.out)
        want = expected.get(rec.req.qid)
        if want is not None and oracle.summary(rec.req, rec.out) != want:
            found.append(f"{oracle.summary(rec.req, rec.out)}, expected.json says {want}")
        if found:
            wrong += 1
            problems += [f"{rec.req.qid} ({rec.req.kind}): {p}" for p in found]
        decided += oracle.decided(rec.req, rec.out)
    return wrong, decided, failed, problems


# ---------------------------------------------------------------------------
# Provenance

def provenance(args, workload, deadline_s) -> dict:
    from importlib import metadata
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                                    capture_output=True, text=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "mtlfi").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "commit": commit, "src_sha256": digest.hexdigest(), "seed": args.seed,
        "workload": workload.name, "seconds": args.seconds, "trace": args.trace,
        "size": args.size, "python": platform.python_version(),
        "numpy": numpy_version, "nproc": os.cpu_count(),
        "platform": platform.platform(), "deadline_s": deadline_s,
        "client": "one in-process client, closed loop, no threads",
    }


def main(argv=None) -> int:
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: one request per class, for the self-tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mtlfi" / "__init__.py").is_file():
        print(f"error: no mtlfi package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    signal.signal(signal.SIGALRM, _on_alarm)
    tiny = args.size == "tiny"

    setup_layers, clock = {}, None
    if args.trace:
        setup_layers = traced_setup(1 if tiny else TRACED_SETUP_LAUNCHES, results)
    else:
        clock = SetupClock(2 if tiny else SETUP_LAUNCHES)

    workload = WORKLOADS[args.workload](ROOT, args.size)
    deadline_s = workload.deadline_s
    walls, round_latencies, traced, records = run_workload(
        workload, args.seed, args.seconds, deadline_s, args.trace, results,
        lambda: clock and clock.take(2))
    if clock:
        clock.take(clock.left)
    wrong, decided, failed, problems = verify(
        records, load_expected(workload, args.seed, args.size))

    untraced = [rec for rec in records if not rec.traced]
    per_round = min(len(lat) for lat in round_latencies)
    attempted = len(records)
    info = {
        "attempted": attempted, "succeeded": attempted - failed, "failed": failed,
        "wrong_verdicts": wrong, "failed_share": failed / attempted,
        "rounds": len(walls), "round_walls_s": walls,
        "latency_samples": len(untraced), "latency_samples_per_round": per_round,
        "supported_percentile": supported_percentile(per_round),
        "trace_overhead_ratio": None,
    }
    by_kind = {}
    for rec in untraced:
        by_kind.setdefault(rec.req.kind, []).append(rec.latency_s * 1e3)
    info["latency_ms_by_kind"] = {
        kind: {"n": len(v), "p50": statistics.median(v), "p90": nearest_rank(v, 90)}
        for kind, v in sorted(by_kind.items())}
    if args.trace:
        layers = layer_metrics(traced, setup_layers)
        info["trace_overhead_ratio"] = layers["trace.overhead_ratio"][0]
        metrics = layers
    else:
        metrics = {
            "setup_s": statistics.median(clock.times),
            "wall_s": statistics.fmean(walls),
            "latency_ms.p50": statistics.fmean(
                statistics.median(lat) for lat in round_latencies),
            "latency_ms.p90": statistics.fmean(
                nearest_rank(lat, 90) for lat in round_latencies),
            "decided_share": decided / attempted,
            "peak_rss_mb": peak_rss_mb(workload),
        }
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
        info["setup_launches_s"] = clock.times

    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    result = {"provenance": {**provenance(args, workload, deadline_s), **info},
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "problems": problems}
    (results / f"{stem}.json").write_text(json.dumps(result, indent=1))
    if args.trace:
        (results / f"{stem}-spans.json").write_text(json.dumps(
            [{"round": t["round"], "spans": t["spans"]} for t in traced]))

    for p in problems[:20]:
        print("problem:", p)
    print(f"{workload.name}: seed {args.seed}, {len(walls)} rounds, "
          f"{attempted} requests, deadline {deadline_s} s")
    for k, (v, u) in metrics.items():
        print(f"  {k:52s} {v:14.6g} {u}")
    print(f"  {'wrong_verdicts':52s} {wrong:14d} count")
    print(f"  {'failed_share':52s} {failed / attempted:14.6g} ratio")
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
