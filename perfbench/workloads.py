"""Seeded request batches for the two workloads.

A run is a sequence of rounds.  Round ``r`` of a workload is generated from
``Random(f"{seed}:{workload}:{r}")`` outside the timed region.  Every request
has a slot in its round, and the slot fixes what sets its cost: the chain or
model, the mode, the number of variables and the formula's leaf count.  The
seed picks only the formula shapes, connectives and variable placement.  So every round, whatever the
seed, has the same request classes of the same sizes, and the percentiles
fall inside a class of equal-cost requests.  The program sees only generated
formula texts, chains and proof texts.

Program functions are looked up through their module at call time
(``sem.truth_consequence``), so a tracer that patches the modules sees the
benchmark's own calls too.
"""

from __future__ import annotations

import random
import re
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

FINITE = ("B2", "L3", "L5", "G3", "G5", "NM6", "W15", "L3G3")
NAMES = ("p", "q", "r", "s", "t", "u", "v")
BINARY = (" -> ", " & ", " /\\ ", " \\/ ")
# the two connectives the finite engine evaluates by one table lookup each:
# scans built from them cost the same whatever connectives the seed picks
LOOKUP = (" -> ", " & ")
MODES = ("truth", "degree")

# Schemas valid on every MTL chain (truth of the formula, no premises).
SCHEMAS = {
    "A1": "(a -> b) -> ((b -> c) -> (a -> c))",
    "A2": "a & b -> a",
    "A6": "a & (a -> b) -> a /\\ b",
    "A7a": "(a -> (b -> c)) -> (a & b -> c)",
    "A8": "((a -> b) -> c) -> (((b -> a) -> c) -> c)",
}
A1_PLAIN = "(p -> q) -> ((q -> r) -> (p -> r))"
EM = "O p -> (p \\/ ~p)"
EM_SQUARED = "O p -> (p \\/ ~p) & (p \\/ ~p)"


@dataclass
class Request:
    qid: str
    kind: str
    run: Callable[[], object]
    expect: object = None
    info: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Formula text generation

def tree(rng, leaves, neg=0.0, ops=BINARY) -> str:
    """A random formula whose leaves are exactly ``leaves``, in order."""
    if len(leaves) == 1:
        text = leaves[0]
    else:
        k = rng.randint(1, len(leaves) - 1)
        text = ("(" + tree(rng, leaves[:k], neg, ops) + rng.choice(ops)
                + tree(rng, leaves[k:], neg, ops) + ")")
    if neg and rng.random() < neg:
        text = "~" + text
    return text


def covering(rng, names, count) -> list:
    """``count`` leaves in which every name occurs at least once."""
    seq = list(names) + [rng.choice(names) for _ in range(count - len(names))]
    rng.shuffle(seq)
    return seq


def instance(rng, schema_name, names, sub_leaves, ops=BINARY) -> str:
    """An instance of a valid schema whose variables are exactly ``names``."""
    text = SCHEMAS[schema_name]
    metas = sorted(set(re.findall(r"\b[abc]\b", text)))
    sizes = [sub_leaves[i % len(sub_leaves)] for i in range(len(metas))]
    if sum(sizes) < len(names):
        sizes[-1] += len(names) - sum(sizes)
    seq = covering(rng, names, sum(sizes))
    subs, start = {}, 0
    for meta, size in zip(metas, sizes):
        subs[meta] = "(" + tree(rng, seq[start:start + size], ops=ops) + ")"
        start += size
    return re.sub(r"\b[abc]\b", lambda m: subs[m.group(0)], text)


def random_query(rng, names, neg=0.2, max_premises=2):
    """Premise and goal texts over ``names``; the verdict is not known ahead."""
    premises = [tree(rng, [rng.choice(names) for _ in range(rng.randint(1, 3))],
                     neg)
                for _ in range(rng.randint(0, max_premises))]
    goal = tree(rng, covering(rng, names, rng.randint(len(names), len(names) + 3)),
                neg)
    return premises, goal


# ---------------------------------------------------------------------------
# Requests

def consequence(qid, model, mode, premises, goal, expect=None):
    import mtlfi.formula as fm
    import mtlfi.semantics as sem

    def run():
        prem = [fm.parse(t) for t in premises]
        concl = fm.parse(goal)
        fn = sem.truth_consequence if mode == "truth" else sem.degree_consequence
        return fn([model], prem, concl), prem, concl

    return Request(qid, "consequence", run, expect,
                   {"model": model, "mode": mode,
                    "premises": premises, "goal": goal})


def operator_models() -> dict:
    """The models of the paper's fixed operator examples."""
    from mtlfi.chain import builtin_chains
    from mtlfi.operators import crisp_op, max_op, piecewise_op
    from mtlfi.semantics import ChainModel
    chains = builtin_chains()
    lg, ll, lp = chains["LG"], chains["LL"], chains["LP"]
    identity = piecewise_op(ll, [(Fraction(1, 2), Fraction(1, 2)), (1, 1)], "linear")
    return {"LG/max": ChainModel("LG", lg, max_op(lg)),
            "LL/id": ChainModel("LL", ll, identity),
            "LP/crisp": ChainModel("LP", lp, crisp_op(lp, Fraction(3, 4)))}


def operator_examples(models) -> list:
    """The paper's fixed operator examples, with the verdict each must get."""
    import mtlfi.semantics as sem
    lp_crisp = models["LP/crisp"]
    return [consequence("", models["LG/max"], "truth", [], EM, "fails"),
            consequence("", models["LL/id"], "truth", [], EM, "unknown"),
            consequence("", models["LL/id"], "truth", [], EM_SQUARED, "fails"),
            Request("", "propagation", lambda: sem.check_propagation(lp_crisp, "&"),
                    False, {"model": lp_crisp, "token": "&"})]


class Workload:
    """The constructor builds what all rounds of a run share; ``round`` builds
    the requests of one round."""

    name = ""
    deadline_s = 30

    def __init__(self, root, size="full"):
        self.root = root
        self.size = size

    def rng(self, seed, r) -> random.Random:
        return random.Random(f"{seed}:{self.name}:{r}")

    def count(self, full: int) -> int:
        return full if self.size == "full" else min(full, 1)


class FiniteSearch(Workload):
    name = "finite-search"

    def __init__(self, root, size="full"):
        super().__init__(root, size)
        from mtlfi.chain import GODEL, LUKASIEWICZ, FiniteChain, builtin_chains
        from mtlfi.semantics import ChainModel
        chains = builtin_chains()
        chains["L3G3"] = FiniteChain.ordinal_sum([(LUKASIEWICZ, 3), (GODEL, 3)],
                                                 name="L3G3")
        self.models = {n: ChainModel(n, chains[n]) for n in FINITE}
        self.operator_models = operator_models()

    def round(self, seed, r) -> list:
        rng = self.rng(seed, r)
        out = []

        def add(model, mode, premises, goal, expect=None):
            out.append(consequence(f"r{r}.q{len(out)}", self.models[model], mode,
                                   premises, goal, expect=expect))

        # the paper's fixed examples: A1 holds on every finite MTL chain, and
        # the operator examples on LG, LL and LP (a few ms of the round)
        for name in FINITE:
            add(name, "truth", [], A1_PLAIN, "holds")
        for example in operator_examples(self.operator_models):
            example.qid = f"r{r}.q{len(out)}"
            out.append(example)
        # small queries whose verdict is not known ahead, mostly fail-fast
        for i in range(self.count(36)):
            premises, goal = random_query(rng, NAMES[:1 + i % 3])
            add(FINITE[i % 8], MODES[i // 8 % 2], premises, goal)
        # the class where p50 falls: equal-sized 3-variable A1 scans on L5
        # and G5, 125 assignments each, all ``holds``
        for i in range(self.count(36)):
            add(("L5", "G5")[i % 2], MODES[i // 2 % 2], [],
                instance(rng, "A1", NAMES[:3], (1, 2), ops=LOOKUP), "holds")
        # 4-variable instances of every schema on the mid-sized chains
        for i in range(self.count(10)):
            add(("NM6", "L3G3", "L5", "G5", "L3")[i % 5], MODES[i // 5], [],
                instance(rng, sorted(SCHEMAS)[i % 5], NAMES[:4], (1, 2)), "holds")
        if self.size == "full":
            # the class where p90 falls: equal-sized 4-variable W15 scans
            for _ in range(18):
                add("W15", "truth", [],
                    instance(rng, "A1", NAMES[:4], (2,), ops=LOOKUP), "holds")
            add("W15", "truth", [],
                instance(rng, "A1", NAMES[:5], (2,), ops=LOOKUP), "holds")
            # above FINITE_VAR_CAP: the 20 000-sample fallback, ends unknown
            add("L3", "truth", [], instance(rng, "A1", NAMES[:7], (3, 2, 2)), "unknown")
        rng.shuffle(out)
        return out


class PaperSuite(Workload):
    """``mtlfi suite paper`` in a fresh interpreter, one request per round."""

    name = "paper-suite"
    deadline_s = 60

    def command(self, traced_spans=None) -> list:
        extra = [] if self.size == "full" else ["--criteria", "3"]
        if traced_spans is None:
            return [sys.executable, "-m", "mtlfi.cli", "suite", "paper"] + extra
        return [sys.executable, str(self.root / "perfbench" / "child.py"), "suite",
                str(traced_spans)] + extra

    def round(self, seed, r, traced_spans=None) -> list:
        cmd = self.command(traced_spans)
        total = 12 if self.size == "full" else 1
        root = self.root

        def run():
            proc = subprocess.run(cmd, cwd=root, env=child_env(root),
                                  capture_output=True, text=True)
            return proc.returncode, proc.stdout

        return [Request(f"r{r}.q0", "suite", run, (0, f"{total}/{total} criteria passed"))]


def child_env(root) -> dict:
    import os
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


WORKLOADS = {w.name: w for w in (FiniteSearch, PaperSuite)}
