"""Verdict checks, run after the timed region.

Countermodels are re-evaluated through
``semantics.evaluate``, the exact ``Fraction`` tree walk, which shares no
code with ``compile_finite``.  Small finite ``holds`` verdicts are re-checked
exhaustively the same way.  ``summary`` gives the short verdict string kept in
``expected.json`` for the default seed.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

HOLDS_RECHECK_LIMIT = 256          # assignments re-walked for a finite holds


def _value(model, assignment, formula):
    from mtlfi.semantics import Evaluation, evaluate
    ev = Evaluation(model.chain, assignment, model.consistency, model.inconsistency)
    return evaluate(ev, formula)


def _refutes(model, mode, premises, goal, assignment) -> bool:
    vals = [_value(model, assignment, p) for p in premises]
    concl = _value(model, assignment, goal)
    if mode == "truth":
        return all(v == 1 for v in vals) and concl != 1
    return (min(vals) if vals else Fraction(1)) > concl


def _check_consequence(req, out) -> list:
    res, premises, goal = out
    info = req.info
    model, problems = info["model"], []
    expect = req.expect
    if expect is not None and res.verdict != expect:
        problems.append(f"verdict {res.verdict}, expected {expect}")
    if res.verdict == "fails":
        if not _refutes(model, info["mode"], premises, goal, res.assignment):
            problems.append(f"countermodel {res.assignment} does not re-check")
    elif res.verdict == "holds" and model.chain.is_finite:
        from mtlfi.formula import variables
        names = sorted(set().union(variables(goal), *map(variables, premises)))
        if model.chain.size ** len(names) <= HOLDS_RECHECK_LIMIT:
            for combo in itertools.product(model.chain.elements, repeat=len(names)):
                if _refutes(model, info["mode"], premises, goal, dict(zip(names, combo))):
                    problems.append(f"holds, but {dict(zip(names, combo))} refutes")
                    break
    return problems


def _check_propagation(req, out) -> list:
    problems = []
    if out.holds is not req.expect:
        problems.append(f"propagation {out.holds}, expected {req.expect}")
    if out.holds is False:
        from mtlfi.formula import parse
        law = parse(f"(O p /\\ O q) -> O (p {req.info['token']} q)")
        if _value(req.info["model"], dict(zip("pq", out.pair)), law) == 1:
            problems.append(f"counterpair {out.pair} does not re-check")
    return problems


def _check_suite(req, out) -> list:
    code, stdout = out
    want_code, want_line = req.expect
    lines = stdout.strip().splitlines()
    if code != want_code or not lines or lines[-1] != want_line:
        return [f"exit {code}, last line {lines[-1] if lines else ''!r}"]
    return []


CHECKS = {
    "consequence": _check_consequence, "propagation": _check_propagation,
    "suite": _check_suite,
}


def check(req, out) -> list:
    """Problems with one request's outcome; empty when it is right."""
    return CHECKS[req.kind](req, out)


def decided(req, out) -> bool:
    """A definite answer: holds/fails, not unknown."""
    if req.kind == "consequence":
        return out[0].verdict in ("holds", "fails")
    if req.kind == "propagation":
        return out.holds is not None
    return True


def summary(req, out) -> str:
    """Short verdict string compared against ``expected.json``."""
    if req.kind == "consequence":
        return out[0].verdict
    if req.kind == "propagation":
        return f"propagates={out.holds}"
    return f"exit={out[0]}"
