"""Batch front-end.

Exit codes: 0 holds/valid, 1 refuted (countermodel printed), 2 unknown
(search or enumeration budget exhausted), 3 usage or I/O error.
"""

from __future__ import annotations

import argparse
import sys

from .chain import (ChainError, NotAFilter, OutOfCarrier, builtin_chains,
                    parse_chain_file, quotient_by_filter, rat, upward_filter)
from .formula import FormulaSyntaxError, parse, render
from .hilbert import HilbertError, parse_proof, verify_proof
from .operators import (OperatorError, TooLarge, crisp_op, dual, enumerate_ops,
                        max_op, min_op, op_from_delta, parse_op_file,
                        validate_algebraic, validate_bullet, validate_c)
from .profiles import UnknownProfile, load_profile
from .proofs import FIXTURES
from .semantics import (ChainModel, Evaluation, SemanticsError, check_dat_axiom,
                        check_lfi, check_propagation, classical_taut,
                        degree_consequence, evaluate, pdat_search,
                        truth_consequence)
from .suite import CRITERIA, run_suite

__all__ = ["main", "Workspace"]


class UsageError(Exception):
    pass


class Workspace:
    """Named chains, operators and proof scripts, built-ins plus loaded files."""

    def __init__(self):
        self.chains = builtin_chains()
        self.ops: dict = {}
        self.scripts: dict = {}

    def load(self, path: str) -> None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read {path}: {exc}")
        head = text.lstrip().split(None, 1)
        kind = head[0] if head else ""
        if kind == "chain":
            name, chain = parse_chain_file(text)
            self.chains[name] = chain
        elif kind == "op":
            name, op = parse_op_file(text, self.chains)
            self.ops[name] = op
        elif kind == "proof":
            script = parse_proof(text)
            self.scripts[script.name] = script
        else:
            raise UsageError(f"{path}: unknown file kind {kind!r}")

    def chain(self, name: str):
        try:
            return self.chains[name]
        except KeyError:
            raise UsageError(f"unknown chain {name!r}; known: "
                             + ", ".join(sorted(self.chains)))

    def op(self, chain, spec: str):
        """Resolve an operator spec: auto, min, max, delta, crisp:t[:open]
        or the name of a loaded operator."""
        if spec in self.ops:
            op = self.ops[spec]
            if op.chain is not chain:
                raise UsageError(f"operator {spec!r} lives on {op.chain.name}")
            return op
        if spec == "min":
            return min_op(chain)
        if spec == "max":
            return max_op(chain)
        if spec == "delta":
            return op_from_delta(chain)
        if spec.startswith("crisp:"):
            parts = spec.split(":")
            closed = not (len(parts) > 2 and parts[2] == "open")
            return crisp_op(chain, rat(parts[1]), closed)
        if spec == "auto":
            if not chain.is_finite:
                raise UsageError("--op auto needs a finite chain")
            ops = enumerate_ops(chain)
            if len(ops) != 1:
                raise UsageError(f"{chain.name} admits {len(ops)} operators; "
                                 "pick one explicitly")
            return ops[0]
        raise UsageError(f"unknown operator spec {spec!r}")


def _parse_formula(text: str):
    try:
        return parse(text)
    except FormulaSyntaxError as exc:
        raise UsageError(f"syntax error: {exc}")


def _split_premises(text: str) -> list:
    return [_parse_formula(part) for part in text.split(",") if part.strip()]


def _model(ws: Workspace, args) -> ChainModel:
    chain = ws.chain(args.chain)
    cop = bop = None
    if getattr(args, "op", None):
        cop = ws.op(chain, args.op)
        bop = dual(cop)
    return ChainModel(chain.name, chain, cop, bop)


def _emit_consequence(res, fmt: str) -> int:
    if fmt == "records":
        for line in res.records():
            print(line)
    else:
        print(f"verdict: {res.verdict}")
        if res.assignment is not None:
            pairs = ", ".join(f"{k}={v}" for k, v in sorted(res.assignment.items()))
            print(f"countermodel on {res.chain_name}: {pairs}")
            if res.witness is not None:
                print(f"witness degree a = {res.witness}")
        print(f"checked: {res.checked}")
    return {"holds": 0, "fails": 1, "unknown": 2}[res.verdict]


# ---------------------------------------------------------------------------
# Commands

def _cmd_parse(ws, args) -> int:
    f = _parse_formula(args.formula)
    print(render(f, unicode=args.unicode))
    return 0


def _element(chain, text: str):
    """The value text names, checked against the chain's carrier."""
    value = rat(text)
    if chain.is_finite:
        if value not in chain.index:
            raise OutOfCarrier(f"{value} is not an element of {chain.name}")
    else:
        chain.pair(value)
    return value


def _cmd_eval(ws, args) -> int:
    model = _model(ws, args)
    assignment = {}
    if args.assign:
        for part in args.assign.split(","):
            part = part.strip()
            if not part:
                continue
            name, _, value = part.partition("=")
            assignment[name.strip()] = _element(model.chain, value.strip())
    f = _parse_formula(args.formula)
    ev = Evaluation(model.chain, assignment, model.consistency,
                    model.inconsistency)
    print(evaluate(ev, f))
    return 0


def _cmd_taut(ws, args) -> int:
    f = _parse_formula(args.formula)
    if args.classical:
        ok = classical_taut(f)
        print("tautology" if ok else "not a tautology")
        return 0 if ok else 1
    model = _model(ws, args)
    res = truth_consequence([model], [], f, args.grid_denominator)
    return _emit_consequence(res, args.format)


def _cmd_conseq(ws, args) -> int:
    model = _model(ws, args)
    premises = _split_premises(args.premises) if args.premises else []
    goal = _parse_formula(args.goal)
    fn = truth_consequence if args.mode == "truth" else degree_consequence
    res = fn([model], premises, goal, args.grid_denominator)
    return _emit_consequence(res, args.format)


def _cmd_validate_op(ws, args) -> int:
    chain = ws.chain(args.chain)
    op = ws.op(chain, args.op)
    report = validate_c(chain, op)
    print(f"verdict: {'valid' if report.valid else 'invalid'}")
    if not report.valid:
        print(f"clause: {report.clause}")
        print("witness: " + ", ".join(str(w) for w in report.witness))
    if chain.is_finite:
        alg = validate_algebraic(chain, op)
        print(f"equational verdict: {'valid' if alg.valid else 'invalid'}")
    bullet = validate_bullet(chain, dual(op))
    print(f"dual verdict: {'valid' if bullet.valid else 'invalid'}")
    return 0 if report.valid else 1


def _cmd_enum_ops(ws, args) -> int:
    chain = ws.chain(args.chain)
    ops = enumerate_ops(chain)
    print(f"count: {len(ops)}")
    for op in ops:
        print(" ".join(str(v) for v in op.values))
    return 0


def _cmd_quotient(ws, args) -> int:
    chain = ws.chain(args.chain)
    if "," in args.filter:
        elements = frozenset(rat(tok) for tok in args.filter.split(","))
    else:
        elements = upward_filter(chain, rat(args.filter))
    try:
        quotient, projection = quotient_by_filter(chain, elements)
    except NotAFilter as exc:
        print(f"not a filter: {exc}")
        return 1
    print(f"quotient size: {quotient.size}")
    for old in chain.elements:
        print(f"{old} -> {projection[old]}")
    return 0


def _cmd_lfi_report(ws, args) -> int:
    model = _model(ws, args)
    report = check_lfi(model, args.grid_denominator)
    status = {True: "pass", False: "fail", None: "unknown"}
    for key in ("i", "ii", "iii", "iv"):
        clause = report.clauses[key]
        extra = ""
        if clause.assignment:
            extra = "  " + ", ".join(f"{k}={v}"
                                     for k, v in sorted(clause.assignment.items()))
        if clause.witness is not None:
            extra += f"  witness={clause.witness}"
        print(f"clause ({key}): {status[clause.passed]}{extra}")
    if report.is_lfi is True:
        return 0
    return 2 if report.is_lfi is None else 1


def _cmd_propagation(ws, args) -> int:
    model = _model(ws, args)
    res = check_propagation(model, args.connective, args.grid_denominator)
    if res.holds is True:
        print(f"propagates ({res.checked} checks)")
        return 0
    if res.holds is False:
        pair = ", ".join(str(x) for x in res.pair)
        print(f"counterpair: ({pair})  implication value {res.value}")
        return 1
    print(f"unknown ({res.checked} checks)")
    return 2


def _cmd_dat(ws, args) -> int:
    model = _model(ws, args)
    res = check_dat_axiom(model, args.grid_denominator)
    if res.holds:
        print(f"holds ({res.checked} points)")
        return 0
    print(f"witness: {res.witness}")
    return 1


def _cmd_pdat(ws, args) -> int:
    model = _model(ws, args)
    goal = _parse_formula(args.goal)
    res = pdat_search(model, goal, args.kmax, args.grid_denominator)
    if res.k is not None:
        print(f"k = {res.k} ({res.certainty})")
        return 0
    if res.reason == "refuted":
        print(f"refuted for every k <= {args.kmax}")
        return 1
    print("not found within budget")
    return 2


def _cmd_prove(ws, args) -> int:
    if args.fixture:
        try:
            text = FIXTURES[args.fixture]["text"]
        except KeyError:
            raise UsageError(f"unknown fixture {args.fixture!r}; known: "
                             + ", ".join(sorted(FIXTURES)))
        script = parse_proof(text)
    elif args.path:
        if args.path in ws.scripts:
            script = ws.scripts[args.path]
        else:
            try:
                with open(args.path, "r", encoding="utf-8") as fh:
                    script = parse_proof(fh.read())
            except OSError as exc:
                raise UsageError(f"cannot read {args.path}: {exc}")
    else:
        raise UsageError("prove needs a script path or --fixture")
    profile = load_profile(args.profile) if args.profile else None
    result = verify_proof(script, profile)
    if result.ok:
        concl = script.lines[-1]
        deps = sorted(result.deps[concl.number])
        print(f"ok: {script.name} proves {render(concl.formula)} "
              f"from premises {deps}")
        return 0
    print(f"invalid at line {result.line}: {result.reason}")
    return 1


def _cmd_suite(ws, args) -> int:
    if args.which != "paper":
        raise UsageError("the only bundled suite is named 'paper'")
    numbers = None
    if args.criteria:
        try:
            numbers = [int(tok) for tok in args.criteria.split(",")]
        except ValueError:
            numbers = None
        if numbers is None or any(n not in CRITERIA for n in numbers):
            known = sorted(CRITERIA)
            raise UsageError(f"--criteria takes a comma list of criterion "
                             f"numbers {known[0]}-{known[-1]}, not "
                             f"{args.criteria!r}")
        repeated = sorted({n for n in numbers if numbers.count(n) > 1})
        if repeated:
            listed = ", ".join(str(n) for n in repeated)
            raise UsageError(f"--criteria names {listed} more than once: "
                             f"{args.criteria!r}")
    results = run_suite(numbers)
    for res in results:
        print(res.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    if args.timings:
        for res in results:
            print(f"criterion {res.number:2d}  {res.seconds:.3f} s")
    return 0 if not failed else 1


# ---------------------------------------------------------------------------
# Argument wiring

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--chain", default="L3", help="chain alias or loaded name")
    common.add_argument("--op", default=None,
                        help="operator: auto|min|max|delta|crisp:T[:open]|<name>")
    common.add_argument("--profile", default=None, help="logic profile name")
    common.add_argument("--grid-denominator", type=int, default=60)
    common.add_argument("--kmax", type=int, default=8)
    common.add_argument("--format", choices=("text", "records"), default="text")
    common.add_argument("--load", action="append", default=[],
                        help="chain/op/proof file to load (repeatable)")

    parser = argparse.ArgumentParser(prog="mtlfi",
                                     description="workbench for residuated "
                                                 "chains with consistency operators")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", parents=[common])
    p.add_argument("formula")
    p.add_argument("--unicode", action="store_true")
    p.set_defaults(fn=_cmd_parse)

    p = sub.add_parser("eval", parents=[common])
    p.add_argument("formula")
    p.add_argument("--assign", default="", help="comma list p=1/2,q=3/4")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("taut", parents=[common])
    p.add_argument("formula")
    p.add_argument("--classical", action="store_true",
                   help="two-valued check instead of the chain")
    p.set_defaults(fn=_cmd_taut)

    p = sub.add_parser("conseq", parents=[common])
    p.add_argument("--mode", choices=("truth", "degree"), default="truth")
    p.add_argument("--premises", default="")
    p.add_argument("--goal", required=True)
    p.set_defaults(fn=_cmd_conseq)

    p = sub.add_parser("validate-op", parents=[common])
    p.set_defaults(fn=_cmd_validate_op)

    p = sub.add_parser("enum-ops", parents=[common])
    p.set_defaults(fn=_cmd_enum_ops)

    p = sub.add_parser("quotient", parents=[common])
    p.add_argument("--filter", required=True,
                   help="lower bound of an up-set, or a comma list of elements")
    p.set_defaults(fn=_cmd_quotient)

    p = sub.add_parser("lfi-report", parents=[common])
    p.set_defaults(fn=_cmd_lfi_report)

    p = sub.add_parser("propagation", parents=[common])
    p.add_argument("--connective", required=True,
                   choices=("/\\", "&", "->", "~", "0"))
    p.set_defaults(fn=_cmd_propagation)

    p = sub.add_parser("dat", parents=[common])
    p.set_defaults(fn=_cmd_dat)

    p = sub.add_parser("pdat", parents=[common])
    p.add_argument("--goal", required=True)
    p.set_defaults(fn=_cmd_pdat)

    p = sub.add_parser("prove", parents=[common])
    p.add_argument("path", nargs="?", default=None)
    p.add_argument("--fixture", default=None)
    p.set_defaults(fn=_cmd_prove)

    p = sub.add_parser("suite", parents=[common])
    p.add_argument("which")
    p.add_argument("--criteria", default="",
                   help="comma list of criterion numbers (default: all)")
    p.add_argument("--timings", action="store_true",
                   help="after the summary, print the seconds each criterion "
                        "took in the process that ran it")
    p.set_defaults(fn=_cmd_suite)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 3 if exc.code not in (0, None) else 0
    ws = Workspace()
    try:
        for path in args.load:
            ws.load(path)
        return args.fn(ws, args)
    except TooLarge as exc:
        # an enumeration refused over its budget
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (UsageError, ChainError, OperatorError, SemanticsError,
            HilbertError, FormulaSyntaxError, UnknownProfile) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
