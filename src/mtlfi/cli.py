"""Batch front-end.

Each command takes only the flags it reads, and any other flag is a usage
error.  A flag left out reads None and is resolved where it is used:
--chain to L3, --grid-denominator to 60, --format to text.

Exit codes: 0 holds/valid, 1 refuted (countermodel printed), 2 unknown
(search or enumeration budget exhausted), 3 usage or I/O error, 4 internal
error.  main() returns the first four: an input error (mtlfi.InputError,
the base of every error bad input raises) is reported on stderr and exits
with its exit_code, 3 except an enumeration over its budget (2).  Any
other exception propagates.  Run as a program (python -m mtlfi.cli, or the
mtlfi script), run() calls main() and turns such an exception into its
traceback on stderr and exit code 4.
"""

from __future__ import annotations

import argparse
import re
import sys

from . import InputError
from .chain import (NotAFilter, _grid_denominator, builtin_chains,
                    parse_chain_file, quotient_by_filter, rat, spec_kind,
                    upward_filter)

# Only the chain module loads with this one, since every Workspace holds the
# built-in chains; each command imports the rest of what it uses when it
# runs, so a small query does not compile the whole package at start-up.

__all__ = ["main", "run", "Workspace"]


class UsageError(InputError):
    pass


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}")


class Workspace:
    """Named chains, operators and proof scripts, built-ins plus loaded files."""

    def __init__(self):
        self.chains = builtin_chains()
        self.ops: dict = {}
        self.scripts: dict = {}

    def load(self, path: str) -> None:
        """Define the chain, operator or proof of a file, whose name must
        not be defined already, built in or loaded; the built-in operator
        specs count as defined operators."""
        text = _read(path)
        kind = spec_kind(text)
        builtin = False
        if kind == "chain":
            name, value = parse_chain_file(text)
            defined, noun = self.chains, "chain"
        elif kind == "op":
            from .operators import BUILTIN_SPECS, CRISP_SPEC, parse_op_file
            name, value = parse_op_file(text, self.chains)
            defined, noun = self.ops, "operator"
            builtin = name in BUILTIN_SPECS or name.startswith(CRISP_SPEC)
        elif kind == "proof":
            from .hilbert import parse_proof
            value = parse_proof(text)
            name, defined, noun = value.name, self.scripts, "proof"
        else:
            raise UsageError(f"{path}: unknown file kind {kind!r}")
        if builtin or name in defined:
            raise UsageError(f"{path}: {noun} {name!r} is already defined")
        defined[name] = value

    def chain(self, name):
        """The chain of --chain, L3 when it is not given."""
        name = "L3" if name is None else name
        try:
            return self.chains[name]
        except KeyError:
            raise UsageError(f"unknown chain {name!r}; known: "
                             + ", ".join(sorted(self.chains)))

    def op(self, chain, spec: str):
        """The operator of --op: a loaded operator's name or a built-in spec
        (operators.op_from_spec), which no loaded operator takes."""
        from .operators import op_from_spec
        if spec is None:
            raise UsageError("no operator given: pass --op")
        op = self.ops[spec] if spec in self.ops else op_from_spec(chain, spec)
        if op.chain is not chain:
            raise UsageError(f"operator {spec!r} lives on {op.chain.name}")
        return op


def _parse_formula(text: str):
    from .formula import FormulaSyntaxError, parse
    try:
        return parse(text)
    except FormulaSyntaxError as exc:
        raise UsageError(f"syntax error: {exc}")


def _model(ws: Workspace, args, needs_op: bool = False):
    """The chain of --chain with the operator of --op and its dual; without
    --op, no operator, unless needs_op makes that a usage error."""
    from .operators import dual
    from .semantics import ChainModel
    chain = ws.chain(args.chain)
    cop = bop = None
    if args.op or needs_op:
        cop = ws.op(chain, args.op)
        bop = dual(cop)
    return ChainModel(chain.name, chain, cop, bop)


def _grid(args) -> int:
    """--grid-denominator, 60 when it is not given: below 1 a usage error on
    every chain, also where no grid is scanned."""
    return _grid_denominator(60 if args.grid_denominator is None
                             else args.grid_denominator)


def _emit_consequence(res, fmt) -> int:
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
    from .formula import render
    f = _parse_formula(args.formula)
    print(render(f, unicode=args.unicode))
    return 0


def _cmd_eval(ws, args) -> int:
    from .formula import _VARIABLE
    from .semantics import Evaluation, evaluate
    model = _model(ws, args)
    assignment = {}
    for part in args.assign.split(","):
        if part.strip():
            name, _, value = part.partition("=")
            name = name.strip()
            if not re.fullmatch(_VARIABLE, name):
                raise UsageError(f"--assign names a variable before '=', "
                                 f"not {name!r}")
            if name in assignment:
                raise UsageError(f"--assign gives {name} twice")
            assignment[name] = value = rat(value.strip())
            model.chain.pair(value)  # an element of the chain, or an error
    f = _parse_formula(args.formula)
    ev = Evaluation(model.chain, assignment, model.consistency,
                    model.inconsistency)
    print(evaluate(ev, f))
    return 0


def _cmd_taut(ws, args) -> int:
    from .semantics import classical_taut, truth_consequence
    f = _parse_formula(args.formula)
    if args.classical:
        given = [name for name in ("load", "chain", "op", "grid_denominator",
                                   "format") if getattr(args, name) is not None]
        if given:
            raise UsageError("--classical is a two-valued check and takes no "
                             + ", ".join("--" + name.replace("_", "-")
                                         for name in given))
        ok = classical_taut(f)
        print("tautology" if ok else "not a tautology")
        return 0 if ok else 1
    model = _model(ws, args)
    res = truth_consequence([model], [], f, _grid(args))
    return _emit_consequence(res, args.format)


def _cmd_conseq(ws, args) -> int:
    from .semantics import degree_consequence, truth_consequence
    model = _model(ws, args)
    premises = [_parse_formula(part) for part in args.premises.split(",")
                if part.strip()]
    goal = _parse_formula(args.goal)
    fn = truth_consequence if args.mode == "truth" else degree_consequence
    res = fn([model], premises, goal, _grid(args))
    return _emit_consequence(res, args.format)


def _cmd_validate_op(ws, args) -> int:
    from .operators import (dual, validate_algebraic, validate_bullet,
                            validate_c)
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
    from .operators import enumerate_ops
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
        if not chain.is_finite:  # a usage error, not a refutation
            raise
        print(f"not a filter: {exc}")
        return 1
    print(f"quotient size: {quotient.size}")
    for old in chain.elements:
        print(f"{old} -> {projection[old]}")
    return 0


def _cmd_lfi_report(ws, args) -> int:
    from .semantics import check_lfi
    model = _model(ws, args, needs_op=True)
    report = check_lfi(model, _grid(args))
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
    return {True: 0, False: 1, None: 2}[report.is_lfi]


def _cmd_propagation(ws, args) -> int:
    from .semantics import check_propagation
    model = _model(ws, args, needs_op=True)
    res = check_propagation(model, args.connective, _grid(args))
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
    from .semantics import check_dat_axiom
    model = _model(ws, args, needs_op=True)
    res = check_dat_axiom(model, _grid(args))
    if res.holds:
        print(f"holds ({res.checked} points)")
        return 0
    print(f"witness: {res.witness}")
    return 1


def _cmd_pdat(ws, args) -> int:
    from .semantics import pdat_search
    model = _model(ws, args, needs_op=True)
    goal = _parse_formula(args.goal)
    res = pdat_search(model, goal, args.kmax, _grid(args))
    if res.k is not None:
        print(f"k = {res.k} ({res.certainty})")
        return 0
    if res.reason == "refuted":
        print(f"refuted for every k <= {args.kmax}")
        return 1
    print("not found within budget")
    return 2


def _cmd_prove(ws, args) -> int:
    from .formula import render
    from .hilbert import parse_proof, verify_proof
    from .profiles import load_profile
    if args.fixture:
        from .proofs import FIXTURES
        try:
            text = FIXTURES[args.fixture]["text"]
        except KeyError:
            raise UsageError(f"unknown fixture {args.fixture!r}; known: "
                             + ", ".join(sorted(FIXTURES)))
        script = parse_proof(text)
    elif args.path in ws.scripts:
        script = ws.scripts[args.path]
    elif args.path:
        script = parse_proof(_read(args.path))
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
    from .suite import CRITERIA, run_suite
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
    def flag(*names, **kwargs):
        """A parent parser holding one flag, for each command that reads it."""
        parent = argparse.ArgumentParser(add_help=False)
        parent.add_argument(*names, **kwargs)
        return parent

    load = flag("--load", action="append",
                help="chain/op/proof file to load (repeatable)")
    chain = flag("--chain", help="chain alias or loaded name (default L3)")
    model = [load, chain, flag("--op", help="auto|min|max|delta|crisp:T[:open]"
                                            "|<loaded name>")]
    query = model + [flag("--grid-denominator", type=int, help="default 60")]
    fmt = flag("--format", choices=("text", "records"), help="default text")

    parser = argparse.ArgumentParser(prog="mtlfi",
                                     description="workbench for residuated "
                                                 "chains with consistency operators")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse")
    p.add_argument("formula")
    p.add_argument("--unicode", action="store_true")

    p = sub.add_parser("eval", parents=model)
    p.add_argument("formula")
    p.add_argument("--assign", default="", help="comma list p=1/2,q=3/4")

    p = sub.add_parser("taut", parents=query + [fmt])
    p.add_argument("formula")
    p.add_argument("--classical", action="store_true",
                   help="two-valued check instead of the chain")

    p = sub.add_parser("conseq", parents=query + [fmt])
    p.add_argument("--mode", choices=("truth", "degree"), default="truth")
    p.add_argument("--premises", default="")
    p.add_argument("--goal", required=True)

    sub.add_parser("validate-op", parents=model)

    sub.add_parser("enum-ops", parents=[load, chain])

    p = sub.add_parser("quotient", parents=[load, chain])
    p.add_argument("--filter", required=True,
                   help="lower bound of an up-set, or a comma list of elements")

    sub.add_parser("lfi-report", parents=query)

    p = sub.add_parser("propagation", parents=query)
    p.add_argument("--connective", required=True,
                   choices=("/\\", "&", "->", "~", "0"),
                   help="write -> as --connective=->")

    sub.add_parser("dat", parents=query)

    p = sub.add_parser("pdat", parents=query)
    p.add_argument("--goal", required=True)
    p.add_argument("--kmax", type=int, default=8)

    p = sub.add_parser("prove", parents=[load])
    p.add_argument("path", nargs="?", default=None)
    p.add_argument("--fixture", default=None)
    p.add_argument("--profile", default=None, help="logic profile name")

    p = sub.add_parser("suite")
    p.add_argument("which")
    p.add_argument("--criteria", default="",
                   help="comma list of criterion numbers (default: all)")
    p.add_argument("--timings", action="store_true",
                   help="after the summary, print the seconds each criterion "
                        "took in the process that ran it")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 3 if exc.code not in (0, None) else 0
    ws = Workspace()
    try:
        # taut --classical reads no file: _cmd_taut refuses a given --load
        if not getattr(args, "classical", False):
            for path in getattr(args, "load", None) or ():
                ws.load(path)
        # each command runs its _cmd_ function, - in its name read as _
        return globals()["_cmd_" + args.command.replace("-", "_")](ws, args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


def run() -> int:
    """main() on sys.argv, with an escaping exception reported as an
    internal error: its traceback on stderr and exit code 4."""
    try:
        return main()
    except Exception:
        import traceback
        traceback.print_exc()
        return 4


if __name__ == "__main__":
    sys.exit(run())
