"""The readers that chain.read_spec replaced, kept as the differential
oracle of the chain, operator and proof file formats.

parse_chain_file, parse_op_file and parse_proof are the three parsers as
they were, each with its own comment, header and key rules; load is
Workspace.load, which took a file's kind from the first word of its text.
Outside four cases that the reader now refuses or reads differently (a
comment before the header, a header that is not first or not alone, commas
in an operator's values: line, and an operator file's line without a
colon) both must give equal results or the same error.
"""

from mtlfi.chain import (ChainSpecError, FiniteChain, StandardChain, rat)
from mtlfi.cli import UsageError, _read
from mtlfi.formula import parse
from mtlfi.hilbert import ProofLine, ProofScript, ProofSyntaxError
from mtlfi.operators import (OperatorSpecError, crisp_op, max_op, min_op,
                             piecewise_op, table_op)


def _parse_rationals(text: str) -> list:
    return [rat(tok) for tok in text.replace(",", " ").split()]


def parse_chain_file(text: str):
    """Parse the line-oriented chain format; returns (name, chain).

    Keys: 'chain <name>', 'kind: finite|standard', then one of
    'family:'+'size:', 'table:' followed by n rows, 'negation: <rationals>'
    or 'components: <family> <lo> <hi>; ...'.  A repeated key, or one the
    chosen form does not read, is an error.
    """
    name = ""
    kind = ""
    family = ""
    size = 0
    negation = None
    components = None
    table_rows = None
    seen = set()
    key = ""
    for ln in (ln.strip() for ln in text.splitlines()):
        if not ln or ln.startswith("#"):
            continue
        if ln.startswith("chain "):
            key, value = "chain", ln[len("chain "):].strip()
        elif ":" in ln:
            key, _, value = ln.partition(":")
            key, value = key.strip(), value.strip()
        elif key == "table":  # a row, up to the next key line
            table_rows.append(_parse_rationals(ln))
            continue
        else:
            raise ChainSpecError(f"malformed chain file line: {ln!r}")
        if key in seen:
            raise ChainSpecError(f"repeated chain file key {key!r}")
        seen.add(key)
        if key == "chain":
            name = value
        elif key == "kind":
            kind = value
        elif key == "family":
            family = value
        elif key == "size":
            if not value.isdecimal():
                raise ChainSpecError(f"size must be a natural number, not {value!r}")
            size = int(value)
        elif key == "negation":
            negation = _parse_rationals(value)
        elif key == "components":
            components = []
            for part in value.split(";"):
                part = part.strip()
                if not part:
                    continue
                fields = part.split()
                if len(fields) != 3:
                    raise ChainSpecError(f"a component is '<family> <lo> <hi>', "
                                         f"not {part!r}")
                fam, lo, hi = fields
                components.append((fam, rat(lo), rat(hi)))
        elif key == "table":
            table_rows = [_parse_rationals(value)] if value else []
        else:
            raise ChainSpecError(f"unknown chain file key {key!r}")
    if not name:
        raise ChainSpecError("chain file must start with 'chain <name>'")
    if kind == "standard":
        if not components:
            raise ChainSpecError("standard chains need a components line")
        form, chain = ("components",), StandardChain(components, name=name)
    elif kind != "finite":
        raise ChainSpecError("kind must be finite or standard")
    elif negation is not None:
        form, chain = ("negation",), FiniteChain.from_negation(negation, name=name)
    elif table_rows is not None:
        form, chain = ("table",), FiniteChain.from_values_table(table_rows, name=name)
    elif family and size:
        form, chain = ("family", "size"), FiniteChain.from_family(family, size, name=name)
    else:
        raise ChainSpecError("finite chains need family+size, a table or a negation")
    unread = sorted(seen - {"chain", "kind", *form})
    if unread:
        raise ChainSpecError(f"chain file key {unread[0]!r} is not read "
                             f"beside {' and '.join(map(repr, form))}")
    return name, chain


_FLAGS = {"true": True, "yes": True, "1": True,
          "false": False, "no": False, "0": False}


def parse_op_file(text: str, chains: dict):
    """Parse 'op <name> on <chain>' followed by key: value lines.

    Kinds: min | max | crisp (threshold, closed) | piecewise (breakpoints,
    interpolation) | table (values).  A repeated key, or one the kind does
    not read, is an error.  Returns (name, operator).
    """
    name = ""
    host = None
    kind = ""
    params: dict = {}
    seen = set()
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        if ln.startswith("op "):
            key, value = "op", ln[3:].strip()
        else:
            key, _, value = ln.partition(":")
            key, value = key.strip(), value.strip()
        if key in seen:
            raise OperatorSpecError(f"repeated operator file key {key!r}")
        seen.add(key)
        if key == "op":
            name, _, chain_name = value.partition(" on ")
            name, chain_name = name.strip(), chain_name.strip()
            if chain_name not in chains:
                raise OperatorSpecError(f"unknown chain {chain_name!r}")
            host = chains[chain_name]
        elif key == "kind":
            kind = value
        elif key == "threshold":
            params["threshold"] = rat(value)
        elif key == "closed":
            flag = _FLAGS.get(value.lower())
            if flag is None:
                raise OperatorSpecError(
                    f"closed must be true/yes/1 or false/no/0, not {value!r}")
            params["closed"] = flag
        elif key == "interpolation":
            params["interpolation"] = value
        elif key == "breakpoints":
            bps = []
            for part in value.split(","):
                part = part.strip()
                if not part:
                    continue
                x, _, v = part.partition("=")
                bps.append((rat(x.strip()), rat(v.strip())))
            params["breakpoints"] = bps
        elif key == "values":
            params["values"] = [rat(tok) for tok in value.split()]
        else:
            raise OperatorSpecError(f"unknown operator file key {key!r}")
    if host is None:
        raise OperatorSpecError("operator file must start with 'op <name> on <chain>'")
    # the keys each kind reads, the one it needs first
    reads = {"min": (), "max": (), "crisp": ("threshold", "closed"),
             "piecewise": ("breakpoints", "interpolation"),
             "table": ("values",)}.get(kind)
    if reads is None:
        raise OperatorSpecError(f"unknown operator kind {kind!r}")
    if reads and reads[0] not in params:
        raise OperatorSpecError(f"{kind} operators need a {reads[0]} line")
    unread = sorted(set(params) - set(reads))
    if unread:
        raise OperatorSpecError(f"operator file key {unread[0]!r} is not "
                                f"read by {kind} operators")
    if kind == "min":
        op = min_op(host)
    elif kind == "max":
        op = max_op(host)
    elif kind == "crisp":
        op = crisp_op(host, params["threshold"], params.get("closed", True))
    elif kind == "piecewise":
        op = piecewise_op(host, params["breakpoints"],
                          params.get("interpolation", "linear"))
    else:
        op = table_op(host, params["values"])
    op.name = name or op.name
    return name, op


def parse_proof(text: str) -> ProofScript:
    """Parse the numbered proof format.

    Header 'proof <name> in <profile>', then lines
    'n. <formula> | axiom <id> | premise <k> | mp <i> <j> |
    rule <id> <refs...> | thm <name>'.
    """
    name = ""
    profile_name = ""
    lines = []
    for raw in text.splitlines():
        raw = raw.strip()
        if not raw or raw.startswith("#"):
            continue
        if raw.startswith("proof "):
            rest = raw[len("proof "):]
            name, _, profile_name = rest.partition(" in ")
            name, profile_name = name.strip(), profile_name.strip()
            continue
        head, dot, rest = raw.partition(".")
        if not dot or not head.strip().isdecimal():
            raise ProofSyntaxError(f"malformed proof line: {raw!r}")
        number = int(head)
        body, bar, just_text = rest.partition("|")
        if not bar:
            raise ProofSyntaxError(f"line {number} lacks a justification")
        formula = parse(body.strip())
        tokens = just_text.split()
        if not tokens:
            raise ProofSyntaxError(f"line {number} has an empty justification")
        kind = tokens[0]
        # the line numbers a premise, mp or rule justification refers to
        numeric = all(t.isdecimal() for t in tokens[2 if kind == "rule" else 1:])
        if kind == "axiom" and len(tokens) == 2:
            just = ("axiom", tokens[1])
        elif kind == "premise" and len(tokens) == 2 and numeric:
            just = ("premise", int(tokens[1]))
        elif kind == "mp" and len(tokens) == 3 and numeric:
            just = ("mp", int(tokens[1]), int(tokens[2]))
        elif kind == "rule" and len(tokens) >= 3 and numeric:
            just = ("rule", tokens[1], tuple(int(t) for t in tokens[2:]))
        elif kind == "thm" and len(tokens) == 2:
            just = ("thm", tokens[1])
        else:
            raise ProofSyntaxError(f"line {number}: bad justification "
                                   f"{just_text.strip()!r}")
        lines.append(ProofLine(number, formula, just))
    if not profile_name:
        raise ProofSyntaxError("proof file must start with 'proof <name> in <profile>'")
    return ProofScript(name, profile_name, lines)


def load(self, path: str) -> None:
    """Workspace.load, with self the workspace."""
    text = _read(path)
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
