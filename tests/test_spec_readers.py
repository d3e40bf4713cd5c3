"""chain.read_spec against the three readers it replaced.

Files are drawn from lines a chain, operator or proof file may hold: the
header and its variants, known keys with good and bad values, table rows,
repeated, unknown and unread keys, malformed lines, comments and blank
lines, in any order.  Each parser, and Workspace.load, must give what the
old one in reference_spec_readers gives (an equal chain, operator or
script, or the same exception class and message), except in the four
cases the reader changes on purpose:

- a file whose first line that is not blank or a comment is not its
  header, or a proof with a second header, is refused with the
  must-start or repeated-key message;
- an operator's values: line may separate its rationals by commas, as a
  negation: line or a table row may;
- an operator file's line without a colon is malformed, as in a chain
  file, where the old reader read it as a key with an empty value;
- Workspace.load reads a file that starts with a comment, as the parsers
  always did, so it loads what the old one loads with the comments taken
  out.
"""

import re

from hypothesis import given, settings, strategies as st

import reference_spec_readers as old
from mtlfi.chain import ChainSpecError, builtin_chains, parse_chain_file
from mtlfi.cli import Workspace
from mtlfi.hilbert import ProofSyntaxError, parse_proof
from mtlfi.operators import OperatorSpecError, parse_op_file
from mtlfi.proofs import FIXTURES, MUTANTS

CHAINS = builtin_chains()

_JUNK = ["", "   ", "# a comment", "#", "# table: 0 1", "bogus line",
         "bogus: 1", ": 1"]

# valid files, header first, and lines an edit may insert into one
CHAIN_FILES = [
    ["chain c", "kind: finite", "family: godel", "size: 4"],
    ["chain c", "kind: finite", "family: lukasiewicz", "size: 3"],
    ["chain  two words", "kind: finite", "negation: 1 1/2 0"],
    ["chain c", "kind: finite", "negation: 1, 2/3, 1/3, 0"],
    ["chain c", "kind: finite", "table:", "0 0", "0 1"],
    ["chain c", "kind: finite", "table: 0 0 0", "0, 1/2, 1/2", "0 1/2 1"],
    ["chain c", "kind: standard", "components: lukasiewicz 0 1/2; godel 1/2 1"],
    ["chain c", "kind: standard", "components: product 0 1;"],
]
CHAIN_LINES = [
    "kind: finite", "kind: standard", "kind: fuzzy", " kind :finite ",
    "family: godel", "family: product", "size: 2", "size: 0", "size: three",
    "negation: 1 0", "negation: 1,0", "negation: 1 x 0", "negation:",
    "components: godel 0 1", "components: godel 0", "components: ;",
    "table:", "table: 0, 0", "0 0", "0 1", "0 1/2 1", "1/2 x", "0 1/0",
    "chain other", "chain: other", "chain",
] + _JUNK

OP_FILES = [
    ["op o on L3", "kind: min"],
    ["op o on G5", "kind: max"],
    ["op  spaced  on  LP ", "kind: crisp", "threshold: 3/4", "closed: no"],
    ["op o on LP", "kind: crisp", "threshold: 3/4"],
    ["op o on LL", "kind: piecewise", "breakpoints: 1/2=1/2, 1=1",
     "interpolation: linear"],
    ["op o on L3", "kind: table", "values: 1 0 1"],
    ["op o on L5", "kind: table", "values: 1, 0, 0, 0, 1"],
]
OP_LINES = [
    "kind: min", "kind: max", "kind: crisp", "kind: table", "kind: bogus",
    "kind", "threshold: 1/2", "threshold: x", "threshold",
    "closed: yes", "closed: TRUE", "closed: ture", "interpolation: step",
    "interpolation: cubic", "breakpoints: 1=1", "breakpoints: x=1",
    "breakpoints: , ,", "values: 1 0 1", "values: 1,1/2,1", "values: 1 x 1",
    "values: 1 0", "values:",
    "op p on LG", "op: p on L3", "op", "op o on NOPE", "op o", "op  on L3",
] + _JUNK

PROOF_FILES = [spec["text"].splitlines() for spec in [*FIXTURES.values(),
                                                      *MUTANTS]]
PROOF_LINES = [
    "1. p -> p | thm imp-id", "2. p | premise 1", "3. p | mp 2 1",
    "1. p | axiom A1", "2. p | rule r 1", "4. q | mp 1", "1. p",
    "x. p | premise 1", "1. p | bogus", "1. p -> | premise 1",
    "proof q in G", "proof: q in G", "proof p", "proof",
] + _JUNK


def _edit(base, edits):
    lines = list(base)
    for kind, i, j, extra in edits:
        n = len(lines)
        if kind == "insert":  # after the first line
            lines.insert(1 + i % n if n else 0, extra)
        elif kind == "lead":
            lines.insert(0, extra)
        elif kind == "drop" and lines:
            del lines[0]
        elif n > 1 and kind == "delete":
            del lines[1 + i % (n - 1)]
        elif n > 1:  # swap two lines after the first
            i, j = 1 + i % (n - 1), 1 + j % (n - 1)
            lines[i], lines[j] = lines[j], lines[i]
    return "\n".join(lines) + "\n"


def _files(bases, extras):
    """A valid file changed by up to four edits: a line of extras inserted
    after the first line or before it, the first line or another deleted,
    or two lines after the first swapped."""
    kinds = ["insert"] * 4 + ["delete", "swap", "lead", "drop"]
    edit = st.tuples(st.sampled_from(kinds), st.integers(0, 30),
                     st.integers(0, 30), st.sampled_from(extras))
    return st.builds(_edit, st.sampled_from(bases),
                     st.lists(edit, max_size=4))


def _content(text):
    return [ln.strip() for ln in text.splitlines()
            if ln.strip() and not ln.strip().startswith("#")]


def _not_first(text, word):
    """Whether the header is not the first line left, or a proof has two."""
    lines = _content(text)
    if not lines or not lines[0].startswith(word + " "):
        return True
    return word == "proof" and any(ln.startswith("proof ")
                                   for ln in lines[1:])


def _chain_key(chain):
    if chain.is_finite:
        return ("finite", chain.name, chain._tnorm_i)
    return ("standard", chain.name, chain.components)


def _op_key(op):
    return (op.chain.name, op.chain is CHAINS[op.chain.name],
            {k: v for k, v in vars(op).items() if k not in ("chain", "_nset")})


def _outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # the class and message are compared
        return ("error", type(exc), str(exc))


def _chain_outcome(fn, text):
    out = _outcome(fn, text)
    if out[0] == "ok":
        name, chain = out[1]
        return ("ok", name, _chain_key(chain))
    return out


def _op_outcome(fn, text):
    out = _outcome(fn, text, CHAINS)
    if out[0] == "ok":
        name, op = out[1]
        return ("ok", name, _op_key(op))
    return out


def _must_start(noun, form):
    return f"{noun} must start with {form!r}"


# the error class and messages of a header that is not first or not alone
FIXED = {
    "chain": (ChainSpecError, _must_start("chain file", "chain <name>")),
    "op": (OperatorSpecError,
           _must_start("operator file", "op <name> on <chain>")),
    "proof": (ProofSyntaxError,
              _must_start("proof file", "proof <name> in <profile>"),
              "repeated proof file key 'proof'"),
}


@given(_files(CHAIN_FILES, CHAIN_LINES))
@settings(max_examples=600, deadline=None)
def test_chain_files_read_as_before(text):
    new = _chain_outcome(parse_chain_file, text)
    if _not_first(text, "chain"):
        assert new == ("error", *FIXED["chain"])
    else:
        assert new == _chain_outcome(old.parse_chain_file, text)


def _values_by_spaces(text):
    return re.sub(r"(?m)^(\s*values\s*:.*)$",
                  lambda m: m.group(1).replace(",", " "), text)


_UNKNOWN = ("error", OperatorSpecError, "unknown operator file key 'no colon'")


def _old_op(outcome, text):
    """outcome(text) from an old operator reader, with the first line after
    the header that has no colon and is no header swapped for one that the
    old reader refuses as an unknown key at the same place: the reader
    refuses the line it stands for as malformed there."""
    lines = text.splitlines()
    body = [i for i, ln in enumerate(lines)
            if ln.strip() and not ln.strip().startswith("#")][1:]
    for i in body:
        line = lines[i].strip()
        if ":" not in line and not line.startswith("op "):
            lines[i] = "no colon:"
            out = outcome("".join(ln + "\n" for ln in lines))
            if out == _UNKNOWN:
                return ("error", OperatorSpecError,
                        f"malformed operator file line: {line!r}")
            return out
    return outcome(text)


@given(_files(OP_FILES, OP_LINES))
@settings(max_examples=600, deadline=None)
def test_op_files_read_as_before(text):
    new = _op_outcome(parse_op_file, text)
    if _not_first(text, "op"):
        assert new == ("error", *FIXED["op"])
    else:
        # the old reader split values: at spaces only
        assert new == _old_op(lambda t: _op_outcome(old.parse_op_file, t),
                              _values_by_spaces(text))


@given(_files(PROOF_FILES, PROOF_LINES))
@settings(max_examples=600, deadline=None)
def test_proof_files_read_as_before(text):
    new = _outcome(parse_proof, text)
    lines = _content(text)
    if _not_first(text, "proof"):
        # a second header is the repeated key, anything else must-start
        repeated = bool(lines) and lines[0].startswith("proof ")
        assert new == ("error", ProofSyntaxError, FIXED["proof"][1 + repeated])
    else:
        assert new == _outcome(old.parse_proof, text)


def _workspace_outcome(load, path):
    ws = Workspace()
    out = _outcome(load, ws, path)
    if out[0] == "error":
        return out
    return ("ok", {name: _chain_key(c) for name, c in ws.chains.items()},
            {name: _op_key(op) for name, op in ws.ops.items()}, ws.scripts)


@given(st.one_of(_files(CHAIN_FILES, CHAIN_LINES),
                 _files(OP_FILES, OP_LINES),
                 _files(PROOF_FILES, PROOF_LINES)))
@settings(max_examples=600, deadline=None)
def test_workspace_loads_as_before(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "spec_file"
    path.write_text(text)
    new = _workspace_outcome(Workspace.load, str(path))
    # the old load took the kind from the first word of the text, so it
    # read a file that starts with a comment once the comments are out
    lines = _content(text)
    kind = lines[0].split(None, 1)[0] if lines else ""
    if kind in FIXED and _not_first(text, kind):
        assert new[:2] == ("error", FIXED[kind][0])
        assert new[2] in FIXED[kind][1:]
        return

    def old_load(text):
        path.write_text(text)
        return _workspace_outcome(old.load, str(path))

    stripped = "".join(ln + "\n" for ln in lines)
    if kind == "op":
        assert new == _old_op(old_load, _values_by_spaces(stripped))
    else:
        assert new == old_load(stripped)
