"""The per-tuple closure compilers that the column scan and the generated
functions replaced, kept as their differential oracles.

compile_closures(model, f, var_order) maps an index tuple to f's element
index by one closure call per level of the formula; closure_scan is
finite_scan's loop over those closures, one tuple at a time.
compile_standard(model, f, var_order, points) maps an index tuple into a
standard chain's points to f's exact value the same way, and takes
generate's place in finite_scan when patched in for it.
"""

import itertools
from fractions import Fraction
from functools import reduce
from typing import Sequence

from mtlfi.formula import (And, Bullet, Circ, Const, Delta, Formula, Fuse,
                           Iff, Imp, Not, Or, Var)
from mtlfi.semantics import ChainModel, OperatorNotBound, _operator

_ZERO = Fraction(0)
_ONE = Fraction(1)

# the binary connectives; one on two Vars is a pair
_PAIRS = frozenset((And, Or, Fuse, Imp, Iff))


def _tables(model):
    """The index table of each connective, and of each bound operator."""
    chain = model.chain
    tables = {And: chain._meet_i, Or: chain._join_i, Fuse: chain._tnorm_i,
              Imp: chain._res_i, Iff: chain._iff_i,
              Not: chain._neg_i, Delta: chain._delta_i}
    for t, op in ((Circ, model.consistency), (Bullet, model.inconsistency)):
        if op is not None:
            tables[t] = op.indices
    return tables


def compile_closures(model, f, var_order):
    """A closure mapping an index tuple to f's index.  A Var child is read
    inline as env[k]; a binary parent reads a pair child, a binary
    connective on two Vars, inline as T[env[i]][env[j]] when its other child
    is a Var or a pair too.  An unbound O or # raises OperatorNotBound."""
    pos = {name: i for i, name in enumerate(var_order)}
    return _node(model, _tables(model), pos, f)


def _node(model, tables, pos, node):
    t = type(node)
    if t is Var:
        k = pos[node.name]
        return lambda env: env[k]
    if t is Const:
        v = model.chain.size - 1 if node.value else 0
        return lambda env: v
    tab = tables.get(t)
    if tab is None:
        if t is not Circ and t is not Bullet:
            raise TypeError(f"not a formula node: {node!r}")
        raise OperatorNotBound(f"the formula uses {'O' if t is Circ else '#'}"
                               " but no operator is bound")
    if t is Not or t is Delta or t is Circ or t is Bullet:
        if type(node.arg) is Var:
            k = pos[node.arg.name]
            return lambda env: tab[env[k]]
        g = _node(model, tables, pos, node.arg)
        return lambda env: tab[g(env)]
    left, right = node.left, node.right
    tl, tr = type(left), type(right)
    lpair = tl in _PAIRS and type(left.left) is Var and type(left.right) is Var
    rpair = tr in _PAIRS and type(right.left) is Var and type(right.right) is Var
    if (lpair or rpair) and (lpair or tl is Var) and (rpair or tr is Var):
        return _pair_node(tab, tables, pos, left, right, lpair, rpair)
    a = pos[left.name] if tl is Var else None
    b = pos[right.name] if tr is Var else None
    l = _node(model, tables, pos, left) if a is None else None
    r = _node(model, tables, pos, right) if b is None else None
    if a is None:
        if b is None:
            return lambda env: tab[l(env)][r(env)]
        return lambda env: tab[l(env)][env[b]]
    if b is None:
        return lambda env: tab[env[a]][r(env)]
    return lambda env: tab[env[a]][env[b]]


def _pair_node(tab, tables, pos, left, right, lpair, rpair):
    if lpair:
        lt, i, j = tables[type(left)], pos[left.left.name], pos[left.right.name]
    if rpair:
        rt, m, n = tables[type(right)], pos[right.left.name], pos[right.right.name]
    if lpair and rpair:
        return lambda env: tab[lt[env[i]][env[j]]][rt[env[m]][env[n]]]
    if lpair:
        b = pos[right.name]
        return lambda env: tab[lt[env[i]][env[j]]][env[b]]
    a = pos[left.name]
    return lambda env: tab[env[a]][rt[env[m]][env[n]]]


def closure_scan(model, premises, conclusion, mode, vars_, envs=None):
    """finite_scan's result on a finite chain, one tuple at a time: the
    premises folded into one lattice conjunction, envs defaulting to the
    full product."""
    top = model.chain.size - 1
    prem = (compile_closures(model, reduce(And, premises), vars_)
            if premises else None)
    concl = compile_closures(model, conclusion, vars_)
    if envs is None:
        envs = itertools.product(range(model.chain.size), repeat=len(vars_))
    checked = 0
    if prem is None:
        witness = top if mode == "degree" else None
        for checked, env in enumerate(envs, 1):
            if concl(env) != top:
                return env, checked, witness
    elif mode == "truth":
        for checked, env in enumerate(envs, 1):
            if prem(env) == top and concl(env) != top:
                return env, checked, None
    else:
        for checked, env in enumerate(envs, 1):
            a = prem(env)
            if a and a > concl(env):
                return env, checked, a
    return None, checked, None


def compile_standard(model: ChainModel, f: Formula, var_order: Sequence[str],
                     points: Sequence[Fraction]):
    """Compile a formula on a standard chain into a closure mapping an index
    tuple to the formula's exact value.

    A Var reads points, and a unary connective on a Var its table over
    points, which is filled as the scan first reads each point; any other
    connective applies the chain's exact arithmetic (min, max, or the
    bound O or #) to its children's values as evaluate does, and a /\\ or &
    is 0 where its left side is.  An unbound O or # raises OperatorNotBound.
    """
    chain = model.chain
    res = chain.residuum
    ops = {And: min, Or: max, Fuse: chain.tnorm, Imp: res,
           Iff: lambda x, y: min(res(x, y), res(y, x)),
           Not: chain.negation, Delta: chain.delta}
    pos = {name: i for i, name in enumerate(var_order)}
    return _standard_node(model, ops, pos, {Var: points}, f)


class _Table(dict):
    """op's value at each index into points, computed at its first read."""

    __slots__ = ("op", "points")

    def __init__(self, op, points):
        self.op, self.points = op, points

    def __missing__(self, i):
        v = self[i] = self.op(self.points[i])
        return v


def _standard_node(model, ops, pos, tabs, node):
    """The closure from env to node's value (module level, so that a
    compiled formula holds no reference cycle)."""
    t = type(node)
    if t is Var:
        k, points = pos[node.name], tabs[Var]
        return lambda env: points[env[k]]
    if t is Const:
        v = _ONE if node.value else _ZERO
        return lambda env: v
    op = ops.get(t)
    if op is None:
        if t is not Circ and t is not Bullet:
            raise TypeError(f"not a formula node: {node!r}")
        op = ops[t] = _operator(model, t).value
    if t is Not or t is Delta or t is Circ or t is Bullet:
        if type(node.arg) is Var:
            k, tab = pos[node.arg.name], tabs.get(t)
            if tab is None:
                tab = tabs[t] = _Table(op, tabs[Var])
            return lambda env: tab[env[k]]
        g = _standard_node(model, ops, pos, tabs, node.arg)
        return lambda env: op(g(env))
    l = _standard_node(model, ops, pos, tabs, node.left)
    r = _standard_node(model, ops, pos, tabs, node.right)
    if t is And or t is Fuse:  # 0 /\ y = 0 & y = 0: y is not evaluated
        return lambda env: (x := l(env)) and op(x, r(env))
    return lambda env: op(l(env), r(env))

