"""Workbench for residuated chains with consistency and inconsistency
operators: exact chain algebra, operator validation and enumeration,
truth- and degree-preserving countermodel search, and Hilbert-style proof
checking.

The package imports no submodule itself.  Each public name below loads the
submodule that defines it on first access (PEP 562), so ``import
mtlfi.cli`` compiles only the modules a command uses.
"""

__version__ = "0.1.0"


class InputError(Exception):
    """Base of the errors that malformed or out-of-range input raises.

    The command line reports one as an ``error:`` line on stderr and exits
    with ``exit_code``.
    """

    exit_code = 3


_EXPORTS = {
    "chain": ("Component", "FiniteChain", "NSet", "StandardChain",
              "builtin_chains", "quotient_by_filter", "upward_filter",
              "validate_mtl_laws"),
    "formula": ("Formula", "Schema", "match_schema", "normalize", "parse",
                "power", "render", "schema", "substitute"),
    "hilbert": ("ChainProfileMismatch", "parse_proof", "soundness_bridge",
                "verify_proof"),
    "operators": ("ConsistencyOp", "InconsistencyOp", "crisp_op", "dual",
                  "enumerate_ops", "max_op", "min_op", "op_from_delta",
                  "delta_from_op", "piecewise_op", "table_op",
                  "validate_algebraic", "validate_bullet", "validate_c"),
    "profiles": ("LogicProfile", "load_profile", "profile_names"),
    "semantics": ("ChainModel", "Evaluation", "bridge_check",
                  "check_dat_axiom", "check_lfi", "check_propagation",
                  "classical_taut", "degree_consequence", "evaluate",
                  "pdat_search", "truth_consequence"),
    "suite": ("run_suite",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["InputError", *_HOME]


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME))
