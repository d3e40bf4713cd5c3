import importlib
import os
import subprocess
import sys

import pytest

import mtlfi

# the names the package has always exported, by the submodule defining each
OLD_EXPORTS = {
    "chain": ["Component", "FiniteChain", "NSet", "StandardChain",
              "builtin_chains", "quotient_by_filter", "upward_filter",
              "validate_mtl_laws"],
    "formula": ["Formula", "Schema", "match_schema", "normalize", "parse",
                "power", "render", "schema", "substitute"],
    "hilbert": ["ChainProfileMismatch", "parse_proof", "soundness_bridge",
                "verify_proof"],
    "operators": ["ConsistencyOp", "InconsistencyOp", "crisp_op", "dual",
                  "enumerate_ops", "max_op", "min_op", "op_from_delta",
                  "delta_from_op", "piecewise_op", "table_op",
                  "validate_algebraic", "validate_bullet", "validate_c"],
    "profiles": ["LogicProfile", "load_profile", "profile_names"],
    "semantics": ["ChainModel", "Evaluation", "bridge_check",
                  "check_dat_axiom", "check_lfi", "check_propagation",
                  "classical_taut", "degree_consequence", "evaluate",
                  "pdat_search", "truth_consequence"],
    "suite": ["run_suite"],
}

# Every command needs the built-in chains; nothing else may load before
# the command that uses it runs.
FOOTPRINT_SCRIPT = """\
import sys, mtlfi.cli
mtlfi.cli.Workspace()
print(" ".join(sorted(m for m in sys.modules if m.startswith("mtlfi"))))
"""


def test_cli_start_up_loads_only_the_chain_module():
    src = os.path.dirname(os.path.dirname(mtlfi.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-W", "error", "-c",
                           FOOTPRINT_SCRIPT],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # so none of formula, semantics, operators, hilbert, profiles, proofs
    # or suite
    assert proc.stdout.split() == ["mtlfi", "mtlfi.chain", "mtlfi.cli"]


@pytest.mark.parametrize("module,name", [(module, name)
                                         for module, names in OLD_EXPORTS.items()
                                         for name in names])
def test_exported_name_is_the_submodules_own_object(module, name):
    home = importlib.import_module(f"mtlfi.{module}")
    assert getattr(mtlfi, name) is getattr(home, name)
    assert name in mtlfi.__all__ and name in dir(mtlfi)


def test_from_import_of_an_exported_name():
    from mtlfi import parse, render
    assert render(parse("p -> q")) == "p -> q"


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        mtlfi.no_such_name
    with pytest.raises(ImportError):
        from mtlfi import no_such_name  # noqa: F401


def test_input_errors_share_one_base():
    from mtlfi.chain import ChainError
    from mtlfi.cli import UsageError
    from mtlfi.formula import FormulaSyntaxError
    from mtlfi.hilbert import HilbertError
    from mtlfi.operators import OperatorError, TooLarge
    from mtlfi.profiles import UnknownProfile
    from mtlfi.semantics import SemanticsError
    for cls in (ChainError, OperatorError, SemanticsError, HilbertError,
                FormulaSyntaxError, UnknownProfile, UsageError):
        assert issubclass(cls, mtlfi.InputError) and cls.exit_code == 3
    # an enumeration over its budget is an unknown, not a usage error
    assert TooLarge.exit_code == 2
    # the older bases stay, so handlers that catch them still do
    assert issubclass(FormulaSyntaxError, ValueError)
    assert issubclass(UnknownProfile, KeyError)
