import argparse
import os
import subprocess
import sys

import pytest

import mtlfi
from mtlfi import cli
from mtlfi.cli import _build_parser, main
from mtlfi.formula import MAX_DEPTH
from mtlfi.operators import BUILTIN_SPECS, CRISP_SPEC
from mtlfi.semantics import CONNECTIVE_TOKENS
from test_hilbert import UNKNOWN_NOPE


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseEval:
    def test_parse_renders_canonically(self, capsys):
        code, out, _ = run(capsys, "parse", "~(p/\\~p/\\O p)")
        assert code == 0
        assert out.strip() == "~(p /\\ ~p /\\ O p)"

    def test_parse_unicode_flag(self, capsys):
        code, out, _ = run(capsys, "parse", "--unicode", "p -> 0")
        assert code == 0 and "→" in out

    def test_parse_syntax_error_is_usage(self, capsys):
        code, _, err = run(capsys, "parse", "p ->")
        assert code == 3 and "syntax error" in err

    def test_eval(self, capsys):
        code, out, _ = run(capsys, "eval", "--chain", "LP", "--op", "crisp:3/4",
                           "--assign", "p=5/6,q=3/4",
                           "(O p /\\ O q) -> O (p & q)")
        assert code == 0 and out.strip() == "0"

    def test_eval_on_second_component(self, capsys):
        code, out, _ = run(capsys, "eval", "--chain", "LL", "--assign",
                           "p=3/5", "p & p")
        assert code == 0 and out.strip() == "1/2"

    def test_eval_rejects_value_outside_standard_carrier(self, capsys):
        for value in ("2", "-1/2"):
            code, out, err = run(capsys, "eval", "--chain", "LP", "--assign",
                                 f"p={value}", "p")
            assert code == 3 and out == "" and "outside [0,1]" in err

    def test_eval_rejects_non_element_of_finite_chain(self, capsys):
        code, out, err = run(capsys, "eval", "--chain", "L3", "--assign",
                             "p=1/3,q=1", "p /\\ q")
        assert code == 3 and out == ""
        assert "1/3 is not an element of L3" in err
        code, out, _ = run(capsys, "eval", "--chain", "L3", "--assign",
                           "p=1/2,q=1", "p /\\ q")
        assert code == 0 and out.strip() == "1/2"

    @pytest.mark.parametrize("assign, message", [
        ("p=1/2,p=1", "--assign gives p twice"),
        ("p=1/2, p =1", "--assign gives p twice"),
        ("=1", "--assign names a variable before '=', not ''"),
        ("p=1/2,P=1", "--assign names a variable before '=', not 'P'"),
        ("1p=1", "--assign names a variable before '=', not '1p'"),
        ("p q=1", "--assign names a variable before '=', not 'p q'"),
    ])
    def test_eval_rejects_a_dropped_or_foreign_name(self, capsys, assign,
                                                    message):
        code, out, err = run(capsys, "eval", "--chain", "L3", "--assign",
                             assign, "p")
        assert (code, out, err) == (3, "", f"error: {message}\n")

    def test_eval_names_a_variable_without_a_value(self, capsys):
        code, out, err = run(capsys, "eval", "--chain", "L3", "--assign",
                             "p=1,q_2=0", "p & q_2 -> r")
        assert (code, out, err) == (3, "", "error: variable r has no value\n")


class TestDeepAndForeignInput:
    AT_LIMIT = {"fold": "p" + " & p" * (MAX_DEPTH - 1),
                "arrows": " -> ".join(["p"] * MAX_DEPTH)}

    @pytest.mark.parametrize("chain, fold_value, arrows_code", [
        ("L3", "0", 0), ("LG", "1/2", 2)])
    def test_formulas_at_the_depth_limit_are_decided(self, capsys, chain,
                                                     fold_value, arrows_code):
        # p & ... & p fails (its value at 1/2 is 0 on L3, 1/2 on LG);
        # p -> ... -> p holds, which a standard grid cannot prove
        code, out, _ = run(capsys, "taut", "--chain", chain,
                           self.AT_LIMIT["fold"])
        assert code == 1 and "verdict: fails" in out
        code, out, _ = run(capsys, "eval", "--chain", chain, "--assign",
                           "p=1/2", self.AT_LIMIT["fold"])
        assert (code, out.strip()) == (0, fold_value)
        code, _, _ = run(capsys, "taut", "--chain", chain,
                         self.AT_LIMIT["arrows"])
        assert code == arrows_code

    def test_nested_parentheses_are_decided(self, capsys):
        text = "(p -> " * 200 + "p" + ")" * 200
        code, out, _ = run(capsys, "taut", "--chain", "L3", text)
        assert code == 0 and "verdict: holds" in out

    @pytest.mark.parametrize("text", [
        "p" + " & p" * MAX_DEPTH, "p" + " & p" * 1199, "~" * MAX_DEPTH + "p"])
    def test_deeper_formulas_are_usage_errors(self, capsys, text):
        code, out, err = run(capsys, "taut", "--chain", "L3", text)
        assert (code, out) == (3, "")
        assert f"formula deeper than {MAX_DEPTH} levels" in err

    @pytest.mark.parametrize("text", ["p² -> p²", "é", "x١ -> x١"])
    def test_non_ascii_variable_names_are_usage_errors(self, capsys, text):
        code, out, err = run(capsys, "taut", "--chain", "L3", text)
        assert (code, out) == (3, "") and "unexpected character" in err


class TestConsequence:
    def test_degree_countermodel_records(self, capsys):
        code, out, _ = run(capsys, "conseq", "--mode", "degree",
                           "--chain", "L3", "--op", "auto",
                           "--premises", "p, ~p", "--goal", "q",
                           "--format", "records")
        assert code == 1
        assert "verdict=fails" in out
        assert "assignment=p=1/2 q=0" in out
        assert "witness_a=1/2" in out

    def test_truth_mode_holds(self, capsys):
        code, out, _ = run(capsys, "conseq", "--chain", "L3",
                           "--premises", "p, ~p", "--goal", "q")
        assert code == 0 and "holds" in out

    @pytest.mark.parametrize("chain, code, verdict", [
        ("L3", 0, "holds"), ("W15", 0, "holds"), ("LG", 2, "unknown")])
    def test_many_premises(self, capsys, chain, code, verdict):
        # 5 000 premises fold into one balanced meet, 13 levels deep: folded
        # one at a time they raised a RecursionError (exit 4).  A clean
        # grid scan of LG with a variable is unknown.
        premises = ", ".join(["p"] * 5000)
        for mode in ("truth", "degree"):
            got, out, err = run(capsys, "conseq", "--chain", chain,
                                "--mode", mode, "--premises", premises,
                                "--goal", "p")
            assert (got, err) == (code, "")
            assert f"verdict: {verdict}" in out

    def test_unknown_verdict_exit_code(self, capsys):
        code, out, _ = run(capsys, "taut", "--chain", "LL", "--op", "min",
                           "p \\/ ~p \\/ ~O p")
        assert code == 2

    def test_classical_taut(self, capsys):
        code, out, _ = run(capsys, "taut", "--classical", "((p -> q) -> p) -> p")
        assert code == 0 and "tautology" in out
        code, _, _ = run(capsys, "taut", "--classical", "p -> q")
        assert code == 1

    @pytest.mark.parametrize("spec", ["negation: 1", "family: godel\nsize: 3",
                                      None])
    def test_classical_reads_no_file(self, capsys, tmp_path, spec):
        # a malformed or missing file used to be read, and its error shown
        path = tmp_path / "x.chain"
        if spec is not None:
            path.write_text(f"chain x\nkind: finite\n{spec}\n")
        code, out, err = run(capsys, "taut", "--classical", "--load",
                             str(path), "p -> p")
        assert (code, out) == (3, "")
        assert err == ("error: --classical is a two-valued check and takes "
                       "no --load\n")


class TestOperatorCommands:
    def test_validate_op_valid(self, capsys):
        code, out, _ = run(capsys, "validate-op", "--chain", "LP",
                           "--op", "crisp:3/4")
        assert code == 0
        assert "verdict: valid" in out and "dual verdict: valid" in out

    def test_validate_op_auto_unique(self, capsys):
        code, out, _ = run(capsys, "validate-op", "--chain", "L5", "--op", "auto")
        assert code == 0 and "equational verdict: valid" in out

    def test_auto_fails_when_ambiguous(self, capsys):
        code, _, err = run(capsys, "validate-op", "--chain", "G3", "--op", "auto")
        assert code == 3 and "3 operators" in err

    def test_enum_ops(self, capsys):
        code, out, _ = run(capsys, "enum-ops", "--chain", "G3")
        assert code == 0
        assert out.splitlines()[0] == "count: 3"

    def test_enum_ops_past_the_old_size_cap(self, capsys):
        code, out, _ = run(capsys, "enum-ops", "--chain", "W15")
        assert code == 0
        assert out.splitlines() == ["count: 1", "1" + " 0" * 14 + " 1"]

    @pytest.mark.parametrize("command", [
        ["enum-ops"], ["validate-op", "--op", "auto"]])
    def test_enumeration_over_budget_is_budget_exhausted(self, capsys,
                                                         tmp_path, command):
        # G12 has C(22, 10) = 352 716 operators, over ENUMERATION_BUDGET
        path = tmp_path / "g12.chain"
        path.write_text("chain G12\nkind: finite\nfamily: godel\nsize: 12\n")
        code, out, err = run(capsys, *command, "--load", str(path),
                             "--chain", "G12")
        assert code == 2 and out == ""
        assert err == ("error: 352716 operators exceed the budget "
                       "of 100000\n")

    def test_validate_op_without_an_operator_is_a_usage_error(self, capsys):
        # a missing --op used to reach None.startswith: a traceback, exit 4
        code, out, err = run(capsys, "validate-op", "--chain", "L3")
        assert (code, out) == (3, "")
        assert err == "error: no operator given: pass --op\n"

    @pytest.mark.parametrize("command", [
        ["lfi-report"], ["dat"], ["propagation", "--connective", "&"],
        ["propagation", "--connective", "0"], ["pdat", "--goal", "p -> q"]],
        ids=lambda c: "-".join(c[:1] + c[2:3]))
    def test_operator_commands_without_an_operator(self, capsys, command):
        # these used to report the semantics' "an operator binding is
        # required", which does not name the option
        code, out, err = run(capsys, *command, "--chain", "L3")
        assert (code, out) == (3, "")
        assert err == "error: no operator given: pass --op\n"

    def test_validate_op_auto_on_w15(self, capsys):
        code, out, _ = run(capsys, "validate-op", "--chain", "W15", "--op", "auto")
        assert code == 0 and "equational verdict: valid" in out

    def test_quotient(self, capsys):
        code, out, _ = run(capsys, "quotient", "--chain", "W15",
                           "--filter", "12/15")
        assert code == 0 and "quotient size: 10" in out

    def test_quotient_rejects_non_filter(self, capsys):
        code, out, _ = run(capsys, "quotient", "--chain", "L5",
                           "--filter", "3/4,1")
        assert code == 1 and "not a filter" in out

    def test_quotient_of_a_real_non_filter_is_a_refutation(self, capsys):
        code, out, err = run(capsys, "quotient", "--chain", "L3",
                             "--filter", "1/3")
        assert (code, err) == (1, "")
        assert out == ("not a filter: not closed under the strong "
                       "conjunction: 1/2*1/2 = 0\n")

    @pytest.mark.parametrize("spec", ["1/2", "1/2,1"])
    def test_quotient_of_a_standard_chain_is_a_usage_error(self, capsys,
                                                           spec):
        # the comma form used to print "not a filter: ..." and exit 1
        code, out, err = run(capsys, "quotient", "--chain", "LG",
                             "--filter", spec)
        assert (code, out) == (3, "")
        assert err == "error: filters are only supported on finite chains\n"


class TestReports:
    def test_lfi_report(self, capsys):
        code, out, _ = run(capsys, "lfi-report", "--chain", "LG", "--op", "max")
        assert code == 0
        assert out.count("pass") >= 4

    def test_lfi_report_fails_on_pseudo_complemented(self, capsys):
        code, out, _ = run(capsys, "lfi-report", "--chain", "G3", "--op", "min")
        assert code == 1 and "clause (i): fail" in out

    def test_propagation_counterpair(self, capsys):
        code, out, _ = run(capsys, "propagation", "--chain", "LP",
                           "--op", "crisp:3/4", "--connective", "&")
        assert code == 1 and "counterpair" in out

    def test_propagation_holds(self, capsys):
        code, out, _ = run(capsys, "propagation", "--chain", "LP",
                           "--op", "crisp:3/4", "--connective", "/\\")
        assert code == 0 and "propagates" in out

    def test_implication_connective_needs_the_equals_form(self, capsys):
        # argparse reads a separate '->' as an option, not as the value
        argv = ("propagation", "--chain", "LG", "--op", "max")
        code, out, err = run(capsys, *argv, "--connective", "->")
        assert (code, out) == (3, "")
        assert "--connective: expected one argument" in err
        code, out, _ = run(capsys, *argv, "--connective=->")
        assert (code, out) == (0, "propagates (3721 checks)\n")
        code, out, _ = run(capsys, "propagation", "--help")
        assert code == 0 and "--connective=->" in out

    def test_dat(self, capsys):
        code, out, _ = run(capsys, "dat", "--chain", "LG", "--op", "max")
        assert code == 1 and "witness" in out
        code, out, _ = run(capsys, "dat", "--chain", "LG", "--op", "min")
        assert code == 0

    def test_non_classical_goals_are_usage_errors(self, capsys):
        code, out, err = run(capsys, "taut", "--classical", "O p")
        assert (code, out) == (3, "")
        assert "the formula must use only classical connectives" in err
        code, out, err = run(capsys, "pdat", "--chain", "LL", "--op", "max",
                             "--goal", "O p")
        assert (code, out) == (3, "")
        assert "the goal must use only classical connectives" in err

    def test_crisp_threshold_must_be_rational(self, capsys):
        for spec, text in (("crisp:abc", "'abc'"), ("crisp:1/0", "'1/0'")):
            code, out, err = run(capsys, "conseq", "--chain", "L3",
                                 "--op", spec, "--goal", "p")
            assert (code, out) == (3, "")
            assert f"not an exact rational: {text}" in err

    def test_pdat(self, capsys):
        code, out, _ = run(capsys, "pdat", "--chain", "B2", "--op", "min",
                           "--goal", "p \\/ ~p")
        assert code == 0 and "k = 1" in out
        code, out, _ = run(capsys, "pdat", "--chain", "B2", "--op", "min",
                           "--goal", "p -> q", "--kmax", "3")
        assert code == 1 and "refuted" in out

    def test_pdat_labels_a_sampled_search(self, capsys):
        # L3 has no grid: seven variables are sampled, not scanned
        goal = "p1 -> (p2 -> (p3 -> (p4 -> (p5 -> (p6 -> (p7 -> p1))))))"
        code, out, _ = run(capsys, "pdat", "--chain", "L3", "--op", "min",
                           "--goal", goal)
        assert (code, out) == (0, "k = 1 (sampled)\n")

    @pytest.mark.parametrize("kmax", ["0", "-2"])
    def test_pdat_without_a_power_is_a_usage_error(self, capsys, kmax):
        code, out, err = run(capsys, "pdat", "--chain", "B2", "--op", "min",
                             "--goal", "p -> q", "--kmax", kmax)
        assert (code, out) == (3, "")
        assert err == f"error: k_max must be at least 1, not {kmax}\n"

    def test_pdat_past_the_depth_limit_is_a_usage_error(self, capsys):
        # it used to recurse past Python's limit: a traceback and exit 4
        code, out, err = run(capsys, "pdat", "--chain", "L3", "--op", "min",
                             "--goal", "p -> q", "--kmax", "1000")
        assert (code, out) == (3, "")
        assert err == ("error: k_max 1000 would build a formula 1003 levels "
                       f"deep, more than {MAX_DEPTH}\n")

    @pytest.mark.parametrize("denominator", ["0", "-3"])
    def test_grid_denominator_below_one_is_a_usage_error(self, capsys,
                                                         denominator):
        for argv in (("taut", "--chain", "LG", "p -> p"),
                     ("lfi-report", "--chain", "LP", "--op", "crisp:3/4"),
                     ("dat", "--chain", "LL", "--op", "min")):
            code, out, err = run(capsys, *argv, "--grid-denominator",
                                 denominator)
            assert (code, out) == (3, "")
            assert err == ("error: the grid denominator must be at least 1, "
                           f"not {denominator}\n")
        code, out, _ = run(capsys, "taut", "--chain", "LG",
                           "--grid-denominator", "1", "p -> p")
        assert code == 2 and "checked: 3" in out

    @pytest.mark.parametrize("argv", [
        ("taut", "--chain", "L3", "p -> p"),
        ("conseq", "--chain", "W15", "--premises", "p", "--goal", "p"),
        ("lfi-report", "--chain", "NM6", "--op", "max"),
        ("propagation", "--chain", "L3", "--op", "max", "--connective", "&"),
        ("dat", "--chain", "NM6", "--op", "max"),
        ("pdat", "--chain", "B2", "--op", "min", "--goal", "p -> q"),
    ])
    def test_grid_denominator_below_one_is_refused_on_finite_chains(
            self, capsys, argv):
        # a finite chain scans no grid, but the flag is refused as on a
        # standard chain, not ignored
        for denominator in ("0", "-3"):
            code, out, err = run(capsys, *argv, "--grid-denominator",
                                 denominator)
            assert (code, out) == (3, "")
            assert err == ("error: the grid denominator must be at least 1, "
                           f"not {denominator}\n")
        code, out, _ = run(capsys, *argv, "--grid-denominator", "1")
        assert code in (0, 1) and out


class TestProve:
    def test_bundled_fixture(self, capsys):
        code, out, _ = run(capsys, "prove", "--fixture", "b1-to-a1")
        assert code == 0 and out.startswith("ok:")

    def test_script_from_file(self, capsys, tmp_path):
        path = tmp_path / "demo.proof"
        path.write_text(
            "proof demo in MTL\n"
            "1. p -> q | premise 1\n"
            "2. q -> r | premise 2\n"
            "3. (p -> q) -> ((q -> r) -> (p -> r)) | axiom A1\n"
            "4. (q -> r) -> (p -> r) | mp 1 3\n"
            "5. p -> r | mp 2 4\n")
        code, out, _ = run(capsys, "prove", str(path))
        assert code == 0 and "premises [1, 2]" in out

    def test_invalid_script_exit_code(self, capsys, tmp_path):
        path = tmp_path / "bad.proof"
        path.write_text("proof bad in MTL\n1. p -> q | axiom A2\n")
        code, out, _ = run(capsys, "prove", str(path))
        assert code == 1 and "invalid at line 1" in out

    def test_unknown_profile_says_what_a_profile_name_is(self, capsys,
                                                         tmp_path):
        # a KeyError's message is the quoted key alone: "error: 'nope'"
        path = tmp_path / "x.proof"
        path.write_text("proof x in nope\n1. p -> p | thm imp-id\n")
        for argv in (("prove", "--fixture", "b1-to-a1", "--profile", "nope"),
                     ("prove", str(path))):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (3, "")
            assert err == f"error: {UNKNOWN_NOPE}\n"

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "prove", "/nonexistent.proof")
        assert code == 3

    def test_non_numeric_reference_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "bad.proof"
        path.write_text("proof bad in MTL\n1. p | premise x\n")
        code, out, err = run(capsys, "prove", str(path))
        assert (code, out) == (3, "")
        assert "line 1: bad justification 'premise x'" in err


class TestLoading:
    def test_load_chain_and_operator(self, capsys, tmp_path):
        chain_file = tmp_path / "demo.chain"
        chain_file.write_text(
            "chain demo\nkind: standard\n"
            "components: lukasiewicz 0 1/2; lukasiewicz 1/2 1\n")
        op_file = tmp_path / "ramp.op"
        op_file.write_text(
            "op ramp on demo\nkind: piecewise\n"
            "breakpoints: 1/2=1/2, 1=1\ninterpolation: linear\n")
        code, out, _ = run(capsys, "eval",
                           "--load", str(chain_file), "--load", str(op_file),
                           "--chain", "demo", "--op", "ramp",
                           "--assign", "p=3/5", "O p -> (p \\/ ~p) & (p \\/ ~p)")
        assert code == 0 and out.strip() == "9/10"

    def test_a_chain_name_is_defined_once(self, capsys, tmp_path):
        # a second chain of one name, built in or loaded, used to replace
        # the first, and an operator loaded before it kept the first:
        # "operator 't' lives on L3", naming the chain asked for
        op_file = tmp_path / "t.op"
        op_file.write_text("op t on L3\nkind: table\nvalues: 1 0 1\n")
        l3 = tmp_path / "l3.chain"
        l3.write_text("chain L3\nkind: finite\nfamily: godel\nsize: 3\n")
        demo = tmp_path / "demo.chain"
        demo.write_text("chain demo\nkind: finite\nfamily: godel\nsize: 3\n")
        for loads, name, op in [((op_file, l3), "L3", "t"),
                                ((l3,), "L3", "max"),
                                ((demo, demo), "demo", "max")]:
            argv = [arg for path in loads for arg in ("--load", str(path))]
            code, out, err = run(capsys, "validate-op", *argv, "--chain",
                                 name, "--op", op)
            assert (code, out) == (3, "")
            assert err == (f"error: {loads[-1]}: chain {name!r} is already "
                           "defined\n")

    def test_an_operator_or_proof_name_is_defined_once(self, capsys,
                                                         tmp_path):
        # a second file of one name used to replace the first without a
        # word: the second operator was validated (clause: c1, exit 1), and
        # the second proof verified
        files = {"t1.op": "op t on L3\nkind: table\nvalues: 1 0 1\n",
                 "t2.op": "op t on L3\nkind: table\nvalues: 1 1 1\n",
                 "s1.proof": "proof s in MTL\n1. p -> p | thm imp-id\n",
                 "s2.proof": "proof s in MTL\n1. p -> q | axiom A2\n"}
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        for first, second, rest, noun, name in [
                ("t1.op", "t2.op", ("validate-op", "--chain", "L3", "--op",
                                    "t"), "operator", "t"),
                ("s1.proof", "s2.proof", ("prove", "s"), "proof", "s")]:
            command, *rest = rest
            code, out, err = run(capsys, command, "--load",
                                 str(tmp_path / first), "--load",
                                 str(tmp_path / second), *rest)
            assert (code, out) == (3, "")
            assert err == (f"error: {tmp_path / second}: {noun} {name!r} is "
                           "already defined\n")

    def test_a_built_in_operator_spec_is_not_an_operator_name(self,
                                                              capsys,
                                                              tmp_path):
        # a loaded operator of a spec's name used to replace the built-in
        # one: max.op made validate-op --op max invalid (clause c1, exit 1)
        files = {"max.op": "op max on L3\nkind: table\nvalues: 1 1 1\n",
                 "crisp.op": "op crisp:1/2 on LL\nkind: min\n"}
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        for file, chain, op in [("max.op", "L3", "max"),
                                ("crisp.op", "LL", "crisp:1/2")]:
            code, out, err = run(capsys, "validate-op", "--load",
                                 str(tmp_path / file), "--chain", chain,
                                 "--op", op)
            assert (code, out) == (3, "")
            assert err == (f"error: {tmp_path / file}: operator {op!r} is "
                           "already defined\n")
            code, out, err = run(capsys, "validate-op", "--chain", chain,
                                 "--op", op)
            assert (code, err) == (0, "")

    @pytest.mark.parametrize("name", ["min", "max", "delta", "auto",
                                      "crisp:1/2", "crisp:1/2:open",
                                      "crisp:x"])
    def test_every_built_in_spec_name_is_refused(self, capsys, tmp_path,
                                                 name):
        path = tmp_path / "o.op"
        path.write_text(f"op {name} on L3\nkind: min\n")
        code, out, err = run(capsys, "enum-ops", "--load", str(path))
        assert (code, out) == (3, "")
        assert err == f"error: {path}: operator {name!r} is already defined\n"

    @pytest.mark.parametrize("text, argv, expected", [
        ("chain c4\nkind: finite\nfamily: godel\nsize: 4\n",
         ("taut", "--chain", "c4", "p -> p"), "verdict: holds\nchecked: 4\n"),
        ("op t on L3\nkind: table\nvalues: 1 0 1\n",
         ("validate-op", "--chain", "L3", "--op", "t"),
         "verdict: valid\nequational verdict: valid\ndual verdict: valid\n"),
        ("proof a in MTL\n1. p -> p | thm imp-id\n", ("prove", "a"),
         "ok: a proves p -> p from premises []\n"),
    ])
    def test_file_may_start_with_a_comment(self, capsys, tmp_path, text,
                                           argv, expected):
        # the kind used to be the first word of the text: '#', exit 3
        path = tmp_path / "file"
        for head in ("", "# c\n", "\n# c\n\n"):
            path.write_text(head + text)
            command, *rest = argv
            code, out, err = run(capsys, command, "--load", str(path), *rest)
            assert (code, out, err) == (0, expected, "")

    @pytest.mark.parametrize("flag, value", [
        ("true", "1"), ("Yes", "1"), ("1", "1"),
        ("false", "0"), ("NO", "0"), ("0", "0")])
    def test_crisp_closed_flag(self, capsys, tmp_path, flag, value):
        path = tmp_path / "crisp.op"
        path.write_text("op c on LP\nkind: crisp\nthreshold: 3/4\n"
                        f"closed: {flag}\n")
        code, out, _ = run(capsys, "eval", "--load", str(path), "--chain",
                           "LP", "--op", "c", "--assign", "p=3/4", "O p")
        assert (code, out.strip()) == (0, value)

    def test_misspelt_closed_flag_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "crisp.op"
        path.write_text("op c on LP\nkind: crisp\nthreshold: 3/4\n"
                        "closed: ture\n")
        code, out, err = run(capsys, "eval", "--load", str(path), "--chain",
                             "LP", "--op", "c", "--assign", "p=3/4", "O p")
        assert (code, out) == (3, "")
        assert "closed must be true/yes/1 or false/no/0, not 'ture'" in err

    def test_unknown_chain_is_usage_error(self, capsys):
        code, _, err = run(capsys, "eval", "--chain", "XX", "p")
        assert code == 3 and "unknown chain" in err

    def test_malformed_chain_file_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "bad.chain"
        path.write_text("chain bad\nkind: finite\nbogus line\n")
        code, out, err = run(capsys, "enum-ops", "--chain", "L3",
                             "--load", str(path))
        assert (code, out) == (3, "")
        assert "malformed chain file line: 'bogus line'" in err

    @pytest.mark.parametrize("suffix, text, message", [
        (".chain", "chain x\nkind: finite\nfamily: godel\nsize: three\n",
         "size must be a natural number, not 'three'"),
        (".chain", "chain x\nkind: standard\ncomponents: godel 0\n",
         "a component is '<family> <lo> <hi>', not 'godel 0'"),
        (".chain", "chain x\nkind: finite\nnegation: 1 1/0 0\n",
         "not an exact rational: '1/0'"),
        (".op", "op x on L3\nkind: crisp\n",
         "crisp operators need a threshold line"),
        (".op", "op x on L3\nkind: table\nvalues: 1 x 1\n",
         "not an exact rational: 'x'"),
    ])
    def test_malformed_numbers_and_missing_keys(self, capsys, tmp_path,
                                                suffix, text, message):
        path = tmp_path / ("bad" + suffix)
        path.write_text(text)
        code, out, err = run(capsys, "enum-ops", "--chain", "L3",
                             "--load", str(path))
        assert (code, out) == (3, "") and message in err

    @pytest.mark.parametrize("suffix, text, message", [
        (".chain", "chain x\nkind: finite\nsize: 4\nfamily: godel\nsize: 5\n",
         "repeated chain file key 'size'"),
        (".chain", "chain x\nkind: finite\nfamily: godel\nsize: 3\n"
         "negation: 1 1/2 0\n",
         "chain file key 'family' is not read beside 'negation'"),
        (".op", "op o on LP\nkind: crisp\nthreshold: 3/4\nkind: max\n",
         "repeated operator file key 'kind'"),
        (".op", "op o on LP\nkind: min\nthreshold: 1/2\n",
         "operator file key 'threshold' is not read by min operators"),
    ])
    def test_repeated_and_unread_keys(self, capsys, tmp_path, suffix, text,
                                      message):
        path = tmp_path / ("bad" + suffix)
        path.write_text(text)
        code, out, err = run(capsys, "eval", "--load", str(path), "--chain",
                             "LP", "--assign", "p=3/5", "p")
        assert (code, out, err) == (3, "", f"error: {message}\n")

    @pytest.mark.parametrize("spec", ["negation: 1", "negation:", "table: 1",
                                      "table: 0 0"])
    def test_chain_file_with_fewer_than_two_values(self, capsys, tmp_path,
                                                   spec):
        # these used to crash in the grid construction: ZeroDivisionError
        # or IndexError, exit 4
        path = tmp_path / "bad.chain"
        path.write_text(f"chain bad\nkind: finite\n{spec}\n")
        code, out, err = run(capsys, "taut", "--load", str(path),
                             "--chain", "bad", "p -> p")
        assert (code, out) == (3, "")
        assert err == "error: a chain needs at least two elements\n"


class TestSuiteCommand:
    def test_selected_criteria(self, capsys):
        code, out, _ = run(capsys, "suite", "paper", "--criteria", "3,7")
        assert code == 0
        assert "2/2 criteria passed" in out
        assert out.count("PASS") == 2

    def test_unknown_suite_name(self, capsys):
        code, _, err = run(capsys, "suite", "everything")
        assert code == 3

    @pytest.mark.parametrize("criteria", ["13", "x", "0", "3,13", "1,,2"])
    def test_bad_criteria_are_usage_errors(self, capsys, criteria):
        code, out, err = run(capsys, "suite", "paper", "--criteria", criteria)
        assert code == 3 and out == ""
        assert "criterion numbers 1-12" in err and repr(criteria) in err

    @pytest.mark.parametrize("criteria, named", [("3,3,7", "3"),
                                                 ("7,3,7,3", "3, 7")])
    def test_repeated_criteria_are_usage_errors(self, capsys, criteria, named):
        code, out, err = run(capsys, "suite", "paper", "--criteria", criteria)
        assert code == 3 and out == ""
        assert f"names {named} more than once" in err and repr(criteria) in err

    def test_timings_follow_an_unchanged_report(self, capsys):
        code, plain, _ = run(capsys, "suite", "paper", "--criteria", "7,3")
        timed_code, timed, _ = run(capsys, "suite", "paper", "--criteria",
                                   "7,3", "--timings")
        assert code == timed_code == 0
        assert timed.startswith(plain)
        lines = timed[len(plain):].splitlines()
        assert [line[:12] for line in lines] == ["criterion  3",
                                                 "criterion  7"]
        for line in lines:
            seconds, unit = line[12:].split()
            assert unit == "s" and float(seconds) >= 0
            assert len(seconds.split(".")[1]) == 3

    def test_internal_value_error_is_not_a_usage_error(self, monkeypatch):
        import mtlfi.suite

        def broken(numbers):
            raise ValueError("internal")

        monkeypatch.setattr(mtlfi.suite, "run_suite", broken)
        with pytest.raises(ValueError, match="internal"):
            main(["suite", "paper", "--criteria", "3"])

    def test_run_reports_an_internal_error_with_exit_code_4(self, monkeypatch,
                                                           capsys):
        import mtlfi.cli
        import mtlfi.suite

        def broken(numbers):
            raise ValueError("internal")

        monkeypatch.setattr(mtlfi.suite, "run_suite", broken)
        monkeypatch.setattr(sys, "argv", ["mtlfi", "suite", "paper"])
        assert mtlfi.cli.run() == 4
        err = capsys.readouterr().err
        assert err.startswith("Traceback (most recent call last):")
        assert err.endswith("ValueError: internal\n")
        monkeypatch.setattr(sys, "argv", ["mtlfi", "suite", "paper", "--x"])
        assert mtlfi.cli.run() == 3

    def test_module_entry_point_exits_4_on_an_internal_error(self):
        # runpy executes mtlfi.cli as __main__, as python -m does, after
        # breaking the suite runner it imports
        script = ("import runpy, sys, mtlfi.suite\n"
                  "def broken(numbers=None):\n"
                  "    raise KeyError('internal')\n"
                  "mtlfi.suite.run_suite = broken\n"
                  "sys.argv = ['mtlfi', 'suite', 'paper']\n"
                  "runpy.run_module('mtlfi.cli', run_name='__main__')\n")
        src = os.path.dirname(os.path.dirname(mtlfi.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 4 and proc.stdout == ""
        assert "Traceback" in proc.stderr
        assert proc.stderr.endswith("KeyError: 'internal'\n")

    def test_internal_key_error_is_not_a_usage_error(self, monkeypatch):
        import mtlfi.suite

        def broken(numbers):
            raise KeyError("internal")

        monkeypatch.setattr(mtlfi.suite, "run_suite", broken)
        with pytest.raises(KeyError):
            main(["suite", "paper", "--criteria", "3"])


class TestDeterminism:
    def test_byte_stable_reports(self, capsys):
        args = ("conseq", "--mode", "degree", "--chain",
                "L3", "--op", "auto", "--premises", "p, ~p", "--goal", "q",
                "--format", "records")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert (code1, out1) == (code2, out2)


# The flags each command reads; every other flag is a usage error.
MODEL_FLAGS = {"--load", "--chain", "--op"}
QUERY_FLAGS = MODEL_FLAGS | {"--grid-denominator"}
COMMAND_OPTIONS = {
    "parse": {"formula", "--unicode"},
    "eval": MODEL_FLAGS | {"formula", "--assign"},
    "taut": QUERY_FLAGS | {"--format", "formula", "--classical"},
    "conseq": QUERY_FLAGS | {"--format", "--mode", "--premises", "--goal"},
    "validate-op": MODEL_FLAGS,
    "enum-ops": {"--load", "--chain"},
    "quotient": {"--load", "--chain", "--filter"},
    "lfi-report": QUERY_FLAGS,
    "propagation": QUERY_FLAGS | {"--connective"},
    "dat": QUERY_FLAGS,
    "pdat": QUERY_FLAGS | {"--goal", "--kmax"},
    "prove": {"--load", "path", "--fixture", "--profile"},
    "suite": {"which", "--criteria", "--timings"},
}

# A valid call of each command, and a value for each flag some command reads.
BASE_ARGV = {
    "parse": ["parse", "p"],
    "eval": ["eval", "p"],
    "taut": ["taut", "p -> p"],
    "conseq": ["conseq", "--goal", "p"],
    "validate-op": ["validate-op", "--op", "min"],
    "enum-ops": ["enum-ops"],
    "quotient": ["quotient", "--filter", "1"],
    "lfi-report": ["lfi-report", "--op", "min"],
    "propagation": ["propagation", "--op", "min", "--connective", "&"],
    "dat": ["dat", "--op", "min"],
    "pdat": ["pdat", "--op", "min", "--goal", "p"],
    "prove": ["prove", "--fixture", "b1-to-a1"],
    "suite": ["suite", "paper", "--criteria", "3"],
}
FLAG_VALUES = {"--load": "demo.chain", "--chain": "L3", "--op": "min",
               "--profile": "MTL", "--grid-denominator": "60", "--kmax": "8",
               "--format": "text"}

# the (command, flag) pairs that every command used to accept, read or not
UNREAD_FLAGS = [(command, flag) for command in COMMAND_OPTIONS
                for flag in FLAG_VALUES if flag not in COMMAND_OPTIONS[command]]


def _commands() -> dict:
    """Each command's parser, by name."""
    return next(action for action in _build_parser()._actions
                if isinstance(action, argparse._SubParsersAction)).choices


def _flag(command: str, flag: str):
    return next(action for action in _commands()[command]._actions
                if flag in action.option_strings)


class TestOptionSurface:
    def test_each_command_declares_exactly_the_flags_it_reads(self):
        parser = _build_parser()
        sub = next(action for action in parser._actions
                   if isinstance(action, argparse._SubParsersAction))
        options = {name: {(action.option_strings or [action.dest])[0]
                          for action in command._actions
                          if not isinstance(action, argparse._HelpAction)}
                   for name, command in sub.choices.items()}
        assert options == COMMAND_OPTIONS
        assert sum(map(len, options.values())) == 56

    def test_each_command_runs_its_function(self):
        # main runs _cmd_<name>, with - read as _
        for name in _commands():
            assert callable(getattr(cli, "_cmd_" + name.replace("-", "_")))

    def test_the_connective_choices_are_the_propagation_tokens(self):
        # written out, since the parser is built without semantics
        choices = _flag("propagation", "--connective").choices
        assert tuple(choices) == CONNECTIVE_TOKENS

    def test_the_op_help_names_every_built_in_spec(self):
        # written out, since the parser is built without operators
        for command, parser in _commands().items():
            if any("--op" in a.option_strings for a in parser._actions):
                forms = _flag(command, "--op").help.split("|")
                assert set(BUILTIN_SPECS) < set(forms)
                assert "crisp:T[:open]" in forms
                assert "crisp:T[:open]".startswith(CRISP_SPEC)

    def test_the_unread_flags_are_the_ones_removed(self):
        assert len(UNREAD_FLAGS) == 52

    @pytest.mark.parametrize("command, flag", UNREAD_FLAGS)
    def test_a_flag_the_command_does_not_read_is_a_usage_error(
            self, capsys, command, flag):
        argv = BASE_ARGV[command]
        _build_parser().parse_args(argv)  # valid without the flag
        code, out, err = run(capsys, *argv, flag, FLAG_VALUES[flag])
        assert (code, out) == (3, "")
        assert f"error: unrecognized arguments: {flag}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--load", "--chain", "--op",
                                      "--grid-denominator", "--format"])
    def test_classical_taut_refuses_the_model_flags(self, capsys, tmp_path,
                                                    flag):
        value = FLAG_VALUES[flag]
        if flag == "--load":
            path = tmp_path / "demo.chain"
            path.write_text("chain demo\nkind: finite\nfamily: godel\n"
                            "size: 3\n")
            value = str(path)
        code, out, err = run(capsys, "taut", "--classical", flag, value,
                             "p -> p")
        assert (code, out) == (3, "")
        assert err == ("error: --classical is a two-valued check and takes "
                       f"no {flag}\n")
        code, out, _ = run(capsys, "taut", "--classical", "p -> p")
        assert (code, out) == (0, "tautology\n")

    def test_defaults_of_the_flags_left_out(self, capsys):
        given = run(capsys, "taut", "--chain", "L3", "--grid-denominator",
                    "60", "--format", "text", "p \\/ ~p")
        assert run(capsys, "taut", "p \\/ ~p") == given
        given = run(capsys, "taut", "--chain", "LG", "--grid-denominator",
                    "60", "--format", "records", "p -> q")
        assert run(capsys, "taut", "--chain", "LG", "--format", "records",
                   "p -> q") == given
        assert "grid_denominator=60" in given[1]
