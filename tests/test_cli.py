import pytest

from mtlfi.cli import main
from mtlfi.formula import MAX_DEPTH


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

    def test_unknown_verdict_exit_code(self, capsys):
        code, out, _ = run(capsys, "taut", "--chain", "LL", "--op", "min",
                           "p \\/ ~p \\/ ~O p")
        assert code == 2

    def test_classical_taut(self, capsys):
        code, out, _ = run(capsys, "taut", "--classical", "((p -> q) -> p) -> p")
        assert code == 0 and "tautology" in out
        code, _, _ = run(capsys, "taut", "--classical", "p -> q")
        assert code == 1


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
        import mtlfi.cli

        def broken(numbers):
            raise ValueError("internal")

        monkeypatch.setattr(mtlfi.cli, "run_suite", broken)
        with pytest.raises(ValueError, match="internal"):
            main(["suite", "paper", "--criteria", "3"])

    def test_internal_key_error_is_not_a_usage_error(self, monkeypatch):
        import mtlfi.cli

        def broken(numbers):
            raise KeyError("internal")

        monkeypatch.setattr(mtlfi.cli, "run_suite", broken)
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
