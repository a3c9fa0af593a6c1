import io
import json

import pytest

from psskit.cli import main, parse_vecset, vecset_json
from psskit.genlib import example_x9


def run_cli(argv, stdin_text="", monkeypatch=None, capsys=None):
    if stdin_text:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def generate(argv, monkeypatch, capsys):
    code, out, _ = run_cli(argv, monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    return out


class TestParsing:
    def test_round_trip_exact(self):
        X = example_x9()
        again = parse_vecset(json.dumps(vecset_json(X)))
        assert again == X

    def test_fractions_and_integers(self):
        X = parse_vecset('{"dim": 2, "vectors": [["1/2", 3], ["-2/4", "1"]]}')
        assert X[0][0] == X[0][0]
        assert len(X) == 2

    def test_float_rejected(self):
        from psskit.cli import CliInputError

        with pytest.raises(CliInputError, match="float"):
            parse_vecset('{"dim": 1, "vectors": [[0.5]]}')

    def test_bad_rational_names_vector(self):
        from psskit.cli import CliInputError

        with pytest.raises(CliInputError, match="vector 1"):
            parse_vecset('{"dim": 1, "vectors": [["1"], ["x"]]}')


class TestPipelines:
    def test_generate_then_analyze_x9(self, monkeypatch, capsys):
        payload = generate(["generate", "x9"], monkeypatch, capsys)
        code, out, err = run_cli(["analyze"], payload, monkeypatch, capsys)
        assert code == 0
        report = json.loads(out)
        assert report["flags"]["pss"] is True
        assert report["flags"]["positive_basis"] is False
        cert = report["certificates"]["positive_dependence"]
        assert cert["index"] == 2
        assert "analyze" in err

    def test_generate_cross_then_mns(self, monkeypatch, capsys):
        payload = generate(["generate", "cross", "--dim", "3"], monkeypatch, capsys)
        code, out, _ = run_cli(["mns"], payload, monkeypatch, capsys)
        assert code == 0
        assert json.loads(out)["count"] == 8

    def test_analyze_non_pss(self, monkeypatch, capsys):
        payload = json.dumps({"dim": 2, "vectors": [["1", "0"], ["0", "1"]]})
        code, out, _ = run_cli(["analyze"], payload, monkeypatch, capsys)
        assert code == 0
        assert json.loads(out)["flags"]["pss"] is False

    def test_verify_passes_on_x9(self, monkeypatch, capsys):
        payload = generate(["generate", "x9"], monkeypatch, capsys)
        code, out, _ = run_cli(["verify"], payload, monkeypatch, capsys)
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_simplices_reay_cones_gale(self, monkeypatch, capsys):
        payload = generate(
            ["generate", "antichain", "--dim", "3", "--subsets", "1,2;2,3"],
            monkeypatch,
            capsys,
        )
        for cmd, key in [
            ("simplices", "count"),
            ("reay", "parts"),
            ("cones", "parts"),
            ("gale", "dependency_dimension"),
            ("lattice", "size"),
        ]:
            code, out, _ = run_cli([cmd], payload, monkeypatch, capsys)
            assert code == 0, cmd
            assert key in json.loads(out)


class TestGenerate:
    def test_polygon_round_trip(self, monkeypatch, capsys):
        payload = generate(["generate", "polygon", "--pairs", "3"], monkeypatch, capsys)
        X = parse_vecset(payload)
        assert len(X) == 6

    def test_random_deterministic(self, monkeypatch, capsys):
        a = generate(
            ["generate", "random", "--dim", "3", "--count", "2", "--seed", "9"],
            monkeypatch,
            capsys,
        )
        b = generate(
            ["generate", "random", "--dim", "3", "--count", "2", "--seed", "9"],
            monkeypatch,
            capsys,
        )
        assert a == b

    def test_simplex_coeffs(self, monkeypatch, capsys):
        payload = generate(
            ["generate", "simplex", "--dim", "2", "--coeffs", "2,1"],
            monkeypatch,
            capsys,
        )
        X = parse_vecset(payload)
        assert list(X[2]) == [-2, -1]


class TestExitCodes:
    def test_zero_vector_is_input_error(self, monkeypatch, capsys):
        payload = json.dumps({"dim": 2, "vectors": [["1", "0"], ["0", "0"]]})
        code, _, err = run_cli(["analyze"], payload, monkeypatch, capsys)
        assert code == 2
        assert "vector 1" in err

    def test_duplicate_is_input_error(self, monkeypatch, capsys):
        payload = json.dumps({"dim": 1, "vectors": [["1"], ["1"]]})
        code, _, err = run_cli(["analyze"], payload, monkeypatch, capsys)
        assert code == 2

    def test_malformed_json(self, monkeypatch, capsys):
        code, _, err = run_cli(["analyze"], "not json", monkeypatch, capsys)
        assert code == 2

    def test_max_size_guard(self, monkeypatch, capsys):
        rows = [[str(k)] for k in range(1, 20)]
        payload = json.dumps({"dim": 1, "vectors": rows})
        code, _, err = run_cli(["analyze"], payload, monkeypatch, capsys)
        assert code == 2
        assert "max-size" in err or "guard" in err

    def test_max_size_override(self, monkeypatch, capsys):
        rows = [["1"], ["-1"], ["2"]]
        payload = json.dumps({"dim": 1, "vectors": rows})
        code, _, _ = run_cli(
            ["analyze", "--max-size", "2"], payload, monkeypatch, capsys
        )
        assert code == 2
        code, _, _ = run_cli(
            ["analyze", "--max-size", "5"], payload, monkeypatch, capsys
        )
        assert code == 0

    def test_env_var_guard(self, monkeypatch, capsys):
        monkeypatch.setenv("PSSKIT_MAX_SIZE", "2")
        rows = [["1"], ["-1"], ["2"]]
        payload = json.dumps({"dim": 1, "vectors": rows})
        code, _, _ = run_cli(["analyze"], payload, monkeypatch, capsys)
        assert code == 2

    def test_env_var_not_an_integer(self, monkeypatch, capsys):
        monkeypatch.setenv("PSSKIT_MAX_SIZE", "abc")
        payload = json.dumps({"dim": 1, "vectors": [["1"], ["-1"]]})
        code, out, err = run_cli(["analyze"], payload, monkeypatch, capsys)
        assert code == 2
        assert out == ""
        assert err == "error: PSSKIT_MAX_SIZE must be an integer, got 'abc'\n"

    def test_cones_on_non_pss_is_input_error(self, monkeypatch, capsys):
        payload = json.dumps({"dim": 2, "vectors": [["1", "0"], ["0", "1"]]})
        code, _, _ = run_cli(["cones"], payload, monkeypatch, capsys)
        assert code == 2

    def test_verify_failure_exits_one(self, monkeypatch, capsys):
        # force a failing check to exercise the suite-failure exit path
        from psskit.suite import SuiteCheck

        monkeypatch.setattr(
            "psskit.cli.run_property_suite",
            lambda X: [SuiteCheck("forced", True, False, "injected failure")],
        )
        payload = json.dumps({"dim": 1, "vectors": [["1"], ["-1"]]})
        code, out, err = run_cli(["verify"], payload, monkeypatch, capsys)
        assert code == 1
        assert json.loads(out)["passed"] is False
        assert "FAIL" in err


class TestDeterminism:
    def test_reports_byte_identical(self, monkeypatch, capsys):
        payload = generate(["generate", "x9"], monkeypatch, capsys)
        _, out1, _ = run_cli(["analyze"], payload, monkeypatch, capsys)
        _, out2, _ = run_cli(["analyze"], payload, monkeypatch, capsys)
        assert out1 == out2

    def test_generate_byte_identical(self, monkeypatch, capsys):
        a = generate(["generate", "cross", "--dim", "2"], monkeypatch, capsys)
        b = generate(["generate", "cross", "--dim", "2"], monkeypatch, capsys)
        assert a == b
