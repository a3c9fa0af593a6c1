import io
import json
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from psskit import cli
from psskit.cli import CliInputError, main, parse_vecset, vecset_json
from psskit import VecSet
from psskit.errors import VectorInputError
from psskit.genlib import example_x9, make_cross, polygon_example


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

    _json = st.recursive(
        st.none()
        | st.booleans()
        | st.integers(-3, 3)
        | st.integers()
        | st.floats()
        | st.text(alphabet="0123456789-/.eE x", max_size=6),
        lambda inner: st.lists(inner, max_size=3),
        max_leaves=8,
    )

    @settings(max_examples=200, deadline=None)
    @given(dim=_json, vectors=_json)
    def test_any_json_is_a_set_or_an_input_error(self, dim, vectors):
        # the one input boundary: every malformed value is refused as input
        text = json.dumps({"dim": dim, "vectors": vectors})
        try:
            X = parse_vecset(text)
        except (CliInputError, VectorInputError):
            return
        assert X.dim == dim and len(X) == len(vectors)


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

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"dim": 1, "vectors": [["1"], [True]]}, "vector 1: expected an exact rational, got bool"),
            ({"dim": 1, "vectors": [["1"], [None]]}, "vector 1: expected an exact rational, got NoneType"),
            ([["1"], ["-1"]], 'input must be {"dim": d, "vectors": [[...], ...]}'),
            ({"dim": 0, "vectors": []}, "dimension must be a positive int, got 0"),
            ({"dim": "2", "vectors": []}, "dimension must be a positive int, got '2'"),
            ({"dim": True, "vectors": [["1"], ["-1"]]}, "dimension must be a positive int, got True"),
            ({"dim": 2, "vectors": "1,0"}, 'input must be {"dim": d, "vectors": [[...], ...]}'),
            ({"dim": 2, "vectors": [["1", "0"], ["1"]]}, "vector 1 has dimension 1, expected 2"),
            ({"dim": 1, "vectors": [["1"], "-1"]}, "vector 1: expected a list of entries"),
        ],
        ids=[
            "boolean",
            "null",
            "top-level-list",
            "dim-zero",
            "dim-string",
            "dim-boolean",
            "vectors-not-list",
            "short-row",
            "row-not-list",
        ],
    )
    def test_malformed_input_is_input_error(self, payload, message, monkeypatch, capsys):
        code, out, err = run_cli(["analyze"], json.dumps(payload), monkeypatch, capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "command, entry",
        [
            ("mns", "1e5000"),
            ("simplices", "1e5000"),
            ("cones", "1e5000"),
            ("gale", "1e5000"),
            ("analyze", "1E-3"),
            # refused before Fraction would build a 10^9-digit integer
            ("mns", "1e999999999"),
        ],
    )
    def test_exponent_entry_is_input_error(self, command, entry, monkeypatch, capsys):
        payload = json.dumps({"dim": 1, "vectors": [["-1"], [entry]]})
        code, out, err = run_cli([command], payload, monkeypatch, capsys)
        assert code == 2
        assert out == ""
        assert err == (
            f"error: vector 1: no exponents: write {entry!r} as an integer, a decimal or p/q\n"
        )

    def test_integer_past_the_digit_limit_is_input_error(self, monkeypatch, capsys):
        # json.loads refuses the whole document, so no vector can be named
        payload = '{"dim": 1, "vectors": [["-1"], [' + "7" * 5000 + "]]}"
        for command in ("analyze", "mns", "verify"):
            code, out, err = run_cli([command], payload, monkeypatch, capsys)
            assert code == 2
            assert out == ""
            assert err.startswith("error: input is not valid JSON: Exceeds the limit")

    def test_output_past_the_digit_limit_exits_zero(self, monkeypatch, capsys):
        # 4,000-digit entries parse under the limit; the witnesses reach 12,001 digits
        a = "3" * 4000
        rows = [[a, "1"], ["-1", a], ["1", "-" + a], ["-" + a, "-1"]]
        X = VecSet(2, rows)
        limit = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else 0
        entries = {}
        for command, key in (("mns", "frames"), ("cones", "parts")):
            payload = json.dumps({"dim": 2, "vectors": rows})
            code, out, err = run_cli([command], payload, monkeypatch, capsys)
            assert code == 0, err
            if limit:
                assert sys.get_int_max_str_digits() == limit  # restored
            entries[command] = json.loads(out)[key]
        assert len(entries["mns"]) == 4
        assert sorted(i for part in entries["cones"] for i in part["members"]) == [0, 1, 2, 3]
        if limit:
            sys.set_int_max_str_digits(0)
        try:  # every witness strictly separates its members, by exact multiplication
            for entry in entries["mns"] + entries["cones"]:
                z = [Fraction(c) for c in entry["witness"]]
                for i in entry["members"]:
                    assert sum(zc * xc for zc, xc in zip(z, X[i])) > 0
        finally:
            if limit:
                sys.set_int_max_str_digits(limit)

    @pytest.mark.parametrize(
        "command", ["analyze", "simplices", "lattice", "mns", "cones", "gale", "reay", "verify"]
    )
    def test_empty_set_past_the_guard_is_input_error(self, command, monkeypatch, capsys):
        # with no vectors nothing in the input bounds dim: 10^12 exits 2 at once
        payload = json.dumps({"dim": 10**12, "vectors": []})
        code, out, err = run_cli([command], payload, monkeypatch, capsys)
        assert (code, out) == (2, "")
        assert err == (
            "error: set has 0 vectors in dimension 1000000000000, beyond the scan "
            "guard 18; raise --max-size or PSSKIT_MAX_SIZE to override\n"
        )

    @pytest.mark.parametrize(
        "command, expected",
        [("analyze", 0), ("simplices", 0), ("lattice", 0), ("mns", 0), ("cones", 2),
         ("gale", 0), ("reay", 2), ("verify", 0)],
    )
    def test_empty_set_within_the_guard_keeps_its_answers(
        self, command, expected, monkeypatch, capsys
    ):
        for dim, argv in ((2, [command]), (19, [command, "--max-size", "19"])):
            payload = json.dumps({"dim": dim, "vectors": []})
            code, _, _ = run_cli(argv, payload, monkeypatch, capsys)
            assert code == expected
        payload = json.dumps({"dim": 19, "vectors": []})
        code, _, err = run_cli([command], payload, monkeypatch, capsys)
        assert code == 2 and "beyond the scan guard 18" in err

    def test_unexpected_exception_exits_three(self, monkeypatch, capsys):
        def broken(X):
            raise ValueError("unexpected")

        monkeypatch.setitem(cli._INPUT_COMMANDS, "mns", (broken, "maximal pointed frames"))
        payload = json.dumps({"dim": 1, "vectors": [["1"], ["-1"]]})
        code, out, err = run_cli(["mns"], payload, monkeypatch, capsys)
        assert code == 3
        assert out == ""
        assert err == "internal error: unexpected\n"

    def test_unreadable_path_is_input_error(self, tmp_path, monkeypatch, capsys):
        missing = tmp_path / "missing.json"
        code, out, err = run_cli(["analyze", str(missing)], monkeypatch=monkeypatch, capsys=capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot read {missing}: ")

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

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["antichain", "--subsets", "a"],
                "--subsets: bad entry in 'a' (invalid literal for int() with base 10: 'a')",
            ),
            (
                ["cross", "--scales", "x,1"],
                "--scales: bad entry in 'x,1' (Invalid literal for Fraction: 'x')",
            ),
            (["cross", "--scales", "1/0,1"], "--scales: bad entry in '1/0,1' (Fraction(1, 0))"),
            (
                ["simplex", "--coeffs", "1,foo"],
                "--coeffs: bad entry in '1,foo' (Invalid literal for Fraction: 'foo')",
            ),
            (
                ["cross", "--dim", "2", "--scales", "1e9"],
                "--scales: bad entry in '1e9' "
                "(no exponents: write '1e9' as an integer, a decimal or p/q)",
            ),
            (["antichain", "--dim", "3"], "antichain needs --subsets like '1,2;2,3'"),
        ],
        ids=[
            "subsets-not-int",
            "scales-not-rational",
            "scales-zero-denominator",
            "coeffs-not-rational",
            "scales-exponent",
            "antichain-without-subsets",
        ],
    )
    def test_malformed_generate_option_is_input_error(self, argv, message, monkeypatch, capsys):
        code, out, err = run_cli(["generate", *argv], monkeypatch=monkeypatch, capsys=capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    def test_polygon_beyond_input_guard_generates(self, monkeypatch, capsys):
        # 20 vectors: the generator runs no frame enumeration at all
        import sys

        from psskit.conical import enumerate_mns

        def refuse(X):
            raise AssertionError("polygon generation enumerated frames")

        for name, mod in list(sys.modules.items()):
            bound = vars(mod).get("enumerate_mns")
            if name.split(".")[0] == "psskit" and bound is enumerate_mns:
                monkeypatch.setattr(mod, "enumerate_mns", refuse)
        code, out, err = run_cli(
            ["generate", "polygon", "--pairs", "10"], monkeypatch=monkeypatch, capsys=capsys
        )
        assert code == 0
        assert len(parse_vecset(out)) == 20
        assert err == "generate polygon: 20 vectors in R^2\n"

    def test_polygon_ignores_max_size_env_var(self, monkeypatch, capsys):
        # the size guard limits input commands only, not generators
        monkeypatch.setenv("PSSKIT_MAX_SIZE", "5")
        code, out, _ = run_cli(
            ["generate", "polygon", "--pairs", "3"], monkeypatch=monkeypatch, capsys=capsys
        )
        assert code == 0
        assert len(parse_vecset(out)) == 6

    def test_polygon_within_guard_is_unchanged(self, monkeypatch, capsys):
        import hashlib

        out = generate(["generate", "polygon", "--pairs", "3"], monkeypatch, capsys)
        # sha256 of the output before the guard existed
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "f1b5cd3df4098753f45ae9971d278b14d13712f8736e947f10bf442e4b5fb8eb"
        )

    def test_cones_on_non_pss_is_input_error(self, monkeypatch, capsys):
        payload = json.dumps({"dim": 2, "vectors": [["1", "0"], ["0", "1"]]})
        code, _, _ = run_cli(["cones"], payload, monkeypatch, capsys)
        assert code == 2

    @pytest.mark.parametrize(
        "rows", [[["1", "0"], ["0", "1"]], [["1", "0"], ["-1", "0"], ["0", "1"]]]
    )
    def test_lattice_on_non_pss_is_input_error(self, rows, monkeypatch, capsys):
        # read from the simplex masks, with the LP precondition's message
        payload = json.dumps({"dim": 2, "vectors": rows})
        code, out, err = run_cli(["lattice"], payload, monkeypatch, capsys)
        assert (code, out) == (2, "")
        assert err == "error: set does not positively span its hull\n"

    def test_unserializable_report_exits_three(self, monkeypatch, capsys):
        def floating(X):
            return {"parts": [[0, 1]], "ratio": 0.5}, "reay: float"

        monkeypatch.setitem(cli._INPUT_COMMANDS, "reay", (floating, "telescoping"))
        payload = json.dumps({"dim": 1, "vectors": [["1"], ["-1"]]})
        code, _, err = run_cli(["reay"], payload, monkeypatch, capsys)
        assert code == 3
        assert err == "internal error: Object of type float is not JSON serializable\n"

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

    def test_internal_error_exits_three(self, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise RuntimeError("simplex returned an invalid certificate")

        monkeypatch.setattr("psskit.spanset.solve_nonneg", broken)
        payload = json.dumps({"dim": 1, "vectors": [["1"], ["-1"]]})
        code, out, err = run_cli(["analyze"], payload, monkeypatch, capsys)
        assert code == 3
        assert out == ""
        assert err == "internal error: simplex returned an invalid certificate\n"

    def test_frame_walk_without_separator_exits_three(self, monkeypatch, capsys):
        # a simplex-free extension always has a separator; an LP that says
        # otherwise is a bug, not a pruned branch.  [1] = [2] / 2 makes
        # the set positively dependent, so its walk asks the LP
        from psskit.ratlin import FeasWitness

        monkeypatch.setattr(
            "psskit.conical.strict_separator", lambda vectors: FeasWitness()
        )
        payload = json.dumps({"dim": 1, "vectors": [["1"], ["2"], ["-1"]]})
        code, out, err = run_cli(["mns"], payload, monkeypatch, capsys)
        assert code == 3
        assert out == ""
        assert err == "internal error: simplex-free subset without a strict separator\n"

    @staticmethod
    def _negate_dual_rows(monkeypatch):
        """Negate the rows of B^(-T) that a positive basis builds its
        frame separators from, so every closed-form witness fails its
        re-check."""
        from psskit.ratlin import solve_linear

        monkeypatch.setattr(
            "psskit.conical.solve_linear",
            lambda columns, rhs: [-c for c in solve_linear(columns, rhs)],
        )

    def test_closed_form_walk_without_separator_exits_three(self, monkeypatch, capsys):
        # the R^1 cross is a positive basis: no LP, the same internal error
        self._negate_dual_rows(monkeypatch)
        payload = json.dumps({"dim": 1, "vectors": [["1"], ["-1"]]})
        code, out, err = run_cli(["mns"], payload, monkeypatch, capsys)
        assert code == 3
        assert out == ""
        assert err == "internal error: simplex-free subset without a strict separator\n"

    def test_property_violation_exits_three(self, monkeypatch, capsys):
        # a failed re-check is an internal error outside the suite, too
        from psskit.errors import PropertyViolation

        def broken(X):
            raise PropertyViolation("element escaped every maximal frame")

        monkeypatch.setattr("psskit.cli.cone_decomposition", broken)
        payload = json.dumps({"dim": 1, "vectors": [["1"], ["-1"]]})
        code, out, err = run_cli(["cones"], payload, monkeypatch, capsys)
        assert code == 3
        assert out == ""
        assert err == "internal error: element escaped every maximal frame\n"

    def test_simplex_with_a_doubled_coefficient_is_never_returned(self, monkeypatch, capsys):
        # every dependency is re-checked where the simplex is made: one
        # doubled coefficient no longer weights the members to zero
        from psskit import simplicial
        from psskit.errors import PropertyViolation

        original = simplicial.Simplex

        def doubled(members, dependency):
            last = members[-1]
            return original(members, {**dependency, last: 2 * dependency[last]})

        monkeypatch.setattr("psskit.simplicial.Simplex", doubled)
        message = "simplex (0, 1, 2): dependency does not re-check"
        with pytest.raises(PropertyViolation) as raised:
            simplicial.enumerate_simplices(example_x9())
        assert str(raised.value) == message
        payload = json.dumps(vecset_json(example_x9()))
        code, out, err = run_cli(["simplices"], payload, monkeypatch, capsys)
        assert code == 3
        assert out == ""
        assert err == f"internal error: {message}\n"

    def test_property_violation_in_a_check_fails_that_check(self, monkeypatch, capsys):
        from psskit.errors import PropertyViolation

        def broken(X):
            raise PropertyViolation("non-positive coefficient re-checked")

        monkeypatch.setattr("psskit.suite._check_caratheodory", broken)
        payload = json.dumps({"dim": 1, "vectors": [["1"], ["-1"]]})
        code, out, err = run_cli(["verify"], payload, monkeypatch, capsys)
        assert code == 1
        report = json.loads(out)
        assert report["passed"] is False
        failed = [c for c in report["checks"] if c["applicable"] and not c["passed"]]
        assert failed == [
            {
                "name": "conic_caratheodory",
                "applicable": True,
                "passed": False,
                "detail": "non-positive coefficient re-checked",
            }
        ]
        assert err.startswith("verify: FAIL")

    @staticmethod
    def _separator_shaped(rhs):
        # the strict-separator LP's right-hand side is all ones
        return all(b == 1 for b in rhs)

    @staticmethod
    def _perturb_phase_one(monkeypatch, hit):
        """Move the first coordinate of every feasible phase-I solution whose
        right-hand side ``hit`` accepts."""
        from psskit import ratlin

        exact = ratlin._phase_one

        def perturbed(rows, rhs, n, free=0):
            x = exact(rows, rhs, n, free=free)
            return [x[0] + 1, *x[1:]] if x is not None and hit(rhs) else x

        monkeypatch.setattr(ratlin, "_phase_one", perturbed)

    def _report(self, command, X, monkeypatch, capsys):
        return run_cli([command], json.dumps(vecset_json(X)), monkeypatch, capsys)

    def test_failed_certificate_recheck_fails_its_check(self, monkeypatch, capsys):
        # a nonzero right-hand side, not the separator's: a cone-membership LP
        self._perturb_phase_one(
            monkeypatch, lambda rhs: any(rhs) and not self._separator_shaped(rhs)
        )
        code, out, err = self._report("verify", make_cross(2), monkeypatch, capsys)
        assert code == 1
        report = json.loads(out)
        assert len(report["checks"]) == 13
        failed = [c for c in report["checks"] if c["applicable"] and not c["passed"]]
        assert failed == [
            {
                "name": "conic_caratheodory",
                "applicable": True,
                "passed": False,
                "detail": "simplex returned an invalid certificate",
            }
        ]
        assert err.startswith("verify: FAIL")
        # outside the suite the same failure is an internal error
        X = VecSet(2, [*make_cross(2), [1, 2]])  # positively dependent
        code, out, err = self._report("analyze", X, monkeypatch, capsys)
        assert (code, out) == (3, "")
        assert err == "internal error: simplex returned an invalid certificate\n"

    def _failed_checks(self, X, monkeypatch, capsys) -> list[dict]:
        code, out, err = self._report("verify", X, monkeypatch, capsys)
        assert code == 1
        assert err.startswith("verify: FAIL")
        report = json.loads(out)
        assert len(report["checks"]) == 13
        return [c for c in report["checks"] if c["applicable"] and not c["passed"]]

    def test_failed_separator_recheck_fails_the_frame_checks(self, monkeypatch, capsys):
        # polygon3 is not a positive basis, so its walk asks the LP; its
        # pointed cover walks a positive basis inside it, with no LP, and
        # the bounds on positive bases do not apply
        self._perturb_phase_one(monkeypatch, self._separator_shaped)
        X = polygon_example(3)
        failed = self._failed_checks(X, monkeypatch, capsys)
        assert [c["name"] for c in failed] == [
            "overlap_family_bound",
            "frame_full_rank",
            "frame_simplex_intersections",
        ]
        assert {c["detail"] for c in failed} == {"simplex returned an invalid separator"}
        code, out, err = self._report("mns", X, monkeypatch, capsys)
        assert (code, out) == (3, "")
        assert err == "internal error: simplex returned an invalid separator\n"

    def test_failed_closed_form_recheck_fails_the_frame_checks(self, monkeypatch, capsys):
        # the cross is a positive basis: its closed-form witnesses fail
        # the five checks that read its frames
        self._negate_dual_rows(monkeypatch)
        failed = self._failed_checks(make_cross(2), monkeypatch, capsys)
        assert [c["name"] for c in failed] == [
            "cardinality_bounds",
            "pointed_cover",
            "overlap_family_bound",
            "frame_full_rank",
            "frame_simplex_intersections",
        ]
        assert {c["detail"] for c in failed} == {
            "simplex-free subset without a strict separator"
        }
        code, out, err = self._report("mns", make_cross(2), monkeypatch, capsys)
        assert (code, out) == (3, "")
        assert err == "internal error: simplex-free subset without a strict separator\n"

    def test_failed_recheck_deciding_applicability_fails_the_checks_needing_it(
        self, monkeypatch, capsys
    ):
        # is_pss's LP has a zero right-hand side: its re-check fails while
        # the suite decides which checks apply, and every check that needs
        # the flag fails with it; the report still prints
        self._perturb_phase_one(monkeypatch, lambda rhs: not self._separator_shaped(rhs))
        code, out, err = self._report("verify", make_cross(2), monkeypatch, capsys)
        assert code == 1
        report = json.loads(out)
        assert [c["name"] for c in report["checks"] if c["passed"]] == [
            "pointed_trichotomy",
            "simplex_member_structure",
        ]
        failed = [c for c in report["checks"] if not c["passed"]]
        assert len(failed) == 11 and all(c["applicable"] for c in failed)
        assert {c["detail"] for c in failed} == {"simplex returned an invalid certificate"}
        assert err.startswith("verify: FAIL (13 applicable checks)")

    @pytest.mark.parametrize(
        "command", ["analyze", "simplices", "lattice", "mns", "cones", "gale", "reay", "verify"]
    )
    def test_success_exits_zero(self, command, monkeypatch, capsys):
        payload = json.dumps({"dim": 1, "vectors": [["1"], ["-1"]]})
        code, out, err = run_cli([command], payload, monkeypatch, capsys)
        assert code == 0
        assert next(iter(json.loads(out).items())) == ("command", command)
        assert err.startswith(f"{command}: ")

    def test_parser_built_once_per_env_value(self, monkeypatch, capsys):
        import argparse

        from psskit.cli import build_parser

        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        monkeypatch.setenv("PSSKIT_MAX_SIZE", "17")
        build_parser.cache_clear()
        payload = json.dumps({"dim": 1, "vectors": [["1"], ["-1"]]})
        for _ in range(2):
            code, _, _ = run_cli(["simplices"], payload, monkeypatch, capsys)
            assert code == 0
        assert built.count("psskit") == 1


def _emitted(value) -> str:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        cli._emit(value, "summary")
    return out.getvalue()


_json_text = st.text(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f a\xe9\u2028\U0001f600') | st.characters())
_json_ints = st.integers() | st.integers(-300, 300)
_json_values = st.recursive(
    st.none() | st.booleans() | _json_ints | _json_text,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(_json_ints | st.booleans(), max_size=6)
    | st.lists(_json_text, max_size=4)
    | st.dictionaries(_json_text, inner, max_size=4),
    max_leaves=24,
)


class _CountingSink:
    """A stdout that keeps only the size of what is written to it."""

    def __init__(self):
        self.chars = self.writes = self.largest = 0

    def write(self, text: str) -> None:
        self.chars += len(text)
        self.writes += 1
        self.largest = max(self.largest, len(text))


class TestWriter:
    """``_emit`` writes ``json.dumps(report, indent=2) + "\\n"``'s exact text."""

    @settings(max_examples=200, deadline=None)
    @given(value=st.dictionaries(_json_text, _json_values, max_size=5) | _json_values)
    def test_matches_json_dumps(self, value):
        assert _emitted(value) == json.dumps(value, indent=2) + "\n"

    @pytest.mark.parametrize(
        "value",
        [
            {},
            {"a": [], "b": {}, "c": [[]], "d": [{}]},
            {"ints": [1, -2, 3], "bools": [1, True, False, 0], "mixed": [1, "1", None]},
            {"nested": [[0, [1, {"x": [True]}]], {"y": None}]},
            [-(10**40), 10**40, 0, -0],
        ],
    )
    def test_shapes_match_json_dumps(self, value):
        assert _emitted(value) == json.dumps(value, indent=2) + "\n"

    def test_int_past_the_digit_limit(self):
        limit = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else 0
        if limit:
            sys.set_int_max_str_digits(0)  # as main lifts it around the writer
        try:
            big = -int("7" * 5000)
            value = {"witness": [big, 1], "alone": big, "mixed": [big, True]}
            assert _emitted(value) == json.dumps(value, indent=2) + "\n"
        finally:
            if limit:
                sys.set_int_max_str_digits(limit)

    @pytest.mark.parametrize(
        "value", [{"x": 0.5}, {"x": [1, 2.0]}, {"x": {1, 2}}, [frozenset()], {"x": [[float("nan")]]}]
    )
    def test_float_or_set_raises_type_error(self, value):
        with pytest.raises(TypeError):
            _emitted(value)

    @staticmethod
    def _lattice_shaped(rows: int) -> dict:
        elements = [
            {"subset": [k % 5, 5 + k % 7, 12 + k % 6], "simplices": [k % 3, 3 + k % 4]}
            for k in range(rows)
        ]
        return {"command": "lattice", "size": rows, "elements": elements}

    def _peak_beyond_report(self, rows: int, monkeypatch) -> tuple[int, _CountingSink]:
        report = self._lattice_shaped(rows)  # built before tracing starts
        sink = _CountingSink()
        monkeypatch.setattr(sys, "stdout", sink)
        monkeypatch.setattr(sys, "stderr", _CountingSink())
        tracemalloc.start()
        try:
            cli._emit(report, "lattice")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sink.chars == len(json.dumps(report, indent=2)) + 1
        return peak, sink

    def test_peak_memory_grows_with_one_batch_not_with_the_json(self, monkeypatch):
        # the text goes out in batches cut at list items, so four times the
        # rows, several batches each, leave the writer's peak where it was;
        # a smaller batch keeps the traced run short
        monkeypatch.setattr(cli, "_BATCH", 4096)
        small_peak, small = self._peak_beyond_report(3_000, monkeypatch)
        large_peak, large = self._peak_beyond_report(12_000, monkeypatch)
        assert small.writes >= 4 and large.writes >= 4 * small.writes - 4
        assert large_peak - small_peak < small.largest


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
