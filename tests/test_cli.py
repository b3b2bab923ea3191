import json
import random

import pytest

from loopsix import cli, rational
from loopsix.cli import emit_report, run

from conftest import INPUTS


def path(name):
    return str(INPUTS / name)


class TestExitCodes:
    def test_success(self):
        code, out = run(["decompose", path("d1.json")])
        assert code == 0
        assert "decomposition: S^1 x Loop(S^2) x Loop(S^5)" in out

    def test_unsupported_cases_exit_three(self):
        for name, needle in [
            ("d0_k6.json", "much more difficult"),
            ("d0_k2.json", "not an H-space"),
            ("d0_k4.json", "much more difficult"),
        ]:
            code, out = run(["decompose", path(name)])
            assert code == 3, name
            assert needle in out

    def test_invalid_input_exits_two(self, tmp_path):
        bad_det = tmp_path / "bad_det.json"
        bad_det.write_text('{"intersection_form": [[2]], "w2": [0], "p1": 0}')
        code, out = run(["decompose", str(bad_det)])
        assert code == 2 and "NotUnimodular" in out

        bad_p1 = tmp_path / "bad_p1.json"
        bad_p1.write_text('{"intersection_form": [[1]], "w2": [1], "p1": 6}')
        code, out = run(["decompose", str(bad_p1)])
        assert code == 2 and "InvalidBundle" in out

        not_json = tmp_path / "nope.json"
        not_json.write_text("{")
        code, _ = run(["decompose", str(not_json)])
        assert code == 2

        missing = tmp_path / "does_not_exist.json"
        code, _ = run(["decompose", str(missing)])
        assert code == 2

    def test_usage_errors_exit_one(self):
        code, _ = run(["frobnicate", path("d1.json")])
        assert code == 1
        code, _ = run([])
        assert code == 1

    def test_pi_beyond_mod_factor_range_exits_three(self):
        code, out = run(["pi", path("d0_k15.json"), "--max", "6"])
        assert code == 3
        assert "UnsupportedDegree" in out


class TestGoldenOutputs:
    def test_pi_text(self):
        code, out = run(["pi", path("d1.json"), "--max", "6"])
        assert code == 0
        assert "pi_2(M) = Z^2" in out
        assert "pi_6(M) = Z/12 + Z/2" in out

    def test_series_text(self):
        code, out = run(["series", path("d3.json"), "--cutoff", "4"])
        assert code == 0
        assert "1, 4, 12, 33, 88" in out

    def test_decompose_d0(self):
        code, out = run(["decompose", path("d0_k15.json")])
        assert code == 0
        assert "S^1 x S^3{3} x S^3{5} x Loop(S^7)" in out

    def test_decompose_extension_warning(self):
        code, out = run(["decompose", path("d0_k1.json")])
        assert code == 0 and "warning: extension" in out
        code, out = run(["decompose", path("d0_k0.json")])
        assert code == 0 and "Loop(S^3) x Loop(S^4)" in out

    def test_describe_d0(self):
        code, out = run(["describe", path("d0_k15.json")])
        assert code == 0
        assert "rational type: CP^3" in out
        assert "cell structure: S^2 u_[15 eta] e^4 u e^6" in out

    def test_model_d1(self):
        code, out = run(["model", path("d1.json")])
        assert code == 0
        assert "d(x) = c^3" in out
        assert "cohomology: [1, 0, 2, 0, 2, 0, 1]" in out

    def test_koszul_d0_exits_three(self):
        code, out = run(["koszul", path("d0_k15.json")])
        assert code == 3 and "NotQuadratic" in out

    def test_rational_two_path_line(self):
        code, out = run(["rational", path("d2_spin.json"), "--cutoff", "6"])
        assert code == 0
        assert "two-path agreement: true" in out


class TestCompare:
    def test_d2_spin_vs_nonspin(self):
        code, out = run(
            ["compare", path("d2_spin.json"), path("d2_nonspin.json")]
        )
        assert code == 0
        assert "loop spaces equivalent: true" in out

    def test_different_ranks(self):
        code, out = run(["compare", path("d1.json"), path("d2_spin.json")])
        assert code == 0
        assert "loop spaces equivalent: false" in out

    def test_d0_sign_normalization(self, tmp_path):
        negative = tmp_path / "neg.json"
        negative.write_text('{"intersection_form": [], "p1": -60}')
        code, out = run(["compare", path("d0_k15.json"), str(negative)])
        assert code == 0
        assert "loop spaces equivalent: true" in out

    def test_d0_unsupported_propagates(self):
        code, _ = run(["compare", path("d0_k15.json"), path("d0_k6.json")])
        assert code == 3


class TestReports:
    def test_json_round_trip(self):
        code, out = run(["decompose", path("d1.json"), "--format", "json"])
        assert code == 0
        report = json.loads(out)
        assert report["schema"] == 1
        assert emit_report(report, "json") == out

    def test_deterministic_output(self):
        for argv in (
            ["describe", path("d3.json")],
            ["pi", path("d1.json"), "--max", "5", "--format", "json"],
            ["rational", path("d2_nonspin.json")],
        ):
            assert run(argv) == run(argv)

    def test_table_override_changes_result(self, tmp_path):
        custom = tmp_path / "table.txt"
        custom.write_text("2 3 0 5\n5 3 0\n5 4 0\n")
        code, out = run(
            ["pi", path("d1.json"), "--max", "3", "--table", str(custom)]
        )
        assert code == 0
        assert "pi_3(M) = Z/5" in out
        assert run(
            ["pi", path("d1.json"), "--max", "3", "--table", str(custom)]
        ) == (code, out)

    def test_empty_warnings_omitted_in_text(self):
        code, out = run(["decompose", path("d1.json")])
        assert code == 0
        assert "warning" not in out

    def test_error_reports_are_structured_json(self):
        code, out = run(["decompose", path("d0_k6.json"), "--format", "json"])
        assert code == 3
        report = json.loads(out)
        assert report["error"]["type"] == "UnsupportedCase"


class TestArgvRanges:
    """Out-of-range numbers exit 1 with a usage message, not a traceback or
    an empty report."""

    def test_series_negative_cutoff(self):
        code, out = run(["series", path("d1.json"), "--cutoff", "-1"])
        assert code == 1
        assert out.startswith("usage error:") and "--cutoff" in out

    def test_pi_max_zero(self):
        code, out = run(["pi", path("d1.json"), "--max", "0"])
        assert code == 1
        assert out.startswith("usage error:") and "--max" in out

    def test_pi_max_one(self):
        code, out = run(["pi", path("d1.json"), "--max", "1"])
        assert code == 1
        assert out.startswith("usage error:") and "--max" in out

    def test_koszul_negative_cutoff(self):
        code, out = run(["koszul", path("d3.json"), "--cutoff", "-1"])
        assert code == 1
        assert out.startswith("usage error:") and "--cutoff" in out

    def test_model_negative_cutoff_quadratic_branch(self):
        code, out = run(["model", path("d3.json"), "--cutoff", "-1"])
        assert code == 1
        assert out.startswith("usage error:") and "--cutoff" in out

    def test_model_negative_cutoff_d1(self):
        code, out = run(["model", path("d1.json"), "--cutoff", "-1"])
        assert code == 1
        assert out.startswith("usage error:") and "--cutoff" in out

    def test_rational_cutoff_zero(self):
        code, out = run(["rational", path("d1.json"), "--cutoff", "0"])
        assert code == 1
        assert out.startswith("usage error:") and "--cutoff" in out


class TestEachStageOnce:
    """One command runs the direct quadratic-dual check at most once."""

    @pytest.mark.parametrize("command", ["describe", "rational", "koszul", "model"])
    @pytest.mark.parametrize("name", ["d2_spin.json", "d3.json"])
    def test_one_dual_check(self, monkeypatch, command, name):
        calls = []
        original = rational.quadratic_dual_dims

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(rational, "quadratic_dual_dims", counted)
        code, _ = run([command, path(name)])
        assert code == 0
        assert len(calls) == 1


class TestStrictSpecTypes:
    """A spec value of the wrong JSON type exits 2; nothing is coerced."""

    @pytest.mark.parametrize(
        "spec",
        [
            {"intersection_form": [[1.7]], "w2": [1], "p1": 1},
            {"intersection_form": [["1"]], "w2": [1], "p1": 1},
            {"intersection_form": [[True]], "w2": [1], "p1": 1},
            {"intersection_form": [[1]], "w2": [1], "p1": True},
            {"intersection_form": [[1]], "w2": [3], "p1": 1},
            {"intersection_form": [[1]], "w2": [True], "p1": 1},
        ],
        ids=["form_float", "form_string", "form_bool", "p1_bool", "w2_three", "w2_bool"],
    )
    def test_rejected(self, tmp_path, spec):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        code, out = run(["describe", str(spec_path)])
        assert code == 2
        assert "InputError" in out

    def test_int_valued_spec_still_accepted(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"intersection_form": [[1]], "w2": [1], "p1": 1}))
        assert run(["describe", str(spec_path)])[0] == 0


class TestParserReuse:
    """``run`` builds one parser per process, and reusing it keeps no state."""

    FORMATS = (["--format", "text"], ["--format", "json"])
    USAGE_ERRORS = (
        ["pi", path("d1.json"), "--max", "1"],
        ["koszul", path("d3.json"), "--cutoff", "-1"],
        ["rational", path("d1.json"), "--cutoff", "0"],
        ["frobnicate", path("d1.json")],
        ["describe"],
    )

    def argvs(self):
        names = sorted(p.name for p in INPUTS.glob("*.json"))
        out = []
        for i, name in enumerate(names):
            for fmt in self.FORMATS:
                for command in ("describe", "decompose", "pi", "series",
                                "rational", "koszul", "model"):
                    out.append([command, path(name), *fmt])
                other = names[(i + 1) % len(names)]
                out.append(["compare", path(name), path(other), *fmt])
        out.append(["pi", path("d1.json"), "--max", "3"])
        return out + [list(argv) for argv in self.USAGE_ERRORS]

    def test_outputs_independent_of_order(self, monkeypatch):
        argvs = self.argvs()
        first = {tuple(argv): run(argv) for argv in argvs}
        assert all(first[tuple(argv)][0] == 1 for argv in self.USAGE_ERRORS)
        inits = []
        original = cli._Parser.__init__

        def counted(self, *args, **kwargs):
            inits.append(args)
            original(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counted)
        for order in (argvs[::-1], random.Random(4).sample(argvs, len(argvs))):
            for argv in order:
                assert run(argv) == first[tuple(argv)], argv
        assert inits == []

    def test_default_max_after_explicit_max(self):
        code, out = run(["pi", path("d1.json"), "--max", "3", "--format", "json"])
        assert code == 0 and json.loads(out)["result"]["max"] == 3
        code, out = run(["pi", path("d1.json"), "--format", "json"])
        assert code == 0
        report = json.loads(out)
        assert report["result"]["max"] == 6
        assert [g["k"] for g in report["result"]["groups"]] == [2, 3, 4, 5, 6]

    def test_table_file_edits_seen(self, tmp_path):
        custom = tmp_path / "table.txt"
        argv = ["pi", path("d1.json"), "--max", "3", "--table", str(custom)]
        custom.write_text("2 3 0 5\n5 3 0\n")
        assert "pi_3(M) = Z/5" in run(argv)[1]
        custom.write_text("2 3 0 7\n5 3 0\n")
        assert "pi_3(M) = Z/7" in run(argv)[1]
