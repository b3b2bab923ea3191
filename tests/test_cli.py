import hashlib
import json
import random
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loopsix import cli, homotopy, linalg, manifold, rational, series
from loopsix.cli import emit_report, run
from loopsix.errors import InputError
from loopsix.groups import FGAbelianGroup

from conftest import INPUTS, REPO_ROOT, random_unimodular_form


#: ``--cutoff`` upper bounds (README, "Size bounds of --cutoff")
CUTOFF_MAX = {"series": 500, "rational": 150, "koszul": 150, "model": 150}


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


class TestRoutesAgreeOrExitThree:
    """A disagreement between the two routes' ranks exits 3: ``rational``
    compares them in every degree it prints, ``describe`` through
    ``WITNESS_DEGREE``."""

    @staticmethod
    def add_one(monkeypatch, degree):
        """Patch the decomposition route to add 1 to its rank in ``degree``."""
        original = rational.ranks_from_decomposition

        def wrong(factors, cutoff):
            dims = list(original(factors, cutoff).dims)
            if cutoff >= degree:
                dims[degree - 1] += 1
            return series.GradedLieDims(tuple(dims))

        monkeypatch.setattr(rational, "ranks_from_decomposition", wrong)

    def test_rational_late_disagreement(self, monkeypatch):
        self.add_one(monkeypatch, 10)
        code, out = run(["rational", path("d2_spin.json"), "--cutoff", "10"])
        assert code == 3
        assert "error: KoszulInconsistency:" in out and "in degree 10: 0 vs 1" in out

    def test_describe_disagreement(self, monkeypatch):
        self.add_one(monkeypatch, rational.WITNESS_DEGREE)
        code, out = run(["describe", path("d2_spin.json")])
        assert code == 3
        assert "error: KoszulInconsistency:" in out and "in degree 8: 0 vs 1" in out


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

    def test_equivalent_is_loop_rigidity_at_positive_rank(self):
        """At d >= 1 the decomposition is a function of d, so the structural
        match that ``compare`` reports is ``loop_rigidity_equivalent``."""
        specs = [spec for spec in sorted(INPUTS.glob("d*.json")) if not spec.name.startswith("d0")]
        for a in specs:
            for b in specs:
                code, out = run(["compare", str(a), str(b), "--format", "json"])
                assert code == 0
                result = json.loads(out)["result"]
                Na, ba, _ = cli.load_manifold_spec(a)
                Nb, bb, _ = cli.load_manifold_spec(b)
                expected = manifold.loop_rigidity_equivalent((Na, ba), (Nb, bb))
                assert result["equivalent"] is result["structural_match"] is expected


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

    @pytest.mark.parametrize(
        "content, needle",
        [
            (None, "cannot read table file"),
            ("2 3 0\n2 0 0\n", ":2: out-of-range values"),
            ("3 4 0 2\n3 4 0 3\n", ":2: conflicting duplicate entry for (3, 4)"),
        ],
        ids=["missing_file", "out_of_range", "conflicting_duplicate"],
    )
    def test_bad_table_exits_two(self, tmp_path, content, needle):
        table = tmp_path / "table.txt"
        if content is not None:
            table.write_text(content)
        code, out = run(["pi", path("d1.json"), "--table", str(table)])
        assert code == 2
        assert "error: ParseError:" in out and needle in out

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

    @pytest.mark.parametrize("command", sorted(CUTOFF_MAX))
    def test_cutoff_above_bound(self, command):
        bound = CUTOFF_MAX[command]
        code, out = run([command, path("d3.json"), "--cutoff", str(bound + 1)])
        assert code == 1
        assert out.startswith("usage error:") and "--cutoff" in out
        assert f"must be at most {bound}" in out

    def test_pi_max_not_an_integer(self):
        code, out = run(["pi", path("d1.json"), "--max", "abc"])
        assert code == 1
        assert out.startswith("usage error:") and "--max" in out

    def test_rational_cutoff_zero(self):
        code, out = run(["rational", path("d1.json"), "--cutoff", "0"])
        assert code == 1
        assert out.startswith("usage error:") and "--cutoff" in out


class TestMain:
    """``main`` returns the exit code and writes usage errors to stderr,
    every other report to stdout."""

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["decompose", path("d1.json")], 0),
            (["pi", path("d1.json"), "--max", "1"], 1),
            (["decompose", path("does_not_exist.json")], 2),
            (["decompose", path("d0_k2.json")], 3),
        ],
    )
    def test_streams(self, capsys, argv, code):
        assert cli.main(argv) == code
        captured = capsys.readouterr()
        expected = run(argv)[1]
        if code == 1:
            assert (captured.out, captured.err) == ("", expected)
        else:
            assert (captured.out, captured.err) == (expected, "")


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

    @pytest.mark.parametrize("fmt", [[], ["--format", "json"]])
    def test_pi_invariant_factors_once_per_group(self, monkeypatch, fmt):
        calls = []
        original = FGAbelianGroup.invariant_factors

        def counted(group):
            calls.append(group)
            return original(group)

        monkeypatch.setattr(FGAbelianGroup, "invariant_factors", counted)
        code, _ = run(["pi", path("d3.json"), "--max", "8", *fmt])
        assert code == 0
        assert len(calls) == (7 if fmt else 0)  # pi_2..pi_8, printed only in JSON

    def test_describe_form_determinant_once(self, monkeypatch):
        calls = []
        original = manifold.det_int

        def counted(rows):
            calls.append(rows)
            return original(rows)

        monkeypatch.setattr(manifold, "det_int", counted)
        code, out = run(["describe", path("d2_spin.json")])
        assert code == 0 and "form determinant: -1" in out
        assert len(calls) == 1  # validation in new_four_manifold

    STAGES = (
        (cli, "load_manifold_spec"),
        (linalg, "det_int"),
        (manifold, "validate_bundle"),
        (manifold, "cohomology_ring"),
        (rational, "quadratic_presentation"),
        (rational, "hilbert_series"),
        (rational, "koszul_dual_series"),
        (rational, "quadratic_dual_dims"),
        (rational, "_koszul_ranks"),
        (homotopy, "decompose"),
        (homotopy, "loop_factors"),
        (series, "_witt_counts"),
        (homotopy, "loop_homology_series"),
        (rational, "cdga_cohomology"),
        (cli, "emit_report"),
    )

    def sweep(self, monkeypatch):
        """Each single-spec command on every committed spec in both formats,
        with every ``STAGES`` entry counted: one ``(command, spec, format,
        counts)`` per run.

        Every ``loopsix`` module that imports a stage gets the counting
        wrapper.
        """
        counts = Counter()

        def counting(name, fn):
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return counted

        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "loopsix"]
        for owner, attr in self.STAGES:
            original = getattr(owner, attr)
            wrapper = counting(f"{owner.__name__}.{attr}", original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, key, wrapper)
        commands = ["describe", "decompose", "pi", "series", "rational", "koszul", "model"]
        runs = []
        for command in commands:
            for spec in sorted(INPUTS.glob("*.json")):
                for fmt in ("text", "json"):
                    counts.clear()
                    run([command, str(spec), "--format", fmt])
                    runs.append((command, spec.name, fmt, Counter(counts)))
        return runs

    def test_each_stage_at_most_once(self, monkeypatch):
        """No run calls a stage in ``STAGES`` twice."""
        repeats = [
            (command, spec, fmt, name, n)
            for command, spec, fmt, counts in self.sweep(monkeypatch)
            for name, n in sorted(counts.items())
            if n > 1
        ]
        assert repeats == []

    def test_d1_coformality_needs_no_series_or_model(self, monkeypatch):
        """At d = 1 ``describe`` and ``rational`` print the verdict without
        the naive dual series, the loop homology or the Sullivan model's
        cohomology: ``koszul``, ``series`` and ``model`` print those."""
        skipped = ("koszul_dual_series", "loop_homology_series", "cdga_cohomology")
        runs = [
            (command, fmt, sorted(name for name in counts if name.endswith(skipped)))
            for command, spec, fmt, counts in self.sweep(monkeypatch)
            if command in ("describe", "rational") and spec == "d1.json"
        ]
        assert runs == [
            (command, fmt, []) for command in ("describe", "rational")
            for fmt in ("text", "json")
        ]

    def test_every_stage_is_called(self, monkeypatch):
        """Some run calls each stage in ``STAGES``: a guard on a function
        that no command calls would pass without checking anything."""
        called = set()
        for *_, counts in self.sweep(monkeypatch):
            called.update(counts)
        names = [f"{owner.__name__}.{attr}" for owner, attr in self.STAGES]
        assert [name for name in names if name not in called] == []


class TestStrictSpecTypes:
    """A spec value of the wrong JSON type exits 2 and says which; nothing is
    coerced."""

    ENTRIES = "'intersection_form' entries must be integers"
    MATRIX = "'intersection_form' must be a matrix"
    W2 = "'w2' must be a list of 0/1"
    NAME = "'name' must be a string"

    @pytest.mark.parametrize(
        "spec, message",
        [
            ({"intersection_form": [[1.7]], "w2": [1], "p1": 1}, ENTRIES),
            ({"intersection_form": [["1"]], "w2": [1], "p1": 1}, ENTRIES),
            ({"intersection_form": [[True]], "w2": [1], "p1": 1}, ENTRIES),
            ({"intersection_form": [[1]], "w2": [1], "p1": True}, "missing integer 'p1'"),
            ({"intersection_form": [[1]], "w2": [3], "p1": 1}, W2),
            ({"intersection_form": [[1]], "w2": [True], "p1": 1}, W2),
            ({"intersection_form": [[1]], "w2": [1], "p1": 1, "name": None}, NAME),
            ({"intersection_form": [[1]], "w2": [1], "p1": 1, "name": {"a": 1}}, NAME),
            ({"intersection_form": [[1]], "w2": [1], "p1": 1, "name": 7}, NAME),
            ([], "expected a JSON object"),
            (3, "expected a JSON object"),
            ({"w2": [1], "p1": 1}, "missing 'intersection_form'"),
            ({"intersection_form": [], "w2": [1], "p1": 4},
             "'w2' must be empty when the form is empty"),
            ({"intersection_form": 5, "w2": [1], "p1": 1}, MATRIX),
            ({"intersection_form": [1, 2], "w2": [1], "p1": 1}, MATRIX),
            ({"intersection_form": [[1], 2], "w2": [1], "p1": 1}, MATRIX),
        ],
        ids=["form_float", "form_string", "form_bool", "p1_bool", "w2_three", "w2_bool",
             "name_null", "name_object", "name_int", "top_level_array",
             "top_level_number", "form_missing", "w2_with_empty_form", "form_number",
             "form_flat_list", "form_row_not_a_list"],
    )
    def test_rejected(self, tmp_path, spec, message):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        code, out = run(["describe", str(spec_path)])
        assert code == 2
        assert f"error: InputError: {spec_path}: {message}\n" in out

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"intersection_form": [[1]], "w2": [1], "p1": 1, "p1": 5}',
             "duplicate key 'p1'"),
            ('{"intersection_form": [[1]], "w2": [1], "p1": 1, "name": {"k": 1, "k": 2}}',
             "duplicate key 'k'"),
            ('{"intersection_form": [[1]], "w2": [1], "p1": 1, "ell": 7}',
             "unknown key 'ell'"),
            ('{"intersection_form": [[1]], "w2": [1], "p1": 1, "alpha": [3]}',
             "unknown key 'alpha'"),
            ('{"intersection_form": [[1]], "w2": [1], "p1": 1, "bogus": 1}',
             "unknown key 'bogus'"),
        ],
        ids=["p1_twice", "nested_twice", "ell", "alpha", "bogus"],
    )
    def test_key_rejected_by_name(self, tmp_path, text, message):
        """A key given twice is not read as its last value, and a key the
        spec does not have is not ignored: both exit 2 and name the key."""
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(text)
        code, out = run(["describe", str(spec_path)])
        assert code == 2
        assert f"InputError: {spec_path}: {message}" in out

    def test_int_valued_spec_still_accepted(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"intersection_form": [[1]], "w2": [1], "p1": 1}))
        assert run(["describe", str(spec_path)])[0] == 0

    @pytest.mark.parametrize(
        "content, message",
        [
            (b'{"intersection_form": [], "p1": 4, "name": "\xff"}', "can't decode byte 0xff"),
            (b'{"intersection_form": [], "p1": 4' + b"0" * 4300 + b"}", "4300 digits"),
            (b"[" * 100_000 + b"]" * 100_000, "maximum recursion depth"),
            (b"\xef\xbb\xbf" + b'{"intersection_form": [], "p1": 4}', "Unexpected UTF-8 BOM"),
            ('{"intersection_form": [], "p1": 4}'.encode("utf-16"), "'utf-8' codec can't decode"),
        ],
        ids=["not_utf8", "integer_past_digit_limit", "nesting_past_recursion_limit",
             "utf8_bom", "utf16"],
    )
    def test_unreadable(self, tmp_path, content, message):
        spec_path = tmp_path / "spec.json"
        spec_path.write_bytes(content)
        code, out = run(["describe", str(spec_path)])
        assert code == 2
        assert "InputError" in out and str(spec_path) in out and message in out

    @pytest.mark.parametrize("newline", [b"\r\n", b"\r"], ids=["crlf", "cr"])
    def test_newlines_read_as_in_text_mode(self, tmp_path, newline):
        """A spec with CR LF or CR line ends reports what it reports with
        LF ends, also the line and char of a JSON syntax error."""
        spec_path = tmp_path / "spec.json"
        for content in (
            b'{\n"intersection_form": [[1]],\n"w2": [1],\n"p1": 1\n}\n',
            b'{\n"intersection_form": [[1]],\n"p1": x\n}\n',
        ):
            outputs = []
            for ends in (b"\n", newline):
                spec_path.write_bytes(content.replace(b"\n", ends))
                outputs.append(run(["describe", str(spec_path)]))
            assert outputs[0] == outputs[1]
            assert outputs[0][0] == (2 if b"x" in content else 0)
        assert "line 3 column 7 (char 36)" in outputs[0][1]

    def test_name_string_or_file_stem(self, tmp_path):
        spec_path = tmp_path / "stem.json"
        spec = {"intersection_form": [[1]], "w2": [1], "p1": 1}
        spec_path.write_text(json.dumps(spec))
        assert "name: stem" in run(["describe", str(spec_path)])[1]
        spec_path.write_text(json.dumps({**spec, "name": "given"}))
        assert "name: given" in run(["describe", str(spec_path)])[1]


def text_mode_message(target):
    """What ``load_manifold_spec`` says of a file it cannot read or parse, from
    the file read in text mode and fed to the same decoder."""
    try:
        with open(target, encoding="utf-8") as file:
            cli._SPEC_DECODER.decode(file.read())
    except OSError as exc:
        return f"cannot read {target}: {exc}"
    except ValueError as exc:
        return f"{target}: not valid JSON ({exc})"
    raise AssertionError(f"{target} reads and parses")


class TestBytesRead:
    """The spec is read as bytes, decoded as strict UTF-8 and given text
    mode's newlines: every message is the one a text-mode read gives."""

    @pytest.mark.parametrize(
        "content",
        [
            b'{"intersection_form": [], "p1": 4, "name": "' + b"x" * 9000 + b'\xff"}',
            b'{"intersection_form": [],\r',
            b'{\r\n"intersection_form": [],\r\n"p1": 4, "name": "a\rb"}',
            b'{\r\n"intersection_form": [],\r\n"p1": 4, "name": "a\r\nb"}',
        ],
        ids=["byte_past_8k", "lone_cr_at_end", "cr_in_string", "crlf_in_string"],
    )
    def test_message_as_in_text_mode(self, tmp_path, content):
        spec_path = tmp_path / "spec.json"
        spec_path.write_bytes(content)
        message = text_mode_message(spec_path)
        if b"\r" in content:  # the message depends on the newline translation
            with pytest.raises(ValueError) as untranslated:
                cli._SPEC_DECODER.decode(content.decode())
            assert str(untranslated.value) not in message
        with pytest.raises(InputError) as refused:
            cli.load_manifold_spec(spec_path)
        assert str(refused.value) == message

    @pytest.mark.parametrize("name", ["", "missing.json"], ids=["directory", "missing"])
    def test_unopenable_as_in_text_mode(self, tmp_path, name):
        target = tmp_path / name
        with pytest.raises(InputError) as refused:
            cli.load_manifold_spec(target)
        assert str(refused.value) == text_mode_message(target)


class TestTextLines:
    """Text lines print bools and int lists as ``json.dumps`` does."""

    @pytest.mark.parametrize(
        "value",
        [[], [-3, 0, -17], [int("9" * 4000), -1], (1, -2, 3), True, False],
        ids=["empty", "negative", "4000_digits", "tuple", "true", "false"],
    )
    def test_text_is_json(self, value):
        assert cli._text(value) == json.dumps(value)


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


def parsed(parse, argv):
    """The namespace ``parse(argv)`` gives, or its usage message."""
    try:
        return vars(parse(argv))
    except cli._UsageError as exc:
        return str(exc)


SPEC = path("d1.json")
COMMANDS = ["describe", "decompose", "pi", "series", "rational", "koszul", "model",
            "compare"]
ARGV_TOKENS = (
    st.sampled_from(
        COMMANDS
        + [SPEC, "--format", "json", "text", "--cutoff", "--max", "--table", "--",
           "--form", "--f", "--format=json", "--form=text", "--cut", "--ma=3",
           "--bogus", "-x", "extra", "frobnicate", ""]
    )
    | st.integers(-2, 600).map(str)
)


class TestDispatch:
    """Sending argv straight to the named command's parser gives what one
    ``parse_args`` pass through the top-level parser gives: the same
    namespace, or the same usage message."""

    @settings(max_examples=300, deadline=None)
    @given(
        argv=st.lists(ARGV_TOKENS, max_size=7)
        | st.tuples(st.sampled_from(COMMANDS), st.lists(ARGV_TOKENS, max_size=6)).map(
            lambda t: [t[0], *t[1]]
        )
    )
    @example(argv=["describe", SPEC, "--bogus"])
    @example(argv=["pi", SPEC, "--max", "3", "extra"])
    @example(argv=["--format", "json", "describe", SPEC])
    @example(argv=[])
    def test_same_as_one_top_level_pass(self, argv):
        assert parsed(cli._parse, argv) == parsed(cli._build_parser().parse_args, argv)

    def test_unrecognized_arguments_named_by_the_top_level_parser(self):
        code, out = run(["describe", SPEC, "--bogus"])
        assert (code, out) == (1, "usage error: loopsix: unrecognized arguments: --bogus\n")

    def test_main_reads_sys_argv(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["loopsix", "decompose", SPEC])
        assert cli.main() == 0
        assert capsys.readouterr().out == run(["decompose", SPEC])[1]


DATA = REPO_ROOT / "tests" / "data"
DIGESTS = DATA / "cli_digests.json"


def output_digests(argvs=None):
    """SHA-256 of ``(exit code, output)`` for each argv (by default those of
    the parser-reuse corpus), keyed by the argv; the checkout path reads
    ``<root>`` in both."""
    digests = {}
    for argv in TestParserReuse().argvs() if argvs is None else argvs:
        code, out = run(argv)
        key = " ".join(argv).replace(str(REPO_ROOT), "<root>")
        text = f"{code}\n{out}".replace(str(REPO_ROOT), "<root>")
        digests[key] = hashlib.sha256(text.encode()).hexdigest()
    return digests


class TestOutputDigests:
    """Every output of the corpus is byte-identical to the recorded one.

    Re-record (only for an intended output change) from the repo root::

        PYTHONPATH=src:tests python -c "import json, test_cli; test_cli.DIGESTS.write_text(json.dumps(test_cli.output_digests(), indent=1, sort_keys=True) + '\\n')"
    """

    def test_digests_match_recorded(self):
        recorded = json.loads(DIGESTS.read_text())
        assert output_digests() == recorded


def diagonal(d):
    """A spec over the diagonal form of rank d (w2 all ones, p1 = d)."""
    return str(DATA / f"diag{d}.json")


class TestLargePi:
    """``pi`` where pi_2..pi_max have 10^4 to 10^9 torsion summands."""

    ARGVS = (
        ["pi", path("d3.json"), "--max", "15"],
        ["pi", diagonal(6), "--max", "8"],
        ["pi", diagonal(10), "--max", "6"],
        ["pi", diagonal(32)],
    )
    DIGESTS = DATA / "pi_digests.json"

    def test_digests_match_recorded(self):
        """Recorded while the torsion was a flat tuple of summands.

        Re-record (only for an intended output change) from the repo root::

            PYTHONPATH=src:tests python -c "import json, test_cli; t = test_cli.TestLargePi; t.DIGESTS.write_text(json.dumps(test_cli.output_digests(t.argvs()), indent=1, sort_keys=True) + '\\n')"
        """
        recorded = json.loads(self.DIGESTS.read_text())
        assert output_digests(self.argvs()) == recorded

    @classmethod
    def argvs(cls):
        return [argv + fmt for argv in cls.ARGVS for fmt in TestParserReuse.FORMATS]

    @pytest.mark.parametrize("d, pi_max", [(6, 12), (6, 15), (24, 15), (60, 15)])
    def test_too_many_summands_exit_three(self, d, pi_max):
        code, out = run(["pi", diagonal(d), "--max", str(pi_max), "--format", "json"])
        assert code == 3
        assert json.loads(out)["error"]["type"] == "TooManySummands"

    def test_bound_counts_summands(self, monkeypatch):
        argv = ["pi", path("d3.json"), "--max", "15"]
        monkeypatch.setattr(cli, "MAX_PI_SUMMANDS", 64_713)
        assert run(argv)[0] == 0
        monkeypatch.setattr(cli, "MAX_PI_SUMMANDS", 64_712)
        code, out = run(argv)
        assert code == 3 and "TooManySummands: pi_2..pi_15 have 64713" in out

    def test_huge_max_enumerates_to_the_table(self, monkeypatch):
        cutoffs = []
        original = homotopy.loop_factors

        def recorded(N, b, cutoff):
            cutoffs.append(cutoff)
            return original(N, b, cutoff)

        monkeypatch.setattr(homotopy, "loop_factors", recorded)
        code, out = run(["pi", path("d3.json"), "--max", "1000000000"])
        assert code == 3 and "TableOutOfRange: pi_16(S^2)" in out
        assert cutoffs == [15]

    def test_small_table_still_reaches_degree_seven(self, tmp_path):
        table = tmp_path / "table.txt"
        table.write_text("2 3 0 5\n")
        argv = ["pi", path("d0_k1.json"), "--max", "7", "--table", str(table)]
        code, out = run(argv)
        assert code == 0 and "pi_7(M) = Z\n" in out

    def test_table_file_out_of_range_names_no_shipped_table(self, tmp_path):
        table = tmp_path / "table.txt"
        table.write_text("2 3 0 5\n")
        code, out = run(["pi", path("d1.json"), "--max", "5", "--table", str(table)])
        assert code == 3
        assert "TableOutOfRange: pi_4(S^2) is outside the sphere table" in out
        assert "shipped" not in out


class TestHighCutoff:
    """``series`` and ``rational`` at their largest ``--cutoff`` on every input."""

    DIGESTS = DATA / "cutoff_digests.json"

    def test_digests_match_recorded(self):
        """Re-record (only for an intended output change) from the repo root::

            PYTHONPATH=src:tests python -c "import json, test_cli; t = test_cli.TestHighCutoff; t.DIGESTS.write_text(json.dumps(test_cli.output_digests(t.argvs()), indent=1, sort_keys=True) + '\\n')"
        """
        recorded = json.loads(self.DIGESTS.read_text())
        assert output_digests(self.argvs()) == recorded

    @staticmethod
    def argvs():
        names = sorted(p.name for p in INPUTS.glob("*.json"))
        return [
            [command, path(name), "--cutoff", cutoff, *fmt]
            for name in names
            for command, cutoff in (("series", "500"), ("rational", "150"))
            for fmt in TestParserReuse.FORMATS
        ]


class TestSizeBound:
    """Odd attaching numbers past ``MAX_ODD_K`` exit 3 instead of being
    factored by trial division."""

    def test_prime_just_above_bound(self, tmp_path):
        k = 1_000_000_000_039  # the least prime above 10^12
        assert k > homotopy.MAX_ODD_K
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"intersection_form": [], "p1": 4 * k}))
        code, out = run(["decompose", str(spec_path)])
        assert code == 3 and "UnsupportedCase" in out
        code, out = run(["describe", str(spec_path)])
        assert code == 0 and f"k: {k}" in out


def diagonal_spec(d):
    """Spec file contents over the identity form of rank d (w2 all ones,
    p1 = d), like the files behind :func:`diagonal`."""
    form = [[int(i == j) for j in range(d)] for i in range(d)]
    return json.dumps({"intersection_form": form, "w2": [1] * d, "p1": d}).encode()


class TestRankBound:
    """Forms of rank above ``MAX_RANK`` exit 3 before the O(d^3) determinant."""

    COMMANDS = ("describe", "decompose", "pi", "series", "rational", "koszul", "model")

    def test_every_command_refuses_quickly(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_bytes(diagonal_spec(cli.MAX_RANK + 1))
        argvs = [[command, str(spec)] for command in self.COMMANDS]
        argvs.append(["compare", str(INPUTS / "d3.json"), str(spec)])
        for argv in argvs:
            for fmt in ("text", "json"):
                start = time.perf_counter()
                code, out = run([*argv, "--format", fmt])
                assert time.perf_counter() - start < 0.5
                assert code == 3 and "RankTooLarge" in out

    def test_bound_itself_loads(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_bytes(diagonal_spec(cli.MAX_RANK))
        N, _, _ = cli.load_manifold_spec(spec)
        assert N.d == cli.MAX_RANK


# an explicit alphabet keeps Hypothesis from building its Unicode table
TEXT = st.text(alphabet='ab"\\\u00e9\u2603', max_size=4)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=8,
)


@st.composite
def spec_files(draw):
    """File contents: raw bytes, or a valid spec over a unimodular form --
    a random one of rank <= 4, or a diagonal or hyperbolic one of rank <= 64
    -- with a few keys dropped or replaced by any JSON value."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=64))
    shape = draw(st.sampled_from(["random", "diagonal", "hyperbolic"]))
    if shape == "random":
        d = draw(st.integers(0, 4))
        form = random_unimodular_form(draw(st.randoms()), d)
    elif shape == "diagonal":
        d = draw(st.integers(0, 64))
        signs = draw(st.lists(st.sampled_from([1, -1]), min_size=d, max_size=d))
        form = [[signs[i] if i == j else 0 for j in range(d)] for i in range(d)]
    else:
        d = 2 * draw(st.integers(0, 32))
        form = [[int(j == i ^ 1) for j in range(d)] for i in range(d)]
    w2 = draw(st.lists(st.integers(0, 1), min_size=d, max_size=d))
    pairing = sum(w2[i] * form[i][j] * w2[j] for i in range(d) for j in range(d))
    ell = draw(st.integers(-40, 40) | st.integers())
    spec = {"intersection_form": form, "w2": w2, "p1": 4 * ell + pairing, "name": "x"}
    for key in draw(st.lists(st.sampled_from(sorted(spec)), max_size=3, unique=True)):
        if draw(st.booleans()):
            del spec[key]
        else:
            spec[key] = draw(JSON_VALUES)
    return json.dumps(spec).encode()


#: ``pi --max`` over its whole accepted range, weighted toward the degrees
#: the table covers and the edges of the summand and enumeration bounds
PI_MAX = (
    st.integers(2, 16)
    | st.sampled_from([2, 13, 14, 15, 16, 17, 10**9])
    | st.integers(2, 10**9)
)


def cutoff_range(bound):
    """``--cutoff`` from 0 to 10 past its bound, weighted toward the small
    values (the ``@example``s below take the edges of the bound)."""
    return st.integers(0, 12) | st.integers(0, bound + 10)


#: the smallest accepted ``--cutoff`` of each command
SMALL_CUTOFFS = {"series": 0, "rational": 1, "koszul": 0, "model": 0}


class TestFuzz:
    """Any spec file through every command and format exits 0-3 without an
    uncaught exception."""

    @settings(max_examples=40, deadline=None)
    @given(
        content=spec_files(),
        cutoffs=st.fixed_dictionaries(
            {command: cutoff_range(bound) for command, bound in CUTOFF_MAX.items()}
        ),
        pi_max=PI_MAX,
    )
    # both pi bounds: the table at --max 10^9, and 1,267,838 summands at d = 4
    @example(content=(INPUTS / "d3.json").read_bytes(), cutoffs=SMALL_CUTOFFS, pi_max=10**9)
    @example(content=Path(diagonal(4)).read_bytes(), cutoffs=SMALL_CUTOFFS, pi_max=14)
    # one rank past MAX_RANK, refused by every command
    @example(content=diagonal_spec(cli.MAX_RANK + 1), cutoffs=SMALL_CUTOFFS, pi_max=6)
    # every --cutoff at its bound, and one past it
    @example(content=(INPUTS / "d3.json").read_bytes(), cutoffs=CUTOFF_MAX, pi_max=6)
    @example(
        content=(INPUTS / "d3.json").read_bytes(),
        cutoffs={command: bound + 1 for command, bound in CUTOFF_MAX.items()},
        pi_max=6,
    )
    def test_every_command(self, content, cutoffs, pi_max):
        with tempfile.TemporaryDirectory() as tmp:
            spec = str(Path(tmp) / "spec.json")
            Path(spec).write_bytes(content)
            options = {
                "describe": [],
                "decompose": [],
                "pi": ["--max", str(pi_max)],
                **{command: ["--cutoff", str(c)] for command, c in cutoffs.items()},
                "compare": [spec],
            }
            for command, extra in options.items():
                for fmt in ("text", "json"):
                    code, _ = run([command, spec, *extra, "--format", fmt])
                    assert code in (0, 1, 2, 3)
