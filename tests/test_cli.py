import hashlib
import json
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loopsix import cli, homotopy, manifold, rational
from loopsix.cli import emit_report, run
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

    @pytest.mark.parametrize("command", sorted(CUTOFF_MAX))
    def test_cutoff_above_bound(self, command):
        bound = CUTOFF_MAX[command]
        code, out = run([command, path("d3.json"), "--cutoff", str(bound + 1)])
        assert code == 1
        assert out.startswith("usage error:") and "--cutoff" in out
        assert f"must be at most {bound}" in out

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
        assert len(calls) == 7  # pi_2..pi_8

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

    @pytest.mark.parametrize(
        "content",
        [
            b'{"intersection_form": [], "p1": 4, "name": "\xff"}',
            b'{"intersection_form": [], "p1": 4' + b"0" * 4300 + b"}",
            b"[" * 100_000 + b"]" * 100_000,
        ],
        ids=["not_utf8", "integer_past_digit_limit", "nesting_past_recursion_limit"],
    )
    def test_unreadable(self, tmp_path, content):
        spec_path = tmp_path / "spec.json"
        spec_path.write_bytes(content)
        code, out = run(["describe", str(spec_path)])
        assert code == 2
        assert "InputError" in out and str(spec_path) in out


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


# an explicit alphabet keeps Hypothesis from building its Unicode table
TEXT = st.text(alphabet='ab"\\\u00e9\u2603', max_size=4)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=8,
)


@st.composite
def spec_files(draw):
    """File contents: raw bytes, or a valid spec over a unimodular form of
    rank <= 4 with a few keys dropped or replaced by any JSON value."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=64))
    d = draw(st.integers(0, 4))
    form = random_unimodular_form(draw(st.randoms()), d)
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
