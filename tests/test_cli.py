"""Command-line surface: verdicts, exit codes, formats, determinism."""

import json
import os
import subprocess
import sys

import pytest

import symvar
from symvar import cli
from symvar.cli import main

from test_golden_cli import FILES

BOOLEAN_PAIR = '{"lambda": ["inf", "inf"], "points": [[0, 1], [1, 0]]}'


@pytest.fixture
def variety_file(tmp_path):
    path = tmp_path / "exC.json"
    path.write_text(BOOLEAN_PAIR, encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestType:
    def test_mixed_multiplicities(self, capsys):
        code, out, _ = run(capsys, "type", "3^3,5^2,6^inf,7^inf")
        assert code == 0 and out.strip() == "inf,inf,3,2"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "type", "--json", "0^inf,1^3")
        assert code == 0 and json.loads(out) == {"type": "inf,3"}

    @pytest.mark.parametrize("argv, want", [
        (("type", "--", "-1^inf,2^1"), "inf,1"),
        (("member", "inf,1", "--", "-1^inf,2^1"), "true"),
    ])
    def test_negative_first_value_follows_double_dash(self, capsys, argv, want):
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out == want + "\n"

    def test_negative_first_value_without_double_dash_is_usage_error(self, capsys):
        code, out, err = run(capsys, "type", "-1^inf,2^1")
        assert code == 2 and out == "" and "usage:" in err

    def test_bad_literal(self, capsys):
        code, _, err = run(capsys, "type", "0^zero")
        assert code == 2 and "error" in err


class TestPreceq:
    def test_false_verdict_exit_one(self, capsys):
        code, out, _ = run(capsys, "preceq", "4,4,4", "inf,inf,2,1")
        assert code == 1 and out.strip() == "false"

    def test_true_verdict(self, capsys):
        code, out, _ = run(capsys, "preceq", "2", "inf,1")
        assert code == 0 and out.strip() == "true"


class TestMinExcluded:
    def test_four_part_family(self, capsys):
        code, out, _ = run(capsys, "min-excluded", "inf,inf,2,1")
        assert code == 0
        assert out.splitlines() == ["1,1,1,1,1", "2,2,2,2", "3,3,3,1", "4,4,4"]

    @pytest.mark.parametrize("argv", [
        ("min-excluded", "3,1"),
        ("equations", "2,1"),
        *(("member", "--method", method, "2,1", "0^inf") for method in ("direct", "equations", "both")),
    ], ids=["min-excluded", "equations", "member-direct", "member-equations", "member-both"])
    def test_finite_partition_is_data_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


class TestEquations:
    def test_type_ideal(self, capsys):
        code, out, _ = run(capsys, "equations", "inf,1")
        assert code == 0
        assert "# provenance: excluded 1,1,1" in out
        assert "# provenance: excluded 2,2" in out

    def test_variety_ideal_contains_paper_displays(self, capsys, variety_file):
        code, out, _ = run(capsys, "equations", "inf,inf", "--variety", variety_file)
        assert code == 0
        assert "(x1^2 - x1)" in out
        assert "(x1 - x2)*(x2^2 - x2)" in out

    def test_reduce_flag(self, capsys, variety_file):
        code, out, _ = run(capsys, "equations", "inf,inf", "--variety", variety_file, "--reduce")
        assert code == 0
        full = run(capsys, "equations", "inf,inf", "--variety", variety_file)[1]
        assert len(out.splitlines()) < len(full.splitlines())

    def test_mismatched_variety(self, capsys, variety_file):
        code, _, err = run(capsys, "equations", "inf,1", "--variety", variety_file)
        assert code == 2 and "does not match" in err


class TestMember:
    def test_cross_check_agreement(self, capsys, variety_file):
        code, out, _ = run(
            capsys, "member", "inf,inf", "0^inf,1^inf", "--variety", variety_file,
            "--method", "both",
        )
        assert code == 0 and out.strip() == "true"

    def test_rejection(self, capsys, variety_file):
        code, out, _ = run(
            capsys, "member", "inf,inf", "0^inf,1^inf,2^1", "--variety", variety_file,
            "--method", "both",
        )
        assert code == 1 and out.strip() == "false"

    def test_type_locus_membership(self, capsys):
        code, out, _ = run(capsys, "member", "inf,2", "0^inf,1^2", "--method", "both")
        assert code == 0 and out.strip() == "true"
        code, out, _ = run(capsys, "member", "inf,2", "0^inf,1^3", "--method", "equations")
        assert code == 1 and out.strip() == "false"

    @pytest.mark.parametrize("lam, points, x, code, note", [
        # outside the exact domain: a known over-acceptance, a member, a rejection
        ("inf,2,1", [[0, 4, 2], [1, 3, 2]], "0^inf,4^3", 0, True),
        ("inf,2,1", [[0, 4, 2], [1, 3, 2]], "0^inf,4^2,2^1", 0, True),
        ("inf,2,1", [[0, 4, 2], [1, 3, 2]], "0^inf,5^1", 1, False),
        # inside it: finite weight 1, two parts, no variety
        ("inf,inf,1", [[0, 1, 2]], "0^inf,1^inf,2^1", 0, False),
        ("inf,3", [[0, 1]], "0^inf,1^3", 0, False),
        # finite weight 2 and three parts: the smallest lambda the note names
        ("inf,1,1", [[0, 1, 2]], "0^inf,1^1", 0, True),
    ])
    def test_over_acceptance_note(self, capsys, tmp_path, lam, points, x, code, note):
        path = tmp_path / "z.json"
        parts = [p if p == "inf" else int(p) for p in lam.split(",")]
        path.write_text(json.dumps({"lambda": parts, "points": points}), encoding="utf-8")
        argv = ["member", lam, x, "--variety", str(path), "--method", "equations"]
        got, out, err = run(capsys, *argv)
        assert (got, out) == (code, "true\n" if code == 0 else "false\n")
        assert (err.startswith("note: ") and err.count("\n") == 1) if note else err == ""
        got, out, json_err = run(capsys, "member", "--json", *argv[1:])
        assert (got, json.loads(out), json_err) == (code, {"member": code == 0}, err)

    def test_no_note_without_variety(self, capsys):
        # the type locus alone is cut out exactly
        code, out, err = run(capsys, "member", "inf,2,1", "0^inf,1^2,2^1", "--method", "equations")
        assert (code, out, err) == (0, "true\n", "")


class TestContains:
    def test_both_directions(self, capsys, tmp_path):
        za = tmp_path / "za.json"
        zb = tmp_path / "zb.json"
        za.write_text('{"lambda": ["inf", 1], "points": [[0, 1]]}', encoding="utf-8")
        zb.write_text('{"lambda": ["inf", 2], "points": [[0, 1]]}', encoding="utf-8")
        code, out, _ = run(capsys, "contains", "inf,1", str(za), "inf,2", str(zb))
        assert code == 0 and out.strip() == "true"
        code, out, _ = run(capsys, "contains", "inf,2", str(zb), "inf,1", str(za))
        assert code == 1 and out.strip() == "false"

    def test_empty_first_set_gets_the_input_checks(self, capsys, tmp_path):
        e = tmp_path / "e.json"
        f = tmp_path / "f.json"
        e.write_text('{"lambda": ["inf", 1], "points": []}', encoding="utf-8")
        f.write_text('{"lambda": [2, 1], "points": [[0, 1]]}', encoding="utf-8")
        code, out, err = run(capsys, "contains", "inf,1", str(e), "2,1", str(f))
        assert (code, out) == (2, "")
        assert err == "error: the ambient composition must have an infinite part\n"
        f.write_text('{"lambda": ["inf", 1], "points": [[0, 1]]}', encoding="utf-8")
        code, out, _ = run(capsys, "contains", "inf,1", str(e), "inf,1", str(f))
        assert code == 0 and out.strip() == "true"


class TestGamma:
    def test_known_slices(self, capsys, variety_file):
        code, out, _ = run(capsys, "gamma", "inf,inf", variety_file, "1,1")
        assert code == 0
        assert out.splitlines() == ["0,0", "0,1", "1,0", "1,1"]
        code, out, _ = run(capsys, "gamma", "inf,inf", variety_file, "1")
        assert out.splitlines() == ["0", "1"]

    def test_json_mirror(self, capsys, variety_file):
        code, out, _ = run(capsys, "gamma", "--json", "inf,inf", variety_file, "1")
        assert code == 0
        assert json.loads(out) == {"points": [["0"], ["1"]]}


class TestDeterminism:
    def test_byte_identical_repeats(self, capsys, variety_file):
        first = run(capsys, "equations", "inf,inf", "--variety", variety_file)
        second = run(capsys, "equations", "inf,inf", "--variety", variety_file)
        assert first == second

    def test_unknown_command_is_usage_error(self, capsys):
        assert run(capsys, "no-such-command")[0] == 2

    def test_unknown_flag_is_usage_error(self, capsys):
        assert run(capsys, "type", "--bogus", "0^inf")[0] == 2


class TestMalformedInput:
    """Inputs that once crashed with a traceback: each is a data error."""

    def assert_data_error(self, capsys, *argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "Traceback" not in err
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    def write(self, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_zero_denominator_in_point_literal(self, capsys):
        self.assert_data_error(capsys, "type", "1/0^inf")

    @pytest.mark.parametrize("literal, bad", [
        ("^", "''"),
        ("1e3^inf", "'1e3'"),
        ("0^inf,1/2/3^1", "'1/2/3'"),
        # digits beyond ASCII and int()'s underscores are not rationals
        ("٣^inf,1_0^2", "'٣'"),
        ("0^inf,1_0^2", "'1_0'"),
        ("0^inf,1/٢^1", "'1/٢'"),
    ])
    def test_bad_rational_in_point_literal(self, capsys, literal, bad):
        code, out, err = run(capsys, "type", literal)
        assert (code, out) == (2, "")
        assert err == f"error: bad rational {bad} (expected an integer or p/q)\n"

    def test_zero_multiplicity_in_point_literal(self, capsys):
        code, out, err = run(capsys, "type", "0^inf,1^0")
        assert (code, out, err) == (2, "", "error: weight must be positive, got 0\n")

    def test_points_not_a_list(self, capsys, tmp_path):
        path = self.write(tmp_path, '{"lambda": ["inf", "inf"], "points": 5}')
        self.assert_data_error(capsys, "equations", "inf,inf", "--variety", path)

    @pytest.mark.parametrize("text, key", [
        ('{"points": [[0, 1]]}', "lambda"),
        ('{"lambda": ["inf", "inf"]}', "points"),
    ])
    def test_missing_key_in_variety_file(self, capsys, tmp_path, text, key):
        path = self.write(tmp_path, text)
        code, out, err = run(capsys, "equations", "inf,inf", "--variety", path)
        assert (code, out) == (2, "")
        assert err == f"error: cannot read variety file {path}: missing key '{key}'\n"

    def test_empty_lambda_in_variety_file(self, capsys, tmp_path):
        # once read as an ambient with no coordinates, named by an empty string
        path = self.write(tmp_path, '{"lambda": [], "points": []}')
        code, out, err = run(capsys, "equations", "inf", "--variety", path)
        assert (code, out) == (2, "")
        assert "Traceback" not in err
        assert err == f"error: cannot read variety file {path}: lambda must be a non-empty list\n"

    @pytest.mark.parametrize("token", ["²", "٣"])
    def test_non_ascii_digit_weight(self, capsys, token):
        code, out, err = run(capsys, "preceq", token, "inf,inf")
        assert (code, out) == (2, "")
        assert err == f"error: bad weight token {token!r} (expected a natural number or 'inf')\n"

    def test_top_level_array(self, capsys, tmp_path):
        path = self.write(tmp_path, "[1, 2]")
        self.assert_data_error(capsys, "equations", "inf,inf", "--variety", path)

    def test_zero_denominator_in_variety_file(self, capsys, tmp_path):
        path = self.write(tmp_path, '{"lambda": ["inf", "inf"], "points": [[0, "1/0"]]}')
        self.assert_data_error(capsys, "member", "inf,inf", "0^inf", "--variety", path)

    def test_deep_preceq_is_answered(self, capsys):
        # one tail part is answered without a search: all 1200 ones cover it
        assert run(capsys, "preceq", "1200", ",".join(["1"] * 1200)) == (0, "true\n", "")
        # false, and the witness fails, so the search runs; it keeps its
        # states on an explicit stack and counts equal parts, so 1,200 tail
        # parts neither pass the recursion limit nor explode
        for mu, lam in ((["3", "3"], ["2", "2", "2"]), (["6", "6"], ["5", "3", "2", "2"])):
            assert run(capsys, "preceq", ",".join(mu + ["1"] * 1200),
                       ",".join(lam + ["1"] * 1200)) == (1, "false\n", "")

    def test_deep_min_excluded_is_refused(self, capsys):
        self.assert_data_error(capsys, "min-excluded", "inf," + ",".join(["1"] * 1200))

    def test_deeply_nested_variety_file(self, capsys, tmp_path):
        path = self.write(tmp_path, "[" * 200000)
        self.assert_data_error(capsys, "equations", "inf,inf", "--variety", path)


class TestRoundTrips:
    def test_partition_round_trip_through_cli(self, capsys):
        code, out, _ = run(capsys, "type", "6^inf,7^inf,3^3,5^2")
        code2, out2, _ = run(capsys, "type", "3^3,5^2,6^inf,7^inf")
        assert out == out2


class TestErrorPath:
    """Every ValueError a subcommand meets exits 2 through ``main``, and
    every other exception exits 4."""

    @staticmethod
    def boom(*args, **kwargs):
        raise ValueError("boom")

    @pytest.mark.parametrize("target, argv", [
        ("type_of", ["type", "0^inf,1^3"]),
        ("preceq", ["preceq", "2", "inf,1"]),
        ("min_excluded", ["min-excluded", "inf,1"]),
        ("equations.i_lambda", ["equations", "inf,1"]),
        ("theta_member", ["member", "inf,inf", "0^inf,1^inf", "--variety", "Z"]),
        ("contains", ["contains", "inf,inf", "Z", "inf,inf", "Z"]),
        ("gamma_at", ["gamma", "inf,inf", "Z", "1"]),
        ("selfcheck.run_all", ["selfcheck"]),
    ])
    def test_value_error_exits_two(self, monkeypatch, capsys, variety_file, target, argv):
        if "." in target:
            monkeypatch.setattr(f"symvar.{target}", self.boom)
        else:
            monkeypatch.setattr(cli, target, self.boom)
        argv = [variety_file if a == "Z" else a for a in argv]
        assert run(capsys, *argv) == (2, "", "error: boom\n")

    @pytest.mark.parametrize("exc, line", [
        (RuntimeError("boom"), "RuntimeError: boom"),
        (KeyError("boom"), "KeyError: 'boom'"),
        (AssertionError("boom"), "AssertionError: boom"),
    ], ids=["RuntimeError", "KeyError", "AssertionError"])
    def test_internal_error_exits_four(self, monkeypatch, capsys, exc, line):
        # any other exception is a defect: one line, no traceback, and not
        # exit 1, which reads as "false"
        def crash(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "preceq", crash)
        assert run(capsys, "preceq", "2", "inf,1") == (4, "", f"internal error: {line}\n")

    # the layering: the package loads nothing, the pipeline reaches neither
    # the correspondences nor the invariant battery, and the correspondences
    # need only the compositions and the point sets
    @pytest.mark.parametrize("module, loaded", [
        ("symvar", []),
        ("symvar.equations",
         ["symvar.equations", "symvar.partitions", "symvar.poly", "symvar.variety"]),
        ("symvar.corr", ["symvar.corr", "symvar.partitions", "symvar.variety"]),
    ], ids=["symvar", "equations", "corr"])
    def test_import_loads_only_its_layer(self, module, loaded):
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(symvar.__file__)))
        probe = f"import sys, {module}; print(sorted(m for m in sys.modules if m.startswith('symvar.')))"
        done = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout == f"{loaded}\n"


class TestLazyModules:
    """``symvar.cli`` registers ``equations``, ``poly`` and ``corr`` without
    running them, and imports ``selfcheck`` only in the subcommand that runs
    it.  The probes read ``type(sys.modules[name])``: any attribute access,
    ``isinstance`` included, would run the module."""

    LAZY = ["symvar.corr", "symvar.equations", "symvar.poly"]

    @staticmethod
    def probe(code, *args):
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(symvar.__file__)))
        done = subprocess.run([sys.executable, "-c", code, *args], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        return done.stdout

    @pytest.mark.parametrize("commands, ran, battery", [
        ([["type", "0^inf,1^3"], ["preceq", "4,4,4", "inf,inf,2,1"],
          ["min-excluded", "inf,2,1"], ["contains", "inf,inf", "Z", "inf,inf", "Z"],
          ["gamma", "inf,inf", "Z", "1,1"],
          ["member", "inf,inf", "0^inf,1^inf", "--variety", "Z", "--method", "direct"],
          ["member", "inf,1", "0^inf,1^1"], ["type", "1/0^inf"]],
         [], False),
        ([["equations", "inf,inf", "--variety", "Z"],
          ["member", "inf,inf", "0^inf,1^inf", "--variety", "Z", "--method", "both"]],
         ["symvar.equations", "symvar.poly"], False),
        ([["equations", "inf,inf", "--variety", "Z", "--reduce"]],
         ["symvar.equations", "symvar.poly"], False),
        ([["selfcheck", "--seed", "7"]],
         ["symvar.corr", "symvar.equations", "symvar.poly"], True),
    ], ids=["partitions-and-variety", "equations", "equations-reduce", "selfcheck"])
    def test_a_command_runs_only_what_it_reaches(self, variety_file, commands, ran, battery):
        # selfcheck is not registered: it is in sys.modules once run, and
        # not before
        code = f"""
import contextlib, io, json, sys, types
import symvar.cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        symvar.cli.main(argv)
print([n for n in {self.LAZY!r} if type(sys.modules[n]) is types.ModuleType],
      "symvar.selfcheck" in sys.modules)
"""
        commands = [[variety_file if a == "Z" else a for a in argv] for argv in commands]
        assert self.probe(code, json.dumps(commands)) == f"{ran} {battery}\n"

    def test_an_imported_module_is_reused(self):
        code = """
import sys, types
import symvar.equations
import symvar.cli
print(symvar.cli.equations is sys.modules["symvar.equations"],
      type(symvar.cli.equations) is types.ModuleType)
"""
        assert self.probe(code) == "True True\n"

    def test_registered_modules_are_bound_on_the_package(self):
        code = f"""
import sys, types
import symvar, symvar.cli
print(all(getattr(symvar, n.split(".")[1]) is sys.modules[n] for n in {self.LAZY!r}),
      any(type(sys.modules[n]) is types.ModuleType for n in {self.LAZY!r}))
"""
        assert self.probe(code) == "True False\n"


class TestClosedStdout:
    """A reader that stops early makes exit 2 with a quiet stderr."""

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    def test_reader_closes_after_one_line(self, tmp_path, unbuffered):
        # about 140 kB of generators, more than a pipe holds: the writer is
        # still writing when the reader closes its end
        path = tmp_path / "Z3.json"
        path.write_text(FILES["Z3.json"])
        env = dict(os.environ, PYTHONUNBUFFERED=unbuffered,
                   PYTHONPATH=os.path.dirname(os.path.dirname(symvar.__file__)))
        argv = ["equations", "inf,inf,2", "--variety", str(path)]
        child = subprocess.Popen([sys.executable, "-m", "symvar.cli", *argv], env=env,
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert child.stdout.readline().startswith(b"# ")
        child.stdout.close()
        err = child.stderr.read()
        child.stderr.close()
        assert child.wait(timeout=60) == 2
        assert err == b""


class TestSelfcheckJson:
    def test_suites_mirror_the_text_report(self, capsys):
        code, text, _ = run(capsys, "selfcheck", "--seed", "3")
        code_json, out, _ = run(capsys, "selfcheck", "--json", "--seed", "3")
        summary = json.loads(out)
        assert code == code_json == 0
        assert summary["seed"] == 3 and summary["ok"] is True
        lines = [f"{s['name']}: pass ({s['checks']} checks)" for s in summary["suites"]]
        lines.append(f"all suites passed ({summary['checks']} checks, seed 3)")
        assert text.splitlines() == lines
        assert all(s["failures"] == [] for s in summary["suites"])
