"""Command-line surface: verdicts, exit codes, formats, determinism."""

import json
import subprocess
import sys

import pytest

from symvar import cli

from test_golden_cli import child_env, corpus_dir, run_cli, run_python  # noqa: F401 (a fixture)


@pytest.fixture(autouse=True)
def in_corpus_dir(corpus_dir, monkeypatch):
    """Each test runs inside a directory that holds the golden `FILES`, so
    a command names them as the corpus does."""
    monkeypatch.chdir(corpus_dir)


class TestType:
    def test_mixed_multiplicities(self):
        code, out, _ = run_cli("type", "3^3,5^2,6^inf,7^inf")
        assert code == 0 and out.strip() == "inf,inf,3,2"

    def test_json(self):
        code, out, _ = run_cli("type", "--json", "0^inf,1^3")
        assert code == 0 and json.loads(out) == {"type": "inf,3"}

    @pytest.mark.parametrize("argv, want", [
        (("type", "--", "-1^inf,2^1"), "inf,1"),
        (("member", "inf,1", "--", "-1^inf,2^1"), "true"),
    ])
    def test_negative_first_value_follows_double_dash(self, argv, want):
        code, out, _ = run_cli(*argv)
        assert code == 0 and out == want + "\n"

    def test_negative_first_value_without_double_dash_is_usage_error(self):
        code, out, err = run_cli("type", "-1^inf,2^1")
        assert code == 2 and out == "" and "usage:" in err

    def test_bad_literal(self):
        code, _, err = run_cli("type", "0^zero")
        assert code == 2 and "error" in err
        assert run_cli("type", "0inf,1^3") == (
            2, "", "error: bad point class '0inf' (expected value^mult)\n")


class TestPreceq:
    def test_false_verdict_exit_one(self):
        code, out, _ = run_cli("preceq", "4,4,4", "inf,inf,2,1")
        assert code == 1 and out.strip() == "false"

    def test_true_verdict(self):
        code, out, _ = run_cli("preceq", "2", "inf,1")
        assert code == 0 and out.strip() == "true"


class TestMinExcluded:
    def test_four_part_family(self):
        code, out, _ = run_cli("min-excluded", "inf,inf,2,1")
        assert code == 0
        assert out.splitlines() == ["1,1,1,1,1", "2,2,2,2", "3,3,3,1", "4,4,4"]

    @pytest.mark.parametrize("argv", [
        ("min-excluded", "3,1"),
        ("equations", "2,1"),
        *(("member", "--method", method, "2,1", "0^inf") for method in ("direct", "equations", "both")),
    ], ids=["min-excluded", "equations", "member-direct", "member-equations", "member-both"])
    def test_finite_partition_is_data_error(self, argv):
        code, out, err = run_cli(*argv)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


class TestEquations:
    def test_type_ideal(self):
        code, out, _ = run_cli("equations", "inf,1")
        assert code == 0
        assert "# provenance: excluded 1,1,1" in out
        assert "# provenance: excluded 2,2" in out

    def test_variety_ideal_contains_paper_displays(self):
        code, out, _ = run_cli("equations", "inf,inf", "--variety", "Z.json")
        assert code == 0
        assert "(x1^2 - x1)" in out
        assert "(x1 - x2)*(x2^2 - x2)" in out

    def test_reduce_flag(self):
        code, out, _ = run_cli("equations", "inf,inf", "--variety", "Z.json", "--reduce")
        assert code == 0
        full = run_cli("equations", "inf,inf", "--variety", "Z.json")[1]
        assert len(out.splitlines()) < len(full.splitlines())

    def test_mismatched_variety(self):
        code, _, err = run_cli("equations", "inf,1", "--variety", "Z.json")
        assert code == 2 and "does not match" in err


class TestMember:
    def test_cross_check_agreement(self):
        code, out, _ = run_cli(
            "member", "inf,inf", "0^inf,1^inf", "--variety", "Z.json",
            "--method", "both",
        )
        assert code == 0 and out.strip() == "true"

    def test_rejection(self):
        code, out, _ = run_cli(
            "member", "inf,inf", "0^inf,1^inf,2^1", "--variety", "Z.json",
            "--method", "both",
        )
        assert code == 1 and out.strip() == "false"
        assert run_cli("member", "inf,inf,1", "0^inf,4^inf,5^1", "--variety", "z1.json",
                       "--method", "both") == (1, "false\n", "")

    def test_type_locus_membership(self):
        code, out, _ = run_cli("member", "inf,2", "0^inf,1^2", "--method", "both")
        assert code == 0 and out.strip() == "true"
        code, out, _ = run_cli("member", "inf,2", "0^inf,1^3", "--method", "equations")
        assert code == 1 and out.strip() == "false"
        # 30 classes, in a child process given 20 s
        x30 = ",".join(["0^inf"] + [f"{i}^1" for i in range(1, 30)])
        assert run_python("-m", "symvar.cli", "member", "inf,1", x30, "--method", "both",
                          timeout=20) == (1, "false\n", "")

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
    def test_over_acceptance_note(self, tmp_path, lam, points, x, code, note):
        path = tmp_path / "z.json"
        parts = [p if p == "inf" else int(p) for p in lam.split(",")]
        path.write_text(json.dumps({"lambda": parts, "points": points}), encoding="utf-8")
        argv = ["member", lam, x, "--variety", str(path), "--method", "equations"]
        got, out, err = run_cli(*argv)
        assert (got, out) == (code, "true\n" if code == 0 else "false\n")
        assert (err.startswith("note: ") and "over-acceptance" in err
                and err.count("\n") == 1) if note else err == ""
        got, out, json_err = run_cli("member", "--json", *argv[1:])
        assert (got, json.loads(out), json_err) == (code, {"member": code == 0}, err)

    def test_no_note_without_variety(self):
        # the type locus alone is cut out exactly
        code, out, err = run_cli("member", "inf,2,1", "0^inf,1^2,2^1", "--method", "equations")
        assert (code, out, err) == (0, "true\n", "")


class TestContains:
    def test_both_directions(self):
        code, out, _ = run_cli("contains", "inf,1", "za.json", "inf,2", "zb.json")
        assert code == 0 and out.strip() == "true"
        code, out, _ = run_cli("contains", "inf,2", "zb.json", "inf,1", "za.json")
        assert code == 1 and out.strip() == "false"

    def test_empty_first_set_gets_the_input_checks(self):
        code, out, err = run_cli("contains", "inf,1", "ze.json", "2,1", "zfin.json")
        assert (code, out) == (2, "")
        assert err == "error: the ambient composition must have an infinite part\n"
        code, out, _ = run_cli("contains", "inf,1", "ze.json", "inf,1", "za.json")
        assert code == 0 and out.strip() == "true"


class TestGamma:
    def test_known_slices(self):
        code, out, _ = run_cli("gamma", "inf,inf", "Z.json", "1,1")
        assert code == 0
        assert out.splitlines() == ["0,0", "0,1", "1,0", "1,1"]
        code, out, _ = run_cli("gamma", "inf,inf", "Z.json", "1")
        assert out.splitlines() == ["0", "1"]
        # "2/2" is the integer 1, and the points print sorted by value
        assert run_cli("gamma", "inf,inf", "zq5.json", "1,1") == (
            0, "0,0\n0,1\n1/2,1/2\n1/2,3\n1,0\n1,1\n3,1/2\n3,3\n", "")

    def test_json_mirror(self):
        code, out, _ = run_cli("gamma", "--json", "inf,inf", "Z.json", "1")
        assert code == 0
        assert json.loads(out) == {"points": [["0"], ["1"]]}


class TestDeterminism:
    # the lazily run equation route and the invariant battery, in dev mode
    # with every warning an error
    DEV_MODE = [
        ["selfcheck", "--seed", "7"],
        ["equations", "inf,inf,1", "--variety", "z1.json"],
        ["member", "inf,inf,1", "0^inf,1^inf,2^1", "--variety", "z1.json", "--method", "both"],
        ["equations", "inf,inf,inf,1", "--variety", "zq4.json", "--reduce"],
    ]

    def test_byte_identical_repeats(self):
        first = run_cli("equations", "inf,inf", "--variety", "Z.json")
        second = run_cli("equations", "inf,inf", "--variety", "Z.json")
        assert first == second
        # a dev-mode child process exits, prints and notes as in process
        for argv in self.DEV_MODE:
            in_process = run_cli(*argv)
            assert in_process[0] == 0, argv
            dev_mode = {"PYTHONDEVMODE": "1", "PYTHONWARNINGS": "error"}
            assert run_python("-m", "symvar.cli", *argv, env=dev_mode) == in_process, argv

    def test_unknown_command_is_usage_error(self):
        assert run_cli("no-such-command")[0] == 2

    def test_unknown_flag_is_usage_error(self):
        assert run_cli("type", "--bogus", "0^inf")[0] == 2


class TestMalformedInput:
    """Inputs that once crashed with a traceback: each is a data error."""

    def assert_data_error(self, *argv):
        code, out, err = run_cli(*argv)
        assert code == 2 and out == ""
        assert "Traceback" not in err
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    def write(self, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_zero_denominator_in_point_literal(self):
        self.assert_data_error("type", "1/0^inf")

    @pytest.mark.parametrize("literal, bad", [
        ("^", "''"),
        ("1e3^inf", "'1e3'"),
        ("0^inf,1/2/3^1", "'1/2/3'"),
        # digits beyond ASCII and int()'s underscores are not rationals
        ("٣^inf,1_0^2", "'٣'"),
        ("٣^inf,1^2", "'٣'"),
        ("0^inf,1_0^2", "'1_0'"),
        ("0^inf,1/٢^1", "'1/٢'"),
    ])
    def test_bad_rational_in_point_literal(self, literal, bad):
        code, out, err = run_cli("type", literal)
        assert (code, out) == (2, "")
        assert err == f"error: bad rational {bad} (expected an integer or p/q)\n"

    def test_zero_multiplicity_in_point_literal(self):
        code, out, err = run_cli("type", "0^inf,1^0")
        assert (code, out, err) == (2, "", "error: weight must be positive, got 0\n")

    def test_points_not_a_list(self, tmp_path):
        path = self.write(tmp_path, '{"lambda": ["inf", "inf"], "points": 5}')
        self.assert_data_error("equations", "inf,inf", "--variety", path)
        # nor is each point
        path = self.write(tmp_path, '{"lambda": ["inf", "inf"], "points": [5]}')
        self.assert_data_error("gamma", "inf,inf", path, "1")

    @pytest.mark.parametrize("text, key", [
        ('{"points": [[0, 1]]}', "lambda"),
        ('{"lambda": ["inf", "inf"]}', "points"),
    ])
    def test_missing_key_in_variety_file(self, tmp_path, text, key):
        path = self.write(tmp_path, text)
        code, out, err = run_cli("equations", "inf,inf", "--variety", path)
        assert (code, out) == (2, "")
        assert err == f"error: cannot read variety file {path}: missing key '{key}'\n"

    def test_empty_lambda_in_variety_file(self, tmp_path):
        # once read as an ambient with no coordinates, named by an empty string
        path = self.write(tmp_path, '{"lambda": [], "points": []}')
        code, out, err = run_cli("equations", "inf", "--variety", path)
        assert (code, out) == (2, "")
        assert "Traceback" not in err
        assert err == f"error: cannot read variety file {path}: lambda must be a non-empty list\n"

    @pytest.mark.parametrize("token", ["²", "٣"])
    def test_non_ascii_digit_weight(self, token):
        code, out, err = run_cli("preceq", token, "inf,inf")
        assert (code, out) == (2, "")
        assert err == f"error: bad weight token {token!r} (expected a natural number or 'inf')\n"

    def test_top_level_array(self, tmp_path):
        path = self.write(tmp_path, "[1, 2]")
        self.assert_data_error("equations", "inf,inf", "--variety", path)

    def test_zero_denominator_in_variety_file(self, tmp_path):
        path = self.write(tmp_path, '{"lambda": ["inf", "inf"], "points": [[0, "1/0"]]}')
        self.assert_data_error("member", "inf,inf", "0^inf", "--variety", path)

    def test_deep_preceq_is_answered(self):
        # one tail part is answered without a search: all 1200 ones cover it
        assert run_cli("preceq", "1200", ",".join(["1"] * 1200)) == (0, "true\n", "")
        # false, and the witness fails, so the search runs; it keeps its
        # states on an explicit stack and counts equal parts, so 1,200 tail
        # parts neither pass the recursion limit nor explode
        for mu, lam in ((["3", "3"], ["2", "2", "2"]), (["6", "6"], ["5", "3", "2", "2"])):
            assert run_cli("preceq", ",".join(mu + ["1"] * 1200),
                           ",".join(lam + ["1"] * 1200)) == (1, "false\n", "")

    def test_deep_min_excluded_is_refused(self):
        self.assert_data_error("min-excluded", "inf," + ",".join(["1"] * 1200))

    def test_deep_equations_are_refused(self, tmp_path):
        # the capped shapes of 1,200 finite parts nest one recursion level
        # per part; only the exit and the one-line shape are pinned
        path = self.write(tmp_path, json.dumps({"lambda": ["inf"] + [1] * 1200,
                                                "points": [list(range(1201))]}))
        self.assert_data_error("equations", "inf," + ",".join(["1"] * 1200),
                               "--variety", path)

    def test_deeply_nested_variety_file(self, tmp_path):
        path = self.write(tmp_path, "[" * 200000)
        self.assert_data_error("equations", "inf,inf", "--variety", path)


class TestRoundTrips:
    def test_partition_round_trip_through_cli(self):
        code, out, _ = run_cli("type", "6^inf,7^inf,3^3,5^2")
        code2, out2, _ = run_cli("type", "3^3,5^2,6^inf,7^inf")
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
        ("theta_member", ["member", "inf,inf", "0^inf,1^inf", "--variety", "Z.json"]),
        ("contains", ["contains", "inf,inf", "Z.json", "inf,inf", "Z.json"]),
        ("gamma_at", ["gamma", "inf,inf", "Z.json", "1"]),
        ("selfcheck.run_all", ["selfcheck"]),
    ])
    def test_value_error_exits_two(self, monkeypatch, target, argv):
        if "." in target:
            monkeypatch.setattr(f"symvar.{target}", self.boom)
        else:
            monkeypatch.setattr(cli, target, self.boom)
        assert run_cli(*argv) == (2, "", "error: boom\n")

    @pytest.mark.parametrize("exc, line", [
        (RuntimeError("boom"), "RuntimeError: boom"),
        (KeyError("boom"), "KeyError: 'boom'"),
        (AssertionError("boom"), "AssertionError: boom"),
    ], ids=["RuntimeError", "KeyError", "AssertionError"])
    def test_internal_error_exits_four(self, monkeypatch, exc, line):
        # any other exception is a defect: one line, no traceback, and not
        # exit 1, which reads as "false"
        def crash(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "preceq", crash)
        assert run_cli("preceq", "2", "inf,1") == (4, "", f"internal error: {line}\n")

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
        probe = f"import sys, {module}; print(sorted(m for m in sys.modules if m.startswith('symvar.')))"
        assert run_python("-c", probe) == (0, f"{loaded}\n", "")


class TestLazyModules:
    """``symvar.cli`` registers ``equations``, ``poly`` and ``corr`` without
    running them, and imports ``selfcheck`` only in the subcommand that runs
    it.  The probes read ``type(sys.modules[name])``: any attribute access,
    ``isinstance`` included, would run the module."""

    LAZY = ["symvar.corr", "symvar.equations", "symvar.poly"]

    @pytest.mark.parametrize("commands, ran, battery", [
        ([["type", "0^inf,1^3"], ["preceq", "4,4,4", "inf,inf,2,1"],
          ["min-excluded", "inf,2,1"], ["contains", "inf,inf", "Z.json", "inf,inf", "Z.json"],
          ["gamma", "inf,inf", "Z.json", "1,1"],
          ["member", "inf,inf", "0^inf,1^inf", "--variety", "Z.json", "--method", "direct"],
          ["member", "inf,1", "0^inf,1^1"], ["type", "1/0^inf"]],
         [], False),
        ([["equations", "inf,inf", "--variety", "Z.json"],
          ["member", "inf,inf", "0^inf,1^inf", "--variety", "Z.json", "--method", "both"]],
         ["symvar.equations", "symvar.poly"], False),
        ([["equations", "inf,inf", "--variety", "Z.json", "--reduce"]],
         ["symvar.equations", "symvar.poly"], False),
        ([["selfcheck", "--seed", "7"]],
         ["symvar.corr", "symvar.equations", "symvar.poly"], True),
    ], ids=["partitions-and-variety", "equations", "equations-reduce", "selfcheck"])
    def test_a_command_runs_only_what_it_reaches(self, commands, ran, battery):
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
        assert run_python("-c", code, json.dumps(commands)) == (0, f"{ran} {battery}\n", "")

    def test_an_imported_module_is_reused(self):
        code = """
import sys, types
import symvar.equations
import symvar.cli
print(symvar.cli.equations is sys.modules["symvar.equations"],
      type(symvar.cli.equations) is types.ModuleType)
"""
        assert run_python("-c", code) == (0, "True True\n", "")

    def test_registered_modules_are_bound_on_the_package(self):
        code = f"""
import sys, types
import symvar, symvar.cli
print(all(getattr(symvar, n.split(".")[1]) is sys.modules[n] for n in {self.LAZY!r}),
      any(type(sys.modules[n]) is types.ModuleType for n in {self.LAZY!r}))
"""
        assert run_python("-c", code) == (0, "True False\n", "")


class TestClosedStdout:
    """A reader that stops early makes exit 2 with a quiet stderr."""

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    def test_reader_closes_after_one_line(self, unbuffered):
        # about 140 kB of generators, more than a pipe holds: the writer is
        # still writing when the reader closes its end
        argv = ["equations", "inf,inf,2", "--variety", "Z3.json"]
        child = subprocess.Popen([sys.executable, "-m", "symvar.cli", *argv],
                                 env=child_env(PYTHONUNBUFFERED=unbuffered),
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert child.stdout.readline().startswith(b"# ")
        child.stdout.close()
        err = child.stderr.read()
        child.stderr.close()
        assert child.wait(timeout=60) == 2
        assert err == b""


class TestSelfcheckJson:
    def test_suites_mirror_the_text_report(self):
        code, text, _ = run_cli("selfcheck", "--seed", "3")
        code_json, out, _ = run_cli("selfcheck", "--json", "--seed", "3")
        summary = json.loads(out)
        assert code == code_json == 0
        assert summary["seed"] == 3 and summary["ok"] is True
        lines = [f"{s['name']}: pass ({s['checks']} checks)" for s in summary["suites"]]
        lines.append(f"all suites passed ({summary['checks']} checks, seed 3)")
        assert text.splitlines() == lines
        assert all(s["failures"] == [] for s in summary["suites"])
