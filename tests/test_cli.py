"""Command-line surface: verdicts, exit codes, formats, determinism."""

import json

import pytest

from symvar.cli import main

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

    def test_finite_partition_is_data_error(self, capsys):
        code, _, err = run(capsys, "min-excluded", "3,1")
        assert code == 2 and "error" in err


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

    def test_points_not_a_list(self, capsys, tmp_path):
        path = self.write(tmp_path, '{"lambda": ["inf", "inf"], "points": 5}')
        self.assert_data_error(capsys, "equations", "inf,inf", "--variety", path)

    def test_top_level_array(self, capsys, tmp_path):
        path = self.write(tmp_path, "[1, 2]")
        self.assert_data_error(capsys, "equations", "inf,inf", "--variety", path)

    def test_zero_denominator_in_variety_file(self, capsys, tmp_path):
        path = self.write(tmp_path, '{"lambda": ["inf", "inf"], "points": [[0, "1/0"]]}')
        self.assert_data_error(capsys, "member", "inf,inf", "0^inf", "--variety", path)


class TestRoundTrips:
    def test_partition_round_trip_through_cli(self, capsys):
        code, out, _ = run(capsys, "type", "6^inf,7^inf,3^3,5^2")
        code2, out2, _ = run(capsys, "type", "3^3,5^2,6^inf,7^inf")
        assert out == out2
