import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import momenta
from momenta import campaign, cli, linalg, maps, moments

from conftest import EXAMPLE_3X3, ReflectedTrace, random_psd

PAPERLIKE_CSV = ("3,-4.242640687,-9\n"
                 "-4.242640687,-6,-4.242640687\n"
                 "-9,-4.242640687,3\n")


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


@pytest.fixture
def not_positive(tmp_path, monkeypatch):
    """A 3x3 matrix file, and every map the CLI builds the negative control
    :class:`ReflectedTrace`, which is unital but not positive."""
    monkeypatch.setattr(cli, "build_map",
                        lambda spec, n, seed: ReflectedTrace(n))
    return write(tmp_path, "a.json",
                 cli.write_matrix_json(linalg.random_hermitian(3, 1)))


#: Sizes that int() used to truncate or coerce into a 1x1 matrix.
NON_INTEGER_SIZES = [
    '{"rows":1.5,"cols":1.5,"entries":[[2,0]]}',
    '{"rows":"1","cols":true,"entries":[["2",0]]}',
]


class TestParseMatrix:
    def test_identity_json(self, tmp_path):
        path = write(tmp_path, "eye.json",
                     '{"rows":2,"cols":2,"entries":[[1,0],[0,0],[0,0],[1,0]]}')
        np.testing.assert_array_equal(cli.parse_matrix(path), np.eye(2))

    def test_example_csv_with_truncated_decimals(self, tmp_path):
        path = write(tmp_path, "m.csv", PAPERLIKE_CSV)
        m = cli.parse_matrix(path)
        assert np.linalg.norm(m - EXAMPLE_3X3) <= 1e-8 * np.linalg.norm(EXAMPLE_3X3)

    def test_non_square_csv(self, tmp_path):
        path = write(tmp_path, "bad.csv", "1,2,3\n4,5,6\n")
        with pytest.raises(ValueError, match="not square"):
            cli.parse_matrix(path)

    def test_ragged_csv(self, tmp_path):
        path = write(tmp_path, "bad.csv", "1,2\n3\n")
        with pytest.raises(ValueError, match="columns"):
            cli.parse_matrix(path)

    def test_malformed_json(self, tmp_path):
        path = write(tmp_path, "bad.json", "{not json")
        with pytest.raises(ValueError, match="malformed"):
            cli.parse_matrix(path)

    def test_wrong_entry_count(self, tmp_path):
        path = write(tmp_path, "bad.json",
                     '{"rows":2,"cols":2,"entries":[[1,0]]}')
        with pytest.raises(ValueError, match="entries"):
            cli.parse_matrix(path)

    @pytest.mark.parametrize("text", [
        '{"rows":1,"cols":1,"entries":[[null,0]]}',
        '{"rows":1,"cols":1,"entries":[[{},0]]}',
        '{"rows":1,"cols":1,"entries":5}',
        '{"rows":1,"cols":1,"entries":[[1,0,0]]}',
        '{"rows":2,"cols":2,"entries":[[1,0],[0],[0,0],[1,0]]}',
        '{"rows":-1,"cols":-1,"entries":[[1,0]]}',
        '{"rows":0,"cols":0,"entries":[]}',
    ] + NON_INTEGER_SIZES)
    def test_malformed_entries_are_value_errors(self, tmp_path, text):
        path = write(tmp_path, "bad.json", text)
        with pytest.raises(ValueError, match="bad.json"):
            cli.parse_matrix(path)

    @pytest.mark.parametrize("text", NON_INTEGER_SIZES)
    @pytest.mark.parametrize("command", ["bounds", "verify", "moments"])
    def test_non_integer_sizes_exit_1(self, tmp_path, capsys, command, text):
        path = write(tmp_path, "bad.json", text)
        assert cli.main([command, path]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "bad.json" in err[0]

    def test_complex_json(self, tmp_path):
        path = write(tmp_path, "c.json",
                     '{"rows":2,"cols":2,"entries":[[0,0],[0,1],[0,-1],[0,0]]}')
        m = cli.parse_matrix(path)
        np.testing.assert_array_equal(m, np.array([[0, 1j], [-1j, 0]]))


#: Malformed matrix files and their exact error messages, ``{}`` the path.
MALFORMED = {
    "": "{}: empty matrix file",
    " \n\t\n": "{}: empty matrix file",
    "1,x\n2,3\n": "{}: row 1 has a non-numeric cell",
    "1,2\n\n2,\n": "{}: row 2 has a non-numeric cell",
    "1_0,2\n2,3\n": "{}: row 1 has a non-numeric cell",
    "\uff11,0\n0,1\n": "{}: row 1 has a non-numeric cell",
    "1,2\n2, 3_0\n": "{}: row 2 has a non-numeric cell",
    "1,2\n3\n": "{}: row 2 has 1 columns, row 1 has 2",
    "1,2,3\n4,5,6\n": "{}: matrix is not square (2 rows x 3 columns)",
    "1,inf\ninf,1\n": "{}: matrix contains non-finite entries",
    '{"rows":1}': "{}: expected keys rows, cols, entries",
    '{"rows":1.5,"cols":1.5,"entries":[[2,0]]}':
        "{}: rows and cols must be JSON integers",
    '{"rows":0,"cols":0,"entries":[]}':
        "{}: rows and cols must be at least 1",
    '{"rows":2,"cols":3,"entries":[]}': "{}: matrix is not square (2x3)",
    '{"rows":1,"cols":1,"entries":[[{},0]]}':
        "{}: entries must be [re, im] number pairs",
    '{"rows":1,"cols":1,"entries":[[null,0]]}':
        "{}: entries must be [re, im] number pairs",
    '{"rows":2,"cols":2,"entries":[[1,0]]}':
        "{}: expected 4 [re, im] entries, found an array of shape (1, 2)",
    '{"rows":1,"cols":1,"entries":[[1e999,0]]}':
        "{}: matrix contains non-finite entries",
}


class TestIngest:
    @pytest.mark.parametrize("text", MALFORMED)
    def test_malformed_file_message(self, tmp_path, text):
        path = write(tmp_path, "bad.txt", text)
        with pytest.raises(ValueError) as caught:
            cli.parse_matrix(path)
        assert str(caught.value) == MALFORMED[text].format(path)

    def test_malformed_json_message(self, tmp_path):
        path = write(tmp_path, "bad.json", "{not json")
        with pytest.raises(ValueError) as caught:
            cli.parse_matrix(path)
        with pytest.raises(json.JSONDecodeError) as reason:
            json.loads("{not json")
        assert str(caught.value) == f"{path}: malformed JSON ({reason.value})"

    def test_bounds_rejects_an_underscore_in_a_cell(self, tmp_path, capsys):
        # float() reads 1_0 as 10
        path = write(tmp_path, "m.csv", "2,1_0\n1_0,3\n")
        assert cli.main(["bounds", path]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: row 1 has a non-numeric cell\n")

    @pytest.mark.parametrize("text", [
        '{"rows":2,"cols":2,"entries":[[2,0],["1.5",0],["1.5",0],[3,0]]}',
        '{"rows":2,"cols":2,"entries":[[2,0],["1_0",0],["1_0",0],[3,0]]}',
        '{"rows":2,"cols":2,"entries":[[true,0],[0,0],[0,0],[1,0]]}',
        '{"rows":2,"cols":2,"entries":[[1,0],[0,false],[0,0],[1,0]]}',
        '{"rows":2,"cols":2,"entries":[[1,0],[0,0],[0,0],[null,0]]}',
    ], ids=["string", "underscore-string", "true", "false", "null"])
    @pytest.mark.parametrize("command", ["bounds", "verify", "moments"])
    def test_an_entry_that_is_not_a_json_number_exits_1(self, tmp_path,
                                                        capsys, command,
                                                        text):
        # float() reads "1.5", "1_0" as 10 and true as 1, numpy null as nan
        path = write(tmp_path, "m.json", text)
        assert cli.main([command, path]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: entries must be [re, im] number pairs\n")

    def test_csv_is_one_float_per_cell(self, tmp_path):
        # a byte order mark, blank lines, CRLF line ends and padded cells
        rng = np.random.default_rng(5)
        cells = [[format(x, ".17g") for x in row]
                 for row in rng.standard_normal((4, 4)) * 1e3]
        pads = [" ", "\t", "  \t ", ""]
        lines = [",".join(pads[(i + j) % 4] + c + pads[(i * j) % 4]
                          for j, c in enumerate(row))
                 for i, row in enumerate(cells)]
        text = "\r\n\r\n".join(lines[:2]) + "\n \n" + "\r\n".join(lines[2:])
        path = tmp_path / "m.csv"
        path.write_bytes(b"\xef\xbb\xbf" + (text + "\r\n").encode())
        expected = np.array([[float(c) for c in row] for row in cells],
                            dtype=np.complex128)
        got = cli.parse_matrix(str(path))
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()


class TestByteOrderMark:
    """A UTF-8 byte order mark, which some editors write, is not content."""

    FILES = {"m.json": cli.write_matrix_json(EXAMPLE_3X3),
             "m.csv": cli.write_matrix_csv(EXAMPLE_3X3)}

    def bom_file(self, tmp_path, name):
        path = tmp_path / f"bom-{name}"
        path.write_bytes(b"\xef\xbb\xbf" + self.FILES[name].encode("utf-8"))
        return str(path)

    @pytest.mark.parametrize("name", sorted(FILES))
    def test_parses_as_the_plain_file(self, tmp_path, name):
        plain = cli.parse_matrix(write(tmp_path, name, self.FILES[name]))
        with_bom = cli.parse_matrix(self.bom_file(tmp_path, name))
        assert with_bom.dtype == plain.dtype
        assert with_bom.tobytes() == plain.tobytes()

    @pytest.mark.parametrize("command", ["bounds", "verify"])
    @pytest.mark.parametrize("name", sorted(FILES))
    def test_commands_exit_0(self, tmp_path, capsys, command, name):
        assert cli.main([command, self.bom_file(tmp_path, name)]) == 0
        assert capsys.readouterr().err == ""


class TestRoundTrip:
    def test_json_round_trip_is_value_exact(self):
        m = linalg.random_hermitian(4, seed=3)
        text = cli.write_matrix_json(m)
        back = cli._matrix_from_json(text, "mem")
        assert np.array_equal(m, back)

    def test_json_round_trip_is_byte_exact(self):
        m = linalg.random_hermitian(3, seed=5)
        text = cli.write_matrix_json(m)
        again = cli.write_matrix_json(cli._matrix_from_json(text, "mem"))
        assert text == again

    def test_csv_round_trip_is_byte_exact(self, tmp_path):
        m = (EXAMPLE_3X3 / 7.0).real.astype(complex)
        text = cli.write_matrix_csv(m)
        path = write(tmp_path, "m.csv", text)
        again = cli.write_matrix_csv(cli.parse_matrix(path))
        assert text == again

    def test_csv_rejects_complex(self):
        with pytest.raises(ValueError):
            cli.write_matrix_csv(np.array([[1j]]))


class TestBoundsCommand:
    def test_example_matrix(self, tmp_path, capsys):
        path = write(tmp_path, "m.csv", cli.write_matrix_csv(EXAMPLE_3X3))
        assert cli.main(["bounds", path]) == 0
        out = capsys.readouterr().out
        assert "lambda_min <= -12" in out
        assert "lambda_max >= 12" in out
        assert "-6.92820323" in out and "6.92820323" in out

    def test_identity_is_degenerate(self, tmp_path, capsys):
        path = write(tmp_path, "eye.json",
                     cli.write_matrix_json(np.eye(3, dtype=complex)))
        assert cli.main(["bounds", path]) == 0
        out = capsys.readouterr().out
        assert "degenerate" in out
        assert "lambda_min <= 1" in out and "lambda_max >= 1" in out

    def test_three_atom_json(self, tmp_path, capsys):
        path = write(tmp_path, "d.json",
                     cli.write_matrix_json(np.diag([1.0, 2.0, 4.0]).astype(complex)))
        assert cli.main(["bounds", path]) == 0
        out = capsys.readouterr().out
        assert "lambda_min <= 1\n" in out
        assert "lambda_max >= 4\n" in out

    def test_three_atom_n256_is_exact(self, tmp_path, capsys):
        atoms = [-2.0, 0.5, 3.0]
        a = linalg.hermitian_with_spectrum(np.repeat(atoms, [128, 64, 64]), 7)
        path = write(tmp_path, "a.json", cli.write_matrix_json(a))
        out = str(tmp_path / "r.json")
        assert cli.main(["bounds", path, "--out", out]) == 0
        capsys.readouterr()
        values = {r["check"]: r["margin"]
                  for r in json.loads(open(out).read())["records"]}
        rho = max(abs(x) for x in atoms)
        assert abs(values["lambda_min_upper"] - atoms[0]) <= 1e-6 * rho
        assert abs(values["lambda_max_lower"] - atoms[-1]) <= 1e-6 * rho

    def test_overflow_exits_1_without_non_finite_output(self, tmp_path, capsys):
        # gamma, of degree 6 in A, is about 1e1200 here: scaled back from
        # the working scale it leaves double range, which is the one
        # overflow line, not a bare "math range error"
        m = np.diag([1e200, -1e200, 3.0]).astype(complex)
        path = write(tmp_path, "big.json", cli.write_matrix_json(m))
        assert cli.main(["bounds", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: Gauss rule bounds overflow double "
                                "precision; rescale the matrix\n")

    def test_requires_functional_map(self, tmp_path, capsys):
        path = write(tmp_path, "m.csv", cli.write_matrix_csv(EXAMPLE_3X3))
        assert cli.main(["bounds", path, "--map", "identity"]) == 1

    def test_a_functional_is_any_map_with_a_1x1_codomain(self, tmp_path,
                                                         capsys):
        path = write(tmp_path, "m.csv", cli.write_matrix_csv(EXAMPLE_3X3))
        assert cli.main(["bounds", path, "--map", "compression:2"]) == 1
        assert capsys.readouterr().err == (
            "error: bounds needs a functional map, with a 1x1 codomain "
            "(trace, vector-state or compression:1), got 'compression:2'\n")
        assert cli.main(["bounds", path, "--map", "compression:1"]) == 0
        assert "lambda_min <= " in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert cli.main(["bounds", "/nonexistent/m.csv"]) == 1


class TestMomentsCommand:
    def test_example_moment_row(self, tmp_path, capsys):
        path = write(tmp_path, "m.csv", cli.write_matrix_csv(EXAMPLE_3X3))
        assert cli.main(["moments", path, "--r-max", "2"]) == 0
        out = capsys.readouterr().out
        assert "Phi(A^2) = 96" in out
        assert "Phi(A^4) = 13824" in out
        assert out.count("PASS") == 3

    @pytest.mark.parametrize("c", [1e-150, 1.0, 1e30])
    def test_each_power_is_scaled_back_by_its_degree(self, tmp_path, capsys,
                                                     c):
        # the table is of the file at working scale, 2^-e A, and each
        # Phi(A^k) is printed as 2^(k e) times that table's, exactly
        a = c * linalg.random_hermitian(5, 2)
        path = write(tmp_path, "a.json", cli.write_matrix_json(a))
        assert cli.main(["moments", path]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("Phi")]
        b, e = linalg.binary_scaled(a)
        table = moments.moment_table(maps.NormalizedTrace(5), b, 0, 7)
        assert lines == [f"Phi(A^{k}) = "
                         f"{math.ldexp(table.power(k)[0, 0].real, k * e):.12g}"
                         for k in range(8)]

    def test_identity_all_pass(self, tmp_path, capsys):
        path = write(tmp_path, "eye.json",
                     cli.write_matrix_json(np.eye(2, dtype=complex)))
        assert cli.main(["moments", path, "--map", "identity"]) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_inverse_moments(self, tmp_path, capsys):
        path = write(tmp_path, "d.json",
                     cli.write_matrix_json(np.diag([1.0, 2.0]).astype(complex)))
        assert cli.main(["moments", path, "--k-min", "-1", "--r-max", "1"]) == 0
        out = capsys.readouterr().out
        assert "Phi(A^-1) = 0.75" in out

    def test_inverse_moments_rejected_for_indefinite(self, tmp_path):
        path = write(tmp_path, "m.csv", cli.write_matrix_csv(EXAMPLE_3X3))
        assert cli.main(["moments", path, "--k-min", "-1"]) == 1

    def test_a_map_that_is_not_positive_fails(self, not_positive, capsys):
        assert cli.main(["moments", not_positive]) == 1
        lines = capsys.readouterr().out.splitlines()
        status = [line.split(" (")[0] for line in lines
                  if line.startswith("hankel r=")]
        assert status == ["hankel r=0: PASS", "hankel r=1: FAIL",
                          "hankel r=2: FAIL", "hankel r=3: FAIL"]


#: Matrices for the scale tests of ``verify``.
SCALED_INPUTS = {
    "spectrum4": linalg.hermitian_with_spectrum([-1.0, 0.2, 0.9, 1.3], 3),
    "hermitian8": linalg.random_hermitian(8, 1),
    "pd8": random_psd(8, 2) + np.eye(8),
}


class TestVerifyCommand:
    def test_file_mode_example(self, tmp_path, capsys):
        path = write(tmp_path, "m.csv", cli.write_matrix_csv(EXAMPLE_3X3))
        assert cli.main(["verify", path, "--r-max", "2"]) == 0
        out = capsys.readouterr().out
        assert "checks" in out and "worst margin" in out

    def test_large_random_hermitian_passes(self, tmp_path, capsys):
        # moments of this input reach ~1e8; the oracle identities must judge
        # their rounding error against that scale (n = 128 is covered by
        # test_campaign.test_oracle_identities_pass_at_n128)
        path = write(tmp_path, "a.json",
                     cli.write_matrix_json(linalg.random_hermitian(64, 1)))
        assert cli.main(["verify", path, "--map", "trace"]) == 0
        assert "FAILED" not in capsys.readouterr().out

    @pytest.mark.parametrize("spec", ["trace", "vector-state",
                                      "compression:2", "pinching",
                                      "identity"])
    @pytest.mark.parametrize("name", SCALED_INPUTS)
    def test_verdicts_hold_where_block_norms_overflow(self, tmp_path, capsys,
                                                      name, spec):
        # the file is scaled by a power of two at ingest, so no block of
        # it comes near the range of double precision
        a = SCALED_INPUTS[name]

        def verdicts(c):
            path = write(tmp_path, "a.json", cli.write_matrix_json(c * a))
            out = tmp_path / "r.json"
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert cli.main(["verify", path, "--map", spec, "--seed", "3",
                                 "--out", str(out)]) == 0
            return [(r["check"], r["passed"])
                    for r in json.loads(out.read_text())["records"]]

        expected = verdicts(1.0)
        assert verdicts(1e20) == expected
        assert verdicts(1e35) == expected
        capsys.readouterr()

    def test_random_mode_close_eigenvalue_pair_passes(self, tmp_path, capsys):
        # instance 1 of this program seed has two eigenvalues 2e-3 apart,
        # where a root taken from the cubic's moment coefficients is ~7e-8 off
        assert cli.main(["verify", "--random", "--instances", "6", "--seed",
                         "951503465", "--out", str(tmp_path / "r.json")]) == 0
        assert "FAILED" not in capsys.readouterr().out

    def test_random_mode_passes_and_is_deterministic(self, tmp_path, capsys):
        out1 = str(tmp_path / "r1.json")
        out2 = str(tmp_path / "r2.json")
        args = ["verify", "--random", "--instances", "8", "--seed", "42",
                "--n-range", "2:6"]
        assert cli.main(args + ["--out", out1]) == 0
        assert cli.main(args + ["--out", out2]) == 0
        capsys.readouterr()
        b1 = open(out1, "rb").read()
        assert b1 == open(out2, "rb").read()
        report = json.loads(b1)
        assert set(report) == {"config", "records", "summary"}
        assert report["summary"]["total"] == len(report["records"])
        rec = report["records"][0]
        assert set(rec) == {"check", "citation", "passed", "margin", "seed"}

    @pytest.mark.parametrize("argv", [
        ["--map", "trace"], ["--map", "pinching"], ["--map", "compression:3"],
        ["--random", "--instances", "12"],
    ])
    def test_eigensolve_memo_cannot_change_a_report(self, tmp_path, capsys,
                                                    monkeypatch, argv):
        if "--random" not in argv:
            argv = [write(tmp_path, "a.json", cli.write_matrix_json(
                linalg.random_hermitian(8, 5))), *argv]

        def report(name):
            out = str(tmp_path / name)
            assert cli.main(["verify", *argv, "--seed", "3",
                             "--out", out]) == 0
            capsys.readouterr()
            return open(out, "rb").read()

        memo = report("memo.json")
        solve = linalg._eigh

        def fresh(shape, data):
            solve.cache_clear()
            return solve(shape, data)

        monkeypatch.setattr(linalg, "_eigh", fresh)
        assert report("fresh.json") == memo

    def test_report_records_sorted(self, tmp_path, capsys):
        out = str(tmp_path / "r.json")
        assert cli.main(["verify", "--random", "--instances", "6",
                         "--seed", "1", "--out", out]) == 0
        capsys.readouterr()
        report = json.loads(open(out).read())
        keys = [(r["check"], r["seed"]) for r in report["records"]]
        assert keys == sorted(keys)

    def test_non_hermitian_file_skips(self, tmp_path, capsys):
        # normal but not Hermitian: only the normal-matrix family applies
        m = np.diag([1j, -1j]).astype(complex)
        path = write(tmp_path, "n.json", cli.write_matrix_json(m))
        assert cli.main(["verify", path]) == 0
        out = capsys.readouterr().out
        assert "skipped" in out

    def test_verify_needs_input(self, capsys):
        assert cli.main(["verify"]) == 1

    def test_a_map_that_is_not_positive_fails(self, not_positive, tmp_path,
                                              capsys):
        out = str(tmp_path / "r.json")
        assert cli.main(["verify", not_positive, "--out", out]) == 1
        failed = [line.split(":")[0]
                  for line in capsys.readouterr().out.splitlines()
                  if "  FAILED (worst margin -" in line]
        assert len(failed) == 10
        assert {"psd_hankel", "kadison", "normal_block"} <= set(failed)
        report = json.loads(open(out).read())
        margins = [r["margin"] for r in report["records"]
                   if r["passed"] is False]
        summary = report["summary"]
        assert len(margins) > len(failed)  # two failing gap_product blocks
        assert (summary["total"] - summary["passed"] - summary["skipped"]
                == len(margins))
        assert summary["worst_margin"] == min(margins) < 0.0


#: Margins that need care in JSON: NaN, the infinities, a signed zero and
#: subnormals, besides any other float.
MARGINS = st.one_of(
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 0.0,
                     5e-324, -2.5e-310]),
    st.floats(allow_nan=True, allow_infinity=True))

CHECK_RECORDS = st.builds(
    moments.CheckRecord, check=st.text(max_size=12), citation=st.text(),
    passed=st.sampled_from([True, False, None]), margin=MARGINS,
    seed=st.integers(0, 2**31))


class TestReportToJson:
    @settings(max_examples=150, deadline=None)
    @given(records=st.lists(CHECK_RECORDS, max_size=8),
           source=st.text(), seed=st.integers(0, 2**31))
    def test_bytes_equal_json_dumps(self, records, source, seed):
        report = cli.make_report(cli.RunConfig(seed=seed), source, records)
        assert (cli.report_to_json(report)
                == json.dumps(report, indent=2, sort_keys=True) + "\n")

    @pytest.mark.parametrize("source", ["m.json", "matrices/\u00e9t\u00e9 \u2211.json"])
    def test_empty_report_and_non_ascii_path(self, source):
        report = cli.make_report(cli.RunConfig(), source, [])
        text = cli.report_to_json(report)
        assert text == json.dumps(report, indent=2, sort_keys=True) + "\n"
        assert '"records": [],' in text and text.isascii()

    def test_campaign_report(self):
        records = campaign.run_campaign(count=6, seed=5)
        report = cli.make_report(cli.RunConfig(instances=6, seed=5), "random",
                                 records)
        assert (cli.report_to_json(report)
                == json.dumps(report, indent=2, sort_keys=True) + "\n")


def test_the_seed_comes_from_the_flag_alone(tmp_path, capsys, monkeypatch):
    # no ambient variable sets it: without --seed a run is seed 0
    monkeypatch.setenv("MOMENTA_SEED", "123")
    out = str(tmp_path / "r.json")
    assert cli.main(["verify", "--random", "--instances", "2",
                     "--out", out]) == 0
    capsys.readouterr()
    assert json.loads(open(out).read())["config"]["seed"] == 0


class TestMapSpecs:
    @pytest.mark.parametrize("spec,functional", [
        ("trace", True), ("vector-state", True), ("identity", False),
        ("pinching", False), ("compression:2", False),
    ])
    def test_build_map(self, spec, functional):
        pulm = cli.build_map(spec, 4, seed=1)
        assert pulm.is_functional == functional
        assert pulm.domain_dim == 4

    def test_unknown_spec(self):
        with pytest.raises(ValueError):
            cli.build_map("fourier", 4, seed=1)

    @pytest.mark.parametrize("spec", ["compressionXYZ", "compressionXYZ:3",
                                      "compression:abc", "compression:",
                                      "trace:2", "compression:1_0",
                                      "compression:+3", "compression: 3",
                                      "compression:\uff13"])
    def test_junk_spec_is_one_error_line_naming_it(self, tmp_path, capsys,
                                                   spec):
        path = write(tmp_path, "a6.json",
                     cli.write_matrix_json(linalg.random_hermitian(6, 1)))
        assert cli.main(["verify", path, "--map", spec]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: unknown map descriptor {spec!r}; "
                                f"expected {cli.MAP_SPEC_HELP}\n")

    @pytest.mark.parametrize("spec, name, k", [
        ("trace", "trace", None), ("vector-state", "vector-state", None),
        ("compression", "compression", None),
        ("compression:3", "compression", 3),
        ("compression:6", "compression", 6), ("pinching", "pinching", None),
        ("identity", "identity", None),
    ])
    def test_a_spec_is_the_random_map_of_its_name(self, spec, name, k):
        # --map names are MAP_KINDS names, and the bare compression takes
        # random_map's own default k
        built = cli.build_map(spec, 6, seed=4)
        expected = maps.random_map(name, 6, k, seed=4)
        assert type(built) is type(expected)
        assert built.domain_dim == expected.domain_dim
        if isinstance(expected, maps.Pinching):
            assert built._mask.tobytes() == expected._mask.tobytes()
        elif not isinstance(expected, maps.NormalizedTrace):
            assert ([f.tobytes() for f in built.factors]
                    == [f.tobytes() for f in expected.factors])

    def test_the_mixture_has_no_spec_and_the_old_names_are_gone(self):
        with pytest.raises(ValueError, match="unknown map descriptor"):
            cli.build_map("mixture", 6, seed=1)
        for old in ("normalized_trace", "vector_state"):
            with pytest.raises(ValueError, match="unknown map kind"):
                maps.random_map(old, 6, seed=1)


class TestFlags:
    @pytest.mark.parametrize("argv", [
        ["bounds", "m.csv", "--tol", "1e-9"],
        ["moments", "m.csv", "--instances", "3"],
        ["verify", "m.csv", "--k-min", "-1"],
    ])
    def test_flag_a_subcommand_does_not_read_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ") and "unrecognized arguments" in err

    @pytest.mark.parametrize("argv", [
        ["verify", "--random", "--instances", "1", "--seed", "1_0"],
        ["verify", "--random", "--instances", "1", "--r-max", "+1"],
        ["verify", "--random", "--instances", " 1"],
        ["moments", "FILE", "--k-min", "\uff10"],
        ["verify", "FILE", "--tol", "1_0e-9"],
        ["moments", "FILE", "--tol", "\uff11e-9"],
        ["verify", "--random", "--instances", "1", "--tol", " 1e-9"],
    ])
    def test_a_number_flag_reads_ascii_text_only(self, tmp_path, capsys,
                                                 argv):
        # int() and float() read each of these values; an integer flag
        # takes an optional "-" and ASCII digits, as the --map and
        # --n-range integers do, and --tol ASCII text without "_" or
        # surrounding space
        path = write(tmp_path, "a.json",
                     cli.write_matrix_json(linalg.random_hermitian(3, 1)))
        argv = [path if arg == "FILE" else arg for arg in argv]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        flag, value = argv[-2:]
        kind = "number" if flag == "--tol" else "integer"
        assert err.startswith("usage: ")
        assert f"argument {flag}: invalid {kind} value: {value!r}" in err

    @pytest.mark.parametrize("argv", [["--map", "pinching"], ["m.json"]])
    def test_random_mode_rejects_map_and_file(self, capsys, argv):
        assert cli.main(["verify", "--random", *argv]) == 1
        assert capsys.readouterr().err.startswith("error: --random")

    @pytest.mark.parametrize("flag, value", [("--instances", "3"),
                                             ("--n-range", "2:4")])
    def test_file_mode_rejects_random_mode_flags(self, tmp_path, capsys,
                                                 flag, value):
        path = write(tmp_path, "m.csv", cli.write_matrix_csv(EXAMPLE_3X3))
        assert cli.main(["verify", path, flag, value]) == 1
        assert capsys.readouterr().err.startswith("error: --instances")

    @pytest.mark.parametrize("argv, message", [
        (["bounds", "FILE", "--seed", "-1"], "seed must be non-negative"),
        (["moments", "FILE", "--seed", "-1"], "seed must be non-negative"),
        (["verify", "FILE", "--seed", "-1"], "seed must be non-negative"),
        (["verify", "FILE", "--map", "pinching", "--seed", "-1"],
         "seed must be non-negative"),
        (["verify", "--random", "--seed", "-1"], "seed must be non-negative"),
        (["moments", "FILE", "--k-min", "5"], "k-min must be -1 or 0"),
        (["verify", "FILE", "--tol", "nan"],
         "tolerance must be positive and finite"),
        (["moments", "FILE", "--tol", "0"],
         "tolerance must be positive and finite"),
        (["verify", "FILE", "--tol", "-1"],
         "tolerance must be positive and finite"),
        (["moments", "FILE", "--r-max", "-1"], "r-max must be non-negative"),
        (["verify", "--random", "--instances", "0"],
         "instances must be at least 1"),
        (["verify", "--random", "--n-range", "0:3"],
         "n-range must satisfy 1 <= lo <= hi"),
        (["verify", "--random", "--n-range", "3:2"],
         "n-range must satisfy 1 <= lo <= hi"),
    ], ids=["bounds-seed", "moments-seed", "verify-trace-seed",
            "verify-pinching-seed", "random-seed", "k-min", "tol", "tol-0",
            "tol-negative", "r-max",
            "instances", "n-range-lo", "n-range-order"])
    def test_a_bad_setting_is_one_error_line_naming_it(self, tmp_path, capsys,
                                                       argv, message):
        # RunConfig is the one judge of a setting's value: no argparse
        # choices, and no seed reaches numpy's own error
        path = write(tmp_path, "a.json",
                     cli.write_matrix_json(linalg.random_hermitian(6, 1)))
        argv = [path if arg == "FILE" else arg for arg in argv]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("value", ["abc", "2:x", "3:", "1_0",
                                       "2:\u0663"])
    def test_junk_n_range_is_one_error_line_naming_it(self, capsys, value):
        assert cli.main(["verify", "--random", "--n-range", value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: --n-range takes lo or lo:hi in "
                                f"integers, got {value!r}\n")

    @pytest.mark.parametrize("value, n_range", [("3", (3, 3)),
                                                ("2:5", (2, 5))])
    def test_n_range_is_lo_or_lo_hi(self, value, n_range):
        args = cli._parser().parse_args(["verify", "--random",
                                         "--n-range", value])
        assert cli._config_from_args(args).n_range == n_range

    def test_bounds_report_config_keeps_the_defaults(self, tmp_path, capsys):
        # bounds has no --tol, --r-max, --instances, --n-range or --k-min
        path = write(tmp_path, "m.csv", cli.write_matrix_csv(EXAMPLE_3X3))
        out = str(tmp_path / "r.json")
        assert cli.main(["bounds", path, "--out", out]) == 0
        capsys.readouterr()
        config = json.loads(open(out).read())["config"]
        assert config == {"input": path, "tolerance": 1e-9, "r_max": 3,
                          "map": "trace", "seed": 0, "instances": 200,
                          "n_range": [2, 6], "k_min": 0}


@pytest.mark.parametrize("command, text", [
    ("bounds", cli.write_matrix_json(1e200 * linalg.random_hermitian(4, 1))),
    # Phi(A^7) scaled back from the working scale overflows
    ("moments", cli.write_matrix_json(1e100 * linalg.random_hermitian(4, 1))),
    ("bounds", '{"rows":1,"cols":1,"entries":[[null,0]]}'),
    # an infinite tolerance would pass every check
    ("verify --tol inf", cli.write_matrix_json(np.eye(2))),
    ("moments --tol inf", cli.write_matrix_json(np.eye(2))),
], ids=["norm-overflow", "moments-power-overflow", "malformed",
        "verify-tol-inf", "moments-tol-inf"])
def test_bad_input_is_one_error_line(tmp_path, command, text):
    # a subprocess, so numpy warnings written straight to stderr are seen
    path = write(tmp_path, "a.json", text)
    src = os.path.dirname(os.path.dirname(momenta.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "momenta.cli",
                           *command.split(), path],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 1
    assert proc.stdout.count("nan") == proc.stdout.count("inf") == 0
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr


#: Files on which ``verify`` once stopped with an overflow error: in the
#: moment powers, the normal-matrix path, inverted blocks or an operand
#: scale, or, where a norm overflowed, with every check skipped as "not
#: normal". The scale, the matrix, the map and the block order.
OVERFLOWS = {
    "moment-powers": (1e60, linalg.hermitian_with_spectrum(
        [-1.0, 0.2, 0.9, 1.3], 3), "trace", "3"),
    "moment-powers-1e100": (1e100, linalg.random_hermitian(4, 1), "trace",
                            "3"),
    # the inverse moment's scale ||Phi(A)^-1||_F overflowed, the matrix not
    "inverse-scale": (1e-200, np.diag([1.0, 2.0, 4.0]), "trace", "3"),
    "inverted-gap": (1e-310, np.diag([-1.0, 0.5, 2.0]), "trace", "0"),
    "normal-block-norm": (1e40, np.diag([-1.0, 0.5, 2.0]), "trace", "0"),
    "fourth-moment-power": (1e52, np.diag([1j, -1j]), "vector-state", "3"),
    "fourth-moment-products": (1e80, np.diag([1j, -1j]), "trace", "3"),
    "normal-block-products": (1e82, np.diag([1j, -1j]), "compression:2", "0"),
    "route-difference": (1e-250, random_psd(8, 2) + np.eye(8), "trace", "3"),
    "normal-commutator-1e100": (1e100, linalg.random_normal_matrix(6, 5),
                                "trace", "3"),
    "normal-commutator-1e140": (1e140, linalg.random_normal_matrix(6, 5),
                                "trace", "3"),
}


@pytest.mark.parametrize("name", OVERFLOWS)
def test_a_file_verifies_with_the_verdicts_of_scale_1(tmp_path, capsys,
                                                      name):
    # the file is scaled by a power of two at ingest, so c A exits and
    # judges every check as A does, with no numpy warning
    c, matrix, spec, r_max = OVERFLOWS[name]

    def verdicts(c):
        path = write(tmp_path, "a.json", cli.write_matrix_json(c * matrix))
        out = tmp_path / "r.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["verify", path, "--map", spec, "--r-max", r_max,
                             "--seed", "3", "--out", str(out)])
        return code, [(r["check"], r["passed"])
                      for r in json.loads(out.read_text())["records"]]

    expected = verdicts(1.0)
    assert expected[0] == 0
    assert verdicts(c) == expected
    assert capsys.readouterr().err == ""


def _run_at_scale(directory, matrix, j, argv):
    """``momenta`` on the file of ``2^j matrix``, always at one path: exit
    code, stdout, stderr and report bytes (empty for no report)."""
    path, out = os.path.join(directory, "a.json"), os.path.join(directory,
                                                                "r.json")
    if os.path.exists(out):
        os.remove(out)
    scaled = np.ldexp(matrix.view(np.float64), j).view(np.complex128)
    with open(path, "w") as f:
        f.write(cli.write_matrix_json(scaled))
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with (contextlib.redirect_stdout(stdout),
              contextlib.redirect_stderr(stderr)):
            code = cli.main([argv[0], path, *argv[1:], "--out", out])
    report = b""
    if os.path.exists(out):
        with open(out, "rb") as f:
            report = f.read()
    return code, stdout.getvalue(), stderr.getvalue(), report


@settings(max_examples=40, deadline=None)
@given(normal=st.booleans(), n=st.integers(1, 8),
       seed=st.integers(0, 2**16),
       spec=st.sampled_from(list(maps.MAP_KINDS[:5]) + ["compression:1"]),
       j=st.integers(-900, 900))
def test_a_power_of_two_leaves_the_verify_report_unchanged(normal, n, seed,
                                                           spec, j):
    # a file is scaled by a power of two where it enters, exactly, so every
    # check of 2^j A runs on the matrix A's run does
    a = (linalg.random_normal_matrix if normal else linalg.random_hermitian)(
        n, seed)
    argv = ["verify", "--map", spec, "--seed", "3"]
    with tempfile.TemporaryDirectory() as directory:
        assert (_run_at_scale(directory, a, j, argv)
                == _run_at_scale(directory, a, 0, argv))


#: The degree in A of each value ``bounds`` reports that is not of degree 1.
BOUNDS_DEGREES = {"cubic_c1": 2, "cubic_c0": 3, "gamma": 6}


@settings(max_examples=40, deadline=None)
@given(atoms=st.sampled_from([None, 1, 2, 3]), n=st.integers(1, 8),
       seed=st.integers(0, 2**16),
       spec=st.sampled_from(["trace", "vector-state"]),
       j=st.integers(-900, 900))
def test_a_power_of_two_scales_each_bounds_value_by_its_degree(atoms, n,
                                                               seed, spec,
                                                               j):
    # a value of degree d in A is reported for 2^j A exactly as 2^(d j)
    # times A's, or, where that leaves double range (gamma past about
    # j = 170), as one overflow error line; the degeneracy is A's
    if atoms is None:
        a = linalg.random_hermitian(n, seed)
    else:
        a = linalg.hermitian_with_spectrum(
            np.resize([-1.0, 0.5, 2.0][:atoms], n), seed)
    argv = ["bounds", "--map", spec, "--seed", "3"]
    with tempfile.TemporaryDirectory() as directory:
        code, out, err, report = _run_at_scale(directory, a, 0, argv)
        assert (code, err) == (0, "")
        values = {r["check"]: r["margin"]
                  for r in json.loads(report)["records"]}
        try:
            expected = {name: math.ldexp(value,
                                         BOUNDS_DEGREES.get(name, 1) * j)
                        for name, value in values.items()}
        except OverflowError:
            expected = None
        code, scaled_out, err, report = _run_at_scale(directory, a, j, argv)
    if expected is None:
        assert (code, scaled_out, report) == (1, "", b"")
        assert err == ("error: Gauss rule bounds overflow double precision; "
                       "rescale the matrix\n")
        return
    assert (code, err) == (0, "")
    assert (("degenerate" in scaled_out) == ("degenerate" in out))
    got = {r["check"]: r["margin"] for r in json.loads(report)["records"]}
    assert got == expected


def test_parser_is_built_once_and_parsing_leaves_it_unchanged():
    parser = cli._parser()
    assert cli._parser() is parser
    first = parser.parse_args(["verify", "--random", "--seed", "5", "--r-max", "1"])
    second = parser.parse_args(["verify", "m.json"])
    assert (first.random, first.seed, first.r_max) == (True, 5, 1)
    assert (second.random, second.seed, second.r_max) == (False, None, None)
    # a flag left unset keeps RunConfig's default, declared there alone
    assert cli._config_from_args(second).r_max == 3
