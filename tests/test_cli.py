import json

import numpy as np
import pytest

from momenta import cli, linalg

from conftest import EXAMPLE_3X3

PAPERLIKE_CSV = ("3,-4.242640687,-9\n"
                 "-4.242640687,-6,-4.242640687\n"
                 "-9,-4.242640687,3\n")


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestParseMatrix:
    def test_identity_json(self, tmp_path):
        path = write(tmp_path, "eye.json",
                     '{"rows":2,"cols":2,"entries":[[1,0],[0,0],[0,0],[1,0]]}')
        np.testing.assert_array_equal(cli.parse_matrix(path), np.eye(2))

    def test_example_csv_with_truncated_decimals(self, tmp_path):
        path = write(tmp_path, "m.csv", PAPERLIKE_CSV)
        m = cli.parse_matrix(path)
        assert linalg.frobenius(m - EXAMPLE_3X3) <= 1e-8 * linalg.frobenius(EXAMPLE_3X3)

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

    def test_complex_json(self, tmp_path):
        path = write(tmp_path, "c.json",
                     '{"rows":2,"cols":2,"entries":[[0,0],[0,1],[0,-1],[0,0]]}')
        m = cli.parse_matrix(path)
        np.testing.assert_array_equal(m, np.array([[0, 1j], [-1j, 0]]))


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
        m = np.diag([1e200, -1e200, 3.0]).astype(complex)
        path = write(tmp_path, "big.json", cli.write_matrix_json(m))
        assert cli.main(["bounds", path]) == 1
        captured = capsys.readouterr()
        assert "nan" not in captured.out and "inf" not in captured.out
        assert "overflow" in captured.err

    def test_requires_functional_map(self, tmp_path, capsys):
        path = write(tmp_path, "m.csv", cli.write_matrix_csv(EXAMPLE_3X3))
        assert cli.main(["bounds", path, "--map", "identity"]) == 1

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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_exits_1(self, tmp_path, capsys):
        # the high moment blocks' Frobenius norms overflow at this scale
        a = 1e35 * linalg.hermitian_with_spectrum([-1.0, 0.2, 0.9, 1.3], 3)
        path = write(tmp_path, "big.json", cli.write_matrix_json(a))
        assert cli.main(["verify", path]) == 1
        assert capsys.readouterr().err.startswith("error: ")

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


class TestSeedResolution:
    def test_env_var_overrides_default(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "123")
        out = str(tmp_path / "r.json")
        assert cli.main(["verify", "--random", "--instances", "2",
                         "--out", out]) == 0
        capsys.readouterr()
        assert json.loads(open(out).read())["config"]["seed"] == 123

    def test_explicit_seed_beats_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "123")
        out = str(tmp_path / "r.json")
        assert cli.main(["verify", "--random", "--instances", "2",
                         "--seed", "7", "--out", out]) == 0
        capsys.readouterr()
        assert json.loads(open(out).read())["config"]["seed"] == 7


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


def test_parser_is_built_once_and_parsing_leaves_it_unchanged():
    parser = cli._parser()
    assert cli._parser() is parser
    first = parser.parse_args(["verify", "--random", "--seed", "5", "--r-max", "1"])
    second = parser.parse_args(["verify", "m.json"])
    assert (first.random, first.seed, first.r_max) == (True, 5, 1)
    assert (second.random, second.seed, second.r_max) == (False, None, 3)
