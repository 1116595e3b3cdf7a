import json
import time
import tracemalloc
import warnings

import jsonschema
import numpy as np
import pytest

from kronspin import cli
from kronspin.cli import (
    CONSERVED_TOL,
    EXIT_CAPACITY,
    EXIT_CHECK_FAILED,
    EXIT_ENGINE,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    EXIT_USAGE,
    MAX_STATE_SITES,
    build_parser,
    run,
)
from kronspin.errors import (
    CapacityError,
    ContractError,
    ConvergenceError,
    ParseError,
    ShapeError,
    SiteRangeError,
    SizingError,
)
from kronspin.hamiltonian_builder import (
    CouplingEdge,
    HamiltonianSpec,
    build_general,
    save_spec,
)
from kronspin.kron_core import kron
from kronspin.matfree_engine import (
    KronTerm,
    commutator_norm,
    spec_to_kronsum,
    total_component,
    total_spin_squared,
    total_spin_squared_kronsum,
)
from kronspin.matrix_io import load_matrix, save_matrix
from kronspin.spin_algebra import conserved_residual, pauli

SCHEMA_PATH = "docs/run_report.schema.json"

# 2^56 complex amplitudes (1 EiB) exceed any 57-bit address space, so numpy
# refuses the state vector at once without touching memory.
HUGE_SPEC = HamiltonianSpec(56, 1.0, (CouplingEdge(1, 2, 1.0),))


@pytest.fixture(scope="module")
def report_schema():
    with open(SCHEMA_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _refuse_constant(token: str):
    raise ValueError(f"{token} is not JSON")


def check_report(text: str, schema) -> dict:
    # strict: json.loads takes NaN and Infinity by default, and jsonschema
    # accepts a float NaN as a number
    report = json.loads(text, parse_constant=_refuse_constant)
    jsonschema.validate(report, schema)
    return report


@pytest.fixture
def mat_pair(tmp_path, rng):
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    pa, pb = tmp_path / "a.txt", tmp_path / "b.txt"
    save_matrix(a, pa)
    save_matrix(b, pb)
    return a, b, str(pa), str(pb)


def write_spec(tmp_path, spec, name="spec.json") -> str:
    path = tmp_path / name
    save_spec(spec, path)
    return str(path)


def h2_spec(tmp_path) -> str:
    return write_spec(tmp_path, HamiltonianSpec(2, 1.0, (CouplingEdge(1, 2, 1.0),)))


def chain_spec(n: int, j: float = 1.0) -> HamiltonianSpec:
    return HamiltonianSpec(n, 1.0, tuple(CouplingEdge(i, i + 1, j) for i in range(1, n)))


def ring_spec(n: int) -> HamiltonianSpec:
    return HamiltonianSpec(n, 1.0, tuple(CouplingEdge(i, i % n + 1, 1.0) for i in range(1, n + 1)))


# the 13-site chain with J = 6e307 on edge (1, 2) and 1 elsewhere
ONE_HUGE_EDGE = HamiltonianSpec(
    13, 1.0, tuple(CouplingEdge(i, i + 1, 6e307 if i == 1 else 1.0) for i in range(1, 13)))


def assert_refused_as_overflow(capsys, code: int) -> None:
    """Exit 3 with a message and no traceback, and nothing on stdout."""
    assert code == EXIT_CAPACITY
    captured = capsys.readouterr()
    assert "past the double range" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


class TestKron:
    def test_product_round_trips_bitwise(self, tmp_path, mat_pair):
        a, b, pa, pb = mat_pair
        out = tmp_path / "prod.txt"
        assert run(["kron", pa, pb, "--out", str(out)]) == EXIT_OK
        assert kron(a, b).tobytes() == load_matrix(out).tobytes()

    def test_stdout_mode_prints_summary_and_matrix(self, capsys, mat_pair):
        _, _, pa, pb = mat_pair
        assert run(["kron", pa, pb]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "(3 x 3) kron (3 x 3) = (9 x 9); dimensions multiply factorwise"
        assert lines[1] == "9 9"
        assert len(lines) == 11

    def test_json_report(self, tmp_path, capsys, mat_pair, report_schema):
        _, _, pa, pb = mat_pair
        out = tmp_path / "prod.txt"
        assert run(["kron", pa, pb, "--json", "--out", str(out)]) == EXIT_OK
        report = check_report(capsys.readouterr().out, report_schema)
        assert report["command"] == "kron"
        assert report["results"][0]["rows"] == 9

    def test_json_without_out_is_usage_error(self, capsys, mat_pair):
        _, _, pa, pb = mat_pair
        assert run(["kron", pa, pb, "--json"]) == EXIT_USAGE
        assert "kronspin: error:" in capsys.readouterr().err

    def test_header_past_memory_is_usage_error(self, tmp_path, capsys, mat_pair):
        _, _, pa, _ = mat_pair
        claimed = tmp_path / "claimed.txt"
        claimed.write_text("1 1000000000000\n1\n")
        assert run(["kron", str(claimed), pa]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"kronspin: error: {claimed}: row has 1 entries, expected 1000000000000 "
            "(line 2, column 2)\n"
        )

    def test_unwritable_out_is_usage_error(self, tmp_path, capsys, mat_pair):
        _, _, pa, pb = mat_pair
        out = tmp_path / "missing" / "prod.txt"
        assert run(["kron", pa, pb, "--out", str(out)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == f"kronspin: error: [Errno 2] No such file or directory: '{out}'\n"
        assert captured.out == ""

    def test_missing_file(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.txt")
        assert run(["kron", missing, missing]) == EXIT_USAGE

    def test_parse_error_names_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 1\nwat\n")
        ok = tmp_path / "ok.txt"
        save_matrix(np.eye(1), ok)
        assert run(["kron", str(bad), str(ok)]) == EXIT_USAGE
        assert str(bad) in capsys.readouterr().err

    def test_non_ascii_header_digit_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("\u00b2 2\n1 2\n3 4\n", encoding="utf-8")
        ok = tmp_path / "ok.txt"
        save_matrix(np.eye(1), ok)
        assert run(["kron", str(bad), str(ok)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"{bad}: dimension must be a positive integer" in err
        assert "(line 1, column 1)" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["kron", "verify-properties"])
    def test_matrix_that_is_not_utf8_is_usage_error(self, tmp_path, capsys, command):
        bad = tmp_path / "binary.txt"
        bad.write_bytes(b"\xff1 1\n1\n")
        ok = tmp_path / "ok.txt"
        save_matrix(np.eye(1), ok)
        assert run([command, str(bad), str(ok)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert f"{bad}: not UTF-8 text" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["kron", "verify-properties"])
    def test_overflowing_entry_is_usage_error(self, tmp_path, capsys, command):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 1\n1e400\n")
        ok = tmp_path / "ok.txt"
        save_matrix(np.eye(1), ok)
        assert run([command, str(bad), str(ok)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"{bad}: entry '1e400' overflows a double (line 2, column 1)" in err
        assert "Traceback" not in err

    def test_overflowing_product_is_capacity_error(self, tmp_path, capsys):
        big = tmp_path / "big.txt"
        save_matrix(np.array([[1e308]]), big)
        assert run(["kron", str(big), str(big)]) == EXIT_CAPACITY
        captured = capsys.readouterr()
        assert "past the double range" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_oversized_product_is_capacity_error(self, tmp_path, capsys):
        row = tmp_path / "row.txt"
        col = tmp_path / "col.txt"
        save_matrix(np.zeros((1, 8193)), row)
        save_matrix(np.zeros((8192, 1)), col)
        assert run(["kron", str(row), str(col)]) == EXIT_CAPACITY


class TestVerifyProperties:
    def test_generic_pair_passes(self, capsys, mat_pair):
        _, _, pa, pb = mat_pair
        assert run(["verify-properties", pa, pb]) == EXIT_OK
        out = capsys.readouterr().out
        assert "aggregate: all checks pass" in out
        assert "P8 non-commutation" in out

    def test_identity_pair_is_commuting_exception(self, tmp_path, capsys):
        p = tmp_path / "eye.txt"
        save_matrix(np.eye(2), p)
        assert run(["verify-properties", str(p), str(p)]) == EXIT_OK
        assert "identity case" in capsys.readouterr().out

    def test_scalar_coincidence_fails(self, tmp_path, capsys):
        pa, pb = tmp_path / "a.txt", tmp_path / "b.txt"
        save_matrix(pauli("x"), pa)
        save_matrix(2 * pauli("x"), pb)
        assert run(["verify-properties", str(pa), str(pb)]) == EXIT_CHECK_FAILED
        out = capsys.readouterr().out
        assert "unexpected coincidence" in out
        assert "CHECKS FAILED" in out

    def test_singular_operand_skips_inverse_law(self, tmp_path, capsys):
        pa, pb = tmp_path / "a.txt", tmp_path / "b.txt"
        save_matrix(np.diag([1.0, 0.0]), pa)
        save_matrix(pauli("x"), pb)
        assert run(["verify-properties", str(pa), str(pb)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "skip" in out
        assert "singular" in out

    def test_json_report_with_witness(self, capsys, mat_pair, report_schema):
        _, _, pa, pb = mat_pair
        assert run(["verify-properties", pa, pb, "--json"]) == EXIT_OK
        report = check_report(capsys.readouterr().out, report_schema)
        rows = {r["name"]: r for r in report["results"]}
        assert rows["P8 non-commutation"]["witness"] is not None
        assert rows["P6 inverse (corrected)"]["passed"]
        assert any(r.get("diagnostic") for r in report["results"])

    def test_rectangular_input_is_usage_error(self, tmp_path, capsys):
        p = tmp_path / "rect.txt"
        save_matrix(np.ones((2, 3)), p)
        assert run(["verify-properties", str(p), str(p)]) == EXIT_USAGE
        assert "square" in capsys.readouterr().err

    def test_mismatched_dimensions_usage_error(self, tmp_path):
        pa, pb = tmp_path / "a.txt", tmp_path / "b.txt"
        save_matrix(np.eye(2), pa)
        save_matrix(np.eye(3), pb)
        assert run(["verify-properties", str(pa), str(pb)]) == EXIT_USAGE

    def test_overflowing_operand_sum_is_capacity_error(self, tmp_path, capsys):
        # 1e308 + 1e308 overflows in the P3 sum before any product is formed
        big = tmp_path / "big.txt"
        save_matrix(np.array([[1e308]]), big)
        assert run(["verify-properties", str(big), str(big)]) == EXIT_CAPACITY
        captured = capsys.readouterr()
        assert "P3 sum in left factor" in captured.err
        assert "past the double range" in captured.err
        assert "Traceback" not in captured.err and "Warning" not in captured.err
        assert captured.out == ""

    def test_overflowing_product_is_capacity_error(self, tmp_path, capsys):
        # 1e200 * 1e200 overflows inside kron, the first product of P3
        big = tmp_path / "big.txt"
        save_matrix(np.array([[1e200]]), big)
        assert run(["verify-properties", str(big), str(big), "--json"]) == EXIT_CAPACITY
        captured = capsys.readouterr()
        assert "kron output 1x1 has an entry past the double range" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""


    def test_large_finite_pair_reports_a_finite_bound(self, tmp_path, capsys, report_schema):
        # ||rhs||_F = 1e200 for P7: squared, it would overflow to an infinite
        # bound that passes any residual and is no JSON number
        big = tmp_path / "big50.txt"
        big.write_text("1 1\n1e50\n")
        assert run(["verify-properties", str(big), str(big), "--json"]) == EXIT_OK
        report = check_report(capsys.readouterr().out, report_schema)
        p7 = next(r for r in report["results"] if r["name"] == "P7 mixed product")
        assert p7["tolerance"] == pytest.approx(1e190, rel=1e-12)

    @pytest.mark.parametrize("tol", ["inf", "nan", "-1"])
    def test_tol_must_be_finite_non_negative(self, capsys, mat_pair, tol):
        _, _, pa, pb = mat_pair
        assert run(["verify-properties", pa, pb, "--tol", tol]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert "--tol must be a finite non-negative number" in captured.err
        assert captured.out == ""


class TestSpectrum:
    def test_dense_csv(self, tmp_path, capsys):
        spec = h2_spec(tmp_path)
        assert run(["spectrum", spec]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("# spec_sha256=")
        assert lines[1] == "# engine=dense"
        assert lines[2] == "index,eigenvalue"
        values = [float(line.split(",")[1]) for line in lines[3:]]
        assert np.allclose(values, [-3.0, -1.0, 1.0, 3.0], atol=1e-10)

    def test_dense_k_highest(self, tmp_path, capsys):
        spec = h2_spec(tmp_path)
        assert run(["spectrum", spec, "--k", "2", "--which", "highest"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        values = [float(line.split(",")[1]) for line in lines[3:]]
        assert np.allclose(values, [1.0, 3.0], atol=1e-10)

    def test_lanczos_matches_dense_ground_state(self, tmp_path, capsys):
        spec = h2_spec(tmp_path)
        assert run(["spectrum", spec, "--engine", "lanczos", "--k", "1"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "# engine=lanczos"
        assert float(lines[3].split(",")[1]) == pytest.approx(-3.0, abs=1e-8)

    def test_out_file(self, tmp_path):
        spec = h2_spec(tmp_path)
        out = tmp_path / "spectrum.csv"
        assert run(["spectrum", spec, "--out", str(out)]) == EXIT_OK
        assert out.read_text().splitlines()[2] == "index,eigenvalue"

    def test_json_report(self, tmp_path, capsys, report_schema):
        spec = h2_spec(tmp_path)
        assert run(["spectrum", spec, "--json"]) == EXIT_OK
        report = check_report(capsys.readouterr().out, report_schema)
        row = report["results"][0]
        assert row["engine"] == "dense"
        assert row["dimension"] == 4
        assert np.allclose(row["eigenvalues"], [-3.0, -1.0, 1.0, 3.0], atol=1e-10)

    @pytest.mark.parametrize("n", [13, 100_000])
    def test_dense_above_cap_suggests_lanczos(self, tmp_path, capsys, n):
        # 2^100000 has 30103 digits, past what Python prints of an int
        spec = write_spec(tmp_path, HamiltonianSpec(n, 1.0))
        assert run(["spectrum", spec]) == EXIT_ENGINE
        err = capsys.readouterr().err
        assert f"n={n} sites (dimension 2^{n}) exceeds the dense cap" in err
        assert "--engine lanczos" in err
        assert "Traceback" not in err

    def test_lanczos_non_convergence(self, tmp_path, capsys):
        spec = h2_spec(tmp_path)
        code = run(["spectrum", spec, "--engine", "lanczos", "--tol", "1e-30"])
        assert code == EXIT_NO_CONVERGENCE
        assert "best estimate" in capsys.readouterr().err

    def test_lanczos_unallocatable_state_is_capacity_error(self, tmp_path, capsys):
        spec = write_spec(tmp_path, HUGE_SPEC)
        assert run(["spectrum", spec, "--engine", "lanczos"]) == EXIT_CAPACITY
        err = capsys.readouterr().err
        assert "state allocation failed at n=56" in err
        assert "Traceback" not in err

    def test_lanczos_memory_error_is_capacity_error(self, tmp_path, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "lanczos_extremal", exhausted)
        spec = write_spec(tmp_path, chain_spec(4))
        assert run(["spectrum", spec, "--engine", "lanczos"]) == EXIT_CAPACITY
        captured = capsys.readouterr()
        assert captured.err == "kronspin: error: state allocation failed at n=4 (2^4 amplitudes)\n"
        assert captured.out == ""

    def test_spec_that_is_not_an_object_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "array.json"
        path.write_text("[]")
        assert run(["spectrum", str(path)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == "kronspin: error: spec must be a JSON object, got list\n"
        assert captured.out == ""

    def test_bad_spec_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        assert run(["spectrum", str(path)]) == EXIT_USAGE
        assert "invalid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["spectrum", "conserved"])
    def test_spec_that_is_not_utf8_is_usage_error(self, tmp_path, capsys, command):
        path = tmp_path / "binary.json"
        path.write_bytes(b"\xff{}")
        assert run([command, str(path)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert f"{path}: not UTF-8 text" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_unknown_spec_key(self, tmp_path, capsys):
        path = tmp_path / "extra.json"
        path.write_text('{"n_sites": 2, "mu_b0": 0.0, "couplings": [], "gamma": 1}')
        assert run(["spectrum", str(path)]) == EXIT_USAGE
        assert "unknown spec keys" in capsys.readouterr().err

    def test_null_coupling_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "null.json"
        path.write_text('{"n_sites": 2, "mu_b0": 1.0, "couplings": [{"i": 1, "j": 2, "J": null}]}')
        assert run(["spectrum", str(path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "coupling J must be a JSON number" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("engine", ["dense", "lanczos"])
    def test_overflowing_spec_is_capacity_error(self, tmp_path, capsys, engine):
        # every value is a finite double, but the zz diagonal sums to inf and
        # each flip-flop weight 2J is inf
        spec = write_spec(tmp_path, chain_spec(3, 1e308))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["spectrum", spec, "--engine", engine])
        assert_refused_as_overflow(capsys, code)

    def test_lanczos_refuses_norms_past_the_double_range(self, tmp_path, capsys):
        # the plan is finite (the dense engine answers), but Lanczos would
        # square entries near 1e160
        spec = write_spec(tmp_path, chain_spec(4, 1e160))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["spectrum", spec, "--engine", "lanczos"])
        assert_refused_as_overflow(capsys, code)
        assert run(["spectrum", spec]) == EXIT_OK

    def test_symmetrization_overflow_is_capacity_error(self, tmp_path, capsys):
        # H is finite at J = 6e307, but a + a^H in eigh is not; at J = 3e307
        # both are, and the spectrum is the unit-J one, {-4, -4, 0, 0, 2, 2,
        # 2, 2}, scaled (the field's shifts are lost in rounding)
        spec = write_spec(tmp_path, chain_spec(3, 6e307))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["spectrum", spec])
        assert_refused_as_overflow(capsys, code)
        assert run(["spectrum", write_spec(tmp_path, chain_spec(3, 3e307), "half.json")]) == EXIT_OK
        values = [float(line.split(",")[1]) for line in capsys.readouterr().out.splitlines()[3:]]
        np.testing.assert_allclose(values, 3e307 * np.array([-4, -4, 0, 0, 2, 2, 2, 2]),
                                   rtol=0, atol=1e-15 * 1.2e308)

    @pytest.mark.parametrize("args", [[], ["--json"]])
    def test_unwritable_out_is_usage_error(self, tmp_path, capsys, args):
        out = tmp_path / "missing" / "spectrum.csv"
        assert run(["spectrum", h2_spec(tmp_path), "--out", str(out), *args]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == f"kronspin: error: [Errno 2] No such file or directory: '{out}'\n"
        assert captured.out == ""

    def test_nonpositive_k(self, tmp_path):
        spec = h2_spec(tmp_path)
        assert run(["spectrum", spec, "--k", "0"]) == EXIT_USAGE

    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
    def test_lanczos_tol_must_be_finite_positive(self, tmp_path, capsys, monkeypatch, tol):
        def no_solve(*args, **kwargs):
            raise AssertionError("the solve must not start")

        monkeypatch.setattr(cli, "lanczos_extremal", no_solve)
        spec = h2_spec(tmp_path)
        assert run(["spectrum", spec, "--engine", "lanczos", "--tol", tol]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert "--tol must be a finite positive number" in captured.err
        assert captured.out == ""


class TestConserved:
    def test_isotropic_spec_conserves_everything(self, tmp_path, capsys):
        spec = h2_spec(tmp_path)
        assert run(["conserved", spec]) == EXIT_OK
        out = capsys.readouterr().out
        assert "all conserved" in out
        assert "[H, S^2] commutator residual" in out

    def test_json_report_dense_method(self, tmp_path, capsys, report_schema):
        spec = h2_spec(tmp_path)
        assert run(["conserved", spec, "--json"]) == EXIT_OK
        report = check_report(capsys.readouterr().out, report_schema)
        assert len(report["results"]) == 3
        for row in report["results"]:
            assert row["method"] == "dense"
            assert row["residual"] < CONSERVED_TOL

    def test_anisotropy_injection_breaks_spin_squared_only(self, tmp_path, capsys, report_schema):
        spec = write_spec(
            tmp_path,
            HamiltonianSpec(3, 1.0, (CouplingEdge(1, 2, 1.0), CouplingEdge(2, 3, 1.0))),
        )
        assert run(["conserved", spec, "--debug-anisotropy", "2.0", "--json"]) == EXIT_CHECK_FAILED
        report = check_report(capsys.readouterr().out, report_schema)
        rows = {r["name"]: r for r in report["results"]}
        assert rows["[H, S_z] commutator residual"]["passed"]
        assert not rows["[H, S^2] commutator residual"]["passed"]
        assert rows["[S_z, S^2] commutator residual"]["passed"]

    @pytest.mark.parametrize("n, z_scale", [(1, 1.0), (3, 2.0), (5, -0.7), (7, 1.0),
                                            (8, 2.0), (9, -0.7), (10, 2.0)])
    def test_dense_rows_match_the_matmul_route(self, tmp_path, capsys, report_schema, n, z_scale):
        rng = np.random.default_rng(700 + n)
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        edges = tuple(CouplingEdge(i, j, float(rng.uniform(-2, 2)))
                      for i, j in pairs if rng.uniform() < 0.6)
        spec = HamiltonianSpec(n, float(rng.uniform(-2, 2)), edges)
        path = write_spec(tmp_path, spec)
        run(["conserved", path, "--json", "--debug-anisotropy", repr(z_scale)])
        report = check_report(capsys.readouterr().out, report_schema)
        h = build_general(spec, z_scale)
        s_z = total_component("z", n)
        s_sq = total_spin_squared(n)
        for row, (a, b) in zip(report["results"], ((h, s_z), (h, s_sq), (s_z, s_sq))):
            assert row["method"] == "dense"
            scale = np.linalg.norm(a) * np.linalg.norm(b)
            assert abs(row["residual"] - conserved_residual(a, b)) <= 1e-12 * scale

    def test_twelve_site_complete_graph_stays_exact(self, tmp_path, capsys, report_schema):
        # unequal J: with one J on every edge of a complete graph the z-z part
        # is a function of S_z alone, so anisotropy would keep [H, S^2] = 0
        rng = np.random.default_rng(12)
        edges = tuple(CouplingEdge(i, j, float(rng.uniform(0.5, 1.5)))
                      for i in range(1, 13) for j in range(i + 1, 13))
        spec = write_spec(tmp_path, HamiltonianSpec(12, 1.0, edges))
        assert run(["conserved", spec, "--json"]) == EXIT_OK
        report = check_report(capsys.readouterr().out, report_schema)
        assert all(row["method"] == "dense" and row["passed"] for row in report["results"])
        assert run(["conserved", spec, "--json", "--debug-anisotropy", "2.0"]) == EXIT_CHECK_FAILED
        report = check_report(capsys.readouterr().out, report_schema)
        assert all(row["method"] == "dense" for row in report["results"])
        failed = [r["name"] for r in report["results"] if not r["passed"]]
        assert failed == ["[H, S^2] commutator residual"]

    def test_exact_method_above_dense_cap(self, tmp_path, capsys, report_schema):
        spec = write_spec(tmp_path, chain_spec(13))
        assert run(["conserved", spec, "--json"]) == EXIT_OK
        report = check_report(capsys.readouterr().out, report_schema)
        for row in report["results"]:
            assert row["method"] == "dense"
            assert row["note"] == "exact full-matrix Frobenius norm at n=13"
            assert row["passed"] and row["residual"] <= 1e-15

    def test_anisotropy_injection_above_dense_cap(self, tmp_path, capsys, report_schema):
        spec = chain_spec(13)
        path = write_spec(tmp_path, spec)
        assert run(["conserved", path, "--debug-anisotropy", "2.0", "--json"]) == EXIT_CHECK_FAILED
        report = check_report(capsys.readouterr().out, report_schema)
        failed = [r["name"] for r in report["results"] if not r["passed"]]
        assert failed == ["[H, S^2] commutator residual"]
        assert all(r["method"] == "dense" for r in report["results"])
        exact = commutator_norm(spec_to_kronsum(spec, 2.0), total_spin_squared_kronsum(13))
        assert report["results"][1]["residual"] == exact

    @pytest.mark.parametrize("spec", [ring_spec(24), HUGE_SPEC], ids=["ring-24", "one-edge-56"])
    def test_large_register_is_measured_without_a_state(self, tmp_path, capsys, report_schema,
                                                        spec):
        # 2^24 amplitudes would take 256 MB, 2^56 could not be allocated; no
        # state is formed: the norms come from the strings, and the
        # structural zeros read 0
        path = write_spec(tmp_path, spec)
        tracemalloc.start()
        try:
            started = time.perf_counter()
            assert run(["conserved", path, "--json"]) == EXIT_OK
            elapsed = time.perf_counter() - started
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 1.0 and peak < 100 * 2**20
        rows = check_report(capsys.readouterr().out, report_schema)["results"]
        assert [row["residual"] for row in rows] == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("n", [4, 13])
    def test_memory_error_is_capacity_error(self, tmp_path, capsys, monkeypatch, n):
        # the exact method below and above the 12-site dense cap
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "commutator_norm", exhausted)
        assert run(["conserved", write_spec(tmp_path, chain_spec(n))]) == EXIT_CAPACITY
        captured = capsys.readouterr()
        assert captured.err == (f"kronspin: error: state allocation failed at n={n} "
                                f"(2^{n} amplitudes)\n")
        assert captured.out == ""

    def test_missing_spec_file(self, tmp_path):
        assert run(["conserved", str(tmp_path / "none.json")]) == EXIT_USAGE

    @pytest.mark.parametrize("n, strength, z_scale", [(4, 1.0, "1e308"), (13, 1.0, "1e308")])
    def test_overflowing_hamiltonian_is_capacity_error(self, tmp_path, capsys, n, strength,
                                                       z_scale):
        # a finite J * Z_SCALE whose string products sum past the double
        # range, below and above the old 12-site dense cap
        spec = write_spec(tmp_path, chain_spec(n, strength))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["conserved", spec, "--debug-anisotropy", z_scale, "--json"])
        assert_refused_as_overflow(capsys, code)

    @pytest.mark.parametrize("spec", [chain_spec(3, 6e307), ONE_HUGE_EDGE],
                             ids=["chain-3", "one-edge-13"])
    def test_overflowing_commutator_is_capacity_error(self, tmp_path, capsys, spec):
        # H and each product of its strings with those of S^2 are finite, but
        # with Z_SCALE 2 the norm of [H, S^2] is not
        path = write_spec(tmp_path, spec)
        for args in ([], ["--json"]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = run(["conserved", path, "--debug-anisotropy", "2", *args])
            assert_refused_as_overflow(capsys, code)

    @pytest.mark.parametrize("spec, strength", [(chain_spec(3, 3e307), 3e307),
                                                (chain_spec(3, 1e308), 1e308),
                                                (ONE_HUGE_EDGE, 6e307)],
                             ids=["chain-3", "chain-3-1e308", "one-edge-13"])
    def test_isotropic_huge_couplings_read_exact_zeros(self, tmp_path, capsys, report_schema,
                                                       spec, strength):
        # the string products are finite and cancel in pairs, so every row
        # reads 0 against the bound 1e-8 * J.  At J = 1e308 equal products of
        # one sign, summed before their partners, would pass the double range
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["conserved", write_spec(tmp_path, spec), "--json"])
        assert code == EXIT_OK
        rows = check_report(capsys.readouterr().out, report_schema)["results"]
        assert [row["residual"] for row in rows] == [0.0, 0.0, 0.0]
        assert rows[1]["tolerance"] == CONSERVED_TOL * strength

    def test_residual_past_the_squared_range_is_reported(self, tmp_path, capsys, report_schema):
        # [H, S^2] at J = 1e200 with Z_SCALE 2 has coefficients that square
        # past the double range; its norm is finite and reported as measured
        spec = write_spec(tmp_path, chain_spec(4, 1e200))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["conserved", spec, "--debug-anisotropy", "2.0", "--json"])
        assert code == EXIT_CHECK_FAILED
        row = check_report(capsys.readouterr().out, report_schema)["results"][1]
        assert row["name"] == "[H, S^2] commutator residual"
        assert 1e199 < row["residual"] < 1e202
        assert row["tolerance"] == CONSERVED_TOL * 2e200

    def test_h_rows_scale_the_bound_by_the_largest_value(self, tmp_path, capsys, report_schema):
        # rounding in a commutator with H grows with H's largest field or
        # coupling: at J = 1e160 the [H, S^2] residual is about 1e145, far
        # inside 1e-8 * 1e160.  [S_z, S^2] keeps the bound as given, and so
        # does every row of a spec whose values are at most 1 in magnitude.
        cases = [
            (chain_spec(4), ["--tol", "1e-6"], 1e-6, EXIT_OK),
            (HamiltonianSpec(2, -5.0, (CouplingEdge(1, 2, 0.5),)), [], CONSERVED_TOL * 5.0, EXIT_OK),
            (chain_spec(4, 1.5), ["--debug-anisotropy", "-2.0"], CONSERVED_TOL * 3.0,
             EXIT_CHECK_FAILED),
            (chain_spec(4, 1e160), [], CONSERVED_TOL * 1e160, EXIT_OK),
        ]
        for k, (spec, args, h_tol, code) in enumerate(cases):
            path = write_spec(tmp_path, spec, f"spec{k}.json")
            assert run(["conserved", path, "--json", *args]) == code
            report = check_report(capsys.readouterr().out, report_schema)
            tol = float(args[1]) if args[:1] == ["--tol"] else CONSERVED_TOL
            assert [row["tolerance"] for row in report["results"]] == [h_tol, h_tol, tol]
            failed = [row["name"] for row in report["results"] if not row["passed"]]
            assert failed == ([] if code == EXIT_OK else ["[H, S^2] commutator residual"])

    @pytest.mark.parametrize("z_scale, strength", [("nan", 1.0), ("inf", 1.0), ("-inf", 1.0),
                                                   ("1e10", 1e300)])
    def test_non_finite_z_coupling_is_usage_error(self, tmp_path, capsys, monkeypatch,
                                                  z_scale, strength):
        def no_build(*args, **kwargs):
            raise AssertionError("no operator may be built")

        monkeypatch.setattr(cli, "spec_to_kronsum", no_build)
        spec = write_spec(tmp_path, HamiltonianSpec(2, 1.0, (CouplingEdge(1, 2, strength),)))
        assert run(["conserved", spec, f"--debug-anisotropy={z_scale}"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert "--debug-anisotropy must be finite" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0", "-1e-8"])
    def test_tol_must_be_finite_positive(self, tmp_path, capsys, monkeypatch, tol):
        # a NaN or infinite bound would judge nothing and print a token that
        # is not JSON; the same rule as the Lanczos --tol
        def no_build(*args, **kwargs):
            raise AssertionError("no operator may be built")

        monkeypatch.setattr(cli, "spec_to_kronsum", no_build)
        spec = h2_spec(tmp_path)
        assert run(["conserved", spec, f"--tol={tol}", "--json"]) == EXIT_USAGE
        captured = capsys.readouterr()
        message = f"--tol must be a finite positive number, got {float(tol)!r}"
        assert captured.err == f"kronspin: error: {message}\n"
        assert captured.out == ""

    def test_tol_scaled_past_the_double_range_is_usage_error(self, tmp_path, capsys):
        # the [H, .] bounds are 1e300 * 1e10: no bound, and no JSON number
        spec = write_spec(tmp_path, chain_spec(2, 1e10))
        assert run(["conserved", spec, "--tol", "1e300", "--json"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == ("kronspin: error: --tol 1e+300 times the spec's largest value "
                                "10000000000.0 is past the double range\n")
        assert captured.out == ""

    @pytest.mark.parametrize("tol", ["1e-300", "1e300"])
    def test_extreme_finite_tol_gives_strict_json(self, tmp_path, capsys, report_schema, tol):
        assert run(["conserved", h2_spec(tmp_path), "--tol", tol, "--json"]) == EXIT_OK
        report = check_report(capsys.readouterr().out, report_schema)
        assert [row["tolerance"] for row in report["results"]] == [float(tol)] * 3


class TestBench:
    def test_two_sizes_fit_exponent(self, capsys):
        assert run(["bench", "--n-list", "4,6", "--repeats", "1"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "scaling exponent" in out

    def test_range_syntax(self, capsys, report_schema):
        assert run(["bench", "--n-list", "4..6", "--repeats", "1", "--json"]) == EXIT_OK
        report = check_report(capsys.readouterr().out, report_schema)
        sized = [r for r in report["results"] if "n_sites" in r]
        assert [r["n_sites"] for r in sized] == [4, 5, 6]
        assert report["results"][-1]["name"] == "scaling fit"

    def test_single_size_skips_fit(self, capsys):
        assert run(["bench", "--n-list", "5", "--repeats", "1"]) == EXIT_OK
        assert "no exponent fit" in capsys.readouterr().out

    def test_repeated_size_skips_fit(self, capsys, report_schema):
        # a line through one distinct size made numpy warn RankWarning and
        # report a meaningless exponent
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["bench", "--n-list", "5,5", "--repeats", "1"]) == EXIT_OK
            captured = capsys.readouterr()
            assert "single size, no exponent fit" in captured.out
            assert "scaling exponent" not in captured.out
            assert captured.err == ""
            assert run(["bench", "--n-list", "5,5", "--repeats", "1", "--json"]) == EXIT_OK
        report = check_report(capsys.readouterr().out, report_schema)
        assert [r["name"] for r in report["results"]] == ["matvec n=5", "matvec n=5"]

    def test_topology_choices(self, capsys, report_schema):
        assert run(["bench", "--n-list", "4", "--terms", "all", "--repeats", "1", "--json"]) == EXIT_OK
        report = check_report(capsys.readouterr().out, report_schema)
        # complete graph on 4 sites: 4 Zeeman + 3 * C(4,2) coupling terms
        assert report["results"][0]["terms"] == 4 + 3 * 6

    def test_amplitudes_touched_accounting(self, capsys, report_schema):
        assert run(["bench", "--n-list", "4", "--repeats", "1", "--json"]) == EXIT_OK
        report = check_report(capsys.readouterr().out, report_schema)
        row = report["results"][0]
        # chain: one diagonal pass over 16 amplitudes + 3 edges, each two
        # flip-flop moves over a 16 / 4 slab (Zeeman and z-z are diagonal)
        assert row["amplitudes_touched"] == 16 + 3 * 2 * 4

    @pytest.mark.parametrize("topology, n, edges", [("ring", 5, 5), ("all", 4, 6)])
    def test_amplitudes_touched_follow_the_plan(self, capsys, report_schema, topology, n, edges):
        argv = ["bench", "--n-list", str(n), "--terms", topology, "--repeats", "1", "--json"]
        assert run(argv) == EXIT_OK
        report = check_report(capsys.readouterr().out, report_schema)
        row = report["results"][0]
        dim = 1 << n
        assert row["amplitudes_touched"] == dim + edges * 2 * (dim // 4)
        assert "diagonal" in row["note"]

    def test_note_names_the_state_dtype(self, capsys, report_schema):
        # every bench Hamiltonian compiles to a real plan, so the timed state
        # is float64, as in Lanczos
        assert run(["bench", "--n-list", "4", "--repeats", "1", "--json"]) == EXIT_OK
        report = check_report(capsys.readouterr().out, report_schema)
        assert "float64 state" in report["results"][0]["note"]

    def test_rejects_tiny_sites(self, capsys):
        assert run(["bench", "--n-list", "1,4"]) == EXIT_USAGE

    def test_rejects_zero_repeats(self, capsys):
        assert run(["bench", "--n-list", "4", "--repeats", "0"]) == EXIT_USAGE

    def test_rejects_malformed_list(self, capsys):
        assert run(["bench", "--n-list", "x"]) == EXIT_USAGE

    def test_rejects_empty_range(self, capsys):
        assert run(["bench", "--n-list", "6..4"]) == EXIT_USAGE

    def test_tiny_site_in_a_range_is_named(self, capsys):
        assert run(["bench", "--n-list", "1..300000"]) == EXIT_USAGE
        assert capsys.readouterr().err == "kronspin: error: site counts must be >= 2, got 1\n"

    @pytest.mark.parametrize("hi", [1000000, 1000000000000])
    def test_range_past_the_state_cap_is_refused_unbuilt(self, capsys, hi):
        tracemalloc.start()
        try:
            code = run(["bench", "--n-list", f"2..{hi}"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_CAPACITY
        assert capsys.readouterr().err == (
            f"kronspin: error: state allocation failed at n={hi} (2^{hi} amplitudes)\n"
        )
        assert peak < 1 << 20

    def test_rejects_a_list_without_sizes(self, capsys):
        assert run(["bench", "--n-list", ","]) == EXIT_USAGE
        assert capsys.readouterr().err == "kronspin: error: --n-list is empty\n"

    def test_unallocatable_state_is_capacity_error(self, capsys, monkeypatch):
        def exhausted(op, x):
            raise MemoryError

        monkeypatch.setattr(cli, "matvec", exhausted)
        assert run(["bench", "--n-list", "4"]) == EXIT_CAPACITY
        captured = capsys.readouterr()
        assert captured.err == "kronspin: error: state allocation failed at n=4 (2^4 amplitudes)\n"
        assert captured.out == ""


class TestNegativeSeed:
    """numpy's generators take no negative seed: every command that takes
    one refuses it before any operator is built."""

    @pytest.mark.parametrize("command", ["spectrum", "conserved", "bench"])
    def test_refused_as_usage_error(self, tmp_path, capsys, monkeypatch, command):
        def refuse(*args, **kwargs):
            raise AssertionError("an operator was built for a negative seed")

        monkeypatch.setattr(cli, "spec_to_kronsum", refuse)
        if command == "spectrum":
            argv = ["spectrum", write_spec(tmp_path, chain_spec(4)), "--engine", "lanczos"]
        elif command == "conserved":
            # conserved draws nothing, but its --seed is still checked
            argv = ["conserved", write_spec(tmp_path, chain_spec(13))]
        else:
            argv = ["bench", "--n-list", "4"]
        assert run(argv + ["--seed", "-1"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == "kronspin: error: --seed must be a non-negative integer, got -1\n"
        assert captured.out == ""


class TestHugeIntegerLiterals:
    """An integer literal too large for a double is a usage error, whether
    float() overflows (401 digits) or Python will not read it (5000)."""

    @pytest.mark.parametrize("key, digits, message", [
        ("mu_b0", 401, "mu_b0 must be finite"),
        ("J", 401, "coupling strength must be finite"),
        ("J", 5000, "digits"),
    ])
    @pytest.mark.parametrize("command", ["spectrum", "conserved"])
    def test_refused_as_usage_error(self, tmp_path, capsys, command, key, digits, message):
        values = {"mu_b0": "1.0", "J": "1.0", key: "9" * digits}
        path = tmp_path / "spec.json"
        path.write_text(f'{{"n_sites": 2, "mu_b0": {values["mu_b0"]}, '
                        f'"couplings": [{{"i": 1, "j": 2, "J": {values["J"]}}}]}}')
        assert run([command, str(path)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.startswith("kronspin: error: ")
        assert message in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""


class TestUnaddressableRegister:
    """Past 58 sites a complex128 state has more bytes than numpy can
    address; such registers are refused before any operator or state is
    built."""

    @pytest.fixture(autouse=True)
    def no_operator(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an operator was built for an unaddressable register")

        monkeypatch.setattr(cli, "spec_to_kronsum", refuse)

    @pytest.mark.parametrize("n", [60, 63, 64])
    @pytest.mark.parametrize("command", ["spectrum", "conserved", "bench"])
    def test_refused_as_capacity_error(self, tmp_path, capsys, n, command):
        if command == "bench":
            argv = ["bench", "--n-list", f"4,{n}"]
        else:
            spec = write_spec(tmp_path, HamiltonianSpec(n, 1.0, (CouplingEdge(1, 2, 1.0),)))
            argv = [command, spec] + (["--engine", "lanczos"] if command == "spectrum" else [])
        assert run(argv) == EXIT_CAPACITY
        captured = capsys.readouterr()
        assert f"state allocation failed at n={n}" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_cap_is_the_last_addressable_complex_state(self):
        assert (1 << MAX_STATE_SITES) * 16 <= np.iinfo(np.intp).max
        assert (1 << (MAX_STATE_SITES + 1)) * 16 > np.iinfo(np.intp).max


class TestExitCodeTable:
    """run() maps every error the library raises to its exit code, whichever
    command raised it; the dense spectrum catches nothing around eigh."""

    HINT = "; rerun with --engine lanczos for matrix-free extremal eigenvalues"

    @pytest.mark.parametrize("error, code, message", [
        (ConvergenceError("no luck", [(-1.5, 2e-3)]), EXIT_NO_CONVERGENCE,
         "no luck\nkronspin: best estimate -1.5 (residual 2.000e-03)"),
        (CapacityError("13 sites"), EXIT_ENGINE, "13 sites" + HINT),
        (SizingError("too large"), EXIT_CAPACITY, "too large"),
        (ParseError("bad token", line=2, column=3), EXIT_USAGE, "bad token (line 2, column 3)"),
        (ContractError("not Hermitian"), EXIT_USAGE, "not Hermitian"),
        (SiteRangeError("site 9"), EXIT_USAGE, "site 9"),
        (ShapeError("not square"), EXIT_USAGE, "not square"),
        (PermissionError(13, "Permission denied", "x.csv"), EXIT_USAGE,
         "[Errno 13] Permission denied: 'x.csv'"),
    ], ids=["convergence", "capacity", "sizing", "parse", "contract", "site-range", "shape",
            "os"])
    def test_error_maps_to_its_exit_code(self, tmp_path, capsys, monkeypatch, error, code,
                                         message):
        def refuse(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, "eigh", refuse)
        assert run(["spectrum", h2_spec(tmp_path)]) == code
        captured = capsys.readouterr()
        assert captured.err == f"kronspin: error: {message}\n"
        assert captured.out == ""


class TestParser:
    def test_missing_subcommand_exits_with_usage(self):
        with pytest.raises(SystemExit) as err:
            run([])
        assert err.value.code == EXIT_USAGE

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as err:
            run(["frobnicate"])
        assert err.value.code == EXIT_USAGE

    def test_reused_parser_matches_fresh_parsers(self, tmp_path, capsys):
        spec = write_spec(
            tmp_path,
            HamiltonianSpec(3, 1.0, (CouplingEdge(1, 2, 1.0), CouplingEdge(2, 3, 1.0))),
        )
        sequence = [
            ["spectrum", spec, "--k", "2", "--which", "highest"],
            ["spectrum", spec],
            ["conserved", spec, "--debug-anisotropy", "2.0"],
            ["spectrum"],  # usage error: no spec
            ["conserved", spec],
            ["spectrum", spec, "--engine", "lanczos", "--k", "1"],
            ["spectrum", spec, "--k", "3"],
        ]

        def fresh(argv):
            args = build_parser().parse_args(argv)
            return args.handler(args)

        def outcome(call, argv):
            try:
                code = call(argv)
            except SystemExit as stop:
                code = stop.code
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        reused = [outcome(run, argv) for argv in sequence]
        assert reused == [outcome(fresh, argv) for argv in sequence]
        assert [code for code, _, _ in reused] == [EXIT_OK, EXIT_OK, EXIT_CHECK_FAILED,
                                                   EXIT_USAGE, EXIT_OK, EXIT_OK, EXIT_OK]

    def test_spectrum_json_flag_aliases_format(self, tmp_path, capsys, report_schema):
        spec = h2_spec(tmp_path)
        assert run(["spectrum", spec, "--json"]) == EXIT_OK
        check_report(capsys.readouterr().out, report_schema)


class TestEdgeListOperatorsBuildNoTerms:
    """H, S_z and S^2 are read through their plans and Pauli strings only:
    these requests run with KronTerm construction refused and print what
    they print without."""

    @pytest.mark.parametrize("spec, args", [
        (ring_spec(9), ["conserved"]),
        (chain_spec(13), ["conserved"]),
        (chain_spec(7), ["spectrum"]),
        (ring_spec(8), ["spectrum", "--engine", "lanczos", "--k", "2"]),
        (None, ["bench", "--n-list", "6", "--repeats", "1", "--json"]),
    ], ids=["conserved-exact-ring-9", "conserved-exact-chain-13", "spectrum-dense-chain-7",
            "spectrum-lanczos-ring-8", "bench-chain-6"])
    def test_request_runs_without_kron_terms(self, tmp_path, capsys, monkeypatch, spec, args):
        argv = args if spec is None else args[:1] + [write_spec(tmp_path, spec)] + args[1:]

        def answer():
            assert run(argv) == EXIT_OK
            captured = capsys.readouterr()
            if spec is not None:
                return captured.out, captured.err
            # bench times its matvecs: compare its rows without the times
            rows = json.loads(captured.out)["results"]
            return [{k: v for k, v in row.items() if k != "wall_seconds"} for row in rows], captured.err

        expected = answer()

        def refuse(self):
            raise AssertionError("a KronTerm was built")

        monkeypatch.setattr(KronTerm, "__post_init__", refuse)
        assert answer() == expected
