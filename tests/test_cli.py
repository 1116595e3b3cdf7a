import json

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
from kronspin.hamiltonian_builder import (
    CouplingEdge,
    HamiltonianSpec,
    build_general,
    save_spec,
)
from kronspin.kron_core import kron
from kronspin.matfree_engine import total_component, total_spin_squared
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


def check_report(text: str, schema) -> dict:
    report = json.loads(text)
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

    def test_dense_above_cap_suggests_lanczos(self, tmp_path, capsys):
        spec = write_spec(tmp_path, HamiltonianSpec(13, 1.0))
        assert run(["spectrum", spec]) == EXIT_ENGINE
        assert "--engine lanczos" in capsys.readouterr().err

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

    def test_bad_spec_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        assert run(["spectrum", str(path)]) == EXIT_USAGE
        assert "invalid JSON" in capsys.readouterr().err

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

    def test_nonpositive_k(self, tmp_path):
        spec = h2_spec(tmp_path)
        assert run(["spectrum", spec, "--k", "0"]) == EXIT_USAGE


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

    def test_probe_method_above_dense_cap(self, tmp_path, capsys, report_schema):
        spec = write_spec(
            tmp_path,
            HamiltonianSpec(13, 1.0, tuple(CouplingEdge(i, i + 1, 1.0) for i in range(1, 13))),
        )
        assert run(["conserved", spec, "--json"]) == EXIT_OK
        report = check_report(capsys.readouterr().out, report_schema)
        for row in report["results"]:
            assert row["method"] == "probe"
            assert row["passed"]

    def test_anisotropy_injection_on_probe_path(self, tmp_path, capsys, report_schema):
        spec = write_spec(
            tmp_path,
            HamiltonianSpec(13, 1.0, tuple(CouplingEdge(i, i + 1, 1.0) for i in range(1, 13))),
        )
        assert run(["conserved", spec, "--debug-anisotropy", "2.0", "--json"]) == EXIT_CHECK_FAILED
        report = check_report(capsys.readouterr().out, report_schema)
        failed = [r["name"] for r in report["results"] if not r["passed"]]
        assert failed == ["[H, S^2] commutator residual"]
        assert all(r["method"] == "probe" for r in report["results"])

    def test_unallocatable_state_is_capacity_error(self, tmp_path, capsys):
        spec = write_spec(tmp_path, HUGE_SPEC)
        assert run(["conserved", spec]) == EXIT_CAPACITY
        err = capsys.readouterr().err
        assert "state allocation failed at n=56" in err
        assert "Traceback" not in err

    def test_missing_spec_file(self, tmp_path):
        assert run(["conserved", str(tmp_path / "none.json")]) == EXIT_USAGE


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
