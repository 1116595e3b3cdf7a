import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kronspin.dense_linalg import eigh
from kronspin.errors import (
    CapacityError,
    ContractError,
    ParseError,
    SiteRangeError,
    SizingError,
)
from kronspin.hamiltonian_builder import (
    CouplingEdge,
    HamiltonianSpec,
    WeightTriple,
    build_general,
    build_h2,
    build_h3,
    component_square_residual,
    load_spec,
    save_spec,
    spec_from_dict,
    spec_to_dict,
    verify_h2_decomposition,
)
from kronspin.matfree_engine import (
    _compile,
    _scatter_dense,
    matvec,
    spec_to_kronsum,
    to_dense,
    total_component,
)
from kronspin.spin_algebra import DENSE_SITE_CAP, conserved_residual, pauli

from conftest import unit_floats

EYE2 = np.eye(2, dtype=np.complex128)


def h2_oracle(mu_b0: float, j12: float) -> np.ndarray:
    """The displayed two-site form, written out with np.kron only."""
    sx, sy, sz = pauli("x"), pauli("y"), pauli("z")
    zeeman = -mu_b0 * (np.kron(sz, EYE2) + np.kron(EYE2, sz))
    coupling = j12 * (np.kron(sx, sx) + np.kron(sy, sy) + np.kron(sz, sz))
    return zeeman + coupling


def h2_spectrum_closed_form(mu_b0: float, j12: float) -> np.ndarray:
    return np.sort([-3 * j12, j12 - 2 * mu_b0, j12, j12 + 2 * mu_b0])


class TestEdgesAndSpecs:
    def test_edge_normalizes_site_order(self):
        e = CouplingEdge(3, 1, 0.5)
        assert (e.i, e.j, e.strength) == (1, 3, 0.5)

    def test_edge_keeps_sorted_order(self):
        e = CouplingEdge(1, 3, -2)
        assert (e.i, e.j, e.strength) == (1, 3, -2.0)

    def test_self_coupling_rejected(self):
        with pytest.raises(ContractError):
            CouplingEdge(2, 2, 1.0)

    def test_nonpositive_site_rejected(self):
        with pytest.raises(SiteRangeError):
            CouplingEdge(0, 1, 1.0)

    def test_non_integer_site_rejected(self):
        with pytest.raises(ContractError):
            CouplingEdge(1.5, 2, 1.0)

    def test_non_finite_strength_rejected(self):
        with pytest.raises(ContractError):
            CouplingEdge(1, 2, float("inf"))

    def test_spec_rejects_edge_past_n_sites(self):
        with pytest.raises(SiteRangeError):
            HamiltonianSpec(2, 0.0, (CouplingEdge(1, 3, 1.0),))

    def test_spec_rejects_duplicate_edges_across_orderings(self):
        with pytest.raises(ContractError):
            HamiltonianSpec(3, 0.0, (CouplingEdge(1, 3, 1.0), CouplingEdge(3, 1, 2.0)))

    def test_spec_rejects_couplings_that_are_not_edges(self):
        with pytest.raises(ContractError, match="CouplingEdge instances"):
            HamiltonianSpec(2, 1.0, ((1, 2, 1.0),))

    def test_spec_rejects_bad_site_count(self):
        with pytest.raises(ContractError):
            HamiltonianSpec(0, 0.0)

    def test_spec_rejects_bool_site_count(self):
        with pytest.raises(ContractError, match="n_sites"):
            HamiltonianSpec(True, 0.0)

    @pytest.mark.parametrize("i, j", [(True, 2), (1, True)])
    def test_edge_rejects_bool_site(self, i, j):
        with pytest.raises(ContractError, match="integers"):
            CouplingEdge(i, j, 1.0)

    def test_edge_takes_numpy_integer_sites(self):
        e = CouplingEdge(np.int64(3), np.int32(1), 0.5)
        assert e == CouplingEdge(3, 1, 0.5)
        assert type(e.i) is int and type(e.j) is int

    def test_spec_takes_numpy_integer_site_count(self, tmp_path):
        edges = (CouplingEdge(np.int64(1), np.int64(3), 1.0),)
        spec = HamiltonianSpec(np.int64(3), 0.5, edges)
        want = HamiltonianSpec(3, 0.5, (CouplingEdge(1, 3, 1.0),))
        assert spec == want and type(spec.n_sites) is int
        assert np.array_equal(build_general(spec), build_general(want))
        save_spec(spec, tmp_path / "spec.json")
        assert load_spec(tmp_path / "spec.json") == want

    def test_weight_triple_rejects_nan(self):
        with pytest.raises(ContractError):
            WeightTriple(1.0, float("nan"), 0.0)

    def test_integers_past_the_double_range_rejected(self):
        # float() of a 401-digit integer raises OverflowError, not inf
        huge = 10 ** 400
        with pytest.raises(ContractError, match="coupling strength must be finite"):
            CouplingEdge(1, 2, -huge)
        with pytest.raises(ContractError, match="mu_b0 must be finite"):
            HamiltonianSpec(2, huge)
        with pytest.raises(ContractError, match="a_y must be finite"):
            WeightTriple(1.0, huge, 0.0)


class TestBuildH2:
    def test_zero_inputs_give_zero(self):
        assert np.array_equal(build_h2(0.0, 0.0), np.zeros((4, 4)))

    @given(unit_floats, unit_floats)
    @settings(max_examples=50)
    def test_matches_hand_kron_oracle_exactly(self, mu_b0, j12):
        assert np.array_equal(build_h2(mu_b0, j12), h2_oracle(mu_b0, j12))

    @given(unit_floats, unit_floats)
    @settings(max_examples=30)
    def test_spectrum_closed_form(self, mu_b0, j12):
        values = eigh(build_h2(mu_b0, j12), want_vectors=False).eigenvalues
        assert np.max(np.abs(values - h2_spectrum_closed_form(mu_b0, j12))) < 1e-10

    def test_unit_parameters_spectrum(self):
        values = eigh(build_h2(1.0, 1.0), want_vectors=False).eigenvalues
        assert np.allclose(values, [-3.0, -1.0, 1.0, 3.0], atol=1e-12)

    def test_hermitian_exactly(self, rng):
        for _ in range(20):
            h = build_h2(rng.uniform(-2, 2), rng.uniform(-2, 2))
            assert np.array_equal(h, h.conj().T)

    def test_sz_conserved(self, rng):
        sz = total_component("z", 2)
        for _ in range(20):
            h = build_h2(rng.uniform(-2, 2), rng.uniform(-2, 2))
            assert conserved_residual(h, sz) < 1e-13

    def test_coupling_part_is_traceless(self):
        assert build_h2(0.0, 0.7).trace() == 0


class TestBuildH3:
    def test_single_edge_matches_general_builder(self):
        via_wrapper = build_h3(0.3, 0.9, 0.0, 0.0)
        via_general = build_general(
            HamiltonianSpec(3, 0.3, (CouplingEdge(1, 2, 0.9),))
        )
        zero_edges = build_general(
            HamiltonianSpec(
                3,
                0.3,
                (CouplingEdge(1, 2, 0.9), CouplingEdge(2, 3, 0.0), CouplingEdge(3, 1, 0.0)),
            )
        )
        assert np.array_equal(via_wrapper, zero_edges)
        assert np.allclose(via_wrapper, via_general, atol=1e-15)

    def test_wrapper_is_general_builder_on_triangle(self):
        want = build_general(
            HamiltonianSpec(
                3,
                0.2,
                (CouplingEdge(1, 2, 0.4), CouplingEdge(2, 3, -0.6), CouplingEdge(1, 3, 1.1)),
            )
        )
        assert np.array_equal(build_h3(0.2, 0.4, -0.6, 1.1), want)

    def test_hand_kron_oracle(self):
        mu_b0, j12, j23, j31 = 0.7, 0.5, -0.3, 0.2
        sx, sy, sz = pauli("x"), pauli("y"), pauli("z")
        h = np.zeros((8, 8), dtype=np.complex128)
        for lifted in (
            np.kron(np.kron(sz, EYE2), EYE2),
            np.kron(np.kron(EYE2, sz), EYE2),
            np.kron(np.kron(EYE2, EYE2), sz),
        ):
            h -= mu_b0 * lifted
        for s in (sx, sy, sz):
            h += j12 * np.kron(np.kron(s, s), EYE2)
            h += j23 * np.kron(np.kron(EYE2, s), s)
            h += j31 * np.kron(np.kron(s, EYE2), s)
        assert np.max(np.abs(build_h3(mu_b0, j12, j23, j31) - h)) < 1e-15

    def test_sz_conserved(self, rng):
        sz = total_component("z", 3)
        for _ in range(10):
            h = build_h3(*rng.uniform(-2, 2, size=4))
            assert conserved_residual(h, sz) < 1e-13

    def test_hermitian_exactly(self, rng):
        h = build_h3(*rng.uniform(-2, 2, size=4))
        assert np.array_equal(h, h.conj().T)


class TestDecompositionCheck:
    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    @pytest.mark.parametrize("weight", [0.0, 0.5, -1.25])
    def test_component_square_identity_exact(self, axis, weight):
        assert component_square_residual(axis, weight) == 0.0

    def test_isotropic_weights_reproduce_h2(self):
        report = verify_h2_decomposition(WeightTriple(0.5, 0.5, 0.5), mu_b0=-0.5)
        assert report.passed
        assert report.residual < 1e-12
        assert "matched J" in report.note

    def test_zero_weights_zero_field(self):
        report = verify_h2_decomposition(WeightTriple(0.0, 0.0, 0.0), mu_b0=0.0)
        assert report.passed
        assert report.residual == 0.0

    def test_anisotropic_weights_fail_with_residual(self):
        report = verify_h2_decomposition(WeightTriple(1.0, 1.0, 0.2), mu_b0=-0.2)
        assert not report.passed
        assert report.residual > 0.1
        assert "spread" in report.note

    def test_mismatched_field_fails(self):
        report = verify_h2_decomposition(WeightTriple(0.5, 0.5, 0.5), mu_b0=2.0)
        assert not report.passed

    @given(unit_floats)
    @settings(max_examples=25)
    def test_any_uniform_weight_with_consistent_field_passes(self, a):
        report = verify_h2_decomposition(WeightTriple(a, a, a), mu_b0=-a)
        assert report.passed


    @pytest.mark.parametrize("weights", [(1e154, 1e154, 1e154), (1e200, 1.0, 1.0), (0.0, 0.0, 8e153)])
    def test_squares_past_the_double_range_refused(self, weights):
        # 1e200 squared raised OverflowError; 1e154 overflowed in a matmul
        # and ended in a refusal of a coupling never passed
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SizingError, match="past the double range"):
                verify_h2_decomposition(WeightTriple(*weights), 1.0)

    def test_distance_past_the_double_range_reads_inf(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = verify_h2_decomposition(WeightTriple(0.0, 0.0, 6.6e153), 7e307)
        assert report.residual == np.inf and not report.passed


class TestSpecSerialization:
    def test_round_trip_preserves_spec(self, tmp_path):
        spec = HamiltonianSpec(
            4, -0.75, (CouplingEdge(1, 2, 1.0), CouplingEdge(2, 4, -0.5))
        )
        path = tmp_path / "spec.json"
        save_spec(spec, path)
        assert load_spec(path) == spec

    @pytest.mark.parametrize("content, match", [(b"{nope", "invalid JSON"),
                                                (b"\xff{}", "not UTF-8 text")])
    def test_unreadable_file_raises_parse_error(self, tmp_path, content, match):
        path = tmp_path / "spec.json"
        path.write_bytes(content)
        with pytest.raises(ParseError, match=match) as err:
            load_spec(path)
        assert str(err.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("digits", [401, 5000])
    def test_integer_literal_too_large_for_a_double(self, tmp_path, digits):
        # 401 digits overflow float(); past 4300 Python refuses to read the
        # integer at all
        path = tmp_path / "spec.json"
        path.write_text(f'{{"n_sites": 2, "mu_b0": 1.0, '
                        f'"couplings": [{{"i": 1, "j": 2, "J": {"9" * digits}}}]}}')
        error = ContractError if digits < 4300 else ParseError
        with pytest.raises(error, match="coupling strength" if digits < 4300 else "digits"):
            load_spec(path)

    def test_dict_round_trip(self):
        spec = HamiltonianSpec(3, 0.25, (CouplingEdge(3, 1, 2.0),))
        data = spec_to_dict(spec)
        assert data["couplings"] == [{"i": 1, "j": 3, "J": 2.0}]
        assert spec_from_dict(data) == spec

    def test_unknown_key_rejected(self):
        with pytest.raises(ContractError, match="unknown spec keys"):
            spec_from_dict({"n_sites": 2, "mu_b0": 0.0, "couplings": [], "extra": 1})

    def test_missing_key_rejected(self):
        with pytest.raises(ContractError, match="missing key"):
            spec_from_dict({"n_sites": 2})

    def test_bad_coupling_entry_rejected(self):
        with pytest.raises(ContractError, match="keys i, j, J"):
            spec_from_dict({"n_sites": 2, "mu_b0": 0.0, "couplings": [{"i": 1, "j": 2}]})

    @pytest.mark.parametrize("data, match", [
        ({"n_sites": 2, "mu_b0": 1.0, "couplings": None}, "couplings must be a list"),
        ({"n_sites": 2, "mu_b0": 1.0, "couplings": {"i": 1, "j": 2, "J": 1.0}},
         "couplings must be a list"),
        ({"n_sites": 2, "mu_b0": 1.0, "couplings": [{"i": 1, "j": 2, "J": None}]},
         "coupling J must be a JSON number"),
        ({"n_sites": 2, "mu_b0": 1.0, "couplings": [{"i": 1, "j": 2, "J": "1.0"}]},
         "coupling J must be a JSON number"),
        ({"n_sites": 2, "mu_b0": 1.0, "couplings": [{"i": 1, "j": 2, "J": True}]},
         "coupling J must be a JSON number"),
        ({"n_sites": 2, "mu_b0": 1.0, "couplings": [{"i": True, "j": 2, "J": 1.0}]},
         "coupling i must be a JSON number"),
        ({"n_sites": 2, "mu_b0": None}, "mu_b0 must be a JSON number"),
        ({"n_sites": 2, "mu_b0": "1.0"}, "mu_b0 must be a JSON number"),
        ({"n_sites": 2, "mu_b0": False}, "mu_b0 must be a JSON number"),
        ({"n_sites": True, "mu_b0": 1.0}, "n_sites must be a JSON number"),
        ({"n_sites": None, "mu_b0": 1.0}, "n_sites must be a JSON number"),
    ])
    def test_malformed_value_rejected(self, data, match):
        with pytest.raises(ContractError, match=match):
            spec_from_dict(data)

    def test_couplings_key_optional(self):
        spec = spec_from_dict({"n_sites": 2, "mu_b0": 1.0})
        assert spec.couplings == ()


class TestGeneralBuilder:
    @given(st.integers(min_value=1, max_value=5), unit_floats)
    @settings(max_examples=20)
    def test_field_only_hamiltonian_is_diagonal_zeeman(self, n, mu_b0):
        h = build_general(HamiltonianSpec(n, mu_b0))
        want = -2.0 * mu_b0 * total_component("z", n)
        assert np.max(np.abs(h - want)) < 1e-13

    def test_random_spec_matches_hand_oracle(self, rng):
        n = 4
        edges = (CouplingEdge(1, 3, 0.8), CouplingEdge(2, 4, -0.4), CouplingEdge(1, 2, 0.1))
        spec = HamiltonianSpec(n, 0.6, edges)
        eyes = [EYE2] * n

        def lifted(op, site):
            mats = list(eyes)
            mats[site - 1] = op
            out = mats[0]
            for m in mats[1:]:
                out = np.kron(out, m)
            return out

        want = np.zeros((16, 16), dtype=np.complex128)
        for site in range(1, n + 1):
            want -= 0.6 * lifted(pauli("z"), site)
        for e in edges:
            for axis in "xyz":
                want += e.strength * lifted(pauli(axis), e.i) @ lifted(pauli(axis), e.j)
        assert np.max(np.abs(build_general(spec) - want)) < 1e-14


def seeded_spec(rng, n: int) -> HamiltonianSpec:
    """A ring plus random long-range edges, shuffled so stored order differs
    from site order."""
    pairs = {tuple(sorted((k, k % n + 1))) for k in range(1, n + 1) if n > 1}
    pairs |= {(i, j) for i in range(1, n + 1) for j in range(i + 2, n + 1) if rng.random() < 0.3}
    pairs = sorted(pairs)
    rng.shuffle(pairs)
    edges = tuple(CouplingEdge(i, j, rng.uniform(-2, 2)) for i, j in pairs)
    return HamiltonianSpec(n, rng.uniform(-2, 2), edges)


class TestDirectFill:
    def test_z_scaled_build_equals_scaled_kronsum_bitwise(self):
        rng = np.random.default_rng(3031)
        for n in range(1, 8):
            for _ in range(3):
                spec = seeded_spec(rng, n)
                z_scale = rng.uniform(-2, 2)
                want = to_dense(spec_to_kronsum(spec, z_scale))
                assert np.array_equal(build_general(spec, z_scale), want)

    @pytest.mark.parametrize("z_scale", [1.0, 2.0, -0.7, 0.0])
    def test_build_equals_plan_scatter_bitwise(self, z_scale):
        rng = np.random.default_rng(4242)
        for n in range(1, 10):
            for _ in range(3):
                spec = seeded_spec(rng, n)
                want = _scatter_dense(_compile(spec_to_kronsum(spec, z_scale)))
                assert np.array_equal(build_general(spec, z_scale), want)

    def test_dense_cap_build_equals_matvec_columns(self):
        rng = np.random.default_rng(1212)
        spec = seeded_spec(rng, DENSE_SITE_CAP)
        h = build_general(spec)
        op = spec_to_kronsum(spec)
        for k in rng.choice(h.shape[0], size=6, replace=False):
            e = np.zeros(h.shape[0], dtype=np.complex128)
            e[k] = 1.0
            assert np.array_equal(matvec(op, e), h[:, k])

    def test_capacity_cap(self):
        with pytest.raises(CapacityError, match="matrix-free"):
            build_general(HamiltonianSpec(DENSE_SITE_CAP + 1, 1.0))
