"""Tests for accessible-variable operators and coarse graining.

The worked d=3 merge example and the 2x2 outer-product sums are independent
hand calculations; random-spec properties are checked against the package
eigensolver (itself cross-checked against numpy elsewhere).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qastates import evariables as ev
from qastates import linalg, spin


def random_orthonormal_basis(rng, d):
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    dec = linalg.hermitian_eig((m + m.conj().T) / 2.0)
    return tuple(dec.eigenvectors[:, k] for k in range(d))


def random_spec(rng, d, name="theta"):
    # Strictly increasing, well separated values.
    values = np.cumsum(rng.uniform(0.5, 2.0, size=d)) + rng.uniform(-3, 3)
    return ev.EVariableSpec(name, tuple(values), random_orthonormal_basis(rng, d))


class TestEVariableSpec:
    def test_standard_factory(self):
        spec = ev.EVariableSpec.standard("lam", (1.0, 2.0, 3.0))
        assert spec.dim == 3
        assert spec.values == (1.0, 2.0, 3.0)

    def test_rejects_non_increasing(self):
        with pytest.raises(ValueError):
            ev.EVariableSpec.standard("x", (1.0, 1.0))
        with pytest.raises(ValueError):
            ev.EVariableSpec.standard("x", (2.0, 1.0))

    def test_rejects_tiny_gap(self):
        with pytest.raises(ValueError) as info:
            ev.EVariableSpec.standard("x", (0.0, 1e-12, 1.0))
        assert str(info.value) == "values too close: gap 1.000e-12 vs scale 1.000e+00"

    def test_rejects_nan_basis(self):
        v = np.array([np.nan, 0.0], dtype=complex)
        w = np.array([0.0, 1.0], dtype=complex)
        with pytest.raises(ValueError, match="not orthonormal"):
            ev.EVariableSpec("x", (1.0, 2.0), (v, w))

    def test_rejects_non_orthonormal_basis(self):
        v = np.array([1.0, 0.0], dtype=complex)
        w = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)
        with pytest.raises(ValueError):
            ev.EVariableSpec("x", (1.0, 2.0), (v, w))

    def test_rejects_incomplete_basis(self):
        v = np.array([1.0, 0.0, 0.0], dtype=complex)
        w = np.array([0.0, 1.0, 0.0], dtype=complex)
        with pytest.raises(ValueError):
            ev.EVariableSpec("x", (1.0, 2.0), (v, w))


class TestOperatorFromMaximal:
    def test_standard_basis_gives_diagonal(self):
        spec = ev.EVariableSpec.standard("lam", (1.0, 2.0))
        assert np.abs(ev.operator_from_maximal(spec) - np.diag([1.0, 2.0])).max() < 1e-15
        spec3 = ev.EVariableSpec.standard("lam", (0.0, 1.0, 2.0))
        assert (
            np.abs(ev.operator_from_maximal(spec3) - np.diag([0.0, 1.0, 2.0])).max()
            < 1e-15
        )

    def test_hadamard_basis_outer_product_sum(self):
        # By hand: (-1)P_+ + (+1)P_- with P_+- = (I +- sigma_x)/2 sums to
        # -sigma_x; swapping which vector carries which value gives +sigma_x.
        plus = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)
        minus = np.array([1.0, -1.0], dtype=complex) / math.sqrt(2)
        sx = np.array([[0.0, 1.0], [1.0, 0.0]])
        b = ev.operator_from_maximal(ev.EVariableSpec("s", (-1.0, 1.0), (plus, minus)))
        assert np.abs(b - (-sx)).max() < 1e-14
        b2 = ev.operator_from_maximal(ev.EVariableSpec("s", (-1.0, 1.0), (minus, plus)))
        assert np.abs(b2 - sx).max() < 1e-14

    def test_spectrum_matches_values(self):
        rng = np.random.default_rng(2)
        for d in (2, 4, 7):
            spec = random_spec(rng, d)
            dec = linalg.hermitian_eig(ev.operator_from_maximal(spec))
            assert dec.eigenvalues == pytest.approx(spec.values, abs=1e-10)

    def test_hermitian(self):
        rng = np.random.default_rng(8)
        b = ev.operator_from_maximal(random_spec(rng, 5))
        assert np.abs(b - b.conj().T).max() < 1e-12


class TestCoarseGrain:
    def test_worked_three_level_merge(self):
        spec = ev.EVariableSpec.standard("lam", (1.0, 2.0, 3.0))
        cg, a = ev.coarse_grain(spec, {1.0: 10.0, 2.0: 10.0, 3.0: 20.0})
        assert np.abs(a - np.diag([10.0, 10.0, 20.0])).max() < 1e-14
        assert cg.coarse_values == (10.0, 20.0)
        assert cg.classes == ((0, 1), (2,))
        assert np.abs(cg.projectors[0] - np.diag([1.0, 1.0, 0.0])).max() < 1e-14
        assert np.abs(cg.projectors[1] - np.diag([0.0, 0.0, 1.0])).max() < 1e-14

    def test_identity_map_round_trip(self):
        rng = np.random.default_rng(4)
        spec = random_spec(rng, 5)
        cg, a = ev.coarse_grain(spec, {v: v for v in spec.values})
        assert np.abs(a - ev.operator_from_maximal(spec)).max() <= 1e-11
        assert cg.injective

    def test_constant_map(self):
        spec = ev.EVariableSpec.standard("lam", (1.0, 2.0, 3.0))
        cg, a = ev.coarse_grain(spec, lambda v: 7.0)
        assert np.abs(a - 7.0 * np.eye(3)).max() < 1e-14
        assert len(cg.classes) == 1
        assert cg.classes[0] == (0, 1, 2)

    def test_callable_map(self):
        spec = ev.EVariableSpec.standard("lam", (-1.0, 0.0, 1.0))
        cg, a = ev.coarse_grain(spec, lambda v: v * v)
        assert cg.coarse_values == (0.0, 1.0)
        assert cg.classes == ((1,), (0, 2))

    def test_undefined_value_rejected(self):
        spec = ev.EVariableSpec.standard("lam", (1.0, 2.0))
        with pytest.raises(ValueError):
            ev.coarse_grain(spec, {1.0: 5.0})

    def test_ill_posed_coarse_values_rejected(self):
        spec = ev.EVariableSpec.standard("lam", (1.0, 2.0, 3.0))
        with pytest.raises(ValueError) as info:
            ev.coarse_grain(spec, {1.0: 0.0, 2.0: 1e-15, 3.0: 1.0})
        assert str(info.value) == (
            "coarse values too close to separate: gap 1.000e-15 vs scale 1.000e+00"
        )

    def test_rejects_nan_projectors(self):
        spec = ev.EVariableSpec.standard("x", (1.0, 2.0))
        nan = np.full((2, 2), np.nan)
        with pytest.raises(ValueError, match="do not resolve identity: nan"):
            ev.CoarseGraining(spec, (1.0,), ((0, 1),), (nan,))
        with pytest.raises(ValueError, match="projectors 0 and 1 overlap: nan"):
            ev.CoarseGraining(spec, (1.0, 2.0), ((0,), (1,)), (nan, np.diag([0.0, 1.0])))

    def test_coarse_values_ascending(self):
        spec = ev.EVariableSpec.standard("lam", (1.0, 2.0, 3.0))
        cg, _ = ev.coarse_grain(spec, {1.0: 9.0, 2.0: -4.0, 3.0: 2.5})
        assert cg.coarse_values == (-4.0, 2.5, 9.0)

    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_random_merge_properties(self, d):
        rng = np.random.default_rng(100 + d)
        for _ in range(5):
            spec = random_spec(rng, d)
            # Random non-injective map onto a few well-separated levels.
            n_levels = int(rng.integers(1, d))
            levels = np.cumsum(rng.uniform(1.0, 2.0, size=n_levels))
            assignment = {
                v: float(levels[rng.integers(0, n_levels)]) for v in spec.values
            }
            cg, a = ev.coarse_grain(spec, assignment)
            eye = np.eye(d)
            assert np.abs(sum(cg.projectors) - eye).max() <= 1e-11
            for i, p in enumerate(cg.projectors):
                for k in range(i + 1, len(cg.projectors)):
                    assert np.abs(p @ cg.projectors[k]).max() <= 1e-11
            for u, p in zip(cg.coarse_values, cg.projectors):
                assert np.abs(a @ p - u * p).max() <= 1e-10
            # Eigenspace dimension equals class size: eigenvalue u appears
            # |C_i| times in the oracle spectrum.
            dec = linalg.hermitian_eig(a)
            for u, c in zip(cg.coarse_values, cg.classes):
                count = int(np.sum(np.abs(dec.eigenvalues - u) < 1e-8))
                assert count == len(c)


class TestMaximalAccessibility:
    def test_simple_spectrum(self):
        assert ev.is_maximally_accessible(np.diag([1.0, 2.0, 3.0]).astype(complex))

    def test_degenerate_spectrum(self):
        assert not ev.is_maximally_accessible(np.diag([1.0, 1.0, 2.0]).astype(complex))

    def test_component_operator_is_maximal(self):
        rng = np.random.default_rng(6)
        op = spin.component_operator(spin.SpinSystem(1.0), spin.random_direction(rng))
        assert ev.is_maximally_accessible(op)

    def test_separation_threshold(self):
        # Gaps are measured against SEPARATION = 1e-9 of the largest magnitude, 2.
        assert ev.SEPARATION == 1e-9
        assert ev.is_maximally_accessible(np.diag([1.0, 1.0 + 1e-8, 2.0]).astype(complex))
        assert not ev.is_maximally_accessible(np.diag([1.0, 1.0 + 1e-10, 2.0]).astype(complex))

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            ev.is_maximally_accessible(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_accepts_a_decomposition(self):
        for diagonal in ([1.0, 2.0, 3.0], [1.0, 1.0, 2.0]):
            a = np.diag(diagonal).astype(complex)
            dec = linalg.hermitian_eig(a)
            assert ev.is_maximally_accessible(dec) == ev.is_maximally_accessible(a)

    def test_maximality_iff_injective(self):
        rng = np.random.default_rng(12)
        spec = random_spec(rng, 4)
        _, merged = ev.coarse_grain(spec, {v: min(spec.values[:2]) for v in spec.values})
        assert not ev.is_maximally_accessible(merged)
        _, kept = ev.coarse_grain(spec, {v: 2.0 * v for v in spec.values})
        assert ev.is_maximally_accessible(kept)


# Any float, or one whose square lies near the largest float.
OUTCOMES = st.floats() | st.sampled_from((9e153, -1e154, 1.2e154, 1.3e154, -1.4e154, 1e200))


class TestAcceptedRange:
    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(OUTCOMES, min_size=1, max_size=4),
        mapped=st.lists(OUTCOMES, min_size=4, max_size=4),
    )
    def test_accepted_operators_can_be_diagonalized(self, values, mapped):
        # Values are accepted iff their squares sum to a finite float, the
        # squared Frobenius norm that the eigensolver requires to be finite.
        values = sorted(values)
        try:
            spec = ev.EVariableSpec.standard("theta", values)
        except ValueError as exc:
            if "squares sum to" in str(exc):
                with pytest.raises(ValueError, match="Frobenius norm"):
                    linalg.hermitian_eig(np.diag(values))
            return
        linalg.hermitian_eig(ev.operator_from_maximal(spec))
        outputs = mapped[: spec.dim]
        try:
            _, a = ev.coarse_grain(spec, dict(zip(spec.values, outputs)))
        except ValueError as exc:
            if "squares sum to" in str(exc):
                with pytest.raises(ValueError, match="Frobenius norm"):
                    linalg.hermitian_eig(np.diag(outputs))
            return
        linalg.hermitian_eig(a)

    def test_values_whose_squares_overflow_are_refused(self):
        with pytest.raises(ValueError, match=r"^values overflow or non-finite: their squares sum to inf$"):
            ev.EVariableSpec.standard("theta", (1.0, 1e200))
        # 1e154 squared is finite, and so is 1 + 1e308.
        ev.EVariableSpec.standard("theta", (1.0, 1e154))

    def test_map_outputs_count_with_multiplicity(self):
        # One coarse value 1e154, but three basis directions carry it, so
        # the merged operator's squared entries sum to 3e308.
        spec = ev.EVariableSpec.standard("theta", (1.0, 2.0, 3.0))
        with pytest.raises(ValueError, match=r"^outcome map values overflow or non-finite: "):
            ev.coarse_grain(spec, {1.0: 1e154, 2.0: 1e154, 3.0: 1e154})
        with pytest.raises(ValueError, match="Frobenius norm"):
            linalg.hermitian_eig(np.diag([1e154] * 3))
        cg, a = ev.coarse_grain(spec, {1.0: 1e154, 2.0: 1.0, 3.0: 1.0})
        assert cg.coarse_values == (1.0, 1e154)
        linalg.hermitian_eig(a)


class TestInterpret:
    def test_worked_example_records(self):
        spec = ev.EVariableSpec.standard("lam", (1.0, 2.0, 3.0))
        cg, _ = ev.coarse_grain(spec, {1.0: 10.0, 2.0: 10.0, 3.0: 20.0})
        rec = ev.interpret(cg, 0)
        assert rec.question == "What is the value of lam?"
        assert rec.answer == 10.0
        assert len(rec.basis) == 2
        rec1 = ev.interpret(cg, 1)
        assert rec1.answer == 20.0
        assert len(rec1.basis) == 1

    def test_constant_case_full_basis(self):
        spec = ev.EVariableSpec.standard("lam", (1.0, 2.0, 3.0))
        cg, _ = ev.coarse_grain(spec, lambda v: 7.0)
        rec = ev.interpret(cg, 0)
        assert rec.answer == 7.0
        assert len(rec.basis) == 3

    def test_index_out_of_range(self):
        spec = ev.EVariableSpec.standard("lam", (1.0, 2.0))
        cg, _ = ev.coarse_grain(spec, lambda v: v)
        with pytest.raises(ValueError):
            ev.interpret(cg, 2)


class TestReport:
    def test_report_passes_on_good_merge(self):
        spec = ev.EVariableSpec.standard("lam", (1.0, 2.0, 3.0))
        rep = ev.coarse_grain_report(*ev.coarse_grain(spec, {1.0: 10.0, 2.0: 10.0, 3.0: 20.0}))
        assert rep.subject == "coarse_grain"
        assert rep.verdict == "pass"
        assert rep.metrics["classes"] == 2.0
        assert rep.metrics["injective"] == 0.0

    def test_report_random_specs(self):
        rng = np.random.default_rng(77)
        for _ in range(5):
            spec = random_spec(rng, int(rng.integers(2, 7)))
            rep = ev.coarse_grain_report(*ev.coarse_grain(spec, {v: round(v) for v in spec.values}))
            assert rep.verdict == "pass"

    def test_report_reads_the_stored_defects(self):
        rng = np.random.default_rng(78)
        for _ in range(5):
            spec = random_spec(rng, int(rng.integers(2, 7)))
            cg, a = ev.coarse_grain(spec, {v: round(v) for v in spec.values})
            rep = ev.coarse_grain_report(cg, a)
            assert rep.metrics["identity_defect"] == cg.identity_defect
            assert rep.metrics["orthogonality_defect"] == cg.orthogonality_defect
            # The stored values are the defects measured from the projectors.
            eye = np.eye(spec.dim)
            assert cg.identity_defect == float(np.abs(sum(cg.projectors) - eye).max())
            cross = [
                float(np.abs(p @ q).max())
                for i, p in enumerate(cg.projectors)
                for q in cg.projectors[i + 1 :]
            ]
            assert cg.orthogonality_defect == max(cross, default=0.0)
