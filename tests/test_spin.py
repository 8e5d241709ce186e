"""Tests for spin operators and question-answer states.

Expected values come from independent routes: hand-solved 2x2 and 3x3
eigenproblems, textbook ladder values, and the package's eigensolver oracle
(which the recursion never touches).
"""

import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import float_reference
from fake_solves import plant_eig
from qastates import linalg, spin
from qastates.spin import Direction, SpinSystem

X = Direction(1.0, 0.0, 0.0)
Y = Direction(0.0, 1.0, 0.0)
Z = Direction(0.0, 0.0, 1.0)

J_VALUES = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 12.5]


class TestSpinSystem:
    def test_dimension_and_m_values(self):
        s = SpinSystem(1.5)
        assert s.dim == 4
        assert s.m_values == pytest.approx([-1.5, -0.5, 0.5, 1.5])

    def test_m_index_ascending(self):
        s = SpinSystem(2.0)
        assert s.m_index(-2.0) == 0
        assert s.m_index(2.0) == 4

    @pytest.mark.parametrize("bad", [0.0, 0.3, -0.5, 25.5, float("nan"), float("inf")])
    def test_invalid_j_rejected(self, bad):
        with pytest.raises(ValueError):
            SpinSystem(bad)

    def test_boundary_j_accepted(self):
        assert SpinSystem(25.0).dim == 51
        assert SpinSystem(0.5).dim == 2


class TestDirection:
    def test_unit_enforced(self):
        with pytest.raises(ValueError):
            Direction(1.0, 1.0, 0.0)

    def test_normalized_factory(self):
        d = Direction.normalized(3.0, 0.0, 4.0)
        assert (d.x, d.z) == pytest.approx((0.6, 0.8))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            Direction.normalized(0.0, 0.0, 0.0)

    def test_overflowing_norm_reads_as_inf(self):
        # x**2 raised OverflowError here, which no ValueError handler catches.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^direction must be unit length, got norm inf$"):
                Direction(1e200, 0.0, 0.0)

    def test_normalizing_an_overflowing_norm_says_so(self):
        # It used to call a direction of norm 1e200 (near-)zero.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^cannot normalize .* norm overflows to inf$"):
                Direction.normalized(1e200, 0.0, 0.0)
            with pytest.raises(ValueError, match="^cannot normalize .* norm overflows to inf$"):
                Direction.normalized(1e200, 1e200, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("axis", range(3))
    def test_normalizing_non_finite_components_names_them(self, bad, axis):
        # A NaN component was called a (near-)zero direction, and an
        # infinite one an overflowing norm.
        components = [0.0, 0.0, 1.0]
        components[axis] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^direction components must be finite$"):
                Direction.normalized(*components)

    def test_antipode(self):
        d = Direction.normalized(1.0, 2.0, 2.0)
        a = d.antipode()
        assert (a.x, a.y, a.z) == pytest.approx((-d.x, -d.y, -d.z))

    def test_angle_between(self):
        assert spin.angle_between(X, Y) == pytest.approx(math.pi / 2)
        assert spin.angle_between(X, X.antipode()) == pytest.approx(math.pi)


class TestLadder:
    def test_boundary_coefficients_vanish(self):
        for j in J_VALUES:
            s = SpinSystem(j)
            assert spin.ladder_coefficients(s, j)[0] == 0.0
            assert spin.ladder_coefficients(s, -j)[1] == 0.0

    def test_spin2_raising_values(self):
        # sqrt((j-m)(j+m+1)) at j=2: m=-2..1 gives 2, sqrt6, sqrt6, 2.
        s = SpinSystem(2.0)
        got = [spin.ladder_coefficients(s, m)[0] for m in (-2.0, -1.0, 0.0, 1.0)]
        assert got == pytest.approx([2.0, math.sqrt(6), math.sqrt(6), 2.0])

    def test_lower_is_adjoint_of_raise(self):
        for j in (1.0, 2.5):
            jp, jm = spin.ladder_matrices(SpinSystem(j))
            assert np.abs(jm - jp.conj().T).max() == 0.0

    def test_invalid_m_rejected(self):
        with pytest.raises(ValueError):
            spin.ladder_coefficients(SpinSystem(1.0), 0.5)


def reference_recurrence_up(system, direction, h, k_end):
    """The upward recurrence with each coefficient taken from a fresh
    `ladder_coefficients` call; returns (coefficients, rescale count)."""
    j = system.j
    up = complex(direction.x, direction.y)
    dn = up.conjugate()
    b = np.zeros(k_end + 1, dtype=complex)
    b[0] = 1.0
    rescales = 0
    for k in range(k_end):
        m = -j + k
        denom = 0.5 * up * spin.ladder_coefficients(system, m + 1.0)[1]
        num = (h - direction.z * m) * b[k]
        if k > 0:
            num -= 0.5 * dn * spin.ladder_coefficients(system, m - 1.0)[0] * b[k - 1]
        b[k + 1] = num / denom
        peak = abs(b[k + 1])
        if peak > spin._RESCALE_LIMIT:
            b[: k + 2] /= peak
            rescales += 1
    return b, rescales


class TestLadderTable:
    def test_table_equals_ladder_coefficients(self):
        for two_j in range(1, 51):
            s = SpinSystem(two_j / 2)
            raising, lowering = spin._ladder_table(s)
            expected = [spin.ladder_coefficients(s, m) for m in s.m_values.tolist()]
            assert list(zip(raising, lowering)) == expected

    def test_recurrence_matches_per_step_reference(self):
        rng = np.random.default_rng(5)
        rescales = 0
        for j in (0.5, 3.0, 12.5, 25.0):
            s = SpinSystem(j)
            directions = [spin.random_direction(rng) for _ in range(3)] + [
                Direction.normalized(1e-7, 0.0, -1.0),
                Direction.normalized(3e-8, 0.0, 1.0),
                Direction.normalized(0.6e-4, 0.8e-4, -1.0),
            ]
            for direction in directions:
                for h in s.m_values.tolist():
                    expected, count = reference_recurrence_up(s, direction, h, s.dim - 1)
                    got = spin._recurrence_up(s, direction, h, s.dim - 1)
                    assert np.array_equal(got, expected), (j, direction, h)
                    rescales += count
        # The near-pole directions at high j drive the rescale branch.
        assert rescales > 0

    def test_recurrence_matches_float_reference(self):
        # The carried-scalar loop against the loop that reads each
        # coefficient back from the array, byte for byte, at every j and
        # h, over a full and a partial pass.
        rng = np.random.default_rng(24)
        rescales = 0
        for two_j in range(1, 51):
            s = SpinSystem(two_j / 2)
            theta = rng.uniform(0.0, math.pi)
            directions = [
                spin.random_direction(rng),
                spin.random_direction(rng),
                Direction.normalized(math.sin(theta), 0.0, math.cos(theta)),
                Direction.normalized(0.0, math.sin(theta), math.cos(theta)),
            ]
            for z in (1.0, -1.0):
                t = 10.0 ** rng.uniform(math.log10(spin.POLE_THRESHOLD), -3.0)
                phi = rng.uniform(0.0, 2.0 * math.pi)
                near_pole = Direction.normalized(t * math.cos(phi), t * math.sin(phi), z)
                directions.append(near_pole)
                rescales += reference_recurrence_up(s, near_pole, s.j, s.dim - 1)[1]
            for direction in directions:
                for h in s.m_values.tolist():
                    for k_end in (s.dim - 1, (s.dim - 1) // 2):
                        got = spin._recurrence_up(s, direction, h, k_end)
                        want = float_reference.recurrence_up(s, direction, h, k_end)
                        assert got.tobytes() == want.tobytes(), (s.j, direction, h, k_end)
        # The near-pole directions at high j drive the rescale branch.
        assert rescales > 0

    def test_catalog_builds_the_table_once(self, monkeypatch):
        s = SpinSystem(25.0)
        spin._ladder_table.cache_clear()
        spin.angular_momentum_operators.cache_clear()
        calls = []
        original = spin.ladder_coefficients

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(spin, "ladder_coefficients", counted)
        direction = spin.random_direction(np.random.default_rng(25))
        assert len(spin.state_catalog(s, direction)) == s.dim
        assert len(calls) <= s.dim


class TestOperators:
    def test_spin_half_matrices(self):
        # Ascending basis (m=-1/2 first): half the usual matrices with the
        # basis order reversed, worked out by hand.
        jx, jy, jz = spin.angular_momentum_operators(SpinSystem(0.5))
        assert np.abs(jx - 0.5 * np.array([[0, 1], [1, 0]])).max() < 1e-15
        assert np.abs(jy - 0.5 * np.array([[0, 1j], [-1j, 0]])).max() < 1e-15
        assert np.abs(jz - 0.5 * np.diag([-1, 1])).max() < 1e-15

    def test_spin_one_matrices(self):
        jx, jy, jz = spin.angular_momentum_operators(SpinSystem(1.0))
        r = 1 / math.sqrt(2)
        assert np.abs(jx - r * np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]])).max() < 1e-15
        assert (
            np.abs(jy - r * np.array([[0, 1j, 0], [-1j, 0, 1j], [0, -1j, 0]])).max()
            < 1e-15
        )
        assert np.abs(jz - np.diag([-1.0, 0.0, 1.0])).max() < 1e-15

    @pytest.mark.parametrize("j", J_VALUES)
    def test_commutation_relations(self, j):
        s = SpinSystem(j)
        defects = spin.algebra_defects(s)
        assert defects["commutator_defect"] <= 1e-11
        assert defects["casimir_defect"] <= 1e-10

    @pytest.mark.parametrize("j", [0.5, 1.5, 2.0])
    def test_component_operator_spectrum(self, j):
        rng = np.random.default_rng(17)
        s = SpinSystem(j)
        op = spin.component_operator(s, spin.random_direction(rng))
        dec = linalg.hermitian_eig(op)
        assert dec.eigenvalues == pytest.approx(s.m_values, abs=1e-10)

    def test_operators_hermitian(self):
        for op in spin.angular_momentum_operators(SpinSystem(2.5)):
            assert np.abs(op - op.conj().T).max() < 1e-15


def spin_half_expected(direction, h):
    """Independent closed form for j=1/2 eigenvectors in the ascending basis.

    From the 2x2 eigenproblem of (1/2)[[-z, x+iy], [x-iy, z]]:
    h=+1/2 -> (x+iy, 1+z), h=-1/2 -> (x+iy, z-1), then normalize.
    """
    xy = complex(direction.x, direction.y)
    if h > 0:
        v = np.array([xy, 1.0 + direction.z])
    else:
        v = np.array([xy, direction.z - 1.0])
    return linalg.fix_phase(v / linalg.norm(v))


class TestRecursionStates:
    def test_pole_states_are_exact_basis_vectors(self):
        s = SpinSystem(0.5)
        up = spin.eigenstate_recursion(s, Z, 0.5)
        assert np.array_equal(up.ket, np.array([0.0, 1.0], dtype=complex))
        down = spin.eigenstate_recursion(s, Z, -0.5)
        assert np.array_equal(down.ket, np.array([1.0, 0.0], dtype=complex))
        # Reversed axis relabels: h=+1/2 along -z sits at m=-1/2.
        flipped = spin.eigenstate_recursion(s, Z.antipode(), 0.5)
        assert np.array_equal(flipped.ket, np.array([1.0, 0.0], dtype=complex))

    def test_spin_half_along_y(self):
        # Hand value in the ascending basis; see spin_half_expected.
        got = spin.eigenstate_recursion(SpinSystem(0.5), Y, 0.5)
        expected = np.array([1.0, -1j]) / math.sqrt(2)
        assert np.abs(got.ket - expected).max() < 1e-12

    def test_spin_half_along_x(self):
        got = spin.eigenstate_recursion(SpinSystem(0.5), X, -0.5)
        expected = np.array([1.0, -1.0]) / math.sqrt(2)
        assert np.abs(got.ket - expected).max() < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.sampled_from([0.5, -0.5]))
    def test_spin_half_closed_form(self, seed, h):
        rng = np.random.default_rng(seed)
        direction = spin.random_direction(rng)
        got = spin.eigenstate_recursion(SpinSystem(0.5), direction, h)
        expected = spin_half_expected(direction, h)
        assert np.abs(got.ket - expected).max() < 1e-10

    def test_spin_one_along_x(self):
        # Null vector of Jx (j=1) is (1, 0, -1)/sqrt2; the h=+1 vector is
        # (1, sqrt2, 1)/2.  Both solved by hand.
        s = SpinSystem(1.0)
        zero = spin.eigenstate_recursion(s, X, 0.0)
        assert np.abs(zero.ket - np.array([1.0, 0.0, -1.0]) / math.sqrt(2)).max() < 1e-12
        top = spin.eigenstate_recursion(s, X, 1.0)
        assert np.abs(top.ket - np.array([1.0, math.sqrt(2), 1.0]) / 2.0).max() < 1e-12

    @pytest.mark.parametrize("j", J_VALUES)
    def test_recursion_matches_oracle(self, j):
        s = SpinSystem(j)
        rng = np.random.default_rng(round(10 * j))
        for _ in range(3):
            direction = spin.random_direction(rng)
            oracle = spin.oracle_catalog(s, direction)
            for h, orc in zip(s.m_values, oracle):
                rec = spin.eigenstate_recursion(s, direction, float(h))
                assert orc.answer == rec.answer
                assert abs(linalg.inner(rec.ket, orc.ket)) >= 1.0 - 1e-9
                assert rec.residual <= 1e-9

    def test_near_pole_direction_still_works(self):
        # The fragile zone just off either pole, at every answer: transverse
        # magnitudes from just above POLE_THRESHOLD up to 1e-2, where the
        # recursion junction sits at or near an end.  The oracle is compared
        # up to j = 12.5; at j = 25 the residual bound carries the check.
        for j in (3.0, 12.5, 25.0):
            s = SpinSystem(j)
            for transverse in (1e-10, 1e-9, 5e-9, 2e-8, 1e-6, 1e-4, 1e-2):
                for z in (1.0, -1.0):
                    direction = Direction.normalized(0.6 * transverse, 0.8 * transverse, z)
                    oracle = spin.oracle_catalog(s, direction) if j <= 12.5 else None
                    for k, h in enumerate(s.m_values):
                        where = f"j={j}, transverse={transverse}, z={z}, h={h}"
                        state = spin.eigenstate_recursion(s, direction, float(h))
                        assert state.residual <= spin.STATE_RESIDUAL_TOL, where
                        if oracle is not None:
                            overlap = abs(linalg.inner(state.ket, oracle[k].ket))
                            assert overlap >= 1.0 - 1e-9, where

    def test_rescaling_path_high_j(self):
        # Steep coefficient growth forces the mid-recursion rescaling.
        direction = Direction.normalized(1e-7, 0.0, -1.0)
        s = SpinSystem(12.5)
        state = spin.eigenstate_recursion(s, direction, 12.5)
        assert state.residual <= 1e-9

    def test_invalid_answer_rejected(self):
        for bad in (0.25, 1.5, math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError):
                spin.eigenstate_recursion(SpinSystem(1.0), X, bad)
            with pytest.raises(ValueError):
                SpinSystem(1.0).m_index(bad)

    def test_phase_convention_applied(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            state = spin.eigenstate_recursion(
                SpinSystem(1.5), spin.random_direction(rng), 0.5
            )
            fixed = linalg.fix_phase(state.ket)
            assert np.abs(fixed - state.ket).max() < 1e-12


def per_answer_oracle_ket(system, direction, h):
    """The oracle's former per-answer path: one diagonalization per answer,
    nearest-eigenvalue selection, then the phase convention."""
    dec = linalg.hermitian_eig(spin.component_operator(system, direction))
    idx = int(np.argmin(np.abs(dec.eigenvalues - h)))
    return linalg.fix_phase(dec.eigenvectors[:, idx])


def degenerate_eig(eigenvalues):
    """Stand-in for hermitian_eig that returns a fixed spectrum, planted
    with `plant_eig`."""

    def fake(a):
        n = len(eigenvalues)
        return linalg.EigenDecomposition(
            np.array(eigenvalues, dtype=float), np.eye(n, dtype=complex)
        )

    return fake


def per_answer_columns(eigenvalues, answers):
    """The columns the per-answer search picked: each answer its nearest
    eigenvalue, refused when none lies within 1e-6 or another within 1e-3."""
    columns = []
    for h in answers:
        gaps = np.abs(eigenvalues - h)
        idx = int(np.argmin(gaps))
        others = np.delete(gaps, idx)
        if gaps[idx] > 1e-6 or (others.size and float(others.min()) < 1e-3):
            return None
        columns.append(idx)
    return columns


# Offsets of an eigenvalue from its answer, on both sides of 1e-6 and 1e-3.
SPECTRUM_OFFSETS = st.sampled_from(
    (0.0, 1e-12, 5e-7, 9.99e-7, 1e-6, 1.01e-6, 5e-4, 1e-3, 0.3, 0.5, 1.0)
).flatmap(lambda x: st.sampled_from((x, -x)))


class TestOracleCatalog:
    # One random direction at j=12.5: the per-answer path costs 26 Jacobi
    # runs at d=26 per direction.
    @pytest.mark.parametrize("j, n_random", [(0.5, 3), (3.0, 3), (12.5, 1)])
    def test_matches_per_answer_path_bit_for_bit(self, j, n_random):
        s = SpinSystem(j)
        rng = np.random.default_rng(round(4 * j))
        directions = [spin.random_direction(rng) for _ in range(n_random)] + [Z, Z.antipode()]
        for direction in directions:
            catalog = spin.oracle_catalog(s, direction)
            assert len(catalog) == s.dim
            for k, h in enumerate(s.m_values):
                assert catalog[k].answer == h
                assert catalog[k].direction == direction
                assert np.array_equal(
                    catalog[k].ket, per_answer_oracle_ket(s, direction, float(h))
                )

    def test_single_answer_view(self):
        s = SpinSystem(1.5)
        direction = spin.random_direction(np.random.default_rng(3))
        catalog = spin.oracle_catalog(s, direction)
        for k, h in enumerate(s.m_values):
            state = spin.eigenstate_oracle(s, direction, float(h))
            assert np.array_equal(state.ket, catalog[k].ket)

    def test_invalid_answer_rejected(self):
        with pytest.raises(ValueError):
            spin.eigenstate_oracle(SpinSystem(1.0), X, 0.25)

    def test_ambiguous_spectrum_raises(self, monkeypatch):
        plant_eig(monkeypatch, degenerate_eig([-0.5, -0.5 + 1e-4]))
        with pytest.raises(RuntimeError, match=r"not -j, \.\.\., \+j: eigenvalue 1 "):
            spin.oracle_catalog(SpinSystem(0.5), X)
        with pytest.raises(RuntimeError, match=r"not -j, \.\.\., \+j: eigenvalue 1 "):
            spin.eigenstate_oracle(SpinSystem(0.5), X, -0.5)

    @settings(max_examples=150, deadline=None)
    @given(j=st.sampled_from((0.5, 1.0, 1.5, 3.0)), data=st.data())
    def test_same_spectra_and_columns_as_per_answer_search(self, j, data):
        # Answers are 1 apart, so checking eigenvalue k against answer k
        # accepts what the per-answer search accepted and picks its columns.
        system = SpinSystem(j)
        answers = system.m_values
        offsets = data.draw(st.lists(SPECTRUM_OFFSETS, min_size=answers.size, max_size=answers.size))
        eigenvalues = np.sort(answers + np.array(offsets))
        columns = per_answer_columns(eigenvalues, answers)
        # The true eigenvectors under the drawn spectrum, so that a picked
        # column still passes the state's residual check.
        vectors = linalg.hermitian_eig(spin.component_operator(system, X)).eigenvectors
        with pytest.MonkeyPatch.context() as patch:
            plant_eig(patch, lambda a: linalg.EigenDecomposition(eigenvalues, vectors))
            if columns is None:
                with pytest.raises(RuntimeError, match=r"not -j, \.\.\., \+j: eigenvalue "):
                    spin.oracle_catalog(system, X)
                return
            states = spin.oracle_catalog(system, X)
        assert [s.answer for s in states] == answers.tolist()
        for state, column in zip(states, columns):
            assert np.array_equal(state.ket, linalg.fix_phase(vectors[:, column]))

    def test_spectrum_refusal_names_the_direction(self, monkeypatch):
        # Plain floats, not numpy reprs, and the direction whose spectrum
        # is off, as the per-direction reference says it.
        system, direction = SpinSystem(1), Direction(0.6, 0.0, 0.8)
        op = spin.component_operator(system, direction)
        true_eigs = linalg.hermitian_eigs

        def shifted(a):
            dec = true_eigs(a[None])[0]
            return linalg.EigenDecomposition(dec.eigenvalues + 0.01, dec.eigenvectors)

        plant_eig(monkeypatch, shifted)
        text = (
            "the component operator's spectrum along Direction(x=0.6, y=0.0, z=0.8) is "
            "not -j, ..., +j: eigenvalue 0 is -0.9899999999999997, more than 1e-6 from "
            "the answer -1.0"
        )
        for build in (
            lambda: spin.oracle_catalog(system, direction),
            lambda: float_reference.oracle_states(system, direction, op),
        ):
            with pytest.raises(RuntimeError) as info:
                build()
            assert str(info.value) == text

    def test_stacked_spectrum_refusal_names_its_direction(self, monkeypatch):
        # One solve for a request's directions: the refusal names the
        # direction whose spectrum is off, here the second.
        true_eigs = linalg.hermitian_eigs

        def second_shifted(stack):
            decs = true_eigs(stack)
            decs[1] = linalg.EigenDecomposition(decs[1].eigenvalues + 0.01, decs[1].eigenvectors)
            return decs

        monkeypatch.setattr(linalg, "hermitian_eigs", second_shifted)
        rng = np.random.default_rng(3)
        second = [spin.random_direction(rng) for _ in range(2)][1]
        with pytest.raises(RuntimeError) as info:
            spin.verify_eigenstates(SpinSystem(1), samples=3, rng=np.random.default_rng(3))
        assert str(info.value).startswith(
            f"the component operator's spectrum along {second} is not -j, ..., +j: eigenvalue "
        )

    def test_missing_eigenvalue_raises(self, monkeypatch):
        plant_eig(monkeypatch, degenerate_eig([0.3, 0.4]))
        with pytest.raises(RuntimeError, match=r"not -j, \.\.\., \+j: eigenvalue 0 "):
            spin.oracle_catalog(SpinSystem(0.5), X)
        with pytest.raises(RuntimeError, match=r"not -j, \.\.\., \+j: eigenvalue 0 "):
            spin.eigenstate_oracle(SpinSystem(0.5), X, 0.5)

    def test_one_fake_at_the_stack_seam_reaches_every_solve(self, monkeypatch):
        # numpy's eigh as the stand-in: a true decomposition with other
        # bits, so every solve that reaches it passes its checks.  At j = 25
        # a request of 11 samples and the two poles runs as passes of 12
        # directions and of 1.
        system = SpinSystem(25)
        spin.algebra_defects(system)  # cached before the fake goes in
        solved = []

        def eigh(a):
            solved.append(a.tobytes())
            return linalg.EigenDecomposition(*np.linalg.eigh(a))

        plant_eig(monkeypatch, eigh)
        op = spin.component_operator(system, X)
        catalog = spin.oracle_catalog(system, X)
        state = spin.eigenstate_oracle(system, X, 3.0)
        dec = linalg.hermitian_eig(op)
        reference = float_reference.oracle_states(system, X, op)
        assert solved == [op.tobytes()] * 4
        assert np.array_equal(dec.eigenvalues, np.linalg.eigh(op)[0])
        assert state.ket.tobytes() == catalog[28].ket.tobytes()
        assert [s.ket.tobytes() for s in reference] == [s.ket.tobytes() for s in catalog]

        solved.clear()
        assert [len(range(13)[run]) for run in spin._operator_runs(system, 13)] == [12, 1]
        report = spin.verify_eigenstates(system, samples=11, rng=np.random.default_rng(7))
        rng = np.random.default_rng(7)
        drawn = [spin.random_direction(rng) for _ in range(11)] + [Z, Direction(0.0, 0.0, -1.0)]
        assert solved == [spin.component_operator(system, a).tobytes() for a in drawn]
        assert report.verdict == "pass"


class TestOperatorCache:
    def test_operators_are_read_only(self):
        for op in spin.angular_momentum_operators(SpinSystem(1.5)):
            with pytest.raises(ValueError):
                op[0, 0] = 1.0
            with pytest.raises(ValueError):
                op *= 2.0

    def test_equal_systems_share_operators(self):
        first = spin.angular_momentum_operators(SpinSystem(2.0))
        second = spin.angular_momentum_operators(SpinSystem(2))
        assert all(a is b for a, b in zip(first, second))

    def test_cache_is_bounded(self):
        for j in np.arange(0.5, 6.0, 0.5):
            spin.angular_momentum_operators(SpinSystem(float(j)))
        info = spin.angular_momentum_operators.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize <= 8

    @pytest.mark.parametrize("j", [0.5, 7.0, 25.0])
    def test_component_operator_matches_uncached_build(self, j):
        s = SpinSystem(j)
        jx, jy, jz = spin.angular_momentum_operators.__wrapped__(s)
        rng = np.random.default_rng(round(2 * j))
        for direction in [spin.random_direction(rng) for _ in range(3)] + [X, Y, Z]:
            expected = direction.x * jx + direction.y * jy + direction.z * jz
            assert np.array_equal(spin.component_operator(s, direction), expected)

    @pytest.mark.parametrize("j", [0.5, 3.0, 12.5])
    def test_algebra_defects_unchanged(self, j):
        s = SpinSystem(j)
        spin.angular_momentum_operators.cache_clear()
        spin._algebra_defects.cache_clear()
        cold = spin.algebra_defects(s)
        warm = spin.algebra_defects(s)
        assert spin._algebra_defects.cache_info().hits == 1
        # Each call hands out its own dict, equal to a build from the cached
        # operators.
        assert cold == warm and cold is not warm
        assert spin._algebra_defects.__wrapped__(s) == cold
        assert spin.angular_momentum_operators.cache_info().hits >= 1
        assert cold["commutator_defect"] <= 1e-11
        assert cold["casimir_defect"] <= 1e-10


class TestStateInvariants:
    def test_wrong_eigenvector_rejected(self):
        s = SpinSystem(0.5)
        good = spin.eigenstate_recursion(s, Y, 0.5)
        with pytest.raises(ValueError):
            spin.QuestionAnswerState(s, X, 0.5, good.ket)

    def test_unnormalized_rejected(self):
        s = SpinSystem(0.5)
        with pytest.raises(ValueError):
            spin.QuestionAnswerState(s, Z, 0.5, np.array([0.0, 2.0]))

    def test_non_finite_ket_rejected(self):
        s = SpinSystem(0.5)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="normalized"):
                spin.QuestionAnswerState(s, Z, 0.5, np.array([bad, 1.0]))

    def test_wrong_dimension_rejected(self):
        with pytest.raises(ValueError):
            spin.QuestionAnswerState(SpinSystem(1.0), Z, 1.0, np.array([0.0, 1.0]))

    def test_ket_is_read_only(self):
        state = spin.eigenstate_recursion(SpinSystem(0.5), Z, 0.5)
        with pytest.raises(ValueError):
            state.ket[0] = 1.0

    def test_residual_kept_from_construction(self):
        s = SpinSystem(2.5)
        direction = spin.random_direction(np.random.default_rng(11))
        state = spin.eigenstate_recursion(s, direction, 1.5)
        op = spin.component_operator(s, direction)
        assert state.residual == linalg.norm(op @ state.ket - state.answer * state.ket)
        assert "residual" not in repr(state)
        # The oracle and the pole branch keep theirs too; just off the pole
        # the axis basis vector has a residual above zero.
        states = spin.oracle_catalog(s, direction)
        near_pole = Direction.normalized(3e-12, 4e-12, -1.0)
        pole_states = [spin.eigenstate_recursion(s, near_pole, h) for h in (-2.5, 0.5, 2.5)]
        assert all(state.residual > 0.0 for state in pole_states)
        for state in states + pole_states:
            op = spin.component_operator(s, state.direction)
            assert state.residual == linalg.norm(op @ state.ket - state.answer * state.ket)
            assert "residual" not in repr(state)


def route_of(system, direction, h):
    """Which branch of `eigenstate_recursion` builds the state for (a, h)."""
    if direction.transverse < spin.POLE_THRESHOLD:
        return "pole"
    junction = min(max(round(h * direction.z + system.j), 0), system.dim - 1)
    if junction >= system.dim - 1:
        return "up"
    return "down" if junction <= 0 else "stitched"


def near_pole_directions(rng):
    """One direction just off the north pole, then one off the south:
    transverse log-uniform between POLE_THRESHOLD and 1e-3."""
    directions = []
    for z in (1.0, -1.0):
        t = 10.0 ** rng.uniform(math.log10(spin.POLE_THRESHOLD), -3.0)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        direction = Direction.normalized(t * math.cos(phi), t * math.sin(phi), z)
        assert spin.POLE_THRESHOLD <= direction.transverse <= 1e-3
        directions.append(direction)
    return directions


def route_directions(j):
    """One random direction, two just off either pole, both poles, and one
    direction inside POLE_THRESHOLD of the south pole."""
    rng = np.random.default_rng(round(8 * j))
    return [
        spin.random_direction(rng),
        *near_pole_directions(rng),
        Z,
        Z.antipode(),
        Direction.normalized(3e-12, -4e-12, -1.0),
    ]


def assert_same_as_public(state, system, direction, answer):
    """The state equals, field for field, the public validating constructor
    applied to the same (system, direction, answer, ket)."""
    public = spin.QuestionAnswerState(system, direction, answer, state.ket)
    assert state.system == public.system and state.direction == public.direction
    assert type(state.answer) is float and state.answer.hex() == public.answer.hex()
    assert state.ket.dtype == public.ket.dtype
    assert state.ket.tobytes() == public.ket.tobytes()
    assert state.residual.hex() == public.residual.hex()
    assert not state.ket.flags.writeable


ALL_SPINS = [k / 2 for k in range(1, 51)]


def _drawn_directions() -> dict[float, list[Direction]]:
    """Three random and two near-pole directions for each j in ALL_SPINS,
    drawn in turn, j ascending, from one seed-21 generator."""
    rng = np.random.default_rng(21)
    drawn = {}
    for j in ALL_SPINS:
        drawn[j] = [spin.random_direction(rng) for _ in range(3)] + near_pole_directions(rng)
    return drawn


DRAWN_DIRECTIONS = _drawn_directions()


class TestTrustedConstructors:
    """The pole branch, the recursion and the oracle skip the public
    constructor's snapping, norm and phase checks; their states must be the
    ones that constructor makes from the same inputs.  Each j takes its
    route directions and its share of the seed-21 draw."""

    @pytest.mark.parametrize("j", ALL_SPINS)
    def test_recursion_routes_match_public_constructor(self, j):
        s = SpinSystem(j)
        seen = set()
        for direction in route_directions(j) + DRAWN_DIRECTIONS[j]:
            catalog = spin.state_catalog(s, direction)
            for h, shared in zip(s.m_values.tolist(), catalog):
                seen.add(route_of(s, direction, h))
                where = f"j={j}, direction={direction}, h={h}"
                try:
                    assert_same_as_public(shared, s, direction, h)
                    # The state built on its own, with its own operator,
                    # and from an unsnapped answer.
                    alone = spin.eigenstate_recursion(s, direction, h + 1e-12)
                    assert_same_as_public(alone, s, direction, h + 1e-12)
                    assert alone.ket.tobytes() == shared.ket.tobytes()
                    assert alone.residual.hex() == shared.residual.hex()
                except AssertionError as exc:
                    raise AssertionError(where) from exc
        assert seen == ({"pole", "up", "down"} if j == 0.5 else {"pole", "up", "down", "stitched"})

    @pytest.mark.parametrize("j", ALL_SPINS)
    def test_oracle_matches_public_constructor(self, j):
        s = SpinSystem(j)
        # Jacobi at d=51 takes about 0.1 s a direction: the random, one
        # near-pole and one pole route direction per spin, and the draw.
        routes = [route_directions(j)[k] for k in (0, 1, 4)]
        for direction in routes + DRAWN_DIRECTIONS[j]:
            for h, state in zip(s.m_values.tolist(), spin.oracle_catalog(s, direction)):
                try:
                    assert_same_as_public(state, s, direction, h)
                except AssertionError as exc:
                    raise AssertionError(f"j={j}, direction={direction}, h={h}") from exc

    def test_stitched_junction_at_either_end(self):
        # The junction one step inside either end: both passes run, one of
        # them for a single step.
        s = SpinSystem(3.0)
        for z, h in ((1.0, 2.0), (-1.0, 2.0), (1.0, -2.0)):
            direction = Direction.normalized(0.3, 0.4, 4.0 * z)
            junction = round(h * direction.z + s.j)
            assert junction in (1, s.dim - 2) and route_of(s, direction, h) == "stitched"
            assert_same_as_public(spin.eigenstate_recursion(s, direction, h), s, direction, h)

    def test_one_operator_per_direction(self, monkeypatch):
        # The directions of every operator built, by either builder: one
        # operator per direction, and none per row (6 rows a direction).
        built = []
        component_operator = spin.component_operator
        component_operators = spin._component_operators

        def one(system, direction):
            built.append(direction)
            return component_operator(system, direction)

        def stacked(system, directions):
            built.extend(directions)
            return component_operators(system, directions)

        monkeypatch.setattr(spin, "component_operator", one)
        monkeypatch.setattr(spin, "_component_operators", stacked)
        s = SpinSystem(2.5)
        directions = [spin.random_direction(np.random.default_rng(k)) for k in range(3)]
        for direction in directions:
            spin.state_catalog(s, direction)
        assert built == directions
        built.clear()
        spin.verify_eigenstates(s, samples=3, rng=np.random.default_rng(5))
        rng = np.random.default_rng(5)
        drawn = [spin.random_direction(rng) for _ in range(3)]
        assert built == drawn + [Z, Z.antipode()]

    def test_constructors_fix_the_phase_once(self, monkeypatch):
        # One phase pass per stack, over all of its rows: a state alone is
        # a stack of one, pole branch included, and the oracle fixes a
        # direction's eigenvectors together.
        calls = []
        for name in ("fix_phase", "fix_phases"):
            original = getattr(linalg, name)

            def counted(v, _name=name, _original=original):
                calls.append((_name, np.shape(v)))
                return _original(v)

            monkeypatch.setattr(linalg, name, counted)
        s = SpinSystem(1.5)
        one, catalog = ("fix_phases", (1, s.dim)), ("fix_phases", (s.dim, s.dim))
        direction = spin.random_direction(np.random.default_rng(9))
        spin.eigenstate_recursion(s, direction, 0.5)
        assert calls == [one]
        spin.eigenstate_recursion(s, Z, 0.5)
        assert calls == [one] * 2
        spin.oracle_catalog(s, direction)
        spin.state_catalog(s, direction)
        assert calls == [one] * 2 + [catalog] * 2
        # The public constructor still checks the phase of what it is given.
        spin.QuestionAnswerState(s, Z, 0.5, np.eye(s.dim)[s.m_index(0.5)])
        assert calls == [one] * 2 + [catalog] * 2 + [("fix_phase", (s.dim,))]

    def test_residual_bound_enforced_on_built_states(self, monkeypatch):
        # A route that produced a unit, phase-fixed ket which is not an
        # eigenvector is still refused, by the residual check alone.
        s = SpinSystem(1.5)
        direction = spin.random_direction(np.random.default_rng(13))

        def ones(system, passes):
            table = np.zeros((len(passes), system.dim), dtype=complex)
            for row, (_, _, k_end) in zip(table, passes):
                row[: k_end + 1] = 1.0
            return table

        monkeypatch.setattr(spin, "_pass_coefficients", ones)
        for h in (-1.5, 0.5, 1.5):
            with pytest.raises(ValueError, match="^ket is not an eigenvector: residual "):
                spin.eigenstate_recursion(s, direction, h)
        with pytest.raises(ValueError, match="^catalog failed at .*: ket is not an eigenvector"):
            spin.state_catalog(s, direction)
        # The right spectrum with the basis vectors as eigenvectors.
        plant_eig(monkeypatch, degenerate_eig([-0.5, 0.5]))
        with pytest.raises(ValueError, match="^ket is not an eigenvector: residual "):
            spin.oracle_catalog(SpinSystem(0.5), X)


class TestCatalogAndTransitions:
    @pytest.mark.parametrize("j", [0.5, 1.0, 2.5])
    def test_catalog_is_orthonormal_basis(self, j):
        rng = np.random.default_rng(5)
        s = SpinSystem(j)
        states = spin.state_catalog(s, spin.random_direction(rng))
        basis = np.column_stack([st_.ket for st_ in states])
        assert np.abs(basis.conj().T @ basis - np.eye(s.dim)).max() <= 1e-9

    def test_catalog_covers_all_answers(self):
        s = SpinSystem(1.5)
        states = spin.state_catalog(s, X) + spin.state_catalog(s, Y)
        assert len(states) == 2 * s.dim
        assert [st_.answer for st_ in states[: s.dim]] == pytest.approx(s.m_values)

    def test_transition_probabilities_same_direction(self):
        s = SpinSystem(1.0)
        states = spin.state_catalog(s, Y)
        for i, a in enumerate(states):
            for k, b in enumerate(states):
                expected = 1.0 if i == k else 0.0
                assert spin.transition_probability(a, b) == pytest.approx(
                    expected, abs=1e-12
                )

    def test_transition_completeness(self):
        # Probabilities from one state across another direction's catalog
        # must sum to one.
        rng = np.random.default_rng(9)
        s = SpinSystem(2.0)
        src = spin.eigenstate_recursion(s, spin.random_direction(rng), 1.0)
        catalog = spin.state_catalog(s, spin.random_direction(rng))
        total = sum(spin.transition_probability(src, t) for t in catalog)
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_spin_half_transition_closed_form(self):
        # For j=1/2, P(up along a -> up along b) = (1 + cos angle)/2.
        rng = np.random.default_rng(31)
        s = SpinSystem(0.5)
        for _ in range(10):
            a = spin.random_direction(rng)
            b = spin.random_direction(rng)
            p = spin.transition_probability(
                spin.eigenstate_recursion(s, a, 0.5),
                spin.eigenstate_recursion(s, b, 0.5),
            )
            expected = (1.0 + math.cos(spin.angle_between(a, b))) / 2.0
            assert p == pytest.approx(expected, abs=1e-10)


class TestVerificationBatteries:
    def test_eigenstate_battery_passes(self):
        rep = spin.verify_eigenstates(
            SpinSystem(1.5), samples=10, rng=np.random.default_rng(0)
        )
        assert rep.verdict == "pass"
        assert rep.metrics["max_residual"] <= 1e-9
        assert rep.metrics["min_overlap"] >= 1.0 - 1e-9
        assert rep.metrics["commutator_defect"] <= 1e-11

    def test_orthogonality_battery_passes(self):
        rep = spin.verify_orthogonality(
            SpinSystem(1.0), samples=10, rng=np.random.default_rng(0)
        )
        assert rep.verdict == "pass"
        assert rep.metrics["max_gram_defect"] <= 1e-9

    def test_ray_collision_battery(self):
        rep = spin.verify_ray_collisions(
            SpinSystem(2.0), samples=20, rng=np.random.default_rng(0)
        )
        assert rep.verdict == "pass"
        # Collisions are the documented finding; they must be on record.
        assert len(rep.witnesses) == 20
        assert rep.metrics["worst_collision_overlap"] >= 1.0 - 1e-9

    def test_ray_collisions_over_the_supported_range(self):
        # Every j in 0.5..25, three samples each, from one generator.
        rng = np.random.default_rng(23)
        for j in ALL_SPINS:
            rep = spin.verify_ray_collisions(SpinSystem(j), samples=3, rng=rng)
            assert rep.verdict == "pass", (j, rep.notes)
            assert len(rep.witnesses) == 3
            for witness in rep.witnesses:
                assert witness["mirror_overlap"] >= 1.0 - 1e-9, (j, witness)

    def test_separated_witnesses_keep_the_separation(self, monkeypatch):
        # A loose eps makes almost any second pair "collide"; each such
        # witness must still have been drawn at least the separation away
        # from the direction and from its antipode.
        monkeypatch.setattr(spin, "COLLISION_SEPARATION", 1.2)
        rep = spin.verify_ray_collisions(
            SpinSystem(1.0), samples=30, eps=0.999999, rng=np.random.default_rng(4)
        )
        separated = [w for w in rep.witnesses if w["kind"] == "separated_pair_collided"]
        assert rep.verdict == "fail" and separated
        for witness in separated:
            direction = Direction(*witness["direction"])
            other = Direction(*witness["other_direction"])
            assert spin.angle_between(direction, other) >= 1.2, witness
            assert spin.angle_between(direction.antipode(), other) >= 1.2, witness

    @pytest.mark.parametrize("eps", [0.0, 1.0, -0.5, math.nan])
    def test_ray_collisions_reject_eps_outside_unit_interval(self, eps):
        with pytest.raises(ValueError, match=r"^eps must lie in \(0, 1\), got "):
            spin.verify_ray_collisions(SpinSystem(1.0), samples=0, eps=eps)

    def test_ray_collisions_compare_overlaps_directly(self, monkeypatch):
        # Constructed states are unit kets, so no phase_equal (and no norm
        # re-check) is needed; a loose eps makes separated pairs collide.
        def unused(*args, **kwargs):
            raise AssertionError("phase_equal called")

        monkeypatch.setattr(linalg, "phase_equal", unused)
        rep = spin.verify_ray_collisions(
            SpinSystem(1.0), samples=10, eps=0.999999, rng=np.random.default_rng(2)
        )
        assert rep.verdict == "fail"
        assert {w["kind"] for w in rep.witnesses} == {"separated_pair_collided"}

    def test_algebra_defects_solved_once_per_spin(self, monkeypatch):
        operator_norm = linalg.operator_norm
        calls = []

        def counted(a):
            calls.append(a.shape)
            return operator_norm(a)

        monkeypatch.setattr(linalg, "operator_norm", counted)
        spin._algebra_defects.cache_clear()
        s = SpinSystem(2.5)
        reports = [
            spin.verify_eigenstates(s, samples=2, rng=np.random.default_rng(4))
            for _ in range(2)
        ]
        assert len(calls) == 4
        first, second = (json.dumps(r.to_json_dict()).encode() for r in reports)
        assert first == second

    def test_no_operator_copied_per_row(self):
        # Each direction's operator is broadcast over its rows.  A copy per
        # row, (n * d, d, d) at j = 12.5 and 40 samples plus the two poles,
        # would alone take 42 * 26 * 26**2 * 16 bytes, about 11.8 MB.
        system = SpinSystem(12.5)
        spin.verify_eigenstates(system, samples=1)  # fill the operator caches
        tracemalloc.start()
        try:
            spin.verify_eigenstates(system, samples=40, rng=np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 42 * 26 * 26**2 * 16 / 2

    def test_batteries_deterministic(self):
        a = spin.verify_eigenstates(SpinSystem(1.0), samples=5, rng=np.random.default_rng(7))
        b = spin.verify_eigenstates(SpinSystem(1.0), samples=5, rng=np.random.default_rng(7))
        assert a.metrics == b.metrics
