"""Tests for the linear algebra kernel.

The eigensolver tests cross-check the hand-rolled tridiagonal QR and Jacobi
routes against both closed forms worked out independently (2x2 Hermitian,
which the QR route solves) and numpy.linalg.eigh, which the package itself
never calls.  `TestFloatReference` holds both routes, which rotate their
eigenvectors in place, to the copy-per-rotation loops in
`float_reference`, byte for byte.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import float_reference
from qastates import linalg, spin

# Textbook Pauli matrices, used here only as well-known test fixtures.
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def random_hermitian(rng, n):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (m + m.conj().T) / 2.0


def random_unit(rng, n):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / linalg.norm(v)


class TestInnerAndNorm:
    def test_inner_is_conjugate_linear_in_first_argument(self):
        u = np.array([1.0, 1j])
        v = np.array([2.0, 0.0])
        assert linalg.inner(1j * u, v) == pytest.approx(-1j * linalg.inner(u, v))
        assert linalg.inner(u, 1j * v) == pytest.approx(1j * linalg.inner(u, v))

    def test_inner_known_value(self):
        # <(1, i) | (i, 1)> = conj(1)*i + conj(i)*1 = i - i ... = 0? No:
        # conj(1)*i + conj(i)*1 = i + (-i) = 0.
        assert linalg.inner([1, 1j], [1j, 1]) == pytest.approx(0.0)
        assert linalg.inner([1, 1j], [1, 1j]) == pytest.approx(2.0)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            linalg.inner([1, 0], [1, 0, 0])

    def test_norm(self):
        assert linalg.norm([3.0, 4j]) == pytest.approx(5.0)

    @pytest.mark.dispatch
    @pytest.mark.parametrize("n", [1, 13, 404, 1000])
    def test_inners_have_vdot_bits(self, n):
        # The shapes the package takes: rows of (n, d) stacks with
        # themselves and with others, and one bra against a stack of three
        # kets, as the Bloch map reads its Pauli expectations.
        rng = np.random.default_rng(n)
        for d in (2, 9, 51):
            u, v = rng.standard_normal((2, n, 2 * d)).view(complex)
            for bras, kets in ((u, u), (u, v)):
                want = [np.vdot(a, b) for a, b in zip(bras, kets)]
                assert linalg.inners(bras, kets).tobytes() == np.array(want).tobytes(), d
        kets = rng.standard_normal((n, 4)).view(complex)
        images = (np.stack([SX, SY, SZ]) @ kets[:, None, :, None])[..., 0]
        want = [[np.vdot(k, image) for image in row] for k, row in zip(kets, images)]
        assert linalg.inners(kets[:, None], images).tobytes() == np.array(want).tobytes()


class TestPhaseEqual:
    def test_global_phase_is_ignored(self):
        rng = np.random.default_rng(7)
        v = random_unit(rng, 5)
        assert linalg.phase_equal(v, np.exp(1j * 0.83) * v)

    def test_distinct_rays_are_not_equal(self):
        e0 = np.array([1.0, 0.0], dtype=complex)
        e1 = np.array([0.0, 1.0], dtype=complex)
        assert not linalg.phase_equal(e0, e1)

    def test_requires_unit_vectors(self):
        with pytest.raises(ValueError):
            linalg.phase_equal([2.0, 0.0], [1.0, 0.0])

    @pytest.mark.parametrize("first", [True, False])
    def test_nan_vector_refused(self, first):
        # A NaN norm must fail the unit test, not slip through to a False.
        pair = ([math.nan, 0.0], [1.0, 0.0])
        with pytest.raises(ValueError, match="^phase_equal needs unit vectors, got norm nan$"):
            linalg.phase_equal(*(pair if first else pair[::-1]))

    @pytest.mark.parametrize(
        "entry, shown",
        [(math.inf, "inf"), (complex(0.0, math.inf), "inf"), (math.nan, "nan")],
    )
    def test_non_finite_norm_named(self, entry, shown):
        # An infinite entry names an infinite norm, a NaN entry a NaN one,
        # with no warning on the way.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^phase_equal needs unit vectors, got norm {shown}$"):
                linalg.phase_equal([entry, 0.0], [1.0, 0.0])

    def test_eps_bounds(self):
        v = np.array([1.0, 0.0], dtype=complex)
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                linalg.phase_equal(v, v, eps=bad)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.floats(0.0, 2.0 * math.pi))
    def test_phase_equal_invariant_under_phase(self, seed, angle):
        rng = np.random.default_rng(seed)
        v = random_unit(rng, 4)
        assert linalg.phase_equal(v, np.exp(1j * angle) * v)


class TestFixPhase:
    def test_anchor_entry_becomes_real_positive(self):
        v = np.array([0.3j, -0.8, 0.1], dtype=complex)
        v = v / linalg.norm(v)
        fixed = linalg.fix_phase(v)
        anchor = np.argmax(np.abs(fixed))
        assert fixed[anchor].imag == pytest.approx(0.0, abs=1e-15)
        assert fixed[anchor].real > 0
        # Same ray as the input.
        assert abs(linalg.inner(fixed, v)) == pytest.approx(1.0)

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        v = random_unit(rng, 6)
        once = linalg.fix_phase(v)
        twice = linalg.fix_phase(once)
        assert np.abs(once - twice).max() < 1e-14

    def test_tie_broken_by_lowest_index(self):
        v = np.array([1j, -1j], dtype=complex) / math.sqrt(2)
        fixed = linalg.fix_phase(v)
        assert fixed[0].real == pytest.approx(1 / math.sqrt(2))
        assert fixed[0].imag == pytest.approx(0.0)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="^cannot fix the phase of the zero vector$"):
            linalg.fix_phase([0.0, 0.0])

    @pytest.mark.parametrize(
        "v", [[math.nan, 1.0], [1.0, complex(0.0, math.nan)], [math.inf, 1.0], [1.0, -math.inf]]
    )
    def test_non_finite_vector_rejected_without_warning(self, v):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite entries"):
                linalg.fix_phase(v)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.floats(0.0, 2.0 * math.pi))
    def test_phase_representative_is_canonical(self, seed, angle):
        # Vectors on the same ray map to the same representative.
        rng = np.random.default_rng(seed)
        v = random_unit(rng, 5)
        a = linalg.fix_phase(v)
        b = linalg.fix_phase(np.exp(1j * angle) * v)
        assert np.abs(a - b).max() < 1e-12


class TestGramDefect:
    def test_identity_has_zero_defect(self):
        assert linalg.gram_defect(np.eye(4, dtype=complex)) == 0.0
        # Orthonormal columns of a tall matrix, and a unitary matrix.
        assert linalg.gram_defect(np.eye(3, 2)) == 0.0
        assert linalg.gram_defect(SY) == 0.0

    def test_known_non_orthogonal_pair(self):
        # Columns e0 and (0.6, 0.8): the off-diagonal overlap 0.6 dominates.
        columns = np.array([[1.0, 0.6], [0.0, 0.8]], dtype=complex)
        assert linalg.gram_defect(columns) == pytest.approx(0.6, abs=1e-15)
        # A column of norm 2 misses the diagonal by 4 - 1.
        assert linalg.gram_defect(np.diag([2.0, 1.0])) == 3.0

    def test_nan_propagates_so_a_tolerance_check_fails(self):
        defect = linalg.gram_defect(np.array([[math.nan, 0.0], [0.0, 1.0]]))
        assert math.isnan(defect)
        assert not defect <= 1e-10

    def test_single_matrix_gives_a_float(self):
        assert type(linalg.gram_defect(np.eye(3))) is float
        assert type(linalg.gram_defect(SY)) is float

    @staticmethod
    def stack(kind, rng):
        """Twelve matrices of one kind: square or tall, complex or real."""
        shape = (12, 5, 3) if kind == "tall" else (12, 4, 4)
        m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        if kind in ("unitary", "tall"):
            return np.linalg.qr(m)[0]
        if kind == "orthogonal":
            return np.linalg.qr(m.real)[0]
        if kind in ("nan", "inf"):
            m[rng.random(shape) < 0.1] = math.nan if kind == "nan" else math.inf
        return m

    @pytest.mark.parametrize("kind", ["unitary", "tall", "orthogonal", "non-unitary", "nan", "inf"])
    def test_stack_gives_each_matrix_its_own_bits(self, kind):
        rng = np.random.default_rng(31)
        stack = self.stack(kind, rng)
        # inf * 0 makes a NaN inside the Gram product, and numpy says so.
        with np.errstate(invalid="ignore"):
            batch = linalg.gram_defect(stack)
            singles = [linalg.gram_defect(c) for c in stack]
        assert batch.shape == (len(stack),)
        for k, single in enumerate(singles):
            assert repr(float(batch[k])) == repr(single), (kind, k)
        if kind in ("nan", "inf"):
            assert any(math.isnan(d) for d in singles)

    def test_stack_of_stacks(self):
        stack = self.stack("non-unitary", np.random.default_rng(32)).reshape(3, 4, 4, 4)
        batch = linalg.gram_defect(stack)
        assert batch.shape == (3, 4)
        for i in range(3):
            for k in range(4):
                assert repr(float(batch[i, k])) == repr(linalg.gram_defect(stack[i, k]))


class TestProjector:
    def test_projector_properties(self):
        rng = np.random.default_rng(11)
        a = random_hermitian(rng, 4)
        dec = linalg.hermitian_eig(a)
        vs = [dec.eigenvectors[:, 0], dec.eigenvectors[:, 1]]
        p = linalg.projector(vs)
        assert np.abs(p @ p - p).max() < 1e-12
        assert np.abs(p - p.conj().T).max() < 1e-12
        assert np.trace(p).real == pytest.approx(2.0)
        assert np.abs(p @ vs[0] - vs[0]).max() < 1e-12

    def test_single_vector_projector(self):
        v = np.array([1.0, 1j], dtype=complex) / math.sqrt(2)
        p = linalg.projector([v])
        expected = np.array([[0.5, -0.5j], [0.5j, 0.5]])
        assert np.abs(p - expected).max() < 1e-15

    def test_non_orthonormal_rejected(self):
        v = np.array([1.0, 0.0], dtype=complex)
        w = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)
        with pytest.raises(ValueError):
            linalg.projector([v, w])

    def test_nan_vector_rejected(self):
        with pytest.raises(ValueError, match="not orthonormal"):
            linalg.projector([[math.nan, 0.0]])

    def test_infinite_vector_rejected_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^vectors are not orthonormal: Gram defect nan$"):
                linalg.projector([[math.inf, 0.0], [0.0, 1.0]])


class TestCommutator:
    def test_pauli_commutator(self):
        # [sx, sy] = 2i sz, a classical identity independent of this package.
        c = linalg.commutator(SX, SY)
        assert np.abs(c - 2j * SZ).max() < 1e-15

    def test_commuting_matrices(self):
        d1 = np.diag([1.0, 2.0, 3.0]).astype(complex)
        d2 = np.diag([4.0, 5.0, 6.0]).astype(complex)
        assert np.abs(linalg.commutator(d1, d2)).max() == 0.0


class TestHermitianEig:
    def test_2x2_closed_form(self):
        # Eigenvalues of [[a, b], [conj(b), c]] are (a+c)/2 +- sqrt(((a-c)/2)^2 + |b|^2).
        # For a=1, c=-1, b=1-2i: |b|^2 = 5, eigenvalues are +-sqrt(6).
        a = np.array([[1.0, 1.0 - 2.0j], [1.0 + 2.0j, -1.0]])
        dec = linalg.hermitian_eig(a)
        root = math.sqrt(6.0)
        assert dec.eigenvalues[0] == pytest.approx(-root, abs=1e-12)
        assert dec.eigenvalues[1] == pytest.approx(root, abs=1e-12)

    def test_pauli_y_eigenvectors(self):
        # sy has eigenvalues -1, +1; the +1 eigenvector is (1, i)/sqrt(2)
        # (verified by direct substitution: sy (1, i) = (-i*i, i*1) = (1, i)).
        dec = linalg.hermitian_eig(SY)
        assert dec.eigenvalues == pytest.approx([-1.0, 1.0], abs=1e-12)
        plus = np.array([1.0, 1j]) / math.sqrt(2)
        assert abs(linalg.inner(dec.eigenvectors[:, 1], plus)) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_input_sorted_ascending(self):
        a = np.diag([3.0, -1.0, 2.0]).astype(complex)
        dec = linalg.hermitian_eig(a)
        assert dec.eigenvalues == pytest.approx([-1.0, 2.0, 3.0])
        # Permutation of the identity.
        assert np.abs(np.abs(dec.eigenvectors) - np.eye(3)[:, [1, 2, 0]]).max() < 1e-14

    def test_degenerate_spectrum(self):
        a = np.diag([2.0, 2.0, 5.0]).astype(complex)
        rng = np.random.default_rng(5)
        h = random_hermitian(rng, 3)
        u = linalg.hermitian_eig(h).eigenvectors  # unitary mixer
        b = u @ a @ u.conj().T
        dec = linalg.hermitian_eig(b)
        assert dec.eigenvalues == pytest.approx([2.0, 2.0, 5.0], abs=1e-10)
        assert np.abs(dec.eigenvectors.conj().T @ dec.eigenvectors - np.eye(3)).max() < 1e-10

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12])
    def test_random_hermitian_properties(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(5):
            a = random_hermitian(rng, n)
            dec = linalg.hermitian_eig(a)
            scale = max(np.abs(dec.eigenvalues).max(), 1.0)
            recon = dec.eigenvectors @ np.diag(dec.eigenvalues) @ dec.eigenvectors.conj().T
            frobenius = float_reference.frobenius
            assert frobenius(a - recon) <= 1e-9 * max(1.0, frobenius(a))
            residual = np.abs(a @ dec.eigenvectors - dec.eigenvectors * dec.eigenvalues).max()
            assert residual <= 1e-10 * scale
            assert np.abs(dec.eigenvectors.conj().T @ dec.eigenvectors - np.eye(n)).max() <= 1e-10
            assert np.all(np.diff(dec.eigenvalues) >= -1e-12)

    @pytest.mark.parametrize("n", [2, 4, 7, 12])
    def test_agrees_with_numpy_eigh(self, n):
        # Independent oracle: numpy's LAPACK-backed solver.
        rng = np.random.default_rng(200 + n)
        a = random_hermitian(rng, n)
        ours = linalg.hermitian_eig(a)
        ref = np.linalg.eigvalsh(a)
        assert ours.eigenvalues == pytest.approx(ref, abs=1e-10 * max(1.0, np.abs(ref).max()))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            linalg.hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            linalg.hermitian_eig(np.zeros((2, 3)))

    def test_rejects_non_finite_entries_and_scale(self):
        # 1e308 is finite, but the Frobenius norm of this matrix overflows;
        # before, NaN slipped through the residual and orthonormality checks
        # and an infinite eigenvalue came back.
        for diagonal in ([1.0, 1e300, 1e308], [1.0, math.nan, 2.0], [1.0, math.inf, 2.0]):
            with pytest.raises(ValueError, match="finite"):
                linalg.hermitian_eig(np.diag(diagonal))

    def test_zero_matrix(self):
        dec = linalg.hermitian_eig(np.zeros((3, 3), dtype=complex))
        assert dec.eigenvalues == pytest.approx([0.0, 0.0, 0.0])

    @pytest.mark.parametrize(
        "m",
        [[[0.0, 8e153], [-8e153, 0.0]], [[1.0, 1e154], [0.0, 1.0]]],
        ids=["square-overflow", "sum-overflow"],
    )
    def test_overflowing_hermiticity_defect_refused_without_a_warning(self, m):
        # The scale is finite, but the squares (or their sum) in the
        # Hermiticity defect overflow to an infinite defect.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^matrix is not Hermitian within tolerance$"):
                linalg.hermitian_eig(m)

    def test_step_caps_refuse(self, monkeypatch):
        # A component operator, tridiagonal, takes the QR path and a dense
        # matrix the Jacobi path; each refuses once its own cap is spent.
        # Spin operators up to j = 25 converge within 3 QR steps per
        # eigenvalue, a tenth of the cap.
        band = spin.component_operator(spin.SpinSystem(3), spin.Direction(0.6, 0.0, 0.8))
        dense = random_hermitian(np.random.default_rng(7), 7)
        monkeypatch.setattr(linalg, "_MAX_QR_STEPS", 0)
        with pytest.raises(RuntimeError, match="^QR iteration did not converge$"):
            linalg.hermitian_eig(band)
        linalg.hermitian_eig(dense)
        # A diagonal matrix deflates without a step.
        linalg.hermitian_eig(np.diag([3.0, 1.0, 2.0]))
        monkeypatch.setattr(linalg, "_MAX_QR_STEPS", 3)
        linalg.hermitian_eig(band)
        monkeypatch.setattr(linalg, "_MAX_SWEEPS", 1)
        with pytest.raises(RuntimeError, match="^Jacobi iteration did not converge$"):
            linalg.hermitian_eig(dense)

    def test_solves_leave_input_alone_and_share_no_memory(self):
        rng = np.random.default_rng(11)
        a = random_hermitian(rng, 6)
        before = a.tobytes()
        first = linalg.hermitian_eig(a)
        assert a.tobytes() == before
        second = linalg.hermitian_eig(a)
        assert a.tobytes() == before
        assert first.eigenvectors.tobytes() == second.eigenvectors.tobytes()
        for x in (first.eigenvalues, first.eigenvectors):
            for y in (second.eigenvalues, second.eigenvectors, a):
                assert not np.shares_memory(x, y)


class TestOperatorNorm:
    def test_known_values(self):
        assert linalg.operator_norm(np.diag([3.0, -7.0])) == pytest.approx(7.0)
        # Nilpotent matrix: the spectral norm is its singular value, not 0.
        assert linalg.operator_norm(np.array([[0.0, 2.0], [0.0, 0.0]])) == pytest.approx(2.0)

    def test_against_numpy(self):
        rng = np.random.default_rng(42)
        m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        assert linalg.operator_norm(m) == pytest.approx(np.linalg.norm(m, 2), abs=1e-9)


# Every supported spin magnitude up to 12.5, and the top of the range.
SPINS = [k / 2 for k in range(1, 26)] + [25.0]


def eig_outcome(solve, m):
    """What a solver makes of m: the bytes of its result, or its error."""
    try:
        dec = solve(m)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)
    return (
        dec.eigenvalues.shape,
        dec.eigenvalues.tobytes(),
        dec.eigenvectors.shape,
        dec.eigenvectors.tobytes(),
    )


def assert_same_as_reference(m):
    want = eig_outcome(float_reference.hermitian_eig, m)
    assert eig_outcome(linalg.hermitian_eig, m) == want
    return want


class TestFloatReference:
    """The in-place QR and Jacobi paths against the copy-per-rotation
    loops, each matrix on the path the band rule picks: the same bytes, or
    the same error and message."""

    @pytest.mark.parametrize("j", SPINS)
    def test_component_operators(self, j):
        for op in spin.angular_momentum_operators(spin.SpinSystem(j)):
            assert_same_as_reference(op)

    @pytest.mark.parametrize("j", SPINS)
    def test_directions(self, j):
        system = spin.SpinSystem(j)
        rng = np.random.default_rng(round(4 * j))
        directions = [spin.random_direction(rng)]
        # Just off either pole: transverse log-uniform between the pole
        # threshold and 1e-3, at a random azimuth.
        for z in (1.0, -1.0):
            t = 10.0 ** rng.uniform(math.log10(spin.POLE_THRESHOLD), -3.0)
            phi = rng.uniform(0.0, 2.0 * math.pi)
            direction = spin.Direction.normalized(t * math.cos(phi), t * math.sin(phi), z)
            assert spin.POLE_THRESHOLD <= direction.transverse <= 1e-3
            directions.append(direction)
        directions += [spin.Direction(0.0, 0.0, 1.0), spin.Direction(0.0, 0.0, -1.0)]
        for direction in directions:
            assert_same_as_reference(spin.component_operator(system, direction))

    @pytest.mark.parametrize("j", SPINS)
    def test_plane_directions(self, j):
        # In the xz-plane the operator is real, its imaginary parts all
        # exactly zero; in the yz-plane its off-diagonal entries are purely
        # imaginary.  tobytes() catches a zero whose sign flipped.
        system = spin.SpinSystem(j)
        theta = np.random.default_rng(round(4 * j) + 100).uniform(0.0, math.pi)
        xz = spin.Direction.normalized(math.sin(theta), 0.0, math.cos(theta))
        yz = spin.Direction.normalized(0.0, math.sin(theta), math.cos(theta))
        real = spin.component_operator(system, xz)
        imaginary = spin.component_operator(system, yz)
        assert not real.imag.any()
        assert not imaginary.real[~np.eye(system.dim, dtype=bool)].any()
        assert_same_as_reference(real)
        assert_same_as_reference(imaginary)

    @pytest.mark.parametrize("n", range(1, 14))
    def test_random_hermitian(self, n):
        rng = np.random.default_rng(300 + n)
        for _ in range(3):
            assert_same_as_reference(random_hermitian(rng, n))

    def test_degenerate_and_diagonal_spectra(self):
        rng = np.random.default_rng(6)
        u = linalg.hermitian_eig(random_hermitian(rng, 4)).eigenvectors
        for diagonal in ([2.0, 2.0, 5.0, 5.0], [3.0, -1.0, 2.0, -1.0], [0.0, 0.0, 0.0, 1.0]):
            d = np.diag(diagonal).astype(complex)
            assert_same_as_reference(d)
            assert_same_as_reference(u @ d @ u.conj().T)
        for n in (1, 2, 5):
            assert_same_as_reference(np.zeros((n, n), dtype=complex))
            assert_same_as_reference(4.0 * np.eye(n))
        # Off-diagonal entries under tiny = 1e-18 * scale are zeroed, not
        # rotated.
        a = np.diag([1.0, 2.0, 3.0]).astype(complex)
        a[0, 2], a[2, 0] = 1e-20j, -1e-20j
        a[1, 2] = a[2, 1] = 3e-20
        assert_same_as_reference(a)

    @pytest.mark.parametrize("j", [k / 2 for k in range(1, 26)])
    def test_operator_norm_gram_matrices(self, j):
        # The Gram matrices that algebra_defects' operator norms diagonalize.
        jx, jy, jz = spin.angular_momentum_operators(spin.SpinSystem(j))
        casimir = jx @ jx + jy @ jy + jz @ jz - j * (j + 1.0) * np.eye(jx.shape[0])
        for a in (
            linalg.commutator(jx, jy) - 1j * jz,
            linalg.commutator(jy, jz) - 1j * jx,
            linalg.commutator(jz, jx) - 1j * jy,
            casimir,
        ):
            assert_same_as_reference(a.conj().T @ a)

    @pytest.mark.parametrize(
        "m",
        [
            np.array([[0.0, 1.0], [0.0, 0.0]]),
            np.zeros((2, 3)),
            np.diag([1.0, math.nan, 2.0]),
            np.diag([1.0, math.inf, 2.0]),
            np.diag([1.0, 1e300, 1e308]),
            np.full((2, 2), 1e200),
        ],
        ids=["non-hermitian", "non-square", "nan", "inf", "overflow", "overflow-full"],
    )
    def test_same_errors(self, m):
        want = assert_same_as_reference(m)
        assert want[0] is ValueError
