"""Tests for the Bloch direction map and the SU(2) to SO(3) cover.

Expected values are hand-computed Pauli expectations in the ascending basis
and the closed-form z-rotation matrix.  The stacked kernels must also agree
bit for bit with the per-entry loops kept in `float_reference`.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import float_reference as ref
from qastates import linalg, qubit, spin


def rot_z(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


class TestPauli:
    def test_ascending_convention(self):
        sx, sy, sz = qubit.pauli_matrices()
        assert np.abs(sx - np.array([[0, 1], [1, 0]])).max() < 1e-15
        assert np.abs(sy - np.array([[0, 1j], [-1j, 0]])).max() < 1e-15
        assert np.abs(sz - np.diag([-1.0, 1.0])).max() < 1e-15

    def test_built_once_and_read_only(self):
        first = qubit.pauli_matrices()
        assert all(a is b for a, b in zip(first, qubit.pauli_matrices()))
        for sigma in first:
            with pytest.raises(ValueError):
                sigma[0, 0] = 1.0

    def test_algebra(self):
        sx, sy, sz = qubit.pauli_matrices()
        assert np.abs(linalg.commutator(sx, sy) - 2j * sz).max() < 1e-14
        for s in (sx, sy, sz):
            assert np.abs(s @ s - np.eye(2)).max() < 1e-14


class TestBlochDirection:
    def test_basis_vectors(self):
        up = qubit.bloch_direction([0.0, 1.0])
        assert (up.x, up.y, up.z) == pytest.approx((0.0, 0.0, 1.0), abs=1e-12)
        down = qubit.bloch_direction([1.0, 0.0])
        assert (down.x, down.y, down.z) == pytest.approx((0.0, 0.0, -1.0), abs=1e-12)

    def test_equal_superposition_points_along_x(self):
        d = qubit.bloch_direction(np.array([1.0, 1.0]) / math.sqrt(2))
        assert (d.x, d.y, d.z) == pytest.approx((1.0, 0.0, 0.0), abs=1e-12)

    def test_quarter_phase_superpositions(self):
        # <v|sigma_y|v> for v = (1, i)/sqrt2 is -1 in the ascending basis,
        # worked out by hand; the +y ray is (1, -i)/sqrt2.
        d = qubit.bloch_direction(np.array([1.0, 1j]) / math.sqrt(2))
        assert (d.x, d.y, d.z) == pytest.approx((0.0, -1.0, 0.0), abs=1e-12)
        d = qubit.bloch_direction(np.array([1.0, -1j]) / math.sqrt(2))
        assert (d.x, d.y, d.z) == pytest.approx((0.0, 1.0, 0.0), abs=1e-12)

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError, match="^bloch_direction needs a unit vector$"):
            qubit.bloch_direction([1.0, 1.0])

    @pytest.mark.parametrize(
        "v", [[math.nan, 0.0], [1.0, math.inf], [complex(0.0, math.nan), 1.0], [1e200, 0.0]]
    )
    def test_rejects_non_finite_without_warning(self, v):
        # A NaN norm fails the unit test; an infinite or overflowing one
        # fails it too, and numpy raises no RuntimeWarning on the way.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^bloch_direction needs a unit vector$"):
                qubit.bloch_direction(v)

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValueError, match="^bloch_direction needs a 2-vector$"):
            qubit.bloch_direction([1.0, 0.0, 0.0])

    def test_phase_invariance(self):
        rng = np.random.default_rng(3)
        v = qubit.random_unit_vector(rng)
        a = qubit.bloch_direction(v)
        b = qubit.bloch_direction(np.exp(1j * 0.7) * v)
        assert np.abs(a.as_array() - b.as_array()).max() < 1e-12

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_round_trip_through_recursion(self, seed):
        rng = np.random.default_rng(seed)
        v = qubit.random_unit_vector(rng)
        direction = qubit.bloch_direction(v)
        rebuilt = spin.eigenstate_recursion(spin.SpinSystem(0.5), direction, 0.5).ket
        assert abs(linalg.inner(rebuilt, v)) >= 1.0 - 1e-10

    def test_round_trip_spec_corner(self):
        v = np.array([1.0, np.exp(1j * math.pi / 4)]) / math.sqrt(2)
        direction = qubit.bloch_direction(v)
        rebuilt = spin.eigenstate_recursion(spin.SpinSystem(0.5), direction, 0.5).ket
        assert linalg.phase_equal(rebuilt, v, 1e-9)


class TestSpecialUnitary2:
    def test_accepts_valid(self):
        qubit.SpecialUnitary2(np.eye(2, dtype=complex))

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            qubit.SpecialUnitary2(np.diag([1.0, 2.0]).astype(complex))

    def test_rejects_nan_matrix(self):
        with pytest.raises(ValueError, match="not unitary"):
            qubit.SpecialUnitary2(np.full((2, 2), np.nan, dtype=complex))

    def test_rejects_unit_determinant_violation(self):
        # Unitary but determinant -1.
        with pytest.raises(ValueError):
            qubit.SpecialUnitary2(np.diag([1.0, -1.0]).astype(complex))

    def test_random_elements_valid(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            m = qubit.random_su2(rng).matrix
            assert np.abs(m.conj().T @ m - np.eye(2)).max() < 1e-12
            det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
            assert abs(det - 1.0) < 1e-12


class TestSu2ToSo3:
    def test_identity(self):
        r = qubit.su2_to_so3(np.eye(2, dtype=complex)).matrix
        assert np.abs(r - np.eye(3)).max() < 1e-12

    def test_kernel_two_to_one(self):
        r = qubit.su2_to_so3(-np.eye(2, dtype=complex)).matrix
        assert np.abs(r - np.eye(3)).max() < 1e-12

    def test_diagonal_element_is_z_rotation(self):
        # diag(e^{-i phi/2}, e^{i phi/2}) = exp(+i phi sigma_z / 2) in the
        # ascending basis, which rotates about z by -phi (hand derivation:
        # R_xx = cos phi, R_yx = -sin phi).  The conjugate matrix rotates
        # by +phi.
        phi = math.pi / 3
        m = np.diag([np.exp(-1j * phi / 2), np.exp(1j * phi / 2)])
        r = qubit.su2_to_so3(m).matrix
        assert np.abs(r - rot_z(-phi)).max() < 1e-10
        r2 = qubit.su2_to_so3(m.conj()).matrix
        assert np.abs(r2 - rot_z(phi)).max() < 1e-10

    @pytest.mark.parametrize(
        "matrix, message",
        [
            (np.eye(3, dtype=complex), "^expected a 2x2 matrix$"),
            (np.diag([1.0, 2.0]).astype(complex), "^not unitary: defect 3.000e\\+00$"),
            (np.diag([1.0, -1.0]).astype(complex), "^determinant is not 1: "),
        ],
    )
    def test_rejects_invalid_input(self, matrix, message):
        with pytest.raises(ValueError, match=message):
            qubit.su2_to_so3(matrix)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_covariance_with_bloch_map(self, seed):
        # bloch(M v) = R(M) bloch(v): the rotation transports directions
        # exactly as the unitary transports states.
        rng = np.random.default_rng(seed)
        m = qubit.random_su2(rng)
        v = qubit.random_unit_vector(rng)
        lhs = qubit.bloch_direction(m.matrix @ v).as_array()
        rhs = qubit.su2_to_so3(m).matrix @ qubit.bloch_direction(v).as_array()
        assert np.abs(lhs - rhs).max() < 1e-10

    def test_homomorphism_spot_check(self):
        rng = np.random.default_rng(5)
        m1, m2 = qubit.random_su2(rng), qubit.random_su2(rng)
        lhs = qubit.su2_to_so3(qubit.SpecialUnitary2(m1.matrix @ m2.matrix)).matrix
        rhs = qubit.su2_to_so3(m1).matrix @ qubit.su2_to_so3(m2).matrix
        assert np.abs(lhs - rhs).max() < 1e-12


class TestRotation3:
    def test_rejects_reflection(self):
        with pytest.raises(ValueError):
            qubit.Rotation3(np.diag([1.0, 1.0, -1.0]))

    def test_rejects_non_orthogonal(self):
        with pytest.raises(ValueError):
            qubit.Rotation3(np.ones((3, 3)))

    def test_rejects_nan_matrix(self):
        with pytest.raises(ValueError, match="not orthogonal"):
            qubit.Rotation3(np.full((3, 3), np.nan))


def scalar_det2(m):
    """det of a 2x2 array from its numpy scalar entries, as refusals print
    it: numpy rounds each part of a scalar complex product on its own."""
    return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]


def scalar_det3(r):
    return float(
        r[0, 0] * (r[1, 1] * r[2, 2] - r[1, 2] * r[2, 1])
        - r[0, 1] * (r[1, 0] * r[2, 2] - r[1, 2] * r[2, 0])
        + r[0, 2] * (r[1, 0] * r[2, 1] - r[1, 1] * r[2, 0])
    )


def refusal(construct, matrix):
    with pytest.raises(ValueError) as info:
        construct(matrix)
    return str(info.value)


def su2_refusals():
    """Matrices SpecialUnitary2 refuses: by Gram defect, then by determinant."""
    rng = np.random.default_rng(41)
    bad = [
        np.diag([1.0, 2.0]).astype(complex),
        np.full((2, 2), np.nan, dtype=complex),
        np.ones((2, 2), dtype=complex),
        np.diag([1.0, -1.0]).astype(complex),
    ]
    for _ in range(4):
        u = qubit.random_su2(rng).matrix
        bad.append(u @ np.diag([1.0, np.exp(1j * rng.uniform(0.1, 6.0))]))
        bad.append(1.5 * u)
    return bad


def rotation_refusals():
    rng = np.random.default_rng(42)
    bad = [np.diag([1.0, 2.0, 1.0]), np.full((3, 3), np.nan), np.ones((3, 3)), np.diag([1.0, 1.0, -1.0])]
    for _ in range(4):
        r = qubit.su2_to_so3(qubit.random_su2(rng)).matrix
        bad += [r @ np.diag([1.0, 1.0, -1.0]), -r, 0.5 * r]
    return bad


class TestRefusalTexts:
    """Every refusal keeps its text, byte for byte: the defect to three
    digits, or the determinant as its scalar expression prints it."""

    @pytest.mark.parametrize(
        "matrix, text",
        [
            (np.diag([1.0, 2.0]).astype(complex), "not unitary: defect 3.000e+00"),
            (np.full((2, 2), np.nan, dtype=complex), "not unitary: defect nan"),
            (np.ones((2, 2), dtype=complex), "not unitary: defect 2.000e+00"),
        ],
    )
    def test_special_unitary_by_defect(self, matrix, text):
        assert refusal(qubit.SpecialUnitary2, matrix) == text

    @pytest.mark.parametrize(
        "matrix, text",
        [
            (np.diag([1.0, 2.0, 1.0]), "not orthogonal: defect 3.000e+00"),
            (np.full((3, 3), np.nan), "not orthogonal: defect nan"),
            (np.ones((3, 3)), "not orthogonal: defect 3.000e+00"),
        ],
    )
    def test_rotation_by_defect(self, matrix, text):
        assert refusal(qubit.Rotation3, matrix) == text

    @pytest.mark.parametrize(
        "construct, matrix, text",
        [
            (qubit.SpecialUnitary2, np.diag([math.inf, 1.0 + 0j]), "not unitary: defect nan"),
            (qubit.Rotation3, np.diag([math.inf, 1.0, 1.0]), "not orthogonal: defect nan"),
            (qubit.su2_to_so3, np.diag([math.inf, 1.0 + 0j]), "not unitary: defect nan"),
            (qubit.SpecialUnitary2, np.diag([1e200, 1.0 + 0j]), "not unitary: defect inf"),
        ],
    )
    def test_non_finite_and_overflowing_entries_refused_without_a_warning(
        self, construct, matrix, text
    ):
        # inf * 0 inside the Gram product is NaN, and 1e200 squared overflows
        # to inf; neither may warn before the refusal.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert refusal(construct, matrix) == text

    def test_determinants(self):
        # On numpy 2 a complex determinant prints as np.complex128(...), on
        # numpy 1 as a Python complex; a real one prints as a float.
        m = np.diag([1.0, -1.0]).astype(complex)
        assert refusal(qubit.SpecialUnitary2, m) == f"determinant is not 1: {scalar_det2(m)!r}"
        assert refusal(qubit.Rotation3, np.diag([1.0, 1.0, -1.0])) == "determinant is not 1: -1.0"
        dets = []
        for m in su2_refusals():
            if abs(abs(scalar_det2(m)) - 1.0) < 1e-10:
                dets.append(m)
                want = f"determinant is not 1: {scalar_det2(m)!r}"
                assert refusal(qubit.SpecialUnitary2, m) == want
        for r in rotation_refusals():
            if abs(abs(scalar_det3(r)) - 1.0) < 1e-10:
                dets.append(r)
                want = f"determinant is not 1: {scalar_det3(r)!r}"
                assert refusal(qubit.Rotation3, r) == want
        assert len(dets) == 1 + 4 + 1 + 8

    def test_accepted_matrix_is_a_read_only_copy(self):
        m = np.eye(2, dtype=complex)
        element = qubit.SpecialUnitary2(m)
        m[0, 0] = 2.0
        assert element.matrix[0, 0] == 1.0
        with pytest.raises(ValueError):
            element.matrix[0, 0] = 2.0
        rotation = qubit.Rotation3(np.eye(3))
        assert not rotation.matrix.flags.writeable
        assert rotation.matrix.flags.c_contiguous


class TestStackedCheck:
    """One Gram product and one determinant check a whole stack, and a bad
    element anywhere in it is refused as its constructor refuses it."""

    @pytest.mark.parametrize(
        "construct, what, tol, refused, good",
        [
            (qubit.SpecialUnitary2, "unitary", qubit.UNITARY_TOL, su2_refusals, lambda m: m),
            (qubit.Rotation3, "orthogonal", qubit.ROTATION_TOL, rotation_refusals, qubit.su2_to_so3),
        ],
    )
    def test_bad_element_anywhere(self, construct, what, tol, refused, good):
        rng = np.random.default_rng(43)
        stack = np.array([good(qubit.random_su2(rng)).matrix for _ in range(5)])
        assert qubit._checked(stack, tol, what).tobytes() == stack.tobytes()
        for bad in refused():
            alone = refusal(construct, bad)
            for k in range(len(stack) + 1):
                with_bad = np.insert(stack, k, bad, axis=0)
                assert refusal(lambda s: qubit._checked(s, tol, what), with_bad) == alone, k

    def test_non_unitary_refused_before_any_determinant(self):
        # As in one constructor, the Gram defect is checked first: a stack
        # with a wrong determinant early and a non-unitary element later is
        # refused for the latter.
        stack = np.array([np.diag([1.0, -1.0]), np.eye(2), np.diag([1.0, 2.0])], dtype=complex)
        text = refusal(lambda s: qubit._checked(s, qubit.UNITARY_TOL, "unitary"), stack)
        assert text == "not unitary: defect 3.000e+00"

    def test_checked_stack_is_a_read_only_c_ordered_copy(self):
        images = qubit._covers(np.array([np.eye(2, dtype=complex), -np.eye(2, dtype=complex)]))
        assert not images.flags.c_contiguous
        checked = qubit._checked(images, qubit.ROTATION_TOL, "orthogonal")
        assert checked.flags.c_contiguous and not checked.flags.writeable
        assert checked.tobytes() == np.ascontiguousarray(images).tobytes()


class TestOneCheckPerStack:
    """The cover check keeps its elements and images as arrays: no
    per-element objects, one Gram product per element kind."""

    @staticmethod
    def count(monkeypatch):
        built, shapes = [], []
        for cls in (qubit.SpecialUnitary2, qubit.Rotation3):
            post_init = cls.__post_init__

            def counted_init(self, post_init=post_init):
                built.append(type(self).__name__)
                post_init(self)

            monkeypatch.setattr(cls, "__post_init__", counted_init)
        gram_defect = linalg.gram_defect

        def counted_defect(columns):
            shapes.append(columns.shape)
            return gram_defect(columns)

        monkeypatch.setattr(linalg, "gram_defect", counted_defect)
        return built, shapes

    def test_verify_homomorphism(self, monkeypatch):
        built, shapes = self.count(monkeypatch)
        rep = qubit.verify_homomorphism(pairs=25, rng=np.random.default_rng(0))
        assert rep.verdict == "pass"
        assert built == []
        # 25 products, 50 factors and the kernel {I, -I}; then their images.
        assert shapes == [(77, 2, 2), (77, 3, 3)]

    def test_constructors_check_a_stack_of_one(self, monkeypatch):
        built, shapes = self.count(monkeypatch)
        qubit.su2_to_so3(np.eye(2, dtype=complex))
        assert built == ["SpecialUnitary2", "Rotation3"]
        assert shapes == [(1, 2, 2), (1, 3, 3)]


class TestBatteries:
    def test_prop2_round_trip_battery(self):
        rep = qubit.verify_prop2(samples=100, rng=np.random.default_rng(0))
        assert rep.verdict == "pass"
        assert rep.metrics["passes"] == 100.0
        assert rep.metrics["worst_overlap_deficit"] <= 1e-9

    def test_single_sample_trivial_case(self):
        rep = qubit.verify_prop2(samples=1, rng=np.random.default_rng(4))
        assert rep.verdict == "pass"
        rep = qubit.verify_homomorphism(pairs=1, rng=np.random.default_rng(4))
        assert rep.verdict == "pass"

    def test_homomorphism_battery(self):
        rep = qubit.verify_homomorphism(pairs=50, rng=np.random.default_rng(0))
        assert rep.verdict == "pass"
        assert rep.metrics["max_homomorphism_deviation"] <= 1e-10
        assert rep.metrics["kernel_deviation"] <= 1e-12

    def test_batteries_deterministic(self):
        a = qubit.verify_prop2(samples=20, rng=np.random.default_rng(9))
        b = qubit.verify_prop2(samples=20, rng=np.random.default_rng(9))
        assert a.metrics == b.metrics

    def test_invalid_sample_count(self):
        with pytest.raises(ValueError):
            qubit.verify_prop2(samples=0)


S2 = 1.0 / math.sqrt(2.0)


SIZES = (1, 2, 3, 50, 200, 1000)


class TestFloatReference:
    """The stacked kernels give the reference loops' bits: every float in a
    report, and every bit of a rotation entry or Bloch component, down to
    the sign of a zero."""

    @pytest.mark.parametrize(
        "seed,sizes",
        [pytest.param(seed, {"verify_prop2": SIZES, "verify_homomorphism": SIZES}, id=str(seed))
         for seed in range(20)]
        # verify_prop2 at twice the largest size above, at each numpy
        # dispatch level.
        + [pytest.param(20, {"verify_prop2": (2000,), "verify_homomorphism": (1000,)},
                        id="20", marks=pytest.mark.dispatch)],
    )
    def test_verifiers_match_reference(self, seed, sizes):
        for name, name_sizes in sizes.items():
            for size in name_sizes:
                lib_rng = np.random.default_rng(seed)
                ref_rng = np.random.default_rng(seed)
                lib = getattr(qubit, name)(size, rng=lib_rng)
                want = getattr(ref, name)(size, rng=ref_rng)
                assert repr(lib.to_json_dict()) == repr(want.to_json_dict()), (name, size)
                # The golden battery draws every section from one generator,
                # so a change in draw order would shift all later sections.
                assert lib_rng.bit_generator.state == ref_rng.bit_generator.state

    def test_bloch_direction_matches_reference(self):
        rng = np.random.default_rng(17)
        vectors = [qubit.random_unit_vector(rng) for _ in range(500)]
        vectors += [
            [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [1j, 0.0], [0.0, -1j],
            [-0.0, 1.0], [1.0, -0.0], [S2, S2], [S2, -S2], [S2, 1j * S2], [S2, -1j * S2],
        ]
        for v in vectors:
            assert repr(qubit.bloch_direction(v)) == repr(ref.bloch_direction(v)), v

    def test_su2_to_so3_matches_reference(self):
        rng = np.random.default_rng(18)
        mats = [qubit.random_su2(rng).matrix for _ in range(500)]
        mats += [
            np.eye(2), -np.eye(2), np.diag([1j, -1j]),
            np.array([[0.0, 1.0], [-1.0, 0.0]]), np.array([[0.0, 1j], [1j, 0.0]]),
        ]
        for m in mats:
            assert qubit.su2_to_so3(m).matrix.tobytes() == ref.su2_to_so3(m).matrix.tobytes()
