"""Bit-equality checks sized for each CPU dispatch level.

numpy picks its array loops by CPU level, and from AVX2 up they may fuse a
multiply and an add (FMA), so CI runs this module (`pytest -m dispatch`)
at the runner's full level and with AVX-512 and AVX2 switched off.

`linalg.hermitian_eig` rotates the matrix and its eigenvectors as one
stacked array, in place, through pair views and buffers made once per
solve; its eigenvalues and eigenvectors must equal those of the
copy-per-rotation loop in `float_reference` byte for byte.  The
recurrence, which carries its last two coefficients as locals, must give
the bytes of the loop that reads them back from the array, at every h,
over a full and a partial pass.  Both run at every j up to 25, along
three random, two near-pole, one xz-plane (a real operator) and one
yz-plane (purely imaginary off-diagonals) direction each.

The recursion stitches its two passes with two-term sums that must round
as np.sum does, signed zeros included; the pinned rows below are ones
where a bare a + b changes the ket's bytes.
"""

import math

import numpy as np
import pytest

import float_reference as ref
from qastates import linalg, spin

pytestmark = pytest.mark.dispatch


def _directions_by_spin():
    """Seven directions per j in 0.5..25, drawn in order from one seed."""
    rng = np.random.default_rng(25)
    out = {}
    for twice_j in range(1, 51):
        directions = [spin.random_direction(rng) for _ in range(3)]
        for z in (1.0, -1.0):
            t = 10.0 ** rng.uniform(math.log10(spin.POLE_THRESHOLD), -3.0)
            phi = rng.uniform(0.0, 2.0 * math.pi)
            directions.append(spin.Direction.normalized(t * math.cos(phi), t * math.sin(phi), z))
        theta = rng.uniform(0.0, math.pi)
        directions.append(spin.Direction.normalized(math.sin(theta), 0.0, math.cos(theta)))
        directions.append(spin.Direction.normalized(0.0, math.sin(theta), math.cos(theta)))
        out[twice_j] = directions
    return out


DIRECTIONS = _directions_by_spin()


@pytest.mark.parametrize("twice_j", sorted(DIRECTIONS))
def test_eigensolver_matches_reference(twice_j):
    system = spin.SpinSystem(twice_j / 2)
    for direction in DIRECTIONS[twice_j]:
        m = spin.component_operator(system, direction)
        got, want = linalg.hermitian_eig(m), ref.hermitian_eig(m)
        where = (system.j, direction)
        assert got.eigenvalues.tobytes() == want.eigenvalues.tobytes(), where
        assert got.eigenvectors.tobytes() == want.eigenvectors.tobytes(), where


@pytest.mark.parametrize("twice_j", sorted(DIRECTIONS))
def test_recurrence_matches_reference(twice_j):
    system = spin.SpinSystem(twice_j / 2)
    for direction in DIRECTIONS[twice_j]:
        for h in system.m_values.tolist():
            for k_end in (system.dim - 1, (system.dim - 1) // 2):
                got = spin._recurrence_up(system, direction, h, k_end)
                want = ref.recurrence_up(system, direction, h, k_end)
                assert got.tobytes() == want.tobytes(), (system.j, direction, h, k_end)


# (j, yz-plane direction, answers): rows whose stitch sums two -0.0 terms,
# found among 300 random xz- and yz-plane directions.
SIGNED_ZERO_STITCHES = [
    (14, (0.0, 0.1337615753388764, -0.991013542270166), (0, 4, 8)),
    (20, (0.0, 0.25690362386857735, -0.966437027458692), (0,)),
    (24, (0.0, 0.06433855771074626, -0.9979281286704473), (2, 6, 10)),
]


@pytest.mark.parametrize("j, xyz, answers", SIGNED_ZERO_STITCHES)
def test_stitch_sums_signed_zeros_as_np_sum(j, xyz, answers):
    system = spin.SpinSystem(j)
    direction = spin.Direction(*xyz)
    op = spin.component_operator(system, direction)
    catalog = spin.state_catalog(system, direction)
    for h in answers:
        junction = round(h * direction.z + j)
        assert 0 < junction < system.dim - 1, "the row must be stitched"
        want = ref.recursion_state(system, direction, float(h), op)
        for got in (spin.eigenstate_recursion(system, direction, h), catalog[system.m_index(h)]):
            assert got.ket.tobytes() == want.ket.tobytes(), (j, h)
            assert got.residual.hex() == want.residual.hex(), (j, h)
