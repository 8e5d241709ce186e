"""Bit-equality checks sized for each CPU dispatch level.

numpy picks its array loops by CPU level, and from AVX2 up they may fuse a
multiply and an add (FMA), so CI runs this module (`pytest -m dispatch`)
at the runner's full level and with AVX-512 and AVX2 switched off.

`linalg.hermitian_eig` rotates the matrix and its eigenvectors as one
stacked array, in place, through pair views and buffers made once per
solve; its eigenvalues and eigenvectors must equal those of the
copy-per-rotation loop in `float_reference` byte for byte.  So must those
of each matrix of a `linalg.hermitian_eigs` stack, which sets up, sorts
and checks all of its matrices at once: a pole beside rotating
directions, and at small dimension random, diagonal and zero matrices.  The
recurrence, which carries its last two coefficients as locals, must give
the bytes of the loop that reads them back from the array, at every h,
over a full and a partial pass; so must every pass of a stepped batch,
which runs passes of mixed lengths and both mirrors together, through
rescales and both branches of numpy's complex divide.  All run at every j
up to 25, along three random, two near-pole, one xz-plane (a real
operator) and one yz-plane (purely imaginary off-diagonals) direction
each.  The reference solves are memoized per session, so each operator is
solved by the reference once.

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


@pytest.fixture(scope="session")
def reference_eig():
    """`float_reference.hermitian_eig`, solved once per operator per session:
    the single and stacked solve tests share seven operators per j."""
    solves = {}

    def solve(m):
        key = (m.shape, m.tobytes())
        if key not in solves:
            solves[key] = ref.hermitian_eig(m)
        return solves[key]

    return solve


@pytest.mark.parametrize("twice_j", sorted(DIRECTIONS))
def test_eigensolver_matches_reference(twice_j, reference_eig):
    system = spin.SpinSystem(twice_j / 2)
    for direction in DIRECTIONS[twice_j]:
        m = spin.component_operator(system, direction)
        assert_same_bytes(linalg.hermitian_eig(m), reference_eig(m), (system.j, direction))


def assert_same_bytes(got, want, where):
    assert got.eigenvalues.tobytes() == want.eigenvalues.tobytes(), where
    assert got.eigenvectors.tobytes() == want.eigenvectors.tobytes(), where


@pytest.mark.parametrize("twice_j", sorted(DIRECTIONS))
def test_stacked_solves_match_reference(twice_j, reference_eig):
    # One stack per j: the poles, which converge at once, around the seven
    # directions, which rotate; at n <= 8 random Hermitian, diagonal and
    # zero matrices between them.
    system = spin.SpinSystem(twice_j / 2)
    n = system.dim
    pole = spin.Direction(0.0, 0.0, 1.0)
    directions = [pole] + DIRECTIONS[twice_j] + [pole.antipode()]
    matrices = [spin.component_operator(system, a) for a in directions]
    if n <= 8:
        rng = np.random.default_rng(twice_j)
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        matrices[2:2] = [(g + g.conj().T) / 2.0, np.diag(rng.standard_normal(n)).astype(complex)]
        matrices[5:5] = [np.zeros((n, n), dtype=complex)]
    decompositions = linalg.hermitian_eigs(np.array(matrices))
    assert len(decompositions) == len(matrices)
    for k, (m, got) in enumerate(zip(matrices, decompositions)):
        assert_same_bytes(got, reference_eig(m), (system.j, k))


def outcome(solve, m):
    """The bytes a solve returns, or the type and text of what it raises."""
    try:
        return [(d.eigenvalues.tobytes(), d.eigenvectors.tobytes()) for d in solve(m)]
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


GOOD = {
    "diagonal": np.diag([1.0, 2.0, 3.0]).astype(complex),
    "rotating": spin.component_operator(spin.SpinSystem(1.0), DIRECTIONS[2][0]),
}
BAD = {
    "non-hermitian": np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
    "nan": np.diag([1.0, math.nan, 2.0]),
    "inf": np.diag([1.0, math.inf, 2.0]),
    "overflow": np.diag([1.0, 1e300, 1e308]),
}


@pytest.mark.parametrize(
    "names, patch",
    [
        (["rotating", "non-hermitian", "nan"], None),
        (["diagonal", "inf", "rotating", "non-hermitian"], None),
        (["overflow", "rotating"], None),
        (["diagonal", "rotating", "nan"], None),
        # No rotating matrix converges in one sweep; a diagonal one needs none.
        (["diagonal", "rotating", "non-hermitian"], ("_MAX_SWEEPS", 1)),
        (["non-hermitian", "rotating"], ("_MAX_SWEEPS", 1)),
        # Every rotated matrix fails its residual check, which comes after
        # the sweeps but still ahead of a later matrix's input checks.
        (["diagonal", "rotating", "inf"], ("RESIDUAL_TOL", 0.0)),
        (["diagonal", "diagonal", "rotating"], ("RESIDUAL_TOL", 0.0)),
    ],
)
def test_stack_refuses_as_its_first_bad_matrix(monkeypatch, names, patch):
    if patch is not None:
        monkeypatch.setattr(linalg, *patch)
    matrices = [{**GOOD, **BAD}[name] for name in names]
    alone = [outcome(lambda m: [ref.hermitian_eig(m)], m) for m in matrices]
    refused = [o for o in alone if isinstance(o, tuple)]
    got = outcome(linalg.hermitian_eigs, np.array(matrices, dtype=complex))
    assert got == (refused[0] if refused else sum(alone, []))
    assert refused or patch is None


@pytest.mark.parametrize("twice_j", sorted(DIRECTIONS))
def test_recurrence_matches_reference(twice_j):
    system = spin.SpinSystem(twice_j / 2)
    for direction in DIRECTIONS[twice_j]:
        for h in system.m_values.tolist():
            for k_end in (system.dim - 1, (system.dim - 1) // 2):
                got = spin._recurrence_up(system, direction, h, k_end)
                want = ref.recurrence_up(system, direction, h, k_end)
                assert got.tobytes() == want.tobytes(), (system.j, direction, h, k_end)


def unlimited(system, direction, h, k_end):
    """The reference pass with no rescale, its overflow left silent."""
    with pytest.MonkeyPatch.context() as patch, np.errstate(over="ignore", invalid="ignore"):
        patch.setattr(spin, "_RESCALE_LIMIT", math.inf)
        return ref.recurrence_up(system, direction, h, k_end)


@pytest.mark.parametrize("limit", [None, 1e3], ids=["limit", "low_limit"])
@pytest.mark.parametrize("twice_j", sorted(DIRECTIONS))
def test_stepped_passes_match_reference(monkeypatch, twice_j, limit):
    # One stepped batch per j: every h along each direction and its mirror,
    # as the downward passes run, half of them full and half of mixed
    # partial lengths, sorted longest first as `_pass_coefficients` hands
    # them over.  Two directions sit just outside the pole threshold; with
    # the rescale limit lowered, nearly every pass rescales.
    if limit is not None:
        monkeypatch.setattr(spin, "_RESCALE_LIMIT", limit)
    system = spin.SpinSystem(twice_j / 2)
    d = system.dim
    t = 2.0 * spin.POLE_THRESHOLD
    near = [spin.Direction.normalized(0.6 * t, -0.8 * t, z) for z in (1.0, -1.0)]
    passes = []
    for a in DIRECTIONS[twice_j] + near:
        for direction in (a, spin.Direction(a.x, -a.y, -a.z)):
            for i, h in enumerate(system.m_values.tolist()):
                k_end = d - 1 if i % 2 == 0 else 1 + (3 * i + len(passes)) % (d - 1)
                passes.append((direction, h, k_end))
    passes.sort(key=lambda p: p[2], reverse=True)
    got = spin._stepped_passes(system, passes)
    assert got.shape == (d, len(passes))
    rescaled = signed_zeros = 0
    for column, (direction, h, k_end) in zip(got.T, passes):
        want = ref.recurrence_up(system, direction, h, k_end)
        assert column[: k_end + 1].tobytes() == want.tobytes(), (system.j, direction, h, k_end)
        assert not column[k_end + 1 :].any()
        rescaled += want.tobytes() != unlimited(system, direction, h, k_end).tobytes()
        parts = want.view(float)
        signed_zeros += bool(np.any((parts == 0.0) & np.signbit(parts)))
    # The divisor half_up * lowering takes numpy's |Re| >= |Im| branch
    # where |x| >= |y| (the xz plane: a real operator) and the other where
    # |x| < |y| (the yz plane: purely imaginary off-diagonals).
    assert {abs(a.x) >= abs(a.y) for a, _, _ in passes} == {True, False}
    assert signed_zeros > 0
    # Just off a pole the passes outgrow the true limit from j = 7 on.
    assert rescaled > 0 or (limit is None and system.j < 7)


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
