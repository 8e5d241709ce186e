"""Spin systems: angular momentum operators and question-answer states.

A question here is "what is the component of angular momentum along the unit
direction a?" and a sharp answer is one of the eigenvalues m = -j, ..., +j.
The pair determines a state vector, constructed two independent ways: a
coefficient recursion that never diagonalizes anything, and an eigensolver
oracle.  Keeping the routes independent is the point; their agreement is a
verified claim, not an assumption.  So the oracle keeps its own in-house
Jacobi solver and never reuses anything from the recursion; it diagonalizes
the component operator once per direction and serves every sharp answer
from that one decomposition (`oracle_catalog`).

The ladder coefficients and the angular momentum operators depend only on
j, so they are built once per spin magnitude, kept in small bounded caches
and handed out read-only; so are the algebra defects computed from the
operators (`algebra_defects`, four Jacobi solves).  The recursion and the
operators read the same ladder table: a shared input, like j itself, after
which the routes part.

The recursion holds one recurrence: its downward pass is the upward one run
on the mirrored basis (m -> -m).  States are built a stack at a time, in
`_stack_states`: the recursion runs per row, then the norms, the phase
convention and the eigenvalue residual bound each run once over the (n, d)
array of a direction's answers, of a verifier's samples, or of one state.
The oracle's eigenvectors go through the same pass.  Its bits are those of
building each state alone.  Each constructed state is checked once, by the
residual bound: the pole branch, the recursion and the oracle build kets
that are unit and phase-fixed by construction.  The residual reads the
component operator, built once per direction and shared by both routes
like j itself, or one per row where the rows differ in direction.  Kets
from outside the package go through the public `QuestionAnswerState`
constructor, which checks every invariant.

Basis convention: the J_z eigenbasis ordered by ascending eigenvalue, so
index 0 is m = -j and the last index is m = +j.  All operators and kets in
this module use that order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .report import VerificationReport, check_eps

MAX_J = 25.0
# Below this transverse magnitude t = |a_x + i a_y| the axis basis vector is
# used instead of the recursion.  Its residual is t*sqrt((j(j+1) - m^2)/2),
# at most 1.8e-10 at j = 25, so it always meets STATE_RESIDUAL_TOL.  The
# recursion itself runs clean far below this, down to t = 1e-300.
POLE_THRESHOLD = 1e-11
# Least angle, in radians, between a ray-collision sample's direction (or its
# antipode) and the separated direction drawn against it.  It must stay below
# pi/2: a uniform draw is accepted with probability cos(separation), which
# falls to 0 at pi/2, where the draw loop would never end.
COLLISION_SEPARATION = 1e-3
# Guaranteed on every constructed state: ||J_a ket - h ket|| <= this.
STATE_RESIDUAL_TOL = 1e-9
# Coefficient magnitude that triggers prefix rescaling mid-recursion.
_RESCALE_LIMIT = 1e150
# Spin magnitudes whose ladder tables, operators and algebra defects are
# kept; a handful covers a request.
_OPERATOR_CACHE_SIZE = 4
# Bytes of complex component operators held per recursion stack whose rows
# differ in direction: 12 rows at j = 25, thousands at j = 1/2.
_OPERATOR_STACK_BYTES = 1 << 19


@dataclass(frozen=True)
class SpinSystem:
    """A spin magnitude j, half-integer or integer, 1/2 <= j <= 25."""

    j: float

    def __post_init__(self) -> None:
        # The distance to the nearest half-integer, exact and free of the
        # overflow that rounding 2j meets near 1e308.
        offset = math.remainder(self.j, 0.5) if math.isfinite(self.j) else math.nan
        if not 2.0 * abs(offset) <= 1e-12:
            raise ValueError(f"j must be a half-integer, got {self.j!r}")
        if self.j - offset < 0.5 or self.j > MAX_J:
            raise ValueError(f"j must lie in [1/2, {MAX_J:g}], got {self.j!r}")
        object.__setattr__(self, "j", self.j - offset)

    @property
    def dim(self) -> int:
        return round(2.0 * self.j) + 1

    @property
    def m_values(self) -> np.ndarray:
        """Magnetic quantum numbers ascending, -j first."""
        return -self.j + np.arange(self.dim, dtype=float)

    def m_index(self, m: float) -> int:
        k = round(m + self.j) if math.isfinite(m) else -1
        if abs((m + self.j) - k) > 1e-9 or not (0 <= k < self.dim):
            raise ValueError(f"m={m!r} is not a magnetic value for j={self.j}")
        return int(k)


@dataclass(frozen=True)
class Direction:
    """A unit vector in R^3.  Construction enforces unit norm to 1e-12;
    use Direction.normalized for raw input."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        for c in (self.x, self.y, self.z):
            if not math.isfinite(c):
                raise ValueError("direction components must be finite")
        # Products, not powers: a float power raises OverflowError where a
        # product reads as inf.
        n = math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)
        if abs(n - 1.0) > 1e-12:
            raise ValueError(f"direction must be unit length, got norm {n!r}")

    @classmethod
    def normalized(cls, x: float, y: float, z: float) -> "Direction":
        for c in (x, y, z):
            if not math.isfinite(c):
                raise ValueError("direction components must be finite")
        n = math.sqrt(x * x + y * y + z * z)
        if math.isinf(n):
            raise ValueError("cannot normalize a direction whose norm overflows to inf")
        if not math.isfinite(n) or n < 1e-12:
            raise ValueError("cannot normalize a (near-)zero direction")
        return cls(x / n, y / n, z / n)

    def antipode(self) -> "Direction":
        return Direction(-self.x, -self.y, -self.z)

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)

    @property
    def transverse(self) -> float:
        """Magnitude of the component orthogonal to the z axis."""
        return math.hypot(self.x, self.y)


def angle_between(a: Direction, b: Direction) -> float:
    """Angle in radians between two directions, in [0, pi]."""
    dot = a.x * b.x + a.y * b.y + a.z * b.z
    cx = a.y * b.z - a.z * b.y
    cy = a.z * b.x - a.x * b.z
    cz = a.x * b.y - a.y * b.x
    return math.atan2(math.hypot(cx, cy, cz), dot)


def ladder_coefficients(system: SpinSystem, m: float) -> tuple[float, float]:
    """(raising, lowering) matrix elements at magnetic value m.

    raising multiplies |m+1> in J+|m>, lowering multiplies |m-1> in J-|m>.
    Both vanish at the respective boundary (m=+j and m=-j), which is what
    terminates the ladder.
    """
    j = system.j
    system.m_index(m)
    raising = math.sqrt(max((j - m) * (j + m + 1.0), 0.0))
    lowering = math.sqrt(max((j + m) * (j - m + 1.0), 0.0))
    return raising, lowering


@functools.lru_cache(maxsize=_OPERATOR_CACHE_SIZE)
def _ladder_table(system: SpinSystem) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """(raising, lowering) coefficients at every basis index, index 0 at m=-j.

    Built once per spin magnitude by `ladder_coefficients` itself, so a
    lookup is bit-equal to the call it replaces.
    """
    raising, lowering = zip(
        *(ladder_coefficients(system, m) for m in system.m_values.tolist())
    )
    return raising, lowering


def ladder_matrices(system: SpinSystem) -> tuple[np.ndarray, np.ndarray]:
    """(J+, J-) in the ascending basis; J- is the adjoint of J+."""
    raising = _ladder_table(system)[0]
    jp = np.diag(np.array(raising[:-1], dtype=complex), k=-1)
    return jp, jp.conj().T


@functools.lru_cache(maxsize=_OPERATOR_CACHE_SIZE)
def angular_momentum_operators(system: SpinSystem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Jx, Jy, Jz) as dense Hermitian matrices in the ascending basis.

    Cached per spin magnitude; the arrays are shared, so they are read-only.
    """
    jp, jm = ladder_matrices(system)
    jx = (jp + jm) / 2.0
    jy = (jp - jm) / 2.0j
    jz = np.diag(system.m_values).astype(complex)
    for op in (jx, jy, jz):
        op.flags.writeable = False
    return jx, jy, jz


def component_operator(system: SpinSystem, direction: Direction) -> np.ndarray:
    """The component of angular momentum along a direction, x*Jx + y*Jy + z*Jz."""
    jx, jy, jz = angular_momentum_operators(system)
    return direction.x * jx + direction.y * jy + direction.z * jz


def _snap_answer(system: SpinSystem, h: float) -> float:
    try:
        k = system.m_index(h)
    except ValueError:
        raise ValueError(
            f"answer {h!r} is not sharp for j={system.j}; "
            f"valid answers are m = -j, ..., +j in integer steps"
        ) from None
    return float(-system.j + k)


def _checked_residual(op: np.ndarray, ket: np.ndarray, h: float) -> float:
    """||op ket - h ket||, refused above STATE_RESIDUAL_TOL."""
    residual = linalg.norm(op @ ket - h * ket)
    if not residual <= STATE_RESIDUAL_TOL:
        raise ValueError(
            f"ket is not an eigenvector: residual {residual:.3e} "
            f"exceeds {STATE_RESIDUAL_TOL:g}"
        )
    return residual


@dataclass(frozen=True)
class QuestionAnswerState:
    """State vector answering 'component along direction is exactly h'.

    Every state has its eigenvalue residual ||J_a ket - h ket|| measured,
    bounded by STATE_RESIDUAL_TOL and kept as `residual`, and holds a
    read-only ket.  The public constructor reads untrusted kets, so it also
    checks that the answer is sharp (and snaps it), that the ket is a unit
    vector of the right dimension, and that its global phase follows the
    package convention (largest-magnitude entry real positive); it keeps a
    copy of the ket.  The package's own constructors build their states a
    stack at a time in `_stack_states`, which establishes the unit norm and
    the phase itself and checks the residuals; each such state's ket is a
    row of one read-only stack.
    """

    system: SpinSystem
    direction: Direction
    answer: float
    ket: np.ndarray
    residual: float = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "answer", _snap_answer(self.system, self.answer))
        ket = linalg.as_vector(self.ket).copy()
        if ket.shape[0] != self.system.dim:
            raise ValueError(
                f"ket has dimension {ket.shape[0]}, expected {self.system.dim}"
            )
        if not abs(linalg.norm(ket) - 1.0) <= 1e-10:
            raise ValueError("ket must be normalized")
        op = component_operator(self.system, self.direction)
        residual = _checked_residual(op, ket, self.answer)
        if float(np.abs(linalg.fix_phase(ket) - ket).max()) > 1e-9:
            raise ValueError("ket does not follow the package phase convention")
        ket.flags.writeable = False
        object.__setattr__(self, "ket", ket)
        object.__setattr__(self, "residual", residual)


def _recurrence_up(
    system: SpinSystem, direction: Direction, h: float, k_end: int
) -> np.ndarray:
    """Coefficients b_0..b_k_end from the seed b_0 = 1, b_{-1} = 0.

    Each basis row of the eigenvalue equation, solved for its topmost
    coefficient, gives b_{m+1} in terms of b_m and b_{m-1}.  Magnitudes are
    rescaled in place before they can overflow; the overall scale is fixed
    by normalization later anyway.  The last two coefficients ride along as
    numpy scalars, read back from the array only after a rescale, so each
    value is the one the array holds.
    """
    j = system.j
    raising, lowering = _ladder_table(system)
    up = complex(direction.x, direction.y)  # multiplies the lowering ladder
    dn = up.conjugate()  # multiplies the raising ladder
    half_up, half_dn, z = 0.5 * up, 0.5 * dn, direction.z
    b = np.zeros(k_end + 1, dtype=complex)
    b[0] = 1.0
    prev, cur = None, b[0]  # b_{k-1} (unused at k = 0) and b_k
    for k in range(k_end):
        m = -j + k
        denom = half_up * lowering[k + 1]
        num = (h - z * m) * cur
        if k > 0:
            num -= half_dn * raising[k - 1] * prev
        prev, cur = cur, num / denom
        peak = abs(cur)
        b[k + 1] = cur
        if peak > _RESCALE_LIMIT:
            b[: k + 2] /= peak
            prev, cur = b[k], b[k + 1]
    return b


def _recurrence_down(
    system: SpinSystem, direction: Direction, h: float, k_start: int
) -> np.ndarray:
    """Coefficients b_k_start..b_{d-1} from the seed b_{d-1} = 1, b_d = 0.

    The upward pass mirrored: reversing the basis (m -> -m) carries J_a to
    J_a' with a' = (x, -y, -z), so the upward recurrence along a' to index
    d-1-k_start, read backwards, runs the ladder downward along a.
    """
    mirror = Direction(direction.x, -direction.y, -direction.z)
    b = _recurrence_up(system, mirror, h, system.dim - 1 - k_start)
    return np.ascontiguousarray(b[::-1])


def _recursion_row(
    system: SpinSystem, direction: Direction, h: float, out: np.ndarray
) -> None:
    """The unnormalized recursion coefficients for (direction, h), written
    into the zeroed row `out`: the pole basis vector, or the upward,
    downward or stitched passes of `eigenstate_recursion`."""
    j = system.j
    d = system.dim

    if direction.transverse < POLE_THRESHOLD:
        m = h if direction.z > 0.0 else -h
        out[system.m_index(m)] = 1.0
        return

    junction = min(max(round(h * direction.z + j), 0), d - 1)
    if junction >= d - 1:
        out[:] = _recurrence_up(system, direction, h, d - 1)
    elif junction <= 0:
        out[:] = _recurrence_down(system, direction, h, 0)
    else:
        lo = _recurrence_up(system, direction, h, junction + 1)
        hi = _recurrence_down(system, direction, h, junction)
        # Match the passes on their two-point overlap.  Two consecutive
        # coefficients of a nonzero solution cannot both vanish, so the
        # projection is well conditioned at the envelope peak.
        over_lo = lo[junction : junction + 2]
        over_hi = hi[0:2]
        # Each two-term sum is np.sum without its call overhead.  np.sum
        # starts from +0.0, so two -0.0 terms sum to +0.0 where a bare
        # a + b gives -0.0, and the ket's bytes would change.
        squares = np.abs(over_hi) ** 2
        denom = float(0.0 + (squares[0] + squares[1]))
        if denom == 0.0:
            raise RuntimeError(
                f"recursion junction degenerate for j={j}, h={h}"
            )
        products = over_hi.conjugate() * over_lo
        alpha = complex(0.0 + (products[0] + products[1])) / denom
        out[: junction + 1] = lo[: junction + 1]
        out[junction + 1 :] = alpha * hi[1:]


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """`linalg.norm` of each row of an (n, d) array: a stacked (1, d) @ (d, 1)
    product rounds as np.vdot does.  The squares are never negative, so the
    clamp at zero that `linalg.norm` applies is left out.  numpy warns on an
    overflowing or non-finite row, where np.vdot does not."""
    return np.sqrt((rows.conj()[:, None] @ rows[:, :, None])[:, 0, 0].real)


def _stack_states(
    system: SpinSystem,
    directions: list[Direction],
    answers: list[float],
    op: np.ndarray,
    kets: np.ndarray | None = None,
    catalog: bool = False,
) -> list[QuestionAnswerState]:
    """The states for n rows (directions[i], answers[i]) at one spin
    magnitude, built as one (n, d) stack.

    `answers` are snapped; `op` is the component operator, one (d, d)
    matrix shared by every row or an (n, d, d) stack with each row's own.
    With `kets` None the recursion runs per row (`_recursion_row`), and the
    rows are then normalized once over the stack.  Otherwise `kets` holds
    the oracle's unit eigenvectors as rows.  Either way the phase
    convention is applied and the residual bound checked once over the
    stack, and the stack is made read-only; each state's ket is its row.
    Every step is the one-state step on the same operands, so each ket and
    residual has the bits it would have if built alone.

    A refused stack raises what building its rows one at a time would
    have: the exception of the first failing row, from that row's first
    failing check.  A row that overflows, vanishes or has no phase anchor
    comes out of every later step as NaN, so the residual bound, which NaN
    fails, finds every failing row; only that row is then looked at again.
    With `catalog` the message is prefixed by the row's direction and
    answer, as `state_catalog` reports it.
    """
    refusal = None  # (row, exception) of a row whose recursion was refused
    recursion = kets is None
    if recursion:
        rows = np.zeros((len(answers), system.dim), dtype=complex)
        for row, (direction, h) in enumerate(zip(directions, answers)):
            try:
                _recursion_row(system, direction, h, rows[row])
            except RuntimeError as exc:
                # Only the rows before it can be refused first.
                refusal, rows = (row, exc), rows[:row]
                op = op[:row] if op.ndim == 3 else op
                break
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        if recursion:
            norms = _row_norms(rows)
            kets = rows / norms[:, None]
        unphased = kets
        kets = linalg.fix_phases(unphased)
        residuals = _row_norms(
            (op @ kets[:, :, None])[:, :, 0] - np.array(answers[: len(kets)])[:, None] * kets
        ).tolist()
    if not all(residual <= STATE_RESIDUAL_TOL for residual in residuals):
        row = next(k for k, res in enumerate(residuals) if not res <= STATE_RESIDUAL_TOL)
        try:
            if recursion and not np.isfinite(rows[row].view(float)).all():
                raise RuntimeError(
                    f"recursion overflowed for j={system.j}, h={answers[row]}, "
                    f"direction={directions[row]}"
                )
            if recursion and norms[row] == 0.0:
                raise RuntimeError("recursion produced the zero vector")
            linalg.fix_phase(unphased[row])
            raise ValueError(
                f"ket is not an eigenvector: residual {residuals[row]:.3e} "
                f"exceeds {STATE_RESIDUAL_TOL:g}"
            )
        except (ValueError, RuntimeError) as exc:
            refusal = (row, exc)
    if refusal is not None:
        row, exc = refusal
        if catalog:
            raise type(exc)(
                f"catalog failed at direction={directions[row]}, h={answers[row]}: {exc}"
            ) from exc
        raise exc
    kets.flags.writeable = False
    states = []
    for direction, h, ket, residual in zip(directions, answers, kets, residuals):
        state = object.__new__(QuestionAnswerState)
        state.__dict__.update(
            system=system, direction=direction, answer=h, ket=ket, residual=residual
        )
        states.append(state)
    return states


def eigenstate_recursion(
    system: SpinSystem, direction: Direction, answer: float
) -> QuestionAnswerState:
    """Build the state by the coefficient recursion, without diagonalizing.

    Expanding the eigenvalue equation in the ascending basis couples each
    coefficient to its two neighbors, turning it into a two-term recurrence.
    A recurrence pass is numerically stable only while the true solution is
    not decaying in the direction of travel, so the coefficients are built
    from both ends toward the envelope peak (the mean magnetic value h*z)
    and stitched there; when the peak sits at an end this reduces to the
    plain one-sided recursion seeded at that end.  The downward pass is the
    upward one run on the mirrored basis, so one function body holds the
    recurrence.  The rows of the eigenvalue equation not consumed by
    construction must balance on their own: that is checked once, by the
    residual bound that every `QuestionAnswerState` gets.

    Directions within POLE_THRESHOLD of the z axis take the axis branch:
    the state is the basis vector of the nearer pole, whose residual is at
    most POLE_THRESHOLD * sqrt(j(j+1)/2), below STATE_RESIDUAL_TOL for
    every j.  The recursion would still run there, but its denominator
    overflows once the transverse component is subnormal.

    This is a stack of one in `_stack_states`.
    """
    h = _snap_answer(system, answer)
    return _stack_states(system, [direction], [h], component_operator(system, direction))[0]


def recursion_states(
    system: SpinSystem, directions: list[Direction], answers: list[float]
) -> list[QuestionAnswerState]:
    """`eigenstate_recursion` for each row (directions[i], answers[i]), each
    row on its own component operator.  The rows are built as one stack, or
    as consecutive stacks whose operators each take at most
    _OPERATOR_STACK_BYTES, so memory does not grow with the row count; the
    first refused row still raises first."""
    answers = [_snap_answer(system, h) for h in answers]
    size = max(1, _OPERATOR_STACK_BYTES // (16 * system.dim**2))
    states = []
    for start in range(0, len(answers), size):
        rows = slice(start, start + size)
        states += _stack_states(
            system, directions[rows], answers[rows], _component_operators(system, directions[rows])
        )
    return states


def _component_operators(system: SpinSystem, directions: list[Direction]) -> np.ndarray:
    """`component_operator` along each direction, as one (n, d, d) stack
    with each operator's bits."""
    jx, jy, jz = angular_momentum_operators(system)
    x, y, z = np.array([(a.x, a.y, a.z) for a in directions]).reshape(-1, 3).T[:, :, None, None]
    # Summed in place, in `component_operator`'s order: two stacks live at once.
    ops = x * jx
    ops += y * jy
    ops += z * jz
    return ops


def oracle_catalog(system: SpinSystem, direction: Direction) -> list[QuestionAnswerState]:
    """Every sharp answer's state along one direction, by full diagonalization.

    Independent of the recursion route on purpose.  The component operator
    is diagonalized once.  Its spectrum must be -j, ..., +j: each ascending
    eigenvalue lies within 1e-6 of the ascending answer of the same index,
    or the spectrum is reported as an error.  Answers are 1 apart, so answer
    k then takes eigenvector k, its only eigenvalue that close.
    """
    return _oracle_states(system, direction, component_operator(system, direction))


def _oracle_states(
    system: SpinSystem, direction: Direction, op: np.ndarray
) -> list[QuestionAnswerState]:
    """`oracle_catalog` with `op` the component operator along the direction:
    the eigenvectors, as rows, go through `_stack_states` as one stack."""
    dec = linalg.hermitian_eig(op)
    answers = system.m_values
    gaps = np.abs(dec.eigenvalues - answers)
    worst = int(np.argmax(gaps))
    if gaps[worst] > 1e-6:
        raise RuntimeError(
            f"the component operator's spectrum is not -j, ..., +j: eigenvalue {worst} "
            f"is {dec.eigenvalues[worst]!r}, more than 1e-6 from the answer {answers[worst]}"
        )
    return _stack_states(
        system, [direction] * system.dim, answers.tolist(), op, kets=dec.eigenvectors.T
    )


def eigenstate_oracle(
    system: SpinSystem, direction: Direction, answer: float
) -> QuestionAnswerState:
    """The oracle state for one answer: its entry of `oracle_catalog`."""
    h = _snap_answer(system, answer)
    return oracle_catalog(system, direction)[system.m_index(h)]


def state_catalog(system: SpinSystem, direction: Direction) -> list[QuestionAnswerState]:
    """The states for every sharp answer along one direction, recursion route.

    The component operator is built once, and the states are built as one
    stack.  A refusal names the first failing answer.
    """
    op = component_operator(system, direction)
    return _stack_states(
        system, [direction] * system.dim, system.m_values.tolist(), op, catalog=True
    )


def transition_probability(s: QuestionAnswerState, t: QuestionAnswerState) -> float:
    """|<s|t>|^2, the probability of answer t given an s preparation."""
    if s.system.dim != t.system.dim:
        raise ValueError("states live in different dimensions")
    return float(abs(linalg.inner(s.ket, t.ket)) ** 2)


def random_direction(rng: np.random.Generator) -> Direction:
    """Uniformly distributed unit direction."""
    while True:
        v = rng.standard_normal(3)
        n = math.sqrt(float(v @ v))
        if n > 1e-6:
            return Direction(v[0] / n, v[1] / n, v[2] / n)


def algebra_defects(system: SpinSystem) -> dict[str, float]:
    """Operator-norm defects of the commutation relations and the Casimir.

    Exact structure constants force [Jx,Jy] = iJz and cyclic, and
    Jx^2+Jy^2+Jz^2 = j(j+1) I; deviations measure construction error only.
    They depend only on j, so they are computed once per spin magnitude,
    beside the operators; each call returns a fresh dict.
    """
    return dict(_algebra_defects(system))


@functools.lru_cache(maxsize=_OPERATOR_CACHE_SIZE)
def _algebra_defects(system: SpinSystem) -> dict[str, float]:
    jx, jy, jz = angular_momentum_operators(system)
    comm = max(
        linalg.operator_norm(linalg.commutator(jx, jy) - 1j * jz),
        linalg.operator_norm(linalg.commutator(jy, jz) - 1j * jx),
        linalg.operator_norm(linalg.commutator(jz, jx) - 1j * jy),
    )
    casimir = jx @ jx + jy @ jy + jz @ jz
    target = system.j * (system.j + 1.0) * np.eye(system.dim)
    return {
        "commutator_defect": float(comm),
        "casimir_defect": float(linalg.operator_norm(casimir - target)),
    }


def verify_eigenstates(
    system: SpinSystem,
    samples: int = 100,
    eps: float = 1e-9,
    rng: np.random.Generator | None = None,
) -> VerificationReport:
    """Check recursion-built states against the eigensolver oracle.

    For each sampled direction (plus both axis poles) and every sharp
    answer, the recursion state's overlap with the oracle state must be at
    least 1 - eps.  The component operator is built once per direction and
    shared by the oracle, which diagonalizes it once, and by the recursion;
    each route builds the direction's states as one stack.  Residuals are
    only recorded here: the construction of every state, by either route,
    already rejects any above STATE_RESIDUAL_TOL.
    """
    check_eps(eps)
    rng = rng if rng is not None else np.random.default_rng(0)
    dirs = [random_direction(rng) for _ in range(samples)]
    dirs += [Direction(0.0, 0.0, 1.0), Direction(0.0, 0.0, -1.0)]
    answers = system.m_values.tolist()
    witnesses = []
    max_residual = 0.0
    min_overlap = 1.0
    for direction in dirs:
        op = component_operator(system, direction)
        oracle = _oracle_states(system, direction, op)
        recursion = _stack_states(system, [direction] * system.dim, answers, op)
        for h, rec, orc in zip(answers, recursion, oracle):
            overlap = abs(linalg.inner(rec.ket, orc.ket))
            max_residual = max(max_residual, rec.residual)
            min_overlap = min(min_overlap, overlap)
            if overlap < 1.0 - eps:
                witnesses.append(
                    {
                        "direction": [direction.x, direction.y, direction.z],
                        "answer": h,
                        "residual": rec.residual,
                        "overlap": overlap,
                    }
                )
    verdict = "pass" if not witnesses else "fail"
    return VerificationReport(
        subject="prop1",
        verdict=verdict,
        metrics={
            "j": system.j,
            "directions": float(len(dirs)),
            "max_residual": max_residual,
            "min_overlap": min_overlap,
            **algebra_defects(system),
        },
        witnesses=tuple(witnesses),
        notes="recursion route vs eigensolver oracle, axis poles included",
    )


def verify_orthogonality(
    system: SpinSystem,
    samples: int = 100,
    eps: float = 1e-9,
    rng: np.random.Generator | None = None,
) -> VerificationReport:
    """Check that each direction's states form an orthonormal basis.

    The Gram matrix of the full answer catalog for one direction must match
    the identity entrywise within eps.
    """
    check_eps(eps)
    rng = rng if rng is not None else np.random.default_rng(0)
    witnesses = []
    max_defect = 0.0
    for _ in range(samples):
        direction = random_direction(rng)
        states = state_catalog(system, direction)
        defect = linalg.gram_defect(np.column_stack([s.ket for s in states]))
        max_defect = max(max_defect, defect)
        if defect > eps:
            witnesses.append(
                {
                    "direction": [direction.x, direction.y, direction.z],
                    "gram_defect": defect,
                }
            )
    verdict = "pass" if not witnesses else "fail"
    return VerificationReport(
        subject="cor1",
        verdict=verdict,
        metrics={
            "j": system.j,
            "directions": float(samples),
            "max_gram_defect": max_defect,
        },
        witnesses=tuple(witnesses),
        notes="Gram matrix of the per-direction answer catalog vs identity",
    )


def verify_ray_collisions(
    system: SpinSystem,
    samples: int = 100,
    eps: float = 1e-9,
    rng: np.random.Generator | None = None,
) -> VerificationReport:
    """Check the two-to-one structure of the question-answer map.

    Reversing the direction negates the component operator, so (a, h) and
    (-a, -h) label the same ray: their states must be phase-equal, and that
    collision is recorded per sample.  Distinctness holds everywhere else:
    pairs whose directions differ by at least COLLISION_SEPARATION radians
    (also counting the antipode) must not be phase-equal unless they are
    that exact collision.  Phase-equal means an overlap magnitude of at
    least 1 - eps, read directly: `QuestionAnswerState` guarantees unit kets.
    Every sample is drawn first, then the three states of each (the pair,
    its mirror and the separated pair) are built together, by
    `recursion_states`.
    """
    check_eps(eps)
    rng = rng if rng is not None else np.random.default_rng(0)
    draws = []
    for _ in range(samples):
        direction = random_direction(rng)
        h = float(rng.choice(system.m_values))
        # A separated second pair must stay distinct.
        while True:
            other = random_direction(rng)
            if (
                angle_between(direction, other) >= COLLISION_SEPARATION
                and angle_between(direction.antipode(), other) >= COLLISION_SEPARATION
            ):
                break
        h2 = float(rng.choice(system.m_values))
        draws.append((direction, h, other, h2))
    states = recursion_states(
        system,
        [a for direction, _, other, _ in draws for a in (direction, direction.antipode(), other)],
        [x for _, h, _, h2 in draws for x in (h, -h, h2)],
    )
    collisions = []
    failures = []
    worst_collision = 1.0
    for k, (direction, h, other, h2) in enumerate(draws):
        state, mirror, second = states[3 * k : 3 * k + 3]
        overlap = abs(linalg.inner(state.ket, mirror.ket))
        worst_collision = min(worst_collision, overlap)
        collisions.append(
            {
                "direction": [direction.x, direction.y, direction.z],
                "answer": h,
                "mirror_overlap": overlap,
            }
        )
        if not overlap >= 1.0 - eps:
            failures.append(
                {
                    "kind": "antipodal_pair_not_collided",
                    "direction": [direction.x, direction.y, direction.z],
                    "answer": h,
                    "overlap": overlap,
                }
            )
        if abs(linalg.inner(state.ket, second.ket)) >= 1.0 - eps:
            failures.append(
                {
                    "kind": "separated_pair_collided",
                    "direction": [direction.x, direction.y, direction.z],
                    "answer": h,
                    "other_direction": [other.x, other.y, other.z],
                    "other_answer": h2,
                }
            )
    return VerificationReport(
        subject="cor2",
        verdict="fail" if failures else "pass",
        metrics={
            "j": system.j,
            "samples": float(samples),
            "worst_collision_overlap": worst_collision,
        },
        witnesses=tuple(failures or collisions),
        notes=(
            "two-to-one labeling violated"
            if failures
            else "label map is two-to-one: every antipodal (direction, answer) pair "
            "produced the same ray (witnesses list the collisions); separated "
            "pairs stayed distinct"
        ),
    )
