"""Spin systems: angular momentum operators and question-answer states.

A question here is "what is the component of angular momentum along the unit
direction a?" and a sharp answer is one of the eigenvalues m = -j, ..., +j.
The pair determines a state vector, constructed two independent ways: a
coefficient recursion that never diagonalizes anything, and an eigensolver
oracle.  Keeping the routes independent is the point; their agreement is a
verified claim, not an assumption.  So the oracle keeps its own in-house
eigensolver and never reuses anything from the recursion; it diagonalizes
the component operator once per direction and serves every sharp answer
from that one decomposition, in one `linalg.hermitian_eigs` call over the
stack of a catalog's direction or of a verifier's (`_oracle_states`).  The
operator is Hermitian tridiagonal, so the solver's band rule sends it to
tridiagonal QR steps, an orthogonal similarity that reads only the
operator's entries: no ladder table, no recurrence such as inverse
iteration, and no shift by the answers m it should find.  The spectrum is
then checked against -j, ..., +j.

The ladder coefficients and the angular momentum operators depend only on
j, so they are built once per spin magnitude, kept in small bounded caches
and handed out read-only; so are the algebra defects computed from the
operators (`algebra_defects`, four eigensolver calls).  The recursion and the
operators read the same ladder table: a shared input, like j itself, after
which the routes part.

The recursion holds one recurrence: its downward pass is the upward one run
on the mirrored basis (m -> -m).  States are built a stack at a time, in
`_stack_states`.  The recursion collects every row's upward and downward
passes and computes them in one `_pass_coefficients` call: below
_STEPPED_PASSES (40) passes each pass runs alone in `_recurrence_up`, and
from there all of them step together, one array operation per step, in
`_stepped_passes`.  The crossover was measured on a 2-vCPU host: a stack
of 8 passes steps at 0.4x the speed of the per-pass loop at every j, one
of 32 at 0.96-1.28x, 40 at 0.97-1.71x and 96 at 1.5x (j = 1/2) to 3.5x
(j = 25); the stacks of `spin verify` at j <= 4 with two samples make at
most 36 passes.  Every junction row is then stitched in one vectorized
pass, and the norms, the phase convention and the eigenvalue residual
bound each run once over the (n, d) array of a direction's answers, of a
verifier's samples or whole request, or of one state, and the norms
are stacked inner products (`linalg.inners`).  The oracle's eigenvectors
go through the same pass.  Its bits are those of building each state
alone.  Each constructed state is checked once, by the residual bound:
the pole branch, the recursion and the oracle build kets that are unit
and phase-fixed by construction.  The residual reads the component
operator, built once per direction (a verifier's directions as one
`_component_operators` stack), shared by both routes like j itself, and
broadcast over that direction's rows.  Kets from outside the package go
through the public `QuestionAnswerState` constructor, which checks every
invariant.

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
# Passes per stack from which `_pass_coefficients` steps every pass at once
# (measured crossover: the module docstring), and the most passes it steps
# together, which bounds its per-step tables to 64 bytes per pass and step.
_STEPPED_PASSES = 40
_STEPPED_RUN = 256
# Spin magnitudes whose ladder tables, operators and algebra defects are
# kept; a handful covers a request.
_OPERATOR_CACHE_SIZE = 4
# Bytes of complex component operators held at once, per stack of
# directions or per run of a stack's rows: 12 at j = 25, thousands at
# j = 1/2.
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


def _pass_coefficients(
    system: SpinSystem, passes: list[tuple[Direction, float, int]]
) -> np.ndarray:
    """The coefficients of a stack's recurrence passes: row i holds b_0..b_k
    of `_recurrence_up(system, *passes[i])` for passes[i] = (direction, h,
    k), then zeros, in an (n, d) array.

    Below _STEPPED_PASSES passes each pass runs alone, in `_recurrence_up`.
    From there the passes are sorted longest first and stepped together,
    in `_stepped_passes`, in as few equal runs of at most _STEPPED_RUN
    passes as hold them all, with the same bits.  This is the one place
    that picks the loop.
    """
    table = np.zeros((len(passes), system.dim), dtype=complex)
    if len(passes) < _STEPPED_PASSES:
        for row, (direction, h, k_end) in zip(table, passes):
            row[: k_end + 1] = _recurrence_up(system, direction, h, k_end)
        return table
    order = sorted(range(len(passes)), key=lambda i: passes[i][2], reverse=True)
    size = -(-len(order) // -(-len(order) // _STEPPED_RUN))
    for start in range(0, len(order), size):
        run = order[start : start + size]
        table[run, : passes[run[0]][2] + 1] = _stepped_passes(system, [passes[i] for i in run]).T
    return table


def _stepped_passes(
    system: SpinSystem, passes: list[tuple[Direction, float, int]]
) -> np.ndarray:
    """`_recurrence_up` for n passes at once, sorted longest first: a
    (k + 1, n) array whose row k holds every pass's b_k, for k up to the
    first pass's end, and zeros past each pass's own end.

    The passes still running at step k are a prefix of the row.  Each
    operation is the one `_recurrence_up` applies to a pass alone, on
    arrays: (h - z m) b_k as a complex multiply by a value stored with a
    zero imaginary part; the raising term, a product of two complex values,
    on real planes, since numpy's complex multiply loops may fuse a
    multiply and an add where its scalar product does not; numpy's complex
    divide; and `np.hypot`, which rounds as the scalar `abs` does where
    `np.abs` does not.  The ladder products half_up * lowering[k + 1] and
    half_dn * raising[k - 1] are Python's complex times float: for a factor
    of at least 1, as every ladder coefficient used here is, that is each
    part of (half * 1.0) times the factor.
    """
    j = system.j
    raising, lowering = _ladder_table(system)
    n = len(passes)
    steps = passes[0][2]
    ends = np.array([k_end for _, _, k_end in passes])
    running = np.searchsorted(-ends, -np.arange(steps), side="left")
    halves, heights = [], []
    for direction, h, _ in passes:
        up = complex(direction.x, direction.y)
        halves.append((0.5 * up * 1.0, 0.5 * up.conjugate() * 1.0))
        heights.append((h, direction.z))
    half_up, half_dn = np.array(halves).view(float).reshape(n, 2, 2).transpose(1, 0, 2)
    h, z = np.array(heights).T
    # Per step and pass: the factor h - z m, with m = -j + k; the divisor
    # half_up * lowering[k + 1]; and the block [[c.re, -c.im], [c.im,
    # c.re]] of c = half_dn * raising[k - 1], whose rows, times (re, im) of
    # b_{k-1} and summed, are the parts of c b_{k-1}.  Each is written in
    # place.
    factor = np.zeros((steps, n), dtype=complex)
    np.multiply(z, (-j + np.arange(steps, dtype=float))[:, None], out=factor.real)
    np.subtract(h, factor.real, out=factor.real)
    divisor = np.empty((steps, n), dtype=complex)
    divisor_planes = divisor.view(float).reshape(steps, n, 2)
    np.multiply(np.array(lowering[1 : steps + 1])[:, None, None], half_up, out=divisor_planes)
    ladder = np.array((0.0,) + raising[: steps - 1])[:, None]
    block = np.empty((steps, n, 2, 2))
    np.multiply(ladder, half_dn[:, 0], out=block[..., 0, 0])
    np.multiply(ladder, -half_dn[:, 1], out=block[..., 0, 1])
    np.multiply(ladder, half_dn[:, 1], out=block[..., 1, 0])
    block[..., 1, 1] = block[..., 0, 0]
    b = np.zeros((steps + 1, n), dtype=complex)
    b[0] = 1.0
    planes = b.view(float).reshape(steps + 1, n, 2)
    num = np.empty(n, dtype=complex)
    raised = np.empty_like(num)
    raised_planes = raised.view(float).reshape(n, 2)
    products = np.empty((n, 2, 2))
    peak = np.empty(n)
    for k in range(steps):
        r = running[k]
        np.multiply(factor[k, :r], b[k, :r], out=num[:r])
        if k > 0:
            np.multiply(block[k, :r], planes[k - 1, :r, None], out=products[:r])
            np.add(products[:r, :, 0], products[:r, :, 1], out=raised_planes[:r])
            np.subtract(num[:r], raised[:r], out=num[:r])
        np.divide(num[:r], divisor[k, :r], out=b[k + 1, :r])
        np.hypot(planes[k + 1, :r, 0], planes[k + 1, :r, 1], out=peak[:r])
        if peak[:r].max() > _RESCALE_LIMIT:
            rescaled = np.flatnonzero(peak[:r] > _RESCALE_LIMIT)
            b[: k + 2, rescaled] /= peak[rescaled]
    return b


def _recursion_rows(
    system: SpinSystem, directions: list[Direction], answers: list[float]
) -> tuple[np.ndarray, tuple[int, RuntimeError] | None]:
    """The unnormalized recursion coefficients of each row (directions[i],
    answers[i]), as an (n, d) array, and the first row refused, if any,
    with its exception; the rows from that one on are zero.

    A pole row is its basis vector.  Every other row contributes an upward
    pass, a downward pass or both (`eigenstate_recursion`), all computed by
    one `_pass_coefficients` call.  Reversing the basis (m -> -m) carries
    J_a to J_a' with a' = (x, -y, -z), so a downward pass is the upward one
    along a', read backwards.  The rows with both are then stitched
    together, each with the bits of stitching it alone.
    """
    j = system.j
    d = system.dim
    rows = np.zeros((len(answers), d), dtype=complex)
    passes = []
    up_rows, up_passes = [], []  # the rows with an upward pass only
    down_rows, down_passes = [], []  # the rows with a downward pass only
    # Per stitched row: the row, its two passes, and the columns of their
    # two-point overlap, b_J and b_{J+1} of the upward pass and b_L and
    # b_{L-1} of the downward one, L = d - 1 - J for the junction J.
    stitched = []
    last = mirror = None  # consecutive rows mostly share a direction
    for row, (a, h) in enumerate(zip(directions, answers)):
        if a.transverse < POLE_THRESHOLD:
            rows[row, system.m_index(h if a.z > 0.0 else -h)] = 1.0
            continue
        if a is not last:
            last, mirror = a, Direction(a.x, -a.y, -a.z)
        junction = min(max(round(h * a.z + j), 0), d - 1)
        if junction >= d - 1:
            up_rows.append(row)
            up_passes.append(len(passes))
            passes.append((a, h, d - 1))
        elif junction <= 0:
            down_rows.append(row)
            down_passes.append(len(passes))
            passes.append((mirror, h, d - 1))
        else:
            span = d - 1 - junction
            stitched.append(
                (row, len(passes), len(passes) + 1, junction, junction + 1, span, span - 1)
            )
            passes += [(a, h, junction + 1), (mirror, h, span)]
    table = _pass_coefficients(system, passes)
    if up_rows:
        rows[up_rows] = table[up_passes]
    if down_rows:
        rows[down_rows] = table[down_passes, ::-1]
    if not stitched:
        return rows, None
    stitched = np.array(stitched)
    at, lo, hi, junction = stitched[:, :4].T
    # Match the passes on their two-point overlap.  Two consecutive
    # coefficients of a nonzero solution cannot both vanish, so the
    # projection is well conditioned at the envelope peak.  Each sum starts
    # from +0.0, as np.sum does: a bare a + b of two -0.0 terms gives -0.0,
    # and the ket's bytes would change.
    over_lo = table[lo[:, None], stitched[:, 3:5]]
    over_hi = table[hi[:, None], stitched[:, 5:7]]
    squares = np.abs(over_hi) ** 2
    denoms = (0.0 + (squares[:, 0] + squares[:, 1])).tolist()
    products = over_hi.conjugate() * over_lo
    sums = (0.0 + (products[:, 0] + products[:, 1])).tolist()
    refusal = None
    built = len(at)
    if 0.0 in denoms:
        built = denoms.index(0.0)
        row = int(at[built])
        refusal = row, RuntimeError(f"recursion junction degenerate for j={j}, h={answers[row]}")
        at, lo, hi, junction = at[:built], lo[:built], hi[:built], junction[:built]
    # Python's complex / float, as each row was stitched alone.
    alpha = np.array([s / q for s, q in zip(sums[:built], denoms)], dtype=complex)
    # Column k of a reversed downward pass holds its b_{d-1-k}.
    upper = np.arange(d) > junction[:, None]
    rows[at] = np.where(upper, alpha[:, None] * table[hi, ::-1], table[lo])
    if refusal is not None:
        rows[refusal[0] :] = 0.0
    return rows, refusal


def _stack_states(
    system: SpinSystem,
    directions: list[Direction],
    answers: list[float],
    op: np.ndarray | None,
    kets: np.ndarray | None = None,
    catalog: bool = False,
) -> list[QuestionAnswerState]:
    """The states for n rows (directions[i], answers[i]) at one spin
    magnitude, built as one (n, d) stack.

    `answers` are snapped; `op` is the component operator, one (d, d)
    matrix shared by every row or an (m, d, d) stack whose operators each
    serve one of m equal runs of consecutive rows: one per direction of a
    catalog-shaped stack, or one per row.  Each operator is broadcast over
    its rows, never copied per row.  With `op` None each row has its own
    operator, built and applied in consecutive runs of at most
    _OPERATOR_STACK_BYTES (`_operator_runs`), so memory does not grow with
    the row count.  With `kets` None the recursion builds
    every row (`_recursion_rows`: all passes in one call, all stitches in
    one pass), and the rows are then normalized once over the stack.
    Otherwise `kets` holds the oracle's unit eigenvectors as rows.  Either
    way the phase convention is applied and the residual bound checked
    once over the stack, and the stack is made read-only; each state's ket
    is its row.  Every step is the one-state step on the
    same operands, so each ket and residual has the bits it would have if
    built alone.

    A refused stack raises what building its rows one at a time would
    have: the exception of the first failing row, from that row's first
    failing check.  A row that overflows, vanishes or has no phase anchor
    comes out of every later step as NaN, so the residual bound, which NaN
    fails, finds every failing row; only that row is then looked at again.
    The rows after a refused recursion row are left zero and never read.
    With `catalog` the message is prefixed by the row's direction and
    answer, as `state_catalog` reports it.
    """
    refusal = None  # (row, exception) of a row whose recursion was refused
    built = len(answers)  # the rows before a refused recursion row
    recursion = kets is None
    d = system.dim
    if recursion:
        rows, refusal = _recursion_rows(system, directions, answers)
        if refusal is not None:
            built = refusal[0]
    if op is None:
        runs = (
            (run, _component_operators(system, directions[run]))
            for run in _operator_runs(system, len(answers))
        )
    else:
        runs = [(slice(None), op)]
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        if recursion:
            norms = np.sqrt(linalg.inners(rows, rows).real)
            kets = rows / norms[:, None]
        unphased = kets
        kets = linalg.fix_phases(unphased)
        residuals = []
        for run, ops in runs:
            ops = ops.reshape(-1, 1, d, d)
            images = (ops @ kets[run].reshape(len(ops), -1, d, 1)).reshape(-1, d)
            defects = images - np.array(answers[run])[:, None] * kets[run]
            residuals += np.sqrt(linalg.inners(defects, defects).real).tolist()
    if not all(residual <= STATE_RESIDUAL_TOL for residual in residuals[:built]):
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
    row on its own component operator.  The rows are built as one stack:
    every row's passes in one `_pass_coefficients` call, and only the
    operator products and residuals in consecutive runs of at most
    _OPERATOR_STACK_BYTES, so memory does not grow with the row count; the
    first refused row still raises first."""
    answers = [_snap_answer(system, h) for h in answers]
    return _stack_states(system, directions, answers, None)


def _operator_runs(system: SpinSystem, count: int) -> list[slice]:
    """`count` operators in consecutive runs of at most
    _OPERATOR_STACK_BYTES each: one run up to 404 operators at d = 9, runs
    of 12 at j = 25."""
    size = max(1, _OPERATOR_STACK_BYTES // (16 * system.dim**2))
    return [slice(start, start + size) for start in range(0, count, size)]


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
    return _oracle_states(system, [direction], component_operator(system, direction)[None])


def _oracle_states(
    system: SpinSystem, directions: list[Direction], ops: np.ndarray
) -> list[QuestionAnswerState]:
    """`oracle_catalog` along each direction in turn, with ops[i] the
    component operator along directions[i]: one `linalg.hermitian_eigs` over
    the (k, d, d) stack, the spectrum checked per direction, in order, and
    every eigenvector, as a row, through one `_stack_states` pass.  A stack
    of one direction takes the same call, so every oracle solve in the
    package goes through `linalg.hermitian_eigs`."""
    decs = linalg.hermitian_eigs(ops)
    answers = system.m_values
    for direction, dec in zip(directions, decs):
        gaps = np.abs(dec.eigenvalues - answers)
        worst = int(np.argmax(gaps))
        if gaps[worst] > 1e-6:
            raise RuntimeError(
                f"the component operator's spectrum along {direction} is not -j, ..., +j: "
                f"eigenvalue {worst} is {float(dec.eigenvalues[worst])}, more than 1e-6 "
                f"from the answer {float(answers[worst])}"
            )
    return _stack_states(
        system,
        [direction for direction in directions for _ in answers],
        answers.tolist() * len(directions),
        ops,
        kets=np.concatenate([dec.eigenvectors.T for dec in decs]),
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
    least 1 - eps.  The request runs as one stacked pass, or as
    consecutive passes whose operators each take at most
    _OPERATOR_STACK_BYTES, so memory does not grow with the sample count.
    In a pass one `_component_operators` stack, shared by both routes,
    holds each direction's operator; the oracle diagonalizes it in one
    `linalg.hermitian_eigs` call, whose rotations still run per matrix;
    each route builds all its states as one stack; and every overlap comes
    from one `linalg.inners` call.  So a refusal names the first refused
    oracle direction of a pass before any recursion row of it.  Residuals
    are only recorded here: the construction of every state, by either
    route, already rejects any above STATE_RESIDUAL_TOL.
    """
    check_eps(eps)
    rng = rng if rng is not None else np.random.default_rng(0)
    dirs = [random_direction(rng) for _ in range(samples)]
    dirs += [Direction(0.0, 0.0, 1.0), Direction(0.0, 0.0, -1.0)]
    answers = system.m_values.tolist()
    witnesses = []
    max_residual = 0.0
    min_overlap = 1.0
    for run in _operator_runs(system, len(dirs)):
        passed = dirs[run]
        ops = _component_operators(system, passed)
        oracle = _oracle_states(system, passed, ops)
        rows = [direction for direction in passed for _ in answers]
        recursion = _stack_states(system, rows, answers * len(passed), ops)
        rec = np.array([state.ket for state in recursion])
        orc = np.array([state.ket for state in oracle])
        amplitudes = linalg.inners(rec, orc).tolist()
        for state, amplitude in zip(recursion, amplitudes):
            # Python's abs, as each overlap was taken alone: np.abs
            # rounds complex moduli otherwise.
            overlap = abs(amplitude)
            max_residual = max(max_residual, state.residual)
            min_overlap = min(min_overlap, overlap)
            if overlap < 1.0 - eps:
                direction = state.direction
                witnesses.append(
                    {
                        "direction": [direction.x, direction.y, direction.z],
                        "answer": state.answer,
                        "residual": state.residual,
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
    the identity entrywise within eps.  Every direction is drawn first;
    then the catalogs are built as one stack, or as consecutive stacks as
    in `verify_eigenstates`, and their Gram defects measured by one stacked
    `linalg.gram_defect`.  A refusal names the first failing row, as
    `state_catalog` does.
    """
    check_eps(eps)
    rng = rng if rng is not None else np.random.default_rng(0)
    dirs = [random_direction(rng) for _ in range(samples)]
    answers = system.m_values.tolist()
    d = system.dim
    defects = []
    for run in _operator_runs(system, samples):
        passed = dirs[run]
        rows = [direction for direction in passed for _ in answers]
        states = _stack_states(
            system, rows, answers * len(passed), _component_operators(system, passed), catalog=True
        )
        kets = np.array([state.ket for state in states]).reshape(-1, d, d)
        # Each catalog's kets as the columns of a C-ordered matrix, as
        # `np.column_stack` lays them out, so each Gram product rounds as
        # one catalog's alone.
        defects += linalg.gram_defect(np.ascontiguousarray(kets.swapaxes(1, 2))).tolist()
    witnesses = []
    max_defect = 0.0
    for direction, defect in zip(dirs, defects):
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
