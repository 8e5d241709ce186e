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
and handed out read-only.  The recursion and the operators read the same
ladder table: a shared input, like j itself, after which the routes part.

The recursion holds one recurrence: its downward pass is the upward one run
on the mirrored basis (m -> -m).  Each constructed state is checked once,
by the eigenvalue residual bound that `QuestionAnswerState` enforces.

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
# Guaranteed on every constructed state: ||J_a ket - h ket|| <= this.
STATE_RESIDUAL_TOL = 1e-9
# Coefficient magnitude that triggers prefix rescaling mid-recursion.
_RESCALE_LIMIT = 1e150
# Spin magnitudes whose ladder tables and operators are kept; a handful
# covers a request.
_OPERATOR_CACHE_SIZE = 4


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
        n = math.sqrt(self.x**2 + self.y**2 + self.z**2)
        if abs(n - 1.0) > 1e-12:
            raise ValueError(f"direction must be unit length, got norm {n!r}")

    @classmethod
    def normalized(cls, x: float, y: float, z: float) -> "Direction":
        n = math.sqrt(x * x + y * y + z * z)
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


@dataclass(frozen=True)
class QuestionAnswerState:
    """State vector answering 'component along direction is exactly h'.

    Invariants checked at construction: the answer is sharp, the ket is a
    unit vector of the right dimension, the eigenvalue residual
    ||J_a ket - h ket|| is at most STATE_RESIDUAL_TOL, and the global phase
    follows the package convention (largest-magnitude entry real positive).
    The residual measured there is kept as `residual`.
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
        residual = linalg.norm(op @ ket - self.answer * ket)
        if not residual <= STATE_RESIDUAL_TOL:
            raise ValueError(
                f"ket is not an eigenvector: residual {residual:.3e} "
                f"exceeds {STATE_RESIDUAL_TOL:g}"
            )
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
    by normalization later anyway.
    """
    j = system.j
    raising, lowering = _ladder_table(system)
    up = complex(direction.x, direction.y)  # multiplies the lowering ladder
    dn = up.conjugate()  # multiplies the raising ladder
    b = np.zeros(k_end + 1, dtype=complex)
    b[0] = 1.0
    for k in range(k_end):
        m = -j + k
        denom = 0.5 * up * lowering[k + 1]
        num = (h - direction.z * m) * b[k]
        if k > 0:
            num -= 0.5 * dn * raising[k - 1] * b[k - 1]
        b[k + 1] = num / denom
        peak = abs(b[k + 1])
        if peak > _RESCALE_LIMIT:
            b[: k + 2] /= peak
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
    residual bound of `QuestionAnswerState`.

    Directions within POLE_THRESHOLD of the z axis take the axis branch:
    the state is the basis vector of the nearer pole, whose residual is at
    most POLE_THRESHOLD * sqrt(j(j+1)/2), below STATE_RESIDUAL_TOL for
    every j.  The recursion would still run there, but its denominator
    overflows once the transverse component is subnormal.
    """
    h = _snap_answer(system, answer)
    j = system.j
    d = system.dim

    if direction.transverse < POLE_THRESHOLD:
        m = h if direction.z > 0.0 else -h
        ket = np.zeros(d, dtype=complex)
        ket[system.m_index(m)] = 1.0
        return QuestionAnswerState(system, direction, h, ket)

    junction = min(max(round(h * direction.z + j), 0), d - 1)
    if junction >= d - 1:
        b = _recurrence_up(system, direction, h, d - 1)
    elif junction <= 0:
        b = _recurrence_down(system, direction, h, 0)
    else:
        lo = _recurrence_up(system, direction, h, junction + 1)
        hi = _recurrence_down(system, direction, h, junction)
        # Match the passes on their two-point overlap.  Two consecutive
        # coefficients of a nonzero solution cannot both vanish, so the
        # projection is well conditioned at the envelope peak.
        over_lo = lo[junction : junction + 2]
        over_hi = hi[0:2]
        denom = float(np.sum(np.abs(over_hi) ** 2))
        if denom == 0.0:
            raise RuntimeError(
                f"recursion junction degenerate for j={j}, h={h}"
            )
        alpha = complex(np.sum(over_hi.conjugate() * over_lo)) / denom
        b = np.concatenate([lo[: junction + 1], alpha * hi[1:]])

    if not np.all(np.isfinite(b.view(float))):
        raise RuntimeError(
            f"recursion overflowed for j={j}, h={h}, direction={direction}"
        )
    nrm = linalg.norm(b)
    if nrm == 0.0:
        raise RuntimeError("recursion produced the zero vector")
    ket = linalg.fix_phase(b / nrm)
    return QuestionAnswerState(system, direction, h, ket)


def oracle_catalog(system: SpinSystem, direction: Direction) -> list[QuestionAnswerState]:
    """Every sharp answer's state along one direction, by full diagonalization.

    Independent of the recursion route on purpose.  The component operator
    is diagonalized once and each answer in `system.m_values` takes its
    nearest eigenvector.  The spectrum of a component operator is -j, ..., +j
    with unit gaps, so nearest-eigenvalue selection is unambiguous; anything
    else is reported as an error rather than silently picked.
    """
    dec = linalg.hermitian_eig(component_operator(system, direction))
    states = []
    for h in system.m_values.tolist():
        gaps = np.abs(dec.eigenvalues - h)
        idx = int(np.argmin(gaps))
        if gaps[idx] > 1e-6:
            raise RuntimeError(
                f"no eigenvalue of the component operator is near {h}: "
                f"closest is {dec.eigenvalues[idx]!r}"
            )
        others = np.delete(gaps, idx)
        if others.size and float(others.min()) < 1e-3:
            raise RuntimeError("ambiguous eigenvalue selection; spectrum degenerate?")
        ket = linalg.fix_phase(dec.eigenvectors[:, idx])
        states.append(QuestionAnswerState(system, direction, h, ket))
    return states


def eigenstate_oracle(
    system: SpinSystem, direction: Direction, answer: float
) -> QuestionAnswerState:
    """The oracle state for one answer: its entry of `oracle_catalog`."""
    h = _snap_answer(system, answer)
    return oracle_catalog(system, direction)[system.m_index(h)]


def state_catalog(
    system: SpinSystem, directions: list[Direction]
) -> list[QuestionAnswerState]:
    """All states for every (direction, sharp answer) pair, recursion route.

    Errors propagate with the offending pair identified.
    """
    out = []
    for direction in directions:
        for h in system.m_values:
            try:
                out.append(eigenstate_recursion(system, direction, float(h)))
            except (ValueError, RuntimeError) as exc:
                raise type(exc)(
                    f"catalog failed at direction={direction}, h={h}: {exc}"
                ) from exc
    return out


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
    """
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
    least 1 - eps.  The oracle diagonalizes once per direction.  Residuals
    are only recorded: `QuestionAnswerState` already rejects any above
    STATE_RESIDUAL_TOL.
    """
    check_eps(eps)
    rng = rng if rng is not None else np.random.default_rng(0)
    dirs = [random_direction(rng) for _ in range(samples)]
    dirs += [Direction(0.0, 0.0, 1.0), Direction(0.0, 0.0, -1.0)]
    witnesses = []
    max_residual = 0.0
    min_overlap = 1.0
    for direction in dirs:
        for h, orc in zip(system.m_values, oracle_catalog(system, direction)):
            rec = eigenstate_recursion(system, direction, float(h))
            overlap = abs(linalg.inner(rec.ket, orc.ket))
            max_residual = max(max_residual, rec.residual)
            min_overlap = min(min_overlap, overlap)
            if overlap < 1.0 - eps:
                witnesses.append(
                    {
                        "direction": [direction.x, direction.y, direction.z],
                        "answer": float(h),
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
        states = state_catalog(system, [direction])
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
    separation: float = 1e-3,
    rng: np.random.Generator | None = None,
) -> VerificationReport:
    """Check the two-to-one structure of the question-answer map.

    Reversing the direction negates the component operator, so (a, h) and
    (-a, -h) label the same ray: their states must be phase-equal, and that
    collision is recorded per sample.  Distinctness holds everywhere else:
    pairs whose directions differ by at least `separation` radians (also
    counting the antipode) must not be phase-equal unless they are that
    exact collision.  Phase-equal means an overlap magnitude of at least
    1 - eps, read directly: `QuestionAnswerState` guarantees unit kets.
    """
    check_eps(eps)
    rng = rng if rng is not None else np.random.default_rng(0)
    collisions = []
    failures = []
    worst_collision = 1.0
    for _ in range(samples):
        direction = random_direction(rng)
        h = float(rng.choice(system.m_values))
        state = eigenstate_recursion(system, direction, h)
        mirror = eigenstate_recursion(system, direction.antipode(), -h)
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
        # A separated second pair must stay distinct.
        while True:
            other = random_direction(rng)
            if (
                angle_between(direction, other) >= separation
                and angle_between(direction.antipode(), other) >= separation
            ):
                break
        h2 = float(rng.choice(system.m_values))
        second = eigenstate_recursion(system, other, h2)
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
