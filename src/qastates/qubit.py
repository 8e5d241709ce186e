"""Qubit geometry: the Bloch direction map and the SU(2) to SO(3) cover.

Every unit vector in dimension 2 is a question-answer state: its Bloch
direction (the vector of Pauli expectation values) names the question, and
the answer is +1/2.  The round trip through the spin recursion makes that
correspondence checkable rather than asserted.  The double cover of the
rotation group by SU(2) is the structural reason the correspondence works;
it is verified as a homomorphism law on random pairs.  Both maps run as
stacked numpy products over all vectors or matrices of a check at once;
tests hold them bit for bit to the per-entry loops in
`tests/float_reference.py`.  SU(2) elements and rotations are checked as
stacks; `SpecialUnitary2` and `Rotation3` check a stack of one.

Pauli matrices here follow the package basis convention (ascending, so
sigma_z = diag(-1, +1)); they are twice the j=1/2 angular momentum
operators, built once and shared read-only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg, spin
from .report import VerificationReport, check_eps

UNITARY_TOL = 1e-10
ROTATION_TOL = 1e-10
REALITY_TOL = 1e-12


@functools.cache
def _pauli_stack() -> np.ndarray:
    """(sigma_x, sigma_y, sigma_z) as one read-only (3, 2, 2) array."""
    stack = 2.0 * np.stack(spin.angular_momentum_operators(spin.SpinSystem(0.5)))
    stack.flags.writeable = False
    return stack


@functools.cache
def pauli_matrices() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sigma_x, sigma_y, sigma_z) in the ascending basis, read-only."""
    return tuple(_pauli_stack())


def _det(m: np.ndarray):
    """det of a 2x2 or 3x3 matrix, or of each matrix in a stack.  One matrix
    unpacks to numpy scalars, whose complex products numpy does not fuse
    (FMA) as its array loops may from AVX2 up; refusals print that value."""
    if m.shape[-1] == 2:
        (a, c), (b, d) = m.T
        return a * d - b * c
    (a, d, g), (b, e, h), (c, f, i) = m.T
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _checked(mats: np.ndarray, tol: float, what: str) -> np.ndarray:
    """A read-only C-ordered copy of a stack of M with M†M = I and det M = 1
    within tol, checked by one Gram product and one determinant.  Refuses the
    first M off the unit Gram as "not {what}", else the first det M != 1."""
    defects = linalg.gram_defect(mats)
    fits = defects <= tol  # NaN fails
    if not fits.all():
        raise ValueError(f"not {what}: defect {defects[fits.argmin()]:.3e}")
    off = np.abs(_det(mats) - 1.0) > tol
    if off.any():
        det = _det(mats[off.argmax()])
        det = det if det.dtype.kind == "c" else float(det)
        raise ValueError(f"determinant is not 1: {det!r}")
    mats = mats.copy()
    mats.flags.writeable = False
    return mats


@dataclass(frozen=True)
class SpecialUnitary2:
    """A 2x2 complex matrix with M†M = I and det M = 1, both to 1e-10."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = linalg.as_matrix(self.matrix)
        if m.shape != (2, 2):
            raise ValueError("expected a 2x2 matrix")
        object.__setattr__(self, "matrix", _checked(m[None], UNITARY_TOL, "unitary")[0])


@dataclass(frozen=True)
class Rotation3:
    """A 3x3 real matrix with R^T R = I and det R = 1, both to 1e-10."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        r = np.asarray(self.matrix, dtype=float)
        if r.shape != (3, 3):
            raise ValueError("expected a 3x3 real matrix")
        object.__setattr__(self, "matrix", _checked(r[None], ROTATION_TOL, "orthogonal")[0])


def _bloch_directions(kets: np.ndarray) -> list[spin.Direction]:
    """Bloch directions of the rows of an (n, 2) array of unit vectors.

    Every norm and every expectation <v|sigma|v> is one `linalg.inners`
    product, with the bits of `linalg.inner`.
    """
    # A NaN, inf or overflowing entry gives a norm the test below fails.
    with np.errstate(invalid="ignore", over="ignore"):
        norms = np.sqrt(np.maximum(linalg.inners(kets, kets).real, 0.0))
    if not (np.abs(norms - 1.0) <= 1e-10).all():
        raise ValueError("bloch_direction needs a unit vector")
    comps = linalg.inners(kets[:, None], (_pauli_stack() @ kets[:, None, :, None])[..., 0]).real
    return [spin.Direction.normalized(*c) for c in comps.tolist()]


def bloch_direction(v) -> spin.Direction:
    """Direction of Pauli expectation values of a unit 2-vector.

    The result names the question whose +1/2 answer is v: the state built
    for (bloch_direction(v), +1/2) lies on the same ray as v.
    """
    v = linalg.as_vector(v)
    if v.shape[0] != 2:
        raise ValueError("bloch_direction needs a 2-vector")
    return _bloch_directions(v[None])[0]


def _covers(mats: np.ndarray) -> np.ndarray:
    """Unchecked images of an (n, 2, 2) SU(2) stack under the cover map.

    All nine entries R_kl = trace(sigma_k M sigma_l M†)/2 of every element
    come from one stacked product, multiplied in the same order as the
    per-entry expression, so each entry has the same bits.
    """
    sigmas = _pauli_stack()
    left = (sigmas @ mats[:, None])[:, :, None] @ sigmas
    products = left @ mats.conj().swapaxes(-1, -2)[:, None, None]
    vals = 0.5 * np.trace(products, axis1=-2, axis2=-1)
    unreal = np.abs(vals.imag) > REALITY_TOL
    if unreal.any():
        e, k, l = np.argwhere(unreal)[0]
        raise ValueError(
            f"rotation entry ({k},{l}) has imaginary part {vals.imag[e, k, l]:.3e}"
        )
    return vals.real


def su2_to_so3(m) -> Rotation3:
    """Image of an SU(2) element under the two-to-one cover of SO(3).

    R_kl = trace(sigma_k M sigma_l M†)/2, which must come out real; M and
    -M map to the same rotation.
    """
    if not isinstance(m, SpecialUnitary2):
        m = SpecialUnitary2(m)
    return Rotation3(_covers(m.matrix[None])[0])


def random_unit_vector(rng: np.random.Generator) -> np.ndarray:
    """Ray-uniform unit 2-vector: normalized complex Gaussian pair."""
    while True:
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        n = linalg.norm(v)
        if n > 1e-6:
            return v / n


def _su2_draws(rng: np.random.Generator, count: int) -> np.ndarray:
    """An unchecked (count, 2, 2) stack of SU(2) matrices from quaternions."""
    quats = []
    while len(quats) < count:
        q = rng.standard_normal(4)
        n = math.sqrt(float(q @ q))
        if n > 1e-6:
            quats.append(q / n)
    q = np.array(quats)[:, :, None, None]
    sx, sy, sz = pauli_matrices()
    return q[:, 0] * np.eye(2, dtype=complex) + 1j * (q[:, 1] * sx + q[:, 2] * sy + q[:, 3] * sz)


def random_su2(rng: np.random.Generator) -> SpecialUnitary2:
    """Haar-ish SU(2) element from a normalized quaternion."""
    return SpecialUnitary2(_su2_draws(rng, 1)[0])


def verify_prop2(
    samples: int = 1000,
    eps: float = 1e-9,
    rng: np.random.Generator | None = None,
) -> VerificationReport:
    """Round-trip check: every unit 2-vector is a question-answer state.

    For each random unit v: name the question via bloch_direction, rebuild
    the state for answer +1/2 by the spin recursion, and demand phase
    equality with v.  The Bloch direction itself must round-trip too.  The
    samples run as stacks: one Bloch map over all vectors, the rebuilt
    states from `spin.recursion_states` (one stack, whose operators are
    built and applied in runs), and one Bloch map over those.
    """
    check_eps(eps)
    if samples < 1:
        raise ValueError("samples must be at least 1")
    rng = rng if rng is not None else np.random.default_rng(0)
    vectors = np.array([random_unit_vector(rng) for _ in range(samples)])
    directions = _bloch_directions(vectors)
    # The recursion is the route under test: one row per sample.
    states = spin.recursion_states(spin.SpinSystem(0.5), directions, [0.5] * samples)
    rebuilt = np.array([state.ket for state in states])
    amplitudes = linalg.inners(rebuilt, vectors).tolist()
    # Python's abs, not np.abs: the two round complex moduli differently.
    overlaps = [abs(amplitude) for amplitude in amplitudes]
    # Naming the rebuilt state must give the same question back.
    again = _bloch_directions(rebuilt)
    direction_errors = np.abs(
        np.array([d.as_array() for d in again])
        - np.array([d.as_array() for d in directions])
    ).max(axis=1)
    witnesses = [
        {
            "vector": [v[0].real, v[0].imag, v[1].real, v[1].imag],
            "overlap": overlap,
            "direction_error": direction_error,
        }
        for v, overlap, direction_error in zip(vectors, overlaps, direction_errors.tolist())
        if overlap < 1.0 - eps or direction_error > 1e-9
    ]
    return VerificationReport(
        subject="prop2",
        verdict="fail" if witnesses else "pass",
        metrics={
            "samples": float(samples),
            "passes": float(samples - len(witnesses)),
            # 1 - overlap falls as the overlap rises, rounding included.
            "worst_overlap_deficit": max(0.0, 1.0 - min(overlaps)),
            "worst_direction_error": float(direction_errors.max()),
        },
        witnesses=tuple(witnesses),
        notes="unit 2-vectors round-trip through the Bloch direction map",
    )


def verify_homomorphism(
    pairs: int = 500,
    eps: float = 1e-10,
    rng: np.random.Generator | None = None,
) -> VerificationReport:
    """Check the cover map respects products and has kernel {I, -I}.

    Products of random SU(2) pairs must map to products of rotations within
    eps; both I and -I must map to the identity rotation within 1e-12.
    """
    check_eps(eps)
    if pairs < 1:
        raise ValueError("pairs must be at least 1")
    rng = rng if rng is not None else np.random.default_rng(0)
    draws = _su2_draws(rng, 2 * pairs)
    m1s, m2s = draws[0::2], draws[1::2]
    # Products, factors and the kernel {I, -I} in one stack.  Checked images
    # are C-ordered, so their products go through BLAS as single ones do.
    elements = np.concatenate((m1s @ m2s, draws, [np.eye(2), -np.eye(2)]))
    images = _covers(_checked(elements, UNITARY_TOL, "unitary"))
    images = _checked(images, ROTATION_TOL, "orthogonal")
    lhs = images[:pairs]
    rhs = images[pairs : 3 * pairs : 2] @ images[pairs + 1 : 3 * pairs : 2]
    deviations = np.abs(lhs - rhs).max(axis=(1, 2))
    witnesses = [
        {
            "m1": [x for entry in m1.flat for x in (entry.real, entry.imag)],
            "m2": [x for entry in m2.flat for x in (entry.real, entry.imag)],
            "deviation": deviation,
        }
        for m1, m2, deviation in zip(m1s, m2s, deviations.tolist())
        if deviation > eps
    ]
    kernel_deviation = float(np.abs(images[3 * pairs :] - np.eye(3)).max())
    if kernel_deviation > 1e-12:
        witnesses.append({"kind": "kernel", "deviation": kernel_deviation})
    return VerificationReport(
        subject="prop2",
        verdict="fail" if witnesses else "pass",
        metrics={
            "pairs": float(pairs),
            "max_homomorphism_deviation": float(deviations.max()),
            "kernel_deviation": kernel_deviation,
        },
        witnesses=tuple(witnesses),
        notes="SU(2) to SO(3) product law and two-element kernel",
    )
