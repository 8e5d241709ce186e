"""Qubit geometry: the Bloch direction map and the SU(2) to SO(3) cover.

Every unit vector in dimension 2 is a question-answer state: its Bloch
direction (the vector of Pauli expectation values) names the question, and
the answer is +1/2.  The round trip through the spin recursion makes that
correspondence checkable rather than asserted.  The double cover of the
rotation group by SU(2) is the structural reason the correspondence works;
it is verified as a homomorphism law on random pairs.  Both maps run as
stacked numpy products over all vectors or matrices of a check at once;
tests hold them bit for bit to the per-entry loops in
`tests/float_reference.py`.

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


def _det2(m: np.ndarray) -> complex:
    return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]


def _det3(r: np.ndarray) -> float:
    return float(
        r[0, 0] * (r[1, 1] * r[2, 2] - r[1, 2] * r[2, 1])
        - r[0, 1] * (r[1, 0] * r[2, 2] - r[1, 2] * r[2, 0])
        + r[0, 2] * (r[1, 0] * r[2, 1] - r[1, 1] * r[2, 0])
    )


@dataclass(frozen=True)
class SpecialUnitary2:
    """A 2x2 complex matrix with M†M = I and det M = 1, both to 1e-10."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = linalg.as_matrix(self.matrix)
        if m.shape != (2, 2):
            raise ValueError("expected a 2x2 matrix")
        unitary_defect = linalg.gram_defect(m)
        if not unitary_defect <= UNITARY_TOL:
            raise ValueError(f"not unitary: defect {unitary_defect:.3e}")
        if abs(_det2(m) - 1.0) > UNITARY_TOL:
            raise ValueError(f"determinant is not 1: {_det2(m)!r}")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class Rotation3:
    """A 3x3 real matrix with R^T R = I and det R = 1, both to 1e-10."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        r = np.asarray(self.matrix, dtype=float)
        if r.shape != (3, 3):
            raise ValueError("expected a 3x3 real matrix")
        ortho_defect = linalg.gram_defect(r)
        if not ortho_defect <= ROTATION_TOL:
            raise ValueError(f"not orthogonal: defect {ortho_defect:.3e}")
        if abs(_det3(r) - 1.0) > ROTATION_TOL:
            raise ValueError(f"determinant is not 1: {_det3(r)!r}")
        r = r.copy()
        r.flags.writeable = False
        object.__setattr__(self, "matrix", r)


def _bloch_directions(kets: np.ndarray) -> list[spin.Direction]:
    """Bloch directions of the rows of an (n, 2) array of unit vectors.

    Every norm and every expectation <v|sigma|v> is a stacked (1, 2) @ (2, 1)
    product, which numpy rounds exactly as `linalg.inner` (np.vdot) does;
    np.einsum and np.sum round differently.
    """
    bras = kets.conj()[:, None, None, :]
    norms = np.sqrt(np.maximum((bras[:, 0] @ kets[:, :, None])[:, 0, 0].real, 0.0))
    if (np.abs(norms - 1.0) > 1e-10).any():
        raise ValueError("bloch_direction needs a unit vector")
    comps = (bras @ (_pauli_stack() @ kets[:, None, :, None]))[..., 0, 0].real
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


def reconstruct_state(direction: spin.Direction) -> np.ndarray:
    """The unit 2-vector answering (direction, +1/2), by the spin recursion."""
    state = spin.eigenstate_recursion(spin.SpinSystem(0.5), direction, 0.5)
    return state.ket


def _covers(mats: np.ndarray) -> list[Rotation3]:
    """Images of an (n, 2, 2) stack of SU(2) matrices under the cover map.

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
    return [Rotation3(r) for r in vals.real]


def su2_to_so3(m) -> Rotation3:
    """Image of an SU(2) element under the two-to-one cover of SO(3).

    R_kl = trace(sigma_k M sigma_l M†)/2, which must come out real; M and
    -M map to the same rotation.
    """
    if not isinstance(m, SpecialUnitary2):
        m = SpecialUnitary2(m)
    return _covers(m.matrix[None])[0]


def random_unit_vector(rng: np.random.Generator) -> np.ndarray:
    """Ray-uniform unit 2-vector: normalized complex Gaussian pair."""
    while True:
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        n = linalg.norm(v)
        if n > 1e-6:
            return v / n


def random_su2(rng: np.random.Generator) -> SpecialUnitary2:
    """Haar-ish SU(2) element from a normalized quaternion."""
    while True:
        q = rng.standard_normal(4)
        n = math.sqrt(float(q @ q))
        if n > 1e-6:
            q = q / n
            break
    sx, sy, sz = pauli_matrices()
    m = q[0] * np.eye(2, dtype=complex) + 1j * (q[1] * sx + q[2] * sy + q[3] * sz)
    return SpecialUnitary2(m)


def verify_prop2(
    samples: int = 1000,
    eps: float = 1e-9,
    rng: np.random.Generator | None = None,
) -> VerificationReport:
    """Round-trip check: every unit 2-vector is a question-answer state.

    For each random unit v: name the question via bloch_direction, rebuild
    the state for answer +1/2 by the spin recursion, and demand phase
    equality with v.  The Bloch direction itself must round-trip too.
    """
    check_eps(eps)
    if samples < 1:
        raise ValueError("samples must be at least 1")
    rng = rng if rng is not None else np.random.default_rng(0)
    vectors = np.array([random_unit_vector(rng) for _ in range(samples)])
    directions = _bloch_directions(vectors)
    # The recursion is the route under test, so it runs once per sample.
    rebuilt = np.array([reconstruct_state(d) for d in directions])
    overlaps = (rebuilt.conj()[:, None, :] @ vectors[:, :, None])[:, 0, 0].tolist()
    # Naming the rebuilt state must give the same question back.
    again = _bloch_directions(rebuilt)
    direction_errors = np.abs(
        np.array([d.as_array() for d in again])
        - np.array([d.as_array() for d in directions])
    ).max(axis=1)
    witnesses = []
    worst_deficit = 0.0
    worst_direction_error = 0.0
    for v, amplitude, direction_error in zip(vectors, overlaps, direction_errors.tolist()):
        # Python's abs, not np.abs: the two round complex moduli differently.
        overlap = abs(amplitude)
        worst_deficit = max(worst_deficit, 1.0 - overlap)
        worst_direction_error = max(worst_direction_error, direction_error)
        if overlap < 1.0 - eps or direction_error > 1e-9:
            witnesses.append(
                {
                    "vector": [v[0].real, v[0].imag, v[1].real, v[1].imag],
                    "overlap": overlap,
                    "direction_error": direction_error,
                }
            )
    verdict = "pass" if not witnesses else "fail"
    return VerificationReport(
        subject="prop2",
        verdict=verdict,
        metrics={
            "samples": float(samples),
            "passes": float(samples - len(witnesses)),
            "worst_overlap_deficit": worst_deficit,
            "worst_direction_error": worst_direction_error,
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
    draws = [(random_su2(rng), random_su2(rng)) for _ in range(pairs)]
    kernel = [SpecialUnitary2(sign * np.eye(2, dtype=complex)) for sign in (1.0, -1.0)]
    # Each pair's product and both factors, in that order, then the kernel.
    elements = [
        m
        for m1, m2 in draws
        for m in (SpecialUnitary2(m1.matrix @ m2.matrix), m1, m2)
    ] + kernel
    images = np.array([r.matrix for r in _covers(np.array([m.matrix for m in elements]))])
    lhs = images[0 : 3 * pairs : 3]
    rhs = images[1 : 3 * pairs : 3] @ images[2 : 3 * pairs : 3]
    deviations = np.abs(lhs - rhs).max(axis=(1, 2))
    witnesses = []
    max_deviation = 0.0
    for (m1, m2), deviation in zip(draws, deviations.tolist()):
        max_deviation = max(max_deviation, deviation)
        if deviation > eps:
            witnesses.append(
                {
                    "m1": [x for entry in m1.matrix.flat for x in (entry.real, entry.imag)],
                    "m2": [x for entry in m2.matrix.flat for x in (entry.real, entry.imag)],
                    "deviation": deviation,
                }
            )
    kernel_deviation = 0.0
    for image in images[3 * pairs :]:
        kernel_deviation = max(kernel_deviation, float(np.abs(image - np.eye(3)).max()))
    if kernel_deviation > 1e-12:
        witnesses.append({"kind": "kernel", "deviation": kernel_deviation})
    verdict = "pass" if not witnesses else "fail"
    return VerificationReport(
        subject="prop2",
        verdict=verdict,
        metrics={
            "pairs": float(pairs),
            "max_homomorphism_deviation": max_deviation,
            "kernel_deviation": kernel_deviation,
        },
        witnesses=tuple(witnesses),
        notes="SU(2) to SO(3) product law and two-element kernel",
    )
