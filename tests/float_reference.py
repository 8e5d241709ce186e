"""Float references for code that the library computes another way.

`qastates.symmetry` decides every representation claim on integers: a
level set stands for its normalized indicator function, and a level
permutation for the regular representation of a group element on their
span.  The first part of this module materializes those objects as complex
numpy arrays, with its own level computation, so tests can compare the
integer answers against the functions they stand for.

`qastates.qubit` evaluates the Bloch direction map and the SU(2) to SO(3)
cover as stacked numpy products over many vectors or matrices at once.  The
second part keeps the loops they replaced: one trace per rotation entry,
one inner product per Pauli expectation, and one sample at a time in the
prop2 and homomorphism checks.  Tests require the two to agree bit for bit,
and the random generator to be left in the same state.

`qastates.linalg.hermitian_eigs` solves a stack of matrices, each with its
working matrix and eigenvector matrix as the two halves of one array whose
columns it rotates in place; `hermitian_eig` is its stack of one.  The
third part keeps the loop they replaced, one matrix at a time, with a
separate eigenvector matrix and a copy of each rotated column and row.
Tests require the eigenvalues and eigenvectors of the two to be equal byte
for byte, and their errors to be the same.

`qastates.spin._recurrence_up` carries its last two coefficients as local
numpy scalars and hoists the products of its direction, and
`qastates.spin._stepped_passes` steps every recurrence pass of a stack of
at least `spin._STEPPED_PASSES` (40) passes at once, one array operation
per step.  The fourth part keeps the loop both replaced, which runs one
pass and reads each coefficient back from the array; tests require all
three to return the same bytes.

`qastates.spin` builds its states a stack at a time: the recursion's
passes in one `spin._pass_coefficients` call (one at a time below 40
passes, stepped together from there), every junction row stitched in one
vectorized pass, then one pass over the stack for the norms, the phase
convention and the residual bound; its verifiers build all of a request's
states, and solve all of its oracle directions, as one stack.  The fifth
part keeps the per-state constructors it replaced (`recursion_state`,
`built`, `oracle_states`) and the verifiers written on them, one direction
and one state at a time, each pass computed alone and stitched alone.
Tests require every ket and residual, every report and the generator state
after it to be equal, and a refused build to raise the same exception with
the same text.

Only tests import this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from qastates import linalg, qubit, spin
from qastates.report import VerificationReport, check_eps
from qastates.symmetry import FiniteSymmetryModel, _as_permutation


@dataclass(frozen=True)
class HilbertBasis:
    """Normalized level indicators of the distinguished variable.

    Row ``i`` of ``functions`` is the indicator of the level set
    ``levels[i]`` divided by the square root of its size; values are in
    ascending order.  The rows are exactly orthonormal under the
    counting-measure inner product because the supports are disjoint.
    """

    values: tuple[int, ...]
    levels: tuple
    functions: np.ndarray

    def __post_init__(self) -> None:
        functions = np.array(self.functions, dtype=complex)
        functions.setflags(write=False)
        object.__setattr__(self, "functions", functions)
        object.__setattr__(self, "values", tuple(int(v) for v in self.values))
        object.__setattr__(self, "levels", tuple(tuple(lv) for lv in self.levels))
        if not (len(self.values) == len(self.levels) == functions.shape[0]):
            raise ValueError("values, levels, and functions disagree on dimension")

    @property
    def dim(self) -> int:
        return len(self.values)

    def coordinates(self, f) -> tuple[np.ndarray, float]:
        """Expand a function over the basis.

        Returns the coefficient vector and the norm of the component
        outside the spanned subspace.
        """
        vec = np.asarray(f, dtype=complex)
        if vec.shape != (self.functions.shape[1],):
            raise ValueError(
                f"function has shape {vec.shape}, expected ({self.functions.shape[1]},)"
            )
        coeffs = np.conjugate(self.functions) @ vec
        residual = linalg.norm(vec - self.functions.T @ coeffs)
        return coeffs, float(residual)


def hilbert_subspace(model: FiniteSymmetryModel) -> HilbertBasis:
    """Basis of the function space spanned by the distinguished levels.

    Requires at least two distinct values; one normalized indicator per
    level set, ordered by ascending value.
    """
    theta = model.theta(model.distinguished)
    values = sorted(set(theta))
    if len(values) < 2:
        pos = model.labels.index(model.distinguished)
        raise ValueError(
            f"variables[{pos}].theta: distinguished variable takes "
            f"{len(values)} value(s); need at least 2"
        )
    levels = tuple(
        tuple(phi for phi, v in enumerate(theta) if v == value) for value in values
    )
    functions = np.zeros((len(values), model.phi_size), dtype=complex)
    for i, level in enumerate(levels):
        functions[i, list(level)] = 1.0 / math.sqrt(len(level))
    return HilbertBasis(values=tuple(values), levels=levels, functions=functions)


def regular_representation(model: FiniteSymmetryModel, k, f) -> np.ndarray:
    """Apply a group element to a function: ``(U(k)f)(phi) = f(k^-1 phi)``.

    ``k`` must belong to the model's full closure group.  The action
    permutes coordinates, so it is exactly unitary for the counting-measure
    inner product.
    """
    perm = _as_permutation(k, model.phi_size)
    if perm not in frozenset(model.full_group):
        raise ValueError("permutation is not an element of the model's closure group")
    vec = np.asarray(f, dtype=complex)
    if vec.shape != (model.phi_size,):
        raise ValueError(f"function has shape {vec.shape}, expected ({model.phi_size},)")
    out = np.empty_like(vec)
    out[np.array(perm)] = vec
    return out


def bloch_direction(v) -> spin.Direction:
    """Direction of Pauli expectation values of a unit 2-vector, one inner
    product per component."""
    v = linalg.as_vector(v)
    if v.shape[0] != 2:
        raise ValueError("bloch_direction needs a 2-vector")
    if abs(linalg.norm(v) - 1.0) > 1e-10:
        raise ValueError("bloch_direction needs a unit vector")
    comps = []
    for sigma in qubit.pauli_matrices():
        val = linalg.inner(v, sigma @ v)
        comps.append(val.real)
    return spin.Direction.normalized(*comps)


def su2_to_so3(m) -> qubit.Rotation3:
    """Image of an SU(2) element under the cover map, one trace per entry:
    R_kl = trace(sigma_k M sigma_l M†)/2."""
    if not isinstance(m, qubit.SpecialUnitary2):
        m = qubit.SpecialUnitary2(m)
    mat = m.matrix
    sigmas = qubit.pauli_matrices()
    r = np.zeros((3, 3), dtype=float)
    for k, sk in enumerate(sigmas):
        for l, sl in enumerate(sigmas):
            val = 0.5 * np.trace(sk @ mat @ sl @ mat.conj().T)
            if abs(val.imag) > qubit.REALITY_TOL:
                raise ValueError(
                    f"rotation entry ({k},{l}) has imaginary part {val.imag:.3e}"
                )
            r[k, l] = val.real
    return qubit.Rotation3(r)


def verify_prop2(
    samples: int = 1000,
    eps: float = 1e-9,
    rng: np.random.Generator | None = None,
) -> VerificationReport:
    """`qubit.verify_prop2`, one sample at a time."""
    check_eps(eps)
    if samples < 1:
        raise ValueError("samples must be at least 1")
    rng = rng if rng is not None else np.random.default_rng(0)
    witnesses = []
    worst_deficit = 0.0
    worst_direction_error = 0.0
    for _ in range(samples):
        v = qubit.random_unit_vector(rng)
        direction = bloch_direction(v)
        rebuilt = eigenstate_recursion(spin.SpinSystem(0.5), direction, 0.5).ket
        overlap = abs(linalg.inner(rebuilt, v))
        worst_deficit = max(worst_deficit, 1.0 - overlap)
        # Naming the rebuilt state must give the same question back.
        again = bloch_direction(rebuilt)
        direction_error = float(
            np.abs(again.as_array() - direction.as_array()).max()
        )
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
    """`qubit.verify_homomorphism`, one pair at a time."""
    check_eps(eps)
    if pairs < 1:
        raise ValueError("pairs must be at least 1")
    rng = rng if rng is not None else np.random.default_rng(0)
    witnesses = []
    max_deviation = 0.0
    for _ in range(pairs):
        m1 = qubit.random_su2(rng)
        m2 = qubit.random_su2(rng)
        product = qubit.SpecialUnitary2(m1.matrix @ m2.matrix)
        lhs = su2_to_so3(product).matrix
        rhs = su2_to_so3(m1).matrix @ su2_to_so3(m2).matrix
        deviation = float(np.abs(lhs - rhs).max())
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
    for sign in (1.0, -1.0):
        image = su2_to_so3(qubit.SpecialUnitary2(sign * np.eye(2, dtype=complex))).matrix
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


def frobenius(a) -> float:
    """The Frobenius norm of one matrix, as `linalg.hermitian_eigs` computes
    it for each matrix of a stack."""
    a = np.asarray(a, dtype=complex)
    return math.sqrt(float(np.sum(np.abs(a) ** 2)))


def hermitian_eig(a) -> linalg.EigenDecomposition:
    """`linalg.hermitian_eig` with separate working and eigenvector matrices
    and a copy of each pair of columns and rows it rotates."""
    a = linalg.as_matrix(a)
    with np.errstate(over="ignore"):
        scale = frobenius(a)
    if not math.isfinite(scale):
        raise ValueError(
            "matrix entries must be finite, and small enough that the "
            "Frobenius norm does not overflow"
        )
    if frobenius(a - a.conj().T) > linalg.HERM_TOL * max(1.0, scale):
        raise ValueError("matrix is not Hermitian within tolerance")
    n = a.shape[0]
    # Symmetrize roundoff so the working diagonal is real from the start.
    h = (a + a.conj().T) / 2.0
    v = np.eye(n, dtype=complex)
    if n == 1 or scale == 0.0:
        vals = h.diagonal().real.copy()
        order = np.argsort(vals, kind="stable")
        return linalg.EigenDecomposition(vals[order], v[:, order])

    target = 1e-14 * scale
    tiny = 1e-18 * scale
    offdiag_mask = ~np.eye(n, dtype=bool)
    for _ in range(linalg._MAX_SWEEPS):
        off = math.sqrt(float(np.sum(np.abs(h[offdiag_mask]) ** 2)))
        if off <= target:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = h[p, q]
                r = abs(apq)
                if r <= tiny:
                    h[p, q] = 0.0
                    h[q, p] = 0.0
                    continue
                phase = apq / r
                tau = (h[q, q].real - h[p, p].real) / (2.0 * r)
                t = math.copysign(1.0, tau) / (abs(tau) + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                # Right-multiply by the rotation: mixes columns p and q.
                colp = h[:, p].copy()
                colq = h[:, q].copy()
                h[:, p] = c * colp - s * phase.conjugate() * colq
                h[:, q] = s * colp + c * phase.conjugate() * colq
                # Left-multiply by its adjoint: mixes rows p and q.
                rowp = h[p, :].copy()
                rowq = h[q, :].copy()
                h[p, :] = c * rowp - s * phase * rowq
                h[q, :] = s * rowp + c * phase * rowq
                h[p, q] = 0.0
                h[q, p] = 0.0
                h[p, p] = h[p, p].real
                h[q, q] = h[q, q].real
                vp = v[:, p].copy()
                vq = v[:, q].copy()
                v[:, p] = c * vp - s * phase.conjugate() * vq
                v[:, q] = s * vp + c * phase.conjugate() * vq
    else:
        raise RuntimeError("Jacobi iteration did not converge")

    vals = h.diagonal().real.copy()
    order = np.argsort(vals, kind="stable")
    vals = vals[order]
    vecs = v[:, order]

    spectral = max(float(np.abs(vals).max()), 1e-300)
    sym = (a + a.conj().T) / 2.0
    residual = float(np.abs(sym @ vecs - vecs * vals[np.newaxis, :]).max())
    if not residual <= linalg.RESIDUAL_TOL * spectral:
        raise RuntimeError(f"eigenpair residual {residual:.3e} exceeds tolerance")
    ortho = linalg.gram_defect(vecs)
    if not ortho <= linalg.ORTHO_TOL:
        raise RuntimeError(f"eigenvector orthonormality defect {ortho:.3e}")
    return linalg.EigenDecomposition(vals, vecs)


def recurrence_up(system, direction, h, k_end) -> np.ndarray:
    """`spin._recurrence_up` reading b_k and b_{k-1} back from the array at
    every step."""
    j = system.j
    raising, lowering = spin._ladder_table(system)
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
        if peak > spin._RESCALE_LIMIT:
            b[: k + 2] /= peak
    return b


def recurrence_pass(system, direction, h, k_end) -> np.ndarray:
    """Coefficients b_0..b_k_end of one upward pass, computed alone through
    `spin._pass_coefficients`, the seam where tests plant recursion faults;
    a stack of one pass runs `spin._recurrence_up`."""
    return spin._pass_coefficients(system, [(direction, h, k_end)])[0, : k_end + 1]


def recurrence_down(system, direction, h, k_start) -> np.ndarray:
    """Coefficients b_k_start..b_{d-1} from the seed b_{d-1} = 1, b_d = 0:
    the upward pass along the mirror (x, -y, -z) to index d-1-k_start, read
    backwards."""
    mirror = spin.Direction(direction.x, -direction.y, -direction.z)
    b = recurrence_pass(system, mirror, h, system.dim - 1 - k_start)
    return np.ascontiguousarray(b[::-1])


def built(system, direction, answer, ket, op) -> spin.QuestionAnswerState:
    """A state from one of the per-state constructors, which pass a snapped
    answer, a fresh unit ket under the phase convention and the component
    operator `op` along the direction.  Only the residual is checked; the
    ket is kept, not copied, and made read-only."""
    residual = spin._checked_residual(op, ket, answer)
    ket.flags.writeable = False
    state = object.__new__(spin.QuestionAnswerState)
    state.__dict__.update(
        system=system, direction=direction, answer=answer, ket=ket, residual=residual
    )
    return state


def recursion_state(system, direction, h, op) -> spin.QuestionAnswerState:
    """`spin.eigenstate_recursion` for a snapped answer h, one state at a
    time, with `op` the component operator along the direction; `op` serves
    the residual check only."""
    j = system.j
    d = system.dim

    if direction.transverse < spin.POLE_THRESHOLD:
        m = h if direction.z > 0.0 else -h
        ket = np.zeros(d, dtype=complex)
        ket[system.m_index(m)] = 1.0
        return built(system, direction, h, ket, op)

    junction = min(max(round(h * direction.z + j), 0), d - 1)
    if junction >= d - 1:
        b = recurrence_pass(system, direction, h, d - 1)
    elif junction <= 0:
        b = recurrence_down(system, direction, h, 0)
    else:
        lo = recurrence_pass(system, direction, h, junction + 1)
        hi = recurrence_down(system, direction, h, junction)
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
    return built(system, direction, h, ket, op)


def oracle_states(system, direction, op) -> list[spin.QuestionAnswerState]:
    """`spin.oracle_catalog` with `op` the component operator along the
    direction, one state at a time."""
    dec = linalg.hermitian_eig(op)
    answers = system.m_values
    gaps = np.abs(dec.eigenvalues - answers)
    worst = int(np.argmax(gaps))
    if gaps[worst] > 1e-6:
        raise RuntimeError(
            f"the component operator's spectrum along {direction} is not -j, ..., +j: "
            f"eigenvalue {worst} is {float(dec.eigenvalues[worst])}, more than 1e-6 "
            f"from the answer {float(answers[worst])}"
        )
    return [
        built(system, direction, h, linalg.fix_phase(dec.eigenvectors[:, k]), op)
        for k, h in enumerate(answers.tolist())
    ]


def eigenstate_recursion(system, direction, answer) -> spin.QuestionAnswerState:
    """`spin.eigenstate_recursion`, one state at a time."""
    h = spin._snap_answer(system, answer)
    return recursion_state(system, direction, h, spin.component_operator(system, direction))


def state_catalog(system, direction) -> list[spin.QuestionAnswerState]:
    """`spin.state_catalog`, one state at a time."""
    op = spin.component_operator(system, direction)
    out = []
    for h in system.m_values:
        try:
            out.append(recursion_state(system, direction, float(h), op))
        except (ValueError, RuntimeError) as exc:
            raise type(exc)(f"catalog failed at direction={direction}, h={h}: {exc}") from exc
    return out


def verify_eigenstates(system, samples=100, eps=1e-9, rng=None) -> VerificationReport:
    """`spin.verify_eigenstates`, one state at a time."""
    check_eps(eps)
    rng = rng if rng is not None else np.random.default_rng(0)
    dirs = [spin.random_direction(rng) for _ in range(samples)]
    dirs += [spin.Direction(0.0, 0.0, 1.0), spin.Direction(0.0, 0.0, -1.0)]
    witnesses = []
    max_residual = 0.0
    min_overlap = 1.0
    for direction in dirs:
        op = spin.component_operator(system, direction)
        for h, orc in zip(system.m_values, oracle_states(system, direction, op)):
            rec = recursion_state(system, direction, float(h), op)
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
            **spin.algebra_defects(system),
        },
        witnesses=tuple(witnesses),
        notes="recursion route vs eigensolver oracle, axis poles included",
    )


def verify_orthogonality(system, samples=100, eps=1e-9, rng=None) -> VerificationReport:
    """`spin.verify_orthogonality`, one sample at a time: one catalog and
    one Gram defect per direction."""
    check_eps(eps)
    rng = rng if rng is not None else np.random.default_rng(0)
    witnesses = []
    max_defect = 0.0
    for _ in range(samples):
        direction = spin.random_direction(rng)
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


def verify_ray_collisions(system, samples=100, eps=1e-9, rng=None) -> VerificationReport:
    """`spin.verify_ray_collisions`, one sample and one state at a time."""
    check_eps(eps)
    rng = rng if rng is not None else np.random.default_rng(0)
    collisions = []
    failures = []
    worst_collision = 1.0
    for _ in range(samples):
        direction = spin.random_direction(rng)
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
            other = spin.random_direction(rng)
            if (
                spin.angle_between(direction, other) >= spin.COLLISION_SEPARATION
                and spin.angle_between(direction.antipode(), other) >= spin.COLLISION_SEPARATION
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
