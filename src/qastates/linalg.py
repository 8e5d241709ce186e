"""Dense complex linear algebra kernel.

Vectors and matrices are plain numpy arrays with complex entries.  The
Hermitian eigensolver is a cyclic Jacobi iteration written out in full so it
can serve as an independent route against states constructed by recursion
elsewhere in the package; it does not call numpy.linalg.  Matrix sizes here
stay small (dimension 60 or less), where Jacobi is accurate and fast enough.
It rotates the matrix and its eigenvectors as one stacked array, in place,
through operands preallocated once per solve, and its bits equal those of
a loop that rotates separate matrices through copied columns.
Orthonormality and unitarity checks across the package measure one defect,
max |C†C - I| over the columns C, of one C or a stack, with `gram_defect`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .report import check_eps

# Input Hermiticity acceptance, relative with an absolute floor at unit scale.
HERM_TOL = 1e-10
# Guarantees on what hermitian_eig returns, relative to the spectral norm.
RESIDUAL_TOL = 1e-10
ORTHO_TOL = 1e-10
# Magnitude window treated as a tie when picking the phase anchor.
PHASE_TIE_TOL = 1e-12

_MAX_SWEEPS = 60


def as_vector(v) -> np.ndarray:
    arr = np.asarray(v, dtype=complex)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("expected a nonempty 1-d vector")
    return arr


def as_matrix(a) -> np.ndarray:
    arr = np.asarray(a, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise ValueError("expected a nonempty square matrix")
    return arr


def inner(u, v) -> complex:
    """Inner product <u|v>, conjugate-linear in the first argument."""
    u = as_vector(u)
    v = as_vector(v)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape[0]} vs {v.shape[0]}")
    return complex(np.vdot(u, v))


def norm(v) -> float:
    return math.sqrt(max(inner(v, v).real, 0.0))


def frobenius(a) -> float:
    a = np.asarray(a, dtype=complex)
    return math.sqrt(float(np.sum(np.abs(a) ** 2)))


def phase_equal(u, v, eps: float = 1e-9) -> bool:
    """Whether two unit vectors agree up to a global phase.

    True iff |<u|v>| >= 1 - eps.  Both inputs must be normalized to within
    1e-8, which a NaN or infinite entry fails; eps must lie strictly between
    0 and 1.
    """
    check_eps(eps)
    u = as_vector(u)
    v = as_vector(v)
    for w in (u, v):
        n = norm(w)
        if not abs(n - 1.0) <= 1e-8:
            if np.isinf(w).any() and not np.isnan(w).any():
                n = math.inf  # <w|w> of an infinite entry may read as NaN
            raise ValueError(f"phase_equal needs unit vectors, got norm {n!r}")
    return bool(abs(inner(u, v)) >= 1.0 - eps)


def fix_phase(v) -> np.ndarray:
    """Rotate a global phase so the largest-magnitude entry is real positive.

    Ties in magnitude within PHASE_TIE_TOL are broken by lowest index, which
    keeps the choice stable under perturbations that do not cross the window.
    The zero vector and vectors with a NaN or infinite entry raise ValueError.
    """
    v = as_vector(v)
    mags = np.abs(v)
    top = float(mags.max())  # NaN if any entry is NaN
    if not 0.0 < top < math.inf:
        what = "the zero vector" if top == 0.0 else "a vector with non-finite entries"
        raise ValueError(f"cannot fix the phase of {what}")
    anchor = int(np.argmax(mags >= top - PHASE_TIE_TOL))
    return v * (v[anchor].conjugate() / mags[anchor])


def gram_defect(columns) -> float | np.ndarray:
    """max |C†C - I|, how far the columns of the array C are from
    orthonormal: a float, or for a stack of C an array with each C's bits.
    An infinite or NaN entry gives NaN out and an overflowing one inf, both
    without a warning, so each caller refuses with ``not defect <= tol``."""
    with np.errstate(invalid="ignore", over="ignore"):
        gram = columns.conj().swapaxes(-1, -2) @ columns
    # The product is a fresh C-ordered array, so the reshape is a view of it.
    gram.reshape(gram.shape[:-2] + (-1,))[..., :: gram.shape[-1] + 1] -= 1.0
    defects = np.abs(gram).max(axis=(-2, -1))
    return float(defects) if gram.ndim == 2 else defects


def projector(vectors) -> np.ndarray:
    """Orthogonal projector onto the span of vectors orthonormal within ORTHO_TOL."""
    cols = [as_vector(v) for v in vectors]
    if not cols:
        raise ValueError("projector needs at least one vector")
    dim = cols[0].shape[0]
    if any(c.shape[0] != dim for c in cols):
        raise ValueError("projector vectors must share one dimension")
    basis = np.column_stack(cols)
    defect = gram_defect(basis)
    if not defect <= ORTHO_TOL:
        raise ValueError(f"vectors are not orthonormal: Gram defect {defect:.3e}")
    return basis @ basis.conj().T


def commutator(a, b) -> np.ndarray:
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape:
        raise ValueError("commutator needs same-shape square matrices")
    return a @ b - b @ a


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues ascending; eigenvectors[:, i] is the unit vector for
    eigenvalues[i].  Instances come out of hermitian_eig already verified
    against the input matrix."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return int(self.eigenvalues.shape[0])


def hermitian_eig(a) -> EigenDecomposition:
    """Full eigendecomposition of a Hermitian matrix by cyclic Jacobi sweeps.

    Each sweep conjugates by two-dimensional unitary rotations chosen to zero
    one off-diagonal entry at a time; off-diagonal mass decreases until it is
    negligible relative to the Frobenius norm.  A matrix whose entries or
    computed Frobenius norm are not finite (entries beyond about 1e154
    overflow it) is rejected with ValueError.  Before returning, the
    eigenpair residuals and the orthonormality of the eigenvector matrix
    are checked against RESIDUAL_TOL and ORTHO_TOL, in a form that NaN
    fails; failure to converge raises instead of returning bad output.

    The working matrix h and the eigenvector matrix v are the top and bottom
    halves of one (2n, n) array, so one column rotation turns both.  Column
    and row views, (2, 1) coefficient arrays and product buffers are made
    once per solve; each rotation fills the coefficients, multiplies the
    old pair of columns (then rows) into the buffers and combines buffer
    rows straight into the array, with no temporaries or copies.  Every
    floating-point operation is the one a loop with separate matrices and
    copied columns makes, on the same operands in the same order, so the
    eigenvalues and eigenvectors equal that loop's bit for bit.
    """
    a = as_matrix(a)
    with np.errstate(over="ignore"):
        scale = frobenius(a)
    if not math.isfinite(scale):
        raise ValueError(
            "matrix entries must be finite, and small enough that the "
            "Frobenius norm does not overflow"
        )
    # Entries this close to overflow can overflow the defect's squares;
    # an infinite defect is refused like any other large one.
    with np.errstate(over="ignore"):
        defect = frobenius(a - a.conj().T)
    if defect > HERM_TOL * max(1.0, scale):
        raise ValueError("matrix is not Hermitian within tolerance")
    n = a.shape[0]
    # Symmetrize roundoff so the working diagonal is real from the start.
    sym = (a + a.conj().T) / 2.0
    w = np.vstack((sym, np.eye(n, dtype=complex)))
    h, v = w[:n], w[n:]
    h_re, h_im = h.real, h.imag
    cols, rows = list(w.T), list(h)
    # Each rotation sets the coefficient pairs (c, s), (s conj, c conj)
    # and (s phase, c phase), each product a numpy scalar as in
    # `s * conj * col`.  A pair times the old column (or row) p or q fills
    # a product buffer: col_pp is column p's share of the new p, col_pq
    # its share of the new q.
    cs, cq, cr = np.empty((3, 2, 1), dtype=complex)
    col_p, col_q = np.empty((2, 2, 2 * n), dtype=complex)
    row_p, row_q = np.empty((2, 2, n), dtype=complex)
    (col_pp, col_pq), (col_qp, col_qq) = col_p, col_q
    (row_pp, row_pq), (row_qp, row_qq) = row_p, row_q
    target, tiny = 1e-14 * scale, 1e-18 * scale
    # Summing only off-diagonal entries avoids the cancellation that a
    # "Frobenius minus diagonal" formula hits once the mass drops below
    # sqrt(machine epsilon) times the scale.
    offdiag_mask = ~np.eye(n, dtype=bool)
    for _ in range(_MAX_SWEEPS):
        off = math.sqrt(float(np.sum(np.abs(h[offdiag_mask]) ** 2)))
        if off <= target:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = h[p, q]
                r = abs(apq)
                if r <= tiny:
                    h[p, q] = h[q, p] = 0.0
                    continue
                phase = apq / r
                conj = np.conj(phase)
                tau = (h_re[q, q] - h_re[p, p]) / (2.0 * r)
                t = math.copysign(1.0, tau) / (abs(tau) + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                cs[0, 0], cs[1, 0] = c, s
                cq[0, 0], cq[1, 0] = s * conj, c * conj
                cr[0, 0], cr[1, 0] = s * phase, c * phase
                # Right-multiply by the rotation: mixes columns p and q of
                # h and v.  The products hold every old value, so the new
                # columns are written straight into w.
                colp, colq = cols[p], cols[q]
                np.multiply(cs, colp, out=col_p)
                np.multiply(cq, colq, out=col_q)
                np.subtract(col_pp, col_qp, out=colp)
                np.add(col_pq, col_qq, out=colq)
                # Left-multiply by its adjoint: mixes rows p and q of h.
                rowp, rowq = rows[p], rows[q]
                np.multiply(cs, rowp, out=row_p)
                np.multiply(cr, rowq, out=row_q)
                np.subtract(row_pp, row_qp, out=rowp)
                np.add(row_pq, row_qq, out=rowq)
                h[p, q] = h[q, p] = 0.0
                h_im[p, p] = h_im[q, q] = 0.0
    else:
        raise RuntimeError("Jacobi iteration did not converge")

    diagonal = h_re.diagonal()
    order = np.argsort(diagonal, kind="stable")
    vals, vecs = diagonal[order], v[:, order]

    spectral = max(float(np.abs(vals).max()), 1e-300)
    residual = float(np.abs(sym @ vecs - vecs * vals[np.newaxis, :]).max())
    if not residual <= RESIDUAL_TOL * spectral:
        raise RuntimeError(f"eigenpair residual {residual:.3e} exceeds tolerance")
    ortho = gram_defect(vecs)
    if not ortho <= ORTHO_TOL:
        raise RuntimeError(f"eigenvector orthonormality defect {ortho:.3e}")
    return EigenDecomposition(vals, vecs)


def operator_norm(a) -> float:
    """Spectral norm, computed from the eigenvalues of a†a."""
    a = as_matrix(a)
    gram = a.conj().T @ a
    dec = hermitian_eig(gram)
    return math.sqrt(max(float(dec.eigenvalues[-1]), 0.0))
