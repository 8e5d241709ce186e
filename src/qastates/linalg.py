"""Dense complex linear algebra kernel.

Vectors and matrices are plain numpy arrays with complex entries.  The
Hermitian eigensolver is a cyclic Jacobi iteration written out in full so it
can serve as an independent route against states constructed by recursion
elsewhere in the package; it does not call numpy.linalg.  Matrix sizes here
stay small (dimension 60 or less), where Jacobi is accurate and fast enough.
`hermitian_eigs` solves a stack of matrices of one size, with the setup,
the sort and the checks run once over the stack, and `hermitian_eig` is its
stack of one.  The sweeps run per matrix: each rotates the matrix and its
eigenvectors as one (2n, n) array, in place, and each rotation multiplies
a strided view of its pair of columns, then of its pair of rows, by one
coefficient block, and reads and writes its scalar entries through flat
views.  Its bits equal those of a loop that rotates separate matrices
through copied columns, one matrix at a time.
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


def inners(bras: np.ndarray, kets: np.ndarray) -> np.ndarray:
    """`inner` of each pair of vectors along the last axis of two stacks
    that broadcast together, with its bits: a stacked (1, d) @ (d, 1)
    product rounds as np.vdot does, where np.einsum and np.sum do not.
    numpy warns on an overflowing or non-finite pair; np.vdot does not."""
    return (bras.conj()[..., None, :] @ kets[..., :, None])[..., 0, 0]


def norm(v) -> float:
    return math.sqrt(max(inner(v, v).real, 0.0))


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


def fix_phases(rows: np.ndarray) -> np.ndarray:
    """`fix_phase` on every row of an (n, d) array at once, as a fresh
    C-ordered array.

    The caller vouches that every row has a nonzero finite entry; any other
    row comes out meaningless, and numpy may warn on it.  A row of two or
    more entries gets `fix_phase`'s bits: the magnitudes, the anchor, the
    phase factor and the product are the same operations on the same
    operands, and the factor multiplies each row as a broadcast scalar.  A
    one-entry row does not: numpy multiplies it in its loop for two arrays,
    which may round otherwise.
    """
    mags = np.abs(rows)
    anchor = (mags >= mags.max(axis=1, keepdims=True) - PHASE_TIE_TOL).argmax(axis=1)
    anchored = rows[np.arange(rows.shape[0]), anchor]
    factors = anchored.conjugate() / np.abs(anchored)
    return np.multiply(rows, factors[:, None], order="C")


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


def _rotation_pairs(w: np.ndarray) -> list[tuple]:
    """What each rotation (p, q) of `_jacobi_sweeps` reads and writes in the
    stacked (2n, n) array w, in cyclic order: the flat indices of h[p, q],
    h[q, p], h[p, p] and h[q, q], then the columns p and q of w as one
    (2, 1, 2n) view and one at a time, then the rows p and q of h likewise."""
    n = w.shape[1]
    h = w[:n]
    cols, rows = list(w.T), list(h)
    return [
        (
            p * n + q, q * n + p, p * (n + 1), q * (n + 1),
            w.T[p : q + 1 : q - p, None], cols[p], cols[q],
            h[p : q + 1 : q - p, None], rows[p], rows[q],
        )
        for p in range(n - 1)
        for q in range(p + 1, n)
    ]


def _jacobi_sweeps(w: np.ndarray, scale: float, offdiag_mask: np.ndarray) -> bool:
    """Rotate one (2n, n) working array in place until its top half is
    diagonal: whether that took at most _MAX_SWEEPS sweeps.

    The working matrix h and the eigenvector matrix v are the top and bottom
    halves of w, so one column rotation turns both.  For each pair (p, q),
    columns p and q of w are one (2, 1, 2n) strided view, and rows p and q
    of h one (2, 1, n) view; these views, and the flat indices of h[p, q],
    h[q, p], h[p, p] and h[q, q], are made when the first sweep runs, so a
    matrix that is already diagonal pays nothing for them, and so are the
    coefficient block and the product buffers.  A rotation reads and zeroes
    its scalar entries through flat 1-d views of w, multiplies each pair by
    a block of its coefficients into a product buffer, and writes the new
    pair back with one subtract and one add: six ufunc calls, with no
    temporaries or copies.  Every floating-point operation is the one a
    loop with separate matrices and copied columns makes, on the same
    operands in the same order, so the eigenvalues and eigenvectors equal
    that loop's bit for bit.
    """
    n = w.shape[1]
    h = w[:n]
    flat = w.reshape(-1)
    flat_re, flat_im = flat.real, flat.imag
    pairs = None
    target, tiny = 1e-14 * scale, 1e-18 * scale
    # Summing only off-diagonal entries avoids the cancellation that a
    # "Frobenius minus diagonal" formula hits once the mass drops below
    # sqrt(machine epsilon) times the scale.
    for _ in range(_MAX_SWEEPS):
        off = math.sqrt(float((np.abs(h[offdiag_mask]) ** 2).sum()))
        if off <= target:
            return True
        if pairs is None:
            pairs = _rotation_pairs(w)
            # The coefficient block holds the pairs (c, s), (s conj, c conj)
            # and (s phase, c phase), each product a numpy scalar as in
            # `s * conj * col`.  Its first two pairs times the old columns p
            # and q, and its first and third times the old rows p and q,
            # fill the product buffers: col_pp is column p's share of the
            # new p, col_pq its share of the new q.
            coef = np.empty((3, 2, 1), dtype=complex)
            coef_flat = coef.reshape(-1)
            col_coef, row_coef = coef[0:2], coef[0:3:2]
            col_prods = np.empty((2, 2, 2 * n), dtype=complex)
            row_prods = np.empty((2, 2, n), dtype=complex)
            (col_pp, col_pq), (col_qp, col_qq) = col_prods
            (row_pp, row_pq), (row_qp, row_qq) = row_prods
        for pq, qp, pp, qq, col_pair, colp, colq, row_pair, rowp, rowq in pairs:
            apq = flat[pq]
            r = abs(apq)
            if r <= tiny:
                flat[pq] = flat[qp] = 0.0
                continue
            phase = apq / r
            conj = np.conj(phase)
            # A Python float from here on: the same IEEE operations as on
            # numpy scalars, at a fraction of the call cost.
            tau = float((flat_re[qq] - flat_re[pp]) / (2.0 * r))
            t = math.copysign(1.0, tau) / (abs(tau) + math.sqrt(1.0 + tau * tau))
            c = 1.0 / math.sqrt(1.0 + t * t)
            s = t * c
            coef_flat[0] = c
            coef_flat[1] = s
            coef_flat[2] = s * conj
            coef_flat[3] = c * conj
            coef_flat[4] = s * phase
            coef_flat[5] = c * phase
            # Right-multiply by the rotation: mixes columns p and q of h
            # and v.  The products hold every old value, so the new
            # columns are written straight into w.
            np.multiply(col_coef, col_pair, out=col_prods)
            np.subtract(col_pp, col_qp, out=colp)
            np.add(col_pq, col_qq, out=colq)
            # Left-multiply by its adjoint: mixes rows p and q of h.
            np.multiply(row_coef, row_pair, out=row_prods)
            np.subtract(row_pp, row_qp, out=rowp)
            np.add(row_pq, row_qq, out=rowq)
            flat[pq] = flat[qp] = 0.0
            flat_im[pp] = flat_im[qq] = 0.0
    return False


def hermitian_eig(a) -> EigenDecomposition:
    """Full eigendecomposition of a Hermitian matrix by cyclic Jacobi sweeps:
    `hermitian_eigs` on a stack of one.

    Each sweep conjugates by two-dimensional unitary rotations chosen to zero
    one off-diagonal entry at a time; off-diagonal mass decreases until it is
    negligible relative to the Frobenius norm.  A matrix whose entries or
    computed Frobenius norm are not finite (entries beyond about 1e154
    overflow it) is rejected with ValueError.  Before returning, the
    eigenpair residuals and the orthonormality of the eigenvector matrix
    are checked against RESIDUAL_TOL and ORTHO_TOL, in a form that NaN
    fails; failure to converge raises instead of returning bad output.
    """
    return hermitian_eigs(as_matrix(a)[None])[0]


def hermitian_eigs(stack) -> list[EigenDecomposition]:
    """`hermitian_eig` of each matrix of a nonempty (k, n, n) stack.

    The setup and the checks run once over the stack: the Frobenius scales
    and Hermitian defects, the symmetrized (k, 2n, n) working array, the
    stable ascending sort, the eigenpair residuals and one `gram_defect`.
    The sweeps run per matrix, on its (2n, n) slice, in `_jacobi_sweeps`.
    Each matrix gets the eigenvalues and eigenvectors it gets alone, bit for
    bit, and a refused stack raises what its first refused matrix raises
    alone: the matrices after it are not swept, and those before it are
    still checked first.
    """
    a = np.asarray(stack, dtype=complex)
    if a.ndim != 3 or a.shape[1] != a.shape[2] or 0 in a.shape:
        raise ValueError("expected a nonempty stack of nonempty square matrices")
    n = a.shape[1]
    adjoint = a.conj().swapaxes(1, 2)
    # Entries this close to overflow can overflow the squares; an infinite
    # scale or defect is refused like any other large one.  The defect of a
    # refused non-finite matrix is never read.
    with np.errstate(over="ignore", invalid="ignore"):
        scales = np.sqrt((np.abs(a) ** 2).sum(axis=(1, 2))).tolist()
        defects = np.sqrt((np.abs(a - adjoint) ** 2).sum(axis=(1, 2))).tolist()
    refusal = None
    for k, (scale, defect) in enumerate(zip(scales, defects)):
        if not math.isfinite(scale):
            refusal = ValueError(
                "matrix entries must be finite, and small enough that the "
                "Frobenius norm does not overflow"
            )
        elif defect > HERM_TOL * max(1.0, scale):
            refusal = ValueError("matrix is not Hermitian within tolerance")
        else:
            continue
        if k == 0:
            raise refusal
        a, adjoint = a[:k], adjoint[:k]
        break
    # Symmetrize roundoff so the working diagonal is real from the start.
    sym = (a + adjoint) / 2.0
    # h atop v = I, in each matrix's (2n, n) slice; `flat` holds each slice
    # as one row.
    w = np.zeros((len(sym), 2 * n, n), dtype=complex)
    w[:, :n] = sym
    flat = w.reshape(len(w), -1)
    flat[:, n * n :: n + 1] = 1.0
    offdiag_mask = ~np.eye(n, dtype=bool)
    for k, (wk, scale) in enumerate(zip(w, scales)):
        if not _jacobi_sweeps(wk, scale, offdiag_mask):
            refusal = RuntimeError("Jacobi iteration did not converge")
            sym, w, flat = sym[:k], w[:k], flat[:k]
            break

    diagonal = flat[:, : n * n : n + 1].real
    order = diagonal.argsort(axis=1, kind="stable")
    rows = np.arange(len(w))[:, None]
    vals = diagonal[rows, order]
    vecs = w[rows[:, :, None], np.arange(n, 2 * n)[:, None], order[:, None, :]]

    spectral = np.abs(vals).max(axis=1).tolist()
    residuals = np.abs(sym @ vecs - vecs * vals[:, None, :]).max(axis=(1, 2)).tolist()
    orthos = gram_defect(vecs).tolist()
    for residual, top, ortho in zip(residuals, spectral, orthos):
        if not residual <= RESIDUAL_TOL * max(top, 1e-300):
            raise RuntimeError(f"eigenpair residual {residual:.3e} exceeds tolerance")
        if not ortho <= ORTHO_TOL:
            raise RuntimeError(f"eigenvector orthonormality defect {ortho:.3e}")
    if refusal is not None:
        raise refusal
    return [EigenDecomposition(*pair) for pair in zip(vals, vecs)]


def operator_norm(a) -> float:
    """Spectral norm, computed from the eigenvalues of a†a."""
    a = as_matrix(a)
    gram = a.conj().T @ a
    dec = hermitian_eig(gram)
    return math.sqrt(max(float(dec.eigenvalues[-1]), 0.0))
