"""Accessible variables as operators, and their coarse grainings.

A maximal accessible variable is a real-valued variable with one outcome per
basis direction: its operator is B = sum_j v_j |j><j| with distinct values,
so every eigenspace is one-dimensional.  Mapping outcomes through a function
t merges basis directions into classes C_i = {j : t(v_j) = u_i}; the merged
variable's operator A = sum_i u_i P_i has eigenspace dimensions equal to the
class sizes, and the variable stays maximal exactly when t never merges.
Each class is a question-answer pair: "what is the value?" answered by u_i,
supported on the class's subspace.

One rule decides when two answers are distinct, both where values are
accepted and where maximality is detected: ascending values are separated
when every consecutive gap exceeds SEPARATION times their largest
magnitude.  One more rule decides which values are accepted at all: their
squares, each counted as often as it is listed, must sum to a finite
float.  That sum is the squared Frobenius norm of the operator, so every
accepted variable's operator can be diagonalized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from . import linalg
from .report import VerificationReport

# Distinct answers differ by more than this fraction of the largest magnitude.
SEPARATION = 1e-9
PROJECTOR_TOL = 1e-11


def _separated(values) -> bool:
    """Whether every consecutive gap of ascending ``values`` exceeds
    SEPARATION times their largest magnitude; one value always is."""
    scale = max(abs(values[0]), abs(values[-1]))
    return all(b - a > SEPARATION * scale for a, b in zip(values, values[1:]))


def _require_finite_squares(values, name: str) -> None:
    """Reject ``values`` unless their squares sum to a finite float.  The
    sum runs over diag(values) in the order `linalg.hermitian_eig` sums its
    input's squared entries, so an operator on the standard basis is
    accepted here exactly when the eigensolver accepts it; NaN and infinite
    values fail too."""
    with np.errstate(over="ignore"):
        total = float(np.sum(np.square(np.diag(values))))
    if not math.isfinite(total):
        raise ValueError(f"{name} overflow or non-finite: their squares sum to {total}")


def _require_separated(values, problem: str) -> None:
    """Reject ascending values that are not `_separated`; ``problem``
    begins the message."""
    if not _separated(values):
        gap = min(b - a for a, b in zip(values, values[1:]))
        scale = max(abs(values[0]), abs(values[-1]))
        raise ValueError(f"{problem}: gap {gap:.3e} vs scale {scale:.3e}")


@dataclass(frozen=True)
class EVariableSpec:
    """A maximal accessible variable: distinct outcome values attached to an
    orthonormal basis of the full space."""

    name: str
    values: tuple
    basis: tuple

    def __post_init__(self) -> None:
        values = tuple(float(v) for v in self.values)
        if not values:
            raise ValueError("need at least one value")
        _require_finite_squares(values, "values")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ValueError("values must be strictly increasing")
        _require_separated(values, "values too close")
        basis = tuple(linalg.as_vector(b).copy() for b in self.basis)
        if len(basis) != len(values):
            raise ValueError("need exactly one basis vector per value")
        dim = basis[0].shape[0]
        if dim != len(basis) or any(b.shape[0] != dim for b in basis):
            raise ValueError("basis must be a complete orthonormal set")
        defect = linalg.gram_defect(np.column_stack(basis))
        if not defect <= 1e-10:
            raise ValueError(f"basis not orthonormal: Gram defect {defect:.3e}")
        for b in basis:
            b.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "basis", basis)

    @classmethod
    def standard(cls, name: str, values) -> "EVariableSpec":
        values = tuple(float(v) for v in values)
        eye = np.eye(len(values), dtype=complex)
        return cls(name, values, tuple(eye[:, k] for k in range(len(values))))

    @property
    def dim(self) -> int:
        return len(self.values)


def operator_from_maximal(spec: EVariableSpec) -> np.ndarray:
    """B = sum_j v_j |j><j|; Hermitian with simple spectrum equal to values."""
    d = spec.dim
    out = np.zeros((d, d), dtype=complex)
    for v, b in zip(spec.values, spec.basis):
        out += v * np.outer(b, b.conjugate())
    return out


@dataclass(frozen=True)
class CoarseGraining:
    """The partition induced by an outcome map, with its projectors.

    classes[i] lists the basis indices j with t(v_j) = coarse_values[i];
    projectors[i] projects onto their span.  Coarse values are ascending.
    Construction enforces the resolution of identity and mutual
    orthogonality to PROJECTOR_TOL; the defects it measured are kept as
    `identity_defect` and `orthogonality_defect`.
    """

    spec: EVariableSpec
    coarse_values: tuple
    classes: tuple
    projectors: tuple
    identity_defect: float = field(init=False, compare=False, repr=False)
    orthogonality_defect: float = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        d = self.spec.dim
        coarse = tuple(float(u) for u in self.coarse_values)
        classes = tuple(tuple(int(j) for j in c) for c in self.classes)
        if len(coarse) != len(classes) or len(classes) != len(self.projectors):
            raise ValueError("coarse values, classes, projectors must align")
        flat = sorted(j for c in classes for j in c)
        if flat != list(range(d)):
            raise ValueError("classes must partition the basis indices")
        projectors = tuple(linalg.as_matrix(p).copy() for p in self.projectors)
        total = np.zeros((d, d), dtype=complex)
        cross_defect = 0.0
        for i, p in enumerate(projectors):
            total += p
            for k in range(i + 1, len(projectors)):
                cross = float(np.abs(p @ projectors[k]).max())
                if not cross <= PROJECTOR_TOL:
                    raise ValueError(
                        f"projectors {i} and {k} overlap: {cross:.3e}"
                    )
                cross_defect = max(cross_defect, cross)
        sum_defect = float(np.abs(total - np.eye(d)).max())
        if not sum_defect <= PROJECTOR_TOL:
            raise ValueError(f"projectors do not resolve identity: {sum_defect:.3e}")
        for p in projectors:
            p.flags.writeable = False
        object.__setattr__(self, "coarse_values", coarse)
        object.__setattr__(self, "classes", classes)
        object.__setattr__(self, "projectors", projectors)
        object.__setattr__(self, "identity_defect", sum_defect)
        object.__setattr__(self, "orthogonality_defect", cross_defect)

    @property
    def injective(self) -> bool:
        return all(len(c) == 1 for c in self.classes)


def _evaluate_map(t, values: tuple) -> list:
    if isinstance(t, Mapping):
        missing = [v for v in values if v not in t]
        if missing:
            raise ValueError(f"outcome map undefined on values {missing}")
        out = [float(t[v]) for v in values]
    elif callable(t):
        out = [float(t(v)) for v in values]
    else:
        raise ValueError("outcome map must be a mapping or a callable")
    _require_finite_squares(out, "outcome map values")
    return out


def coarse_grain(spec: EVariableSpec, t) -> tuple[CoarseGraining, np.ndarray]:
    """Merge outcomes through t; return the partition and A = sum_i u_i P_i.

    Classes group exact equal outputs of t.  Outputs whose squares, one per
    basis direction, do not sum to a finite float are rejected, and so are
    distinct coarse values that are not separated (a gap within SEPARATION
    of their largest magnitude), as ill-posed.
    """
    mapped = _evaluate_map(t, spec.values)
    coarse = sorted(set(mapped))
    _require_separated(coarse, "coarse values too close to separate")
    classes = tuple(
        tuple(j for j, u in enumerate(mapped) if u == ui) for ui in coarse
    )
    projectors = tuple(
        linalg.projector([spec.basis[j] for j in c]) for c in classes
    )
    cg = CoarseGraining(spec, tuple(coarse), classes, projectors)
    d = spec.dim
    a = np.zeros((d, d), dtype=complex)
    for u, p in zip(cg.coarse_values, cg.projectors):
        a += u * p
    return cg, a


def is_maximally_accessible(a) -> bool:
    """Whether all eigenspaces are one-dimensional.

    True iff the eigenvalues are separated by the same rule that accepts
    values and coarse values: every consecutive gap exceeds SEPARATION
    times the largest magnitude.  The eigenvalues come from the package
    eigensolver; ``a`` may be the Hermitian matrix or its
    `linalg.EigenDecomposition`, when one is already at hand.
    """
    dec = a if isinstance(a, linalg.EigenDecomposition) else linalg.hermitian_eig(a)
    return _separated(dec.eigenvalues)


@dataclass(frozen=True)
class InterpretedAnswer:
    """A posed question with a sharp answer and its supporting subspace."""

    question: str
    answer: float
    basis: tuple


def interpret(cg: CoarseGraining, i: int) -> InterpretedAnswer:
    """Read class i as a question-answer pair."""
    if not (0 <= i < len(cg.classes)):
        raise ValueError(
            f"class index {i} out of range for {len(cg.classes)} classes"
        )
    return InterpretedAnswer(
        question=f"What is the value of {cg.spec.name}?",
        answer=cg.coarse_values[i],
        basis=tuple(cg.spec.basis[j] for j in cg.classes[i]),
    )


def coarse_grain_report(cg: CoarseGraining, a: np.ndarray) -> VerificationReport:
    """Verify a coarse graining and its merged operator, as `coarse_grain`
    returns them.

    Reports the resolution of identity and mutual orthogonality that
    construction enforced, and checks the eigenspace property
    A P_i = u_i P_i and that maximality detection matches injectivity of t.
    """
    eigen_defect = 0.0
    for u, p in zip(cg.coarse_values, cg.projectors):
        eigen_defect = max(eigen_defect, float(np.abs(a @ p - u * p).max()))
    maximal = is_maximally_accessible(a)
    witnesses = []
    if eigen_defect > 1e-10:
        witnesses.append({"kind": "eigenspace", "defect": eigen_defect})
    if maximal != cg.injective:
        witnesses.append(
            {
                "kind": "maximality_mismatch",
                "injective": cg.injective,
                "detected_maximal": maximal,
            }
        )
    verdict = "pass" if not witnesses else "fail"
    return VerificationReport(
        subject="coarse_grain",
        verdict=verdict,
        metrics={
            "dim": float(cg.spec.dim),
            "classes": float(len(cg.classes)),
            "identity_defect": cg.identity_defect,
            "orthogonality_defect": cg.orthogonality_defect,
            "eigenspace_defect": eigen_defect,
            "injective": float(cg.injective),
        },
        witnesses=tuple(witnesses),
        notes="partition projectors and eigenspace structure of the merged operator",
    )
