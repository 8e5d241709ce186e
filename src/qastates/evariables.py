"""Accessible variables as operators, and their coarse grainings.

A maximal accessible variable is a real-valued variable with one outcome per
basis direction: its operator is B = sum_j v_j |j><j| with distinct values,
so every eigenspace is one-dimensional.  Mapping outcomes through a function
t merges basis directions into classes C_i = {j : t(v_j) = u_i}; the merged
variable's operator A = sum_i u_i P_i has eigenspace dimensions equal to the
class sizes, and the variable stays maximal exactly when t never merges.
Each class is a question-answer pair: "what is the value?" answered by u_i,
supported on the class's subspace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from . import linalg
from .report import VerificationReport

# Coarse values closer than this fraction of the value range are rejected as
# ill-posed rather than silently merged.
VALUE_GAP_FRACTION = 1e-9
PROJECTOR_TOL = 1e-11
DEFAULT_SEPARATION = 1e-6


def _require_value_gaps(values, name: str, problem: str) -> None:
    """Reject ascending values whose range overflows, or whose smallest gap
    is within VALUE_GAP_FRACTION of their range; ``name`` and ``problem``
    begin the two messages."""
    if len(values) >= 2:
        rng = values[-1] - values[0]
        if not math.isfinite(rng):
            raise ValueError(
                f"{name} overflow: the range from {values[0]:.3e} to {values[-1]:.3e} "
                "is not a finite float"
            )
        min_gap = min(b - a for a, b in zip(values, values[1:]))
        if min_gap <= VALUE_GAP_FRACTION * rng:
            raise ValueError(f"{problem}: gap {min_gap:.3e} vs range {rng:.3e}")


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
        for v in values:
            if not math.isfinite(v):
                raise ValueError("values must be finite")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ValueError("values must be strictly increasing")
        _require_value_gaps(values, "values", "values too close")
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
    for u in out:
        if not math.isfinite(u):
            raise ValueError("outcome map produced a non-finite value")
    return out


def coarse_grain(spec: EVariableSpec, t) -> tuple[CoarseGraining, np.ndarray]:
    """Merge outcomes through t; return the partition and A = sum_i u_i P_i.

    Classes group exact equal outputs of t.  Distinct coarse values closer
    than VALUE_GAP_FRACTION of their range are rejected as ill-posed.
    """
    mapped = _evaluate_map(t, spec.values)
    coarse = sorted(set(mapped))
    _require_value_gaps(coarse, "coarse values", "coarse values too close to separate")
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


def is_maximally_accessible(a, sep: float = DEFAULT_SEPARATION) -> bool:
    """Whether all eigenspaces are one-dimensional.

    True iff consecutive eigenvalue gaps all exceed sep times the spectral
    norm.  The eigenvalues come from the package eigensolver; ``a`` may be
    the Hermitian matrix or its `linalg.EigenDecomposition`, when one is
    already at hand.
    """
    if not (sep > 0.0):
        raise ValueError("separation threshold must be positive")
    dec = a if isinstance(a, linalg.EigenDecomposition) else linalg.hermitian_eig(a)
    if dec.dim == 1:
        return True
    scale = float(np.abs(dec.eigenvalues).max())
    gaps = np.diff(dec.eigenvalues)
    return bool(np.all(gaps > sep * scale))


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
    # Injectivity must agree with detection, except when coarse values sit
    # inside the detection threshold itself (then the comparison says
    # nothing about the construction).
    separable = True
    if len(cg.coarse_values) >= 2:
        scale = max(abs(u) for u in cg.coarse_values)
        min_gap = min(
            b - a_ for a_, b in zip(cg.coarse_values, cg.coarse_values[1:])
        )
        separable = min_gap > DEFAULT_SEPARATION * scale
    witnesses = []
    if eigen_defect > 1e-10:
        witnesses.append({"kind": "eigenspace", "defect": eigen_defect})
    if separable and maximal != cg.injective:
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
