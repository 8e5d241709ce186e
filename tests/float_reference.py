"""Float reference for the symmetry engine's integer level structure.

`qastates.symmetry` decides every representation claim on integers: a
level set stands for its normalized indicator function, and a level
permutation for the regular representation of a group element on their
span.  This module materializes those objects as complex numpy arrays, with
its own level computation, so tests can compare the integer answers against
the functions they stand for.  Only tests import it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from qastates.linalg import norm
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
        residual = norm(vec - self.functions.T @ coeffs)
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
