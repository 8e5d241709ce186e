"""Symmetry functions that no command calls, kept for the tests.

`invert_permutation` is the validating public inverse; inside a model,
`qastates.symmetry` inverts permutations it has already validated.
`induced_transformations` lists the closure-group elements that realize a
value permutation of one variable; no checker asks that question.

Only tests import this module.
"""

from __future__ import annotations

from typing import Mapping

from qastates.symmetry import FiniteSymmetryModel, _as_permutation, _integer, _invert


def invert_permutation(p) -> tuple[int, ...]:
    """Inverse permutation."""
    return _invert(_as_permutation(p))


def induced_transformations(
    model: FiniteSymmetryModel, label: str, value_map: Mapping[int, int]
) -> tuple:
    """All closure-group elements realizing a value permutation.

    ``value_map`` must permute the variable's value range.  Returns every
    ``k`` in the model's full closure group with ``value_map[theta(phi)] ==
    theta(k(phi))`` for all ``phi``, in canonical order.  An empty result
    signals nonexistence; more than one element signals non-uniqueness.
    """
    theta = model.theta(label)
    values = set(theta)
    pairs = dict(value_map).items()
    mapping = {_integer(k, "value_map key"): _integer(v, f"value_map[{k!r}]") for k, v in pairs}
    if set(mapping) != values or set(mapping.values()) != values:
        raise ValueError(
            f"value map must permute the range of {label!r}: {sorted(values)}"
        )
    matches = []
    for k in model.full_group:
        if all(mapping[theta[phi]] == theta[k[phi]] for phi in range(model.phi_size)):
            matches.append(k)
    return tuple(matches)
