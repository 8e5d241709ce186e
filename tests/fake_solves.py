"""Fake eigendecompositions planted at the oracle's one solve seam.

Every eigensolver call of the package goes through
`linalg.hermitian_eigs`, by that name: `spin._oracle_states` calls it on a
stack of component operators, one direction or many, and
`linalg.hermitian_eig`, which `float_reference.oracle_states` calls, is
its stack of one.  So one fake planted there reaches them all.
"""

from qastates import linalg


def plant_eig(patch, fake):
    """Put a stand-in for `linalg.hermitian_eigs` in place through the
    monkeypatch `patch`: each matrix of a stack gets `fake(matrix)`, so a
    per-matrix stand-in for `linalg.hermitian_eig` serves every solve."""
    patch.setattr(linalg, "hermitian_eigs", lambda stack: [fake(a) for a in stack])
