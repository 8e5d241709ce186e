"""Build spin states from (direction, sharp answer) questions.

Two independent routes produce each state: a coefficient recursion that
never diagonalizes anything, and a full eigensolver.  The demo builds a
catalog for one system, compares the routes, and uses the states to
predict measurement statistics.
"""

import numpy as np

from qastates import spin
from qastates.linalg import inner

rng = np.random.default_rng(7)


def main():
    system = spin.SpinSystem(2.0)
    print(f"spin j={system.j}, dimension {system.dim}")
    print(f"possible sharp answers: {system.m_values}")

    a = spin.random_direction(rng)
    print(f"\nquestion: component along a=({a.x:+.3f}, {a.y:+.3f}, {a.z:+.3f})")

    # The oracle diagonalizes once for the direction and serves every answer.
    for h, by_oracle in zip(system.m_values, spin.oracle_catalog(system, a)):
        by_recursion = spin.eigenstate_recursion(system, a, float(h))
        overlap = abs(inner(by_recursion.ket, by_oracle.ket))
        print(
            f"  h={h:+.1f}: residual {by_recursion.residual:.2e}, "
            f"route overlap {overlap:.15f}"
        )

    # The catalog for one direction is a complete orthonormal answer basis.
    catalog = spin.state_catalog(system, a)
    gram = np.array([[inner(s.ket, t.ket) for t in catalog] for s in catalog])
    defect = float(np.abs(gram - np.eye(system.dim)).max())
    print(f"\ncatalog Gram defect vs identity: {defect:.2e}")

    # Preparing one answer and asking along a second direction gives a
    # probability distribution over the second catalog.
    b = spin.random_direction(rng)
    prepared = spin.eigenstate_recursion(system, a, 2.0)
    probs = [
        spin.transition_probability(prepared, spin.eigenstate_recursion(system, b, float(h)))
        for h in system.m_values
    ]
    print(f"\nprepared (a, +2); asking along b=({b.x:+.3f}, {b.y:+.3f}, {b.z:+.3f}):")
    for h, p in zip(system.m_values, probs):
        print(f"  P(h={h:+.1f}) = {p:.6f}")
    print(f"  total = {sum(probs):.12f}")

    # The operators behind the questions close the rotation algebra.
    defects = spin.algebra_defects(system)
    print(f"\ncommutator defect {defects['commutator_defect']:.2e}, "
          f"Casimir defect {defects['casimir_defect']:.2e}")

    report = spin.verify_eigenstates(system, samples=50, rng=rng)
    print(f"\neigenstate verification: {report.verdict} "
          f"(max residual {report.metrics['max_residual']:.2e}, "
          f"min overlap {report.metrics['min_overlap']:.15f})")


if __name__ == "__main__":
    main()
