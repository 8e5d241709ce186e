"""Two-level systems: every ray is a question state, up to a double cover.

A unit 2-vector determines a direction through its Pauli expectations, and
the state built for (that direction, +1/2) recovers the ray.  The demo runs
that round trip, exercises the SU(2) to SO(3) cover map, and shows the one
systematic label collision: reversing the direction and negating the answer
names the same ray.
"""

import numpy as np

from qastates import qubit, spin
from qastates.linalg import inner, phase_equal

rng = np.random.default_rng(11)


def main():
    # Ray -> direction -> ray round trip.
    v = qubit.random_unit_vector(rng)
    a = qubit.bloch_direction(v)
    w = spin.eigenstate_recursion(spin.SpinSystem(0.5), a, 0.5).ket
    print(f"random ray: ({v[0]:.4f}, {v[1]:.4f})")
    print(f"its question direction: ({a.x:+.4f}, {a.y:+.4f}, {a.z:+.4f})")
    print(f"round-trip overlap |<v|w>| = {abs(inner(v, w)):.15f}")

    # The cover map sends matrix products to rotation products, and kills
    # exactly the sign: M and -M land on the same rotation.
    m1, m2 = qubit.random_su2(rng), qubit.random_su2(rng)
    r1 = qubit.su2_to_so3(m1)
    r2 = qubit.su2_to_so3(m2)
    r12 = qubit.su2_to_so3(m1.matrix @ m2.matrix)
    product_defect = float(np.abs(r12.matrix - r1.matrix @ r2.matrix).max())
    r_neg = qubit.su2_to_so3(-m1.matrix)
    kernel_defect = float(np.abs(r_neg.matrix - r1.matrix).max())
    print(f"\ncover map: R(M1 M2) vs R(M1) R(M2) defect {product_defect:.2e}")
    print(f"cover map: R(-M) vs R(M) defect {kernel_defect:.2e}")

    # Rotating the matrix side moves the direction by the rotation image.
    rotated = qubit.bloch_direction(m1.matrix @ v)
    predicted = r1.matrix @ a.as_array()
    geom_defect = float(np.abs(rotated.as_array() - predicted).max())
    print(f"direction transport defect {geom_defect:.2e}")

    # The label collision: (a, h) and (-a, -h) are the same question state.
    system = spin.SpinSystem(1.5)
    h = 0.5
    state = spin.eigenstate_recursion(system, a, h)
    mirror = spin.eigenstate_recursion(system, a.antipode(), -h)
    print(f"\nj=3/2 states for (a, {h:+.1f}) and (-a, {-h:+.1f}):")
    print(f"  phase-equal: {phase_equal(state.ket, mirror.ket)}")
    print(f"  overlap: {abs(inner(state.ket, mirror.ket)):.15f}")

    # Bulk verification of both facts.
    round_trip = qubit.verify_prop2(samples=300, rng=rng)
    cover = qubit.verify_homomorphism(pairs=150, rng=rng)
    collisions = spin.verify_ray_collisions(system, samples=40, rng=rng)
    for rep in (round_trip, cover, collisions):
        print(f"{rep.subject}: {rep.verdict} ({rep.notes.split(';')[0]})")


if __name__ == "__main__":
    main()
