"""Coarse-graining an accessible variable by merging its outcomes.

A maximal variable attaches one value to each basis direction.  Mapping the
values through a function merges directions into classes; each class is a
question-answer pair supported on a projector.  The demo builds a merge,
checks the projector identities, and shows that maximality survives exactly
when the map never merges.
"""

import numpy as np

from qastates import evariables


def main():
    spec = evariables.EVariableSpec.standard("theta", (1.0, 2.0, 3.0, 4.0, 5.0, 6.0))
    print(f"maximal variable '{spec.name}' with outcomes {spec.values}")

    b = evariables.operator_from_maximal(spec)
    print(f"operator eigenvalues: {np.diag(b).real}")

    # Merge 6 outcomes into 3 by value ranges.
    merging = {1.0: 10.0, 2.0: 10.0, 3.0: 20.0, 4.0: 20.0, 5.0: 30.0, 6.0: 30.0}
    cg, a = evariables.coarse_grain(spec, merging)
    print(f"\nmerged outcomes: {cg.coarse_values}")
    for i, cls in enumerate(cg.classes):
        answered = evariables.interpret(cg, i)
        rank = int(round(np.trace(cg.projectors[i]).real))
        print(
            f"  class {i}: answer {answered.answer:g}, "
            f"basis indices {cls}, projector rank {rank}"
        )

    print(f"\nsum of projectors vs identity: {cg.identity_defect:.2e}")
    eig_defect = max(
        float(np.abs(a @ p - u * p).max())
        for u, p in zip(cg.coarse_values, cg.projectors)
    )
    print(f"eigenspace property A P = u P: {eig_defect:.2e}")

    print(f"\nmerged variable maximal? {evariables.is_maximally_accessible(a)}")
    keeping = {v: 2.0 * v for v in spec.values}
    _, a_kept = evariables.coarse_grain(spec, keeping)
    print(f"relabeled (injective) variable maximal? "
          f"{evariables.is_maximally_accessible(a_kept)}")

    report = evariables.coarse_grain_report(cg, a)
    print(f"\nfull structural check: {report.verdict}")
    for key in ("identity_defect", "orthogonality_defect", "eigenspace_defect"):
        print(f"  {key} = {report.metrics[key]:.2e}")


if __name__ == "__main__":
    main()
