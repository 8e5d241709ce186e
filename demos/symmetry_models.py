"""Finite symmetry models: transfer maps, formal words, and their checks.

A model is a finite point set with variables (value maps), per-variable
symmetry subgroups, and transfer maps linking the variables.  The demo
loads the two bundled models, walks the word machinery on the structural
one, and runs the full verification battery on both, witnesses included.
"""

from qastates import symmetry
from qastates.report import summarize


def battery(model):
    """Every checker's report, in the order `qastates symmetry check` emits them."""
    measure, closure, irreducibility, separation, lemma2 = symmetry.check_assumptions(model)
    return [
        symmetry.validate_model(model),
        measure,
        closure,
        irreducibility,
        symmetry.detect_multivaluedness(model),
        separation,
        lemma2,
        symmetry.verify_word_kernel(model),
        symmetry.verify_theorem1(model),
    ]


def main():
    structural = symmetry.load_model(symmetry.bundled_model_path("structural_example"))
    failing = symmetry.load_model(symmetry.bundled_model_path("designed_failure"))

    print(f"structural example: {structural.phi_size} points, "
          f"variables {structural.labels}, "
          f"|K0| = {len(structural.subgroup(structural.distinguished))}")

    # Words multiply subgroup elements across variables; transfers conjugate
    # them back to the distinguished subgroup, so a word has both a group
    # element (its evaluation) and an image there.
    scan = symmetry.scan_words(structural, max_len=4)
    print(f"\nword scan to length 4: {scan.words_visited} reduced words, "
          f"saturated={scan.saturated}")
    for finding in scan.transfer_findings:
        print(f"  transfer {finding.from_label}->{finding.to_label}: {finding.status}")

    # A "pair" status exhibits genuine multivaluedness: two words with the
    # same evaluation but different images.
    pair = next(f for f in scan.transfer_findings if f.status == "pair")
    (w1, im1), (w2, im2) = pair.words
    print(f"\ncanonical pair for {pair.from_label}->{pair.to_label}:")
    print(f"  word {w1} has image {im1}")
    print(f"  word {w2} has image {im2}")

    # States built from the pairs, one per (variable, level).
    states = symmetry.build_question_states(structural)
    print(f"\nquestion states: {len(states.states)} built over "
          f"{states.basis.dim} basis levels; skipped={states.skipped}")

    for name, model in (("structural_example", structural),
                        ("designed_failure", failing)):
        reports = battery(model)
        print(f"\n{name} battery:")
        print("  " + summarize(reports).replace("\n", "\n  "))

    # The designed failure carries concrete witnesses, not just verdicts.
    lemma1 = symmetry.validate_model(failing)
    print("\ndesigned_failure lemma1 witnesses:")
    for w in lemma1.witnesses:
        print(f"  {w}")


if __name__ == "__main__":
    main()
