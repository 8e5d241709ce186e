"""Acceptance criteria, one test per criterion with pinned tolerances.

These are the package's contract: seeded sampling sizes, tolerance
thresholds, and runtime ceilings are fixed here and must not be loosened.
The conftest hook prints one PASS/FAIL line per criterion after the run.
"""

import itertools
import json
import time
from pathlib import Path

import numpy as np

import float_reference
from qastates import cli, evariables, qubit, spin, symmetry

SEED = 0
TESTED_SPINS = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
GOLDEN = Path(__file__).parent / "golden" / "battery.json"


def closure_oracle(generators, n):
    elements = {tuple(range(n))}
    elements.update(tuple(int(x) for x in g) for g in generators)
    changed = True
    while changed:
        changed = False
        for p, q in itertools.product(list(elements), repeat=2):
            r = tuple(p[q[i]] for i in range(n))
            if r not in elements:
                elements.add(r)
                changed = True
    return tuple(sorted(elements))


def bundled_models():
    return [
        symmetry.load_model(symmetry.bundled_model_path(name))
        for name in ("structural_example", "designed_failure")
    ]


def all_symmetry_reports(model):
    battery = symmetry.check_assumptions(model)
    return [
        symmetry.validate_model(model),
        *battery,
        symmetry.detect_multivaluedness(model),
        symmetry.verify_word_kernel(model),
        symmetry.verify_theorem1(model),
    ]


def test_existence_uniqueness_recursion_vs_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(SEED)
    for j in TESTED_SPINS:
        system = spin.SpinSystem(j)
        report = spin.verify_eigenstates(system, samples=100, eps=1e-9, rng=rng)
        assert report.verdict == "pass", report.notes
        assert report.metrics["max_residual"] <= 1e-9
        assert report.metrics["min_overlap"] >= 1.0 - 1e-9
    assert time.monotonic() - start <= 60.0


def test_spin_algebra_commutators_and_casimir():
    for j in TESTED_SPINS:
        defects = spin.algebra_defects(spin.SpinSystem(j))
        assert defects["commutator_defect"] <= 1e-11
        assert defects["casimir_defect"] <= 1e-10


def test_per_direction_completeness():
    rng = np.random.default_rng(SEED)
    for j in TESTED_SPINS:
        system = spin.SpinSystem(j)
        report = spin.verify_orthogonality(system, samples=100, eps=1e-9, rng=rng)
        assert report.verdict == "pass", report.notes
        assert report.metrics["max_gram_defect"] <= 1e-9


def test_bloch_round_trip_and_cover_map():
    rng = np.random.default_rng(SEED)
    round_trip = qubit.verify_prop2(samples=1000, eps=1e-9, rng=rng)
    assert round_trip.verdict == "pass", round_trip.notes
    assert round_trip.metrics["worst_overlap_deficit"] <= 1e-9
    cover = qubit.verify_homomorphism(pairs=500, eps=1e-10, rng=rng)
    assert cover.verdict == "pass", cover.notes
    assert cover.metrics["max_homomorphism_deviation"] <= 1e-10
    assert cover.metrics["kernel_deviation"] <= 1e-12


def test_ray_collisions_two_to_one_and_distinctness():
    rng = np.random.default_rng(SEED)
    collisions = 0
    for j in (0.5, 1.0, 1.5, 2.0):
        system = spin.SpinSystem(j)
        report = spin.verify_ray_collisions(system, samples=25, eps=1e-9, rng=rng)
        assert report.verdict == "pass", report.notes
        for witness in report.witnesses:
            assert witness["mirror_overlap"] >= 1.0 - 1e-9
        collisions += len(report.witnesses)
    assert collisions == 100
    # The finding is recorded in the golden battery.
    battery = json.loads(GOLDEN.read_text(encoding="utf-8"))
    recorded = [
        r
        for section in battery["sections"]
        for r in section["reports"]
        if r["subject"] == "cor2"
    ]
    assert len(recorded) == 4
    assert all(r["verdict"] == "pass" and r["witnesses"] for r in recorded)
    assert all("two-to-one" in r["notes"] for r in recorded)


def test_coarse_graining_projector_identities():
    rng = np.random.default_rng(SEED)
    for _ in range(50):
        d = int(rng.integers(2, 9))
        values = np.cumsum(0.1 + rng.uniform(0.0, 1.0, size=d))
        gaussian = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        q, _ = np.linalg.qr(gaussian)
        spec = evariables.EVariableSpec(
            "theta", tuple(values), tuple(q[:, k] for k in range(d))
        )

        classes = int(rng.integers(1, d))
        labels = np.concatenate(
            [np.arange(classes), rng.integers(0, classes, size=d - classes)]
        )
        rng.shuffle(labels)
        coarse = np.cumsum(0.5 + rng.uniform(0.0, 1.0, size=classes))
        merging = {v: float(coarse[c]) for v, c in zip(spec.values, labels)}

        cg, a = evariables.coarse_grain(spec, merging)
        report = evariables.coarse_grain_report(cg, a)
        assert report.verdict == "pass", report.notes
        assert report.metrics["identity_defect"] <= 1e-11
        assert report.metrics["orthogonality_defect"] <= 1e-11
        assert report.metrics["eigenspace_defect"] <= 1e-10
        assert report.metrics["injective"] == 0.0
        assert evariables.is_maximally_accessible(a) == cg.injective

        keeping = {v: v for v in spec.values}
        control = evariables.coarse_grain_report(*evariables.coarse_grain(spec, keeping))
        assert control.verdict == "pass", control.notes
        assert control.metrics["injective"] == 1.0
        _, b = evariables.coarse_grain(spec, keeping)
        assert evariables.is_maximally_accessible(b)


def test_finite_model_machinery():
    start = time.monotonic()
    structural, failing = bundled_models()
    rng = np.random.default_rng(SEED)

    for model in (structural, failing):
        assert model.phi_size <= 12
        for label in model.labels:
            assert model.subgroup(label) == closure_oracle(
                model.generators[label], model.phi_size
            )
        everything = [g for label in model.labels for g in model.generators[label]]
        everything.extend(model.transfers.values())
        assert model.full_group == closure_oracle(everything, model.phi_size)

    # Pointwise transfer relations and the value relabeling hold where claimed.
    report = symmetry.validate_model(structural)
    assert report.verdict == "pass", report.notes
    for (a, b), perm in structural.transfers.items():
        theta_a, theta_b = structural.theta(a), structural.theta(b)
        for phi in range(structural.phi_size):
            assert theta_b[phi] == theta_a[perm[phi]]

    # The representation is unitary and keeps the level span stable.
    for model in (structural, failing):
        basis = float_reference.hilbert_subspace(model)
        for k in model.full_group:
            f = rng.standard_normal(model.phi_size) + 1j * rng.standard_normal(
                model.phi_size
            )
            moved = float_reference.regular_representation(model, k, f)
            assert abs(np.linalg.norm(moved) - np.linalg.norm(f)) <= 1e-12
        for k in model.subgroup(model.distinguished):
            for i in range(basis.dim):
                _, residual = basis.coordinates(
                    float_reference.regular_representation(model, k, basis.functions[i])
                )
                assert residual <= 1e-12

    # Word images are multiplicative on 200 random pairs.
    labels = structural.labels
    orders = {label: len(structural.subgroup(label)) for label in labels}

    def random_word():
        letters = []
        for _ in range(int(rng.integers(0, 4))):
            label = labels[int(rng.integers(0, len(labels)))]
            letters.append((label, int(rng.integers(1, orders[label]))))
        return structural.word(letters)

    for _ in range(200):
        w1, w2 = random_word(), random_word()
        e1, im1 = symmetry.word_image(structural, w1)
        e2, im2 = symmetry.word_image(structural, w2)
        element, image = symmetry.word_image(structural, structural.word(w1 + w2))
        assert element == symmetry.compose_permutations(e1, e2)
        assert image == symmetry.compose_permutations(im1, im2)

    # The designed-failure model fails exactly the expected subjects.
    reports = all_symmetry_reports(failing)
    verdicts = {r.subject: r.verdict for r in reports}
    assert sorted(s for s, v in verdicts.items() if v == "fail") == [
        "lemma1",
        "lemma2",
    ]
    lemma2 = next(r for r in reports if r.subject == "lemma2")
    assert lemma2.witnesses

    # The reducibility finding appears for every bundled model with a
    # nontrivial distinguished subgroup over at least two levels.
    for model in (structural, failing):
        basis = float_reference.hilbert_subspace(model)
        assert basis.dim >= 2
        assert len(model.subgroup(model.distinguished)) > 1
        battery = symmetry.check_assumptions(model)
        irreducibility = next(r for r in battery if r.subject == "assumption_3a")
        assert "reducible" in irreducibility.notes
        assert all(w["finding"] == "reducible" for w in irreducibility.witnesses)

    assert time.monotonic() - start <= 30.0


def test_determinism_byte_identical_reports():
    first, _ = cli.golden_battery(SEED)
    second, _ = cli.golden_battery(SEED)
    text_1 = cli.render_payload(first)
    text_2 = cli.render_payload(second)
    assert text_1 == text_2
    assert text_1.encode("utf-8") == GOLDEN.read_bytes()
