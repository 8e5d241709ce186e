"""Tests for finite symmetry models, word enumeration, and their checkers.

Group closures are cross-checked against a pairwise-product saturation
oracle.  The bundled twelve-point model is small enough that its word
pairs, kernel words, and built states are verified against hand-composed
permutation products from an independently written translation table.
"""

import itertools
import json
import math

import numpy as np
import pytest

from qastates import linalg
from qastates import symmetry as sym

SEED = 20240817


# ---------------------------------------------------------------------------
# oracles


def mul(p, q):
    """Permutation product, q first."""
    return tuple(p[q[i]] for i in range(len(p)))


def closure_oracle(generators, n):
    """Closure by pairwise-product saturation (different algorithm)."""
    elements = {tuple(range(n))}
    elements.update(tuple(int(x) for x in g) for g in generators)
    changed = True
    while changed:
        changed = False
        for p, q in itertools.product(list(elements), repeat=2):
            r = mul(p, q)
            if r not in elements:
                elements.add(r)
                changed = True
    return tuple(sorted(elements))


S3 = sorted(itertools.permutations(range(3)))
S3_INDEX = {p: i for i, p in enumerate(S3)}
TAU = (1, 0, 2)
RHO = (1, 2, 0)
RHO2 = mul(RHO, RHO)
SIG12 = (0, 2, 1)
SIG02 = (2, 1, 0)


def left(x):
    """Left translation by x on the 12 points 2*index(g) + b."""
    out = [0] * 12
    for g in S3:
        for b in (0, 1):
            out[2 * S3_INDEX[g] + b] = 2 * S3_INDEX[mul(x, g)] + b
    return tuple(out)


@pytest.fixture(scope="module")
def structural():
    return sym.load_model(sym.bundled_model_path("structural_example"))


@pytest.fixture(scope="module")
def failing():
    return sym.load_model(sym.bundled_model_path("designed_failure"))


def commuting_model():
    # Both variables identical, cyclic subgroups, identity transfer.
    return sym.FiniteSymmetryModel(
        phi_size=4,
        variables=(("0", (0, 1, 2, 3)), ("1", (0, 1, 2, 3))),
        distinguished="0",
        generators={"0": ((1, 2, 3, 0),), "1": ((1, 2, 3, 0),)},
        transfers={("0", "1"): (0, 1, 2, 3)},
    )


def single_variable_model():
    return sym.FiniteSymmetryModel(
        phi_size=4,
        variables=(("0", (0, 0, 1, 1)),),
        distinguished="0",
        generators={"0": ((2, 3, 0, 1),)},
    )


def dihedral_model(n, order=("0", "1", "2")):
    """Left translations of D_n on 4n points, built like structural_example.

    Point ``2*index(g) + b`` carries element ``g`` of D_n (acting on the
    n-gon's corners) and a copy bit ``b``; variable "0" reads off the
    element, "1" and "2" are its transfers by a reflection and a rotation.
    ``order`` lists the variables in the order the model stores them.
    """
    rot = tuple((i + 1) % n for i in range(n))
    refl = tuple(-i % n for i in range(n))
    group = closure_oracle([rot, refl], n)
    index = {g: i for i, g in enumerate(group)}
    size = 2 * len(group)

    def left_dn(x):
        out = [0] * size
        for g in group:
            for b in (0, 1):
                out[2 * index[g] + b] = 2 * index[mul(x, g)] + b
        return tuple(out)

    theta0 = tuple(p // 2 for p in range(size))
    k01, k02 = left_dn(refl), left_dn(rot)
    k12 = left_dn(mul(refl, rot))  # refl is an involution: refl^-1 * rot
    gens = (left_dn(rot), left_dn(refl))
    thetas = {
        "0": theta0,
        "1": tuple(theta0[k01[p]] for p in range(size)),
        "2": tuple(theta0[k02[p]] for p in range(size)),
    }
    return sym.FiniteSymmetryModel(
        phi_size=size,
        variables=tuple((label, thetas[label]) for label in order),
        distinguished="0",
        generators={"0": gens, "1": gens, "2": gens},
        transfers={("0", "1"): k01, ("0", "2"): k02, ("1", "2"): k12},
    )


def reference_closure(generators, n):
    """Breadth-first closure through the validating public product."""
    identity = tuple(range(n))
    seen, frontier = {identity}, [identity]
    while frontier:
        frontier = [
            q
            for q in {sym.compose_permutations(g, p) for p in frontier for g in generators}
            if q not in seen
        ]
        seen.update(frontier)
    return tuple(sorted(seen))


def reference_scan(model, max_len):
    """Word scan through the validating public product and inverse.

    Returns (fibers, first_words, words_visited, kernel_count) with the
    scan's dedup rule: one state per (element, image, last subgroup).
    """
    n = model.phi_size
    identity = tuple(range(n))
    alphabet = []
    for label in sorted(model.labels):
        elements = reference_closure(model.generators[label], n)
        forward = model.zero_transfers[label]
        backward = sym.invert_permutation(forward)
        for idx in range(1, len(elements)):
            image = sym.compose_permutations(
                forward, sym.compose_permutations(elements[idx], backward)
            )
            alphabet.append((label, idx, elements[idx], image))
    seen = {(identity, identity, None)}
    first_words = {(identity, identity): ()}
    fibers = {identity: {identity}}
    kernel_count = 0
    queue = [((), identity, identity, None)]
    for letters, element, image, last in queue:
        if len(letters) == max_len:
            continue
        for label, idx, perm, perm_image in alphabet:
            state = (
                sym.compose_permutations(element, perm),
                sym.compose_permutations(image, perm_image),
                label,
            )
            if label == last or state in seen:
                continue
            seen.add(state)
            word = letters + ((label, idx),)
            first_words.setdefault(state[:2], word)
            fibers.setdefault(state[0], set()).add(state[1])
            kernel_count += state[1] == identity
            queue.append((word, *state))
    fibers = {element: tuple(sorted(images)) for element, images in fibers.items()}
    return fibers, first_words, len(seen), kernel_count


def reference_findings(model, max_len):
    """Transfer findings from the reference scan's first words, with the
    candidates sorted by (length, letters)."""
    _, first_words, _, _ = reference_scan(model, max_len)
    findings = []
    for (a, b), target in sorted(model.transfers.items()):
        entries = sorted(
            ((letters, image) for (element, image), letters in first_words.items()
             if element == target),
            key=lambda entry: (len(entry[0]), entry[0]),
        )
        if not entries:
            findings.append(sym.TransferFinding(a, b, "none"))
            continue
        other = next((e for e in entries if e[1] != entries[0][1]), None)
        if other is None:
            findings.append(sym.TransferFinding(a, b, "single", (entries[0],)))
        else:
            findings.append(sym.TransferFinding(a, b, "pair", (entries[0], other)))
    return tuple(findings)


def reference_theorem1(model, max_len, eps):
    """Theorem 1 metrics and witnesses from a Gram matrix per label and a
    phase comparison of every state pair, over the float states of the
    scatter path."""
    states = reference_states(model, reference_kappas(model, max_len))
    defect = 0.0
    for label in {name for name, _, _ in states}:
        rows = np.array([coords for name, _, coords in states if name == label])
        gram = np.conjugate(rows) @ rows.T
        defect = max(defect, float(np.max(np.abs(gram - np.eye(len(rows))))))
    witnesses = [
        {"a": a, "i": i, "b": b, "j": j, "overlap": abs(linalg.inner(u, v))}
        for (a, i, u), (b, j, v) in itertools.combinations(states, 2)
        if linalg.phase_equal(u, v, eps)
    ]
    return defect, witnesses


def reference_zero_transfers(model):
    """Transfer chains from the distinguished variable, composed through
    the validating public product."""
    reached = {model.distinguished: tuple(range(model.phi_size))}
    queue = [model.distinguished]
    for a in queue:
        for (x, y), perm in sorted(model.transfers.items()):
            if x == a and y not in reached:
                reached[y] = sym.compose_permutations(reached[a], perm)
                queue.append(y)
    return reached


def reference_letter_images(model):
    """k_0a * k * k_a0 for every subgroup element, through the validating
    public product and inverse."""
    images = {}
    for label, forward in reference_zero_transfers(model).items():
        backward = sym.invert_permutation(forward)
        images[label] = tuple(
            sym.compose_permutations(forward, sym.compose_permutations(element, backward))
            for element in model.subgroup(label)
        )
    return images


def reference_kappas(model, max_len):
    """(first image)^-1 * (second image) of each canonical pair from the
    distinguished variable, through the validating public functions."""
    kappas = {model.distinguished: tuple(range(model.phi_size))}
    for finding in sym.scan_words(model, max_len).transfer_findings:
        if finding.from_label == model.distinguished and finding.status == "pair":
            (_, image_1), (_, image_2) = finding.words
            kappas[finding.to_label] = sym.compose_permutations(
                sym.invert_permutation(image_1), image_2
            )
    return kappas


def family():
    """The bundled models and D_3..D_6 with the variables stored both in
    label order and reversed."""
    models = {
        name: sym.load_model(sym.bundled_model_path(name))
        for name in ("structural_example", "designed_failure")
    }
    for n in range(3, 7):
        models[f"D{n}"] = dihedral_model(n)
        models[f"D{n}_reversed"] = dihedral_model(n, ("2", "1", "0"))
    return models


def representation_family():
    """The family plus four small models; in two of them subgroup
    elements fix levels, of sizes 1, 2 and 3."""
    models = family()
    models["swap_fixes_levels"] = sym.FiniteSymmetryModel(
        4, (("0", (0, 0, 1, 1)),), "0", {"0": ((1, 0, 2, 3),)}
    )
    models["commuting"] = commuting_model()
    models["single_variable"] = single_variable_model()
    # A 3-cycle inside each of two size-3 levels, their swap, and a fixed point.
    models["mixed_sizes"] = sym.FiniteSymmetryModel(
        7,
        (("0", (0, 0, 0, 1, 1, 1, 2)),),
        "0",
        {"0": ((1, 2, 0, 4, 5, 3, 6), (3, 4, 5, 0, 1, 2, 6))},
    )
    return models


def level_splitting_model():
    """structural_example with a distinguished-subgroup generator that
    splits the level sets of variable "0"."""
    raw = json.loads(sym.bundled_model_path("structural_example").read_text(encoding="utf-8"))
    raw["subgroups"]["0"].append([0, 2, 1, *range(3, 12)])
    return sym.load_model(raw)


def reference_states(model, kappas):
    """Question states through the scatter path: U(kappa^-1)f_i applied by
    the validating representation over all points and projected back onto
    the basis, label by label in the order of ``kappas``.  The
    distinguished label contributes exact unit vectors."""
    basis = sym.hilbert_subspace(model)
    states = []
    for label, kappa in kappas.items():
        inverse = sym.invert_permutation(kappa)
        for i, f in enumerate(basis.functions):
            if label == model.distinguished:
                coords = np.eye(basis.dim, dtype=complex)[i]
            else:
                moved = sym.regular_representation(model, inverse, f)
                coords, residual = basis.coordinates(moved)
                assert residual <= 1e-12
            states.append((label, i, coords))
    return states


def reference_lemma2(model):
    """lemma2 metrics and witnesses from the overlap of f_i with U(k)f_i,
    scattered over all points, for every nontrivial distinguished element."""
    basis = sym.hilbert_subspace(model)
    identity = tuple(range(model.phi_size))
    witnesses, max_overlap, checked = [], 0.0, 0
    for k in model.subgroup(model.distinguished):
        if k == identity:
            continue
        checked += 1
        for i, f in enumerate(basis.functions):
            overlap = abs(linalg.inner(f, sym.regular_representation(model, k, f)))
            max_overlap = max(max_overlap, overlap)
            if overlap > 1.0 - 1e-9:
                witnesses.append(
                    {"permutation": list(k), "level_index": i,
                     "value": basis.values[i], "overlap": overlap}
                )
    return {"elements_checked": checked, "max_self_overlap": max_overlap}, witnesses[:32]


# ---------------------------------------------------------------------------
# permutations and closure


class TestPermutations:
    def test_identity(self):
        assert sym.identity_permutation(3) == (0, 1, 2)
        with pytest.raises(ValueError):
            sym.identity_permutation(0)

    def test_compose_applies_right_factor_first(self):
        # tau after rho on 3 points.
        assert sym.compose_permutations(TAU, RHO) == mul(TAU, RHO)

    def test_invert(self):
        assert sym.invert_permutation(RHO) == RHO2
        assert mul(RHO, sym.invert_permutation(RHO)) == (0, 1, 2)

    def test_invert_random_permutations(self):
        rng = np.random.default_rng(SEED)
        for n in (1, 2, 7, 96):
            p = tuple(int(i) for i in rng.permutation(n))
            inverse = sym.invert_permutation(p)
            assert mul(p, inverse) == mul(inverse, p) == tuple(range(n))

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            sym.compose_permutations((0, 0, 1), (0, 1, 2))
        with pytest.raises(ValueError):
            sym.invert_permutation((1, 2, 3))

    def test_only_integer_entries(self):
        with pytest.raises(ValueError, match=r"permutation\[1\] must be an integer"):
            sym.compose_permutations((0, 1.0, 2), (0, 1, 2))
        with pytest.raises(ValueError, match="must be an integer"):
            sym.invert_permutation((True, False))
        with pytest.raises(ValueError, match="must be a list"):
            sym.invert_permutation(3)
        assert sym.compose_permutations(np.array([1, 0]), [np.int64(1), 0]) == (0, 1)


class TestTrustedPermutationProducts:
    """Products and inverses computed inside the model, mostly without
    validation, must equal the validating public functions on both bundled
    models and on D_3..D_6 (variables stored in either order)."""

    @staticmethod
    def chained(model):
        """The model with only the 0->1 and 1->2 transfers stored, so the
        chain to "2" is a product of two maps."""
        links = {key: model.transfers[key] for key in (("0", "1"), ("1", "2"))}
        return sym.FiniteSymmetryModel(
            model.phi_size, model.variables, model.distinguished, model.generators, links
        )

    def models(self):
        models = family()
        models.update({f"D{n}_chained": self.chained(models[f"D{n}"]) for n in range(3, 7)})
        return models

    def test_zero_transfers(self):
        for name, model in self.models().items():
            assert model.zero_transfers == reference_zero_transfers(model), name

    def test_letter_images(self):
        for name, model in self.models().items():
            assert model._letter_images == reference_letter_images(model), name

    @pytest.mark.parametrize("max_len", [3, sym.WORD_DEPTH_DEFAULT])
    def test_question_state_kappas(self, max_len):
        for name, model in family().items():
            kappas = sym.build_question_states(model, max_len).kappas
            assert kappas == reference_kappas(model, max_len), name


class TestGroupClosure:
    def test_empty_generators_yield_identity(self):
        assert sym.group_closure((), phi_size=3) == ((0, 1, 2),)
        with pytest.raises(ValueError):
            sym.group_closure(())

    def test_three_cycle_gives_order_three(self):
        group = sym.group_closure([RHO])
        assert len(group) == 3
        assert group == closure_oracle([RHO], 3)

    def test_two_transpositions_give_order_six(self):
        group = sym.group_closure([TAU, SIG12])
        assert len(group) == 6
        assert group == tuple(S3)

    @pytest.mark.parametrize(
        "gens,n",
        [
            ([(1, 0, 2, 3), (1, 2, 3, 0)], 4),
            ([(1, 2, 3, 0)], 4),
            ([(0, 2, 1), (1, 0, 2)], 3),
            ([left(TAU), left(RHO)], 12),
        ],
    )
    def test_matches_brute_force_oracle(self, gens, n):
        assert sym.group_closure(gens, n) == closure_oracle(gens, n)

    def test_order_independent_and_idempotent(self):
        gens = [left(TAU), left(RHO)]
        group = sym.group_closure(gens)
        assert sym.group_closure(list(reversed(gens))) == group
        assert sym.group_closure(group) == group

    def test_identity_is_first(self):
        group = sym.group_closure([left(RHO)])
        assert group[0] == sym.identity_permutation(12)

    def test_mismatched_sizes_rejected(self):
        with pytest.raises(ValueError):
            sym.group_closure([TAU, (1, 0, 2, 3)])
        with pytest.raises(ValueError):
            sym.group_closure([TAU], phi_size=4)

    def test_symmetric_group_on_eight_points_completes(self):
        cycle, swap = (1, 2, 3, 4, 5, 6, 7, 0), (1, 0, 2, 3, 4, 5, 6, 7)
        group = sym.group_closure([cycle, swap])
        assert len(group) == math.factorial(8) < sym.CLOSURE_LIMIT
        assert group[0] == sym.identity_permutation(8)

    def test_closure_past_the_limit_names_its_field(self, monkeypatch):
        monkeypatch.setattr(sym, "CLOSURE_LIMIT", 23)
        assert len(sym.group_closure([(1, 2, 3, 0)])) == 4
        with pytest.raises(ValueError, match=r"^generators: .* exceeds 23 elements"):
            sym.group_closure([(1, 2, 3, 0), (1, 0, 2, 3)])
        monkeypatch.setattr(sym, "CLOSURE_LIMIT", 24)
        assert len(sym.group_closure([(1, 2, 3, 0), (1, 0, 2, 3)])) == 24

    def test_model_closures_validate_nothing_again(self, monkeypatch):
        """Generators are validated by the model constructor alone: the
        subgroup, full-group and assumption_2 closures trust them."""
        model = dihedral_model(4)
        calls = []
        validate = sym._as_permutation
        monkeypatch.setattr(
            sym, "_as_permutation", lambda *a, **k: calls.append(a) or validate(*a, **k)
        )
        sym.check_assumptions(model)
        assert model.full_group and model._subgroups
        assert calls == []


# ---------------------------------------------------------------------------
# model construction and files


class TestModelConstruction:
    def test_bundled_models_load(self, structural, failing):
        assert structural.phi_size == 12
        assert structural.labels == ("0", "1", "2")
        assert structural.distinguished == "0"
        assert failing.phi_size == 4
        assert failing.labels == ("0", "1")

    def test_unknown_bundled_name(self):
        with pytest.raises(ValueError, match="structural_example"):
            sym.bundled_model_path("no_such_model")

    def test_reverse_transfers_derived_as_inverses(self, structural):
        forward = structural.transfers[("0", "2")]
        backward = structural.transfers[("2", "0")]
        assert mul(forward, backward) == sym.identity_permutation(12)

    def test_supplied_reverse_must_be_inverse(self):
        with pytest.raises(ValueError, match="mutual inverses"):
            sym.FiniteSymmetryModel(
                phi_size=3,
                variables=(("0", (0, 1, 2)), ("1", (0, 1, 2))),
                distinguished="0",
                generators={},
                transfers={("0", "1"): RHO, ("1", "0"): RHO},
            )

    def test_rejects_bad_structure(self):
        with pytest.raises(ValueError, match="phi_size"):
            sym.FiniteSymmetryModel(0, (("0", ()),), "0", {})
        with pytest.raises(ValueError, match="duplicate"):
            sym.FiniteSymmetryModel(
                2, (("0", (0, 1)), ("0", (0, 1))), "0", {}
            )
        with pytest.raises(ValueError, match="distinguished"):
            sym.FiniteSymmetryModel(2, (("0", (0, 1)),), "9", {})
        with pytest.raises(ValueError, match="unknown variable"):
            sym.FiniteSymmetryModel(2, (("0", (0, 1)),), "0", {"9": ((1, 0),)})
        with pytest.raises(ValueError, match="assigns"):
            sym.FiniteSymmetryModel(2, (("0", (0, 1, 2)),), "0", {})
        with pytest.raises(ValueError, match="itself"):
            sym.FiniteSymmetryModel(
                2, (("0", (0, 1)),), "0", {}, {("0", "0"): (0, 1)}
            )

    def test_load_model_schema_errors(self, tmp_path):
        base = {
            "phi_size": 2,
            "distinguished": 0,
            "variables": [{"label": "0", "theta": [0, 1]}],
        }
        bad = dict(base)
        bad["mystery"] = 1
        with pytest.raises(ValueError, match="unknown fields"):
            sym.load_model(bad)
        with pytest.raises(ValueError, match="phi_size"):
            sym.load_model({"variables": base["variables"]})
        with pytest.raises(ValueError, match="variables"):
            sym.load_model({"phi_size": 2, "variables": [{"label": "0"}]})
        with pytest.raises(ValueError, match="distinguished"):
            sym.load_model({**base, "distinguished": 5})
        with pytest.raises(ValueError, match="at least one variable"):
            sym.FiniteSymmetryModel(2, (), "0", {})
        path = tmp_path / "model.json"
        path.write_text(
            '{"phi_size": 3, "variables": [{"label": "0", "theta": [0, 1]}]}',
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match="assigns"):
            sym.load_model(path)

    def test_transfer_key_splitting(self):
        raw = {
            "phi_size": 2,
            "distinguished": 0,
            "variables": [
                {"label": "a", "theta": [0, 1]},
                {"label": "aa", "theta": [0, 1]},
            ],
            "transfer": {"aaa": [0, 1]},
        }
        with pytest.raises(ValueError, match="unique label pair"):
            sym.load_model(raw)
        raw["variables"][1]["label"] = "b"
        raw["transfer"] = {"ab": [0, 1]}
        model = sym.load_model(raw)
        assert ("a", "b") in model.transfers and ("b", "a") in model.transfers

    def test_subgroup_closure_and_index(self, structural):
        for label in structural.labels:
            group = structural.subgroup(label)
            assert group == closure_oracle(structural.generators[label], 12)
            assert len(group) == 6
        with pytest.raises(ValueError):
            structural.subgroup("9")

    def test_full_group_is_the_translation_group(self, structural):
        assert structural.full_group == tuple(sorted(left(g) for g in S3))


# ---------------------------------------------------------------------------
# structural validation


class TestValidateModel:
    def test_structural_example_passes(self, structural):
        report = sym.validate_model(structural)
        assert report.verdict == "pass"
        assert report.metrics["transfer_violations"] == 0
        assert report.metrics["relabeling_violations"] == 0
        assert report.metrics["partition_violations"] == 0
        # Value ids already agree, so both relabelings are the identity map.
        relabelings = {w["variable"]: w["relabeling"] for w in report.witnesses}
        assert set(relabelings) == {"1", "2"}
        for mapping in relabelings.values():
            assert all(int(k) == v for k, v in mapping.items())

    def test_transfer_relation_checked_pointwise(self, structural):
        # Independent verification of the relation the checker enforces.
        for (a, b), perm in structural.transfers.items():
            theta_a = structural.theta(a)
            theta_b = structural.theta(b)
            for phi in range(12):
                assert theta_b[phi] == theta_a[perm[phi]]

    def test_identity_transfer_same_values_passes(self):
        report = sym.validate_model(commuting_model())
        assert report.verdict == "pass"

    def test_extra_value_breaks_relabeling(self):
        model = sym.FiniteSymmetryModel(
            phi_size=2,
            variables=(("0", (0, 0)), ("1", (0, 1))),
            distinguished="0",
            generators={},
            transfers={("0", "1"): (0, 1)},
        )
        report = sym.validate_model(model)
        assert report.verdict == "fail"
        kinds = {w.get("violation") for w in report.witnesses}
        assert "transfer_relation" in kinds
        assert kinds & {"relabeling_not_injective", "relabeling_range_mismatch"}

    def test_partition_violation_reported(self):
        model = sym.FiniteSymmetryModel(
            phi_size=3,
            variables=(("0", (0, 0, 1)),),
            distinguished="0",
            generators={"0": ((0, 2, 1),)},
        )
        report = sym.validate_model(model)
        assert report.verdict == "fail"
        witness = next(w for w in report.witnesses if "violation" in w)
        assert witness["violation"] == "partition_not_preserved"
        assert witness["variable"] == "0"

    def test_violations_counted_past_witness_cap(self):
        # Neighbouring points share a value and every map shifts by one, so
        # 40 transfer relations fail, then 20 relabelings and 20 partitions.
        size = 40
        theta = tuple(phi // 2 for phi in range(size))
        shift = tuple((phi + 1) % size for phi in range(size))
        model = sym.FiniteSymmetryModel(
            phi_size=size,
            variables=(("0", theta), ("1", theta)),
            distinguished="0",
            generators={"0": (shift,)},
            transfers={("0", "1"): shift},
        )
        expected = [
            {
                "violation": "transfer_relation",
                "from": a,
                "to": b,
                "phi": phi,
                "expected": model.theta(b)[phi],
                "got": model.theta(a)[perm[phi]],
            }
            for (a, b), perm in sorted(model.transfers.items())
            for phi in range(size)
            if model.theta(b)[phi] != model.theta(a)[perm[phi]]
        ]
        report = sym.validate_model(model)
        assert report.verdict == "fail"
        assert report.metrics["transfer_violations"] == len(expected) == 40
        assert report.metrics["relabeling_violations"] == 20
        assert report.metrics["partition_violations"] == 20
        assert list(report.witnesses) == expected[:32]

    def test_designed_failure_fails_with_both_kinds(self, failing):
        report = sym.validate_model(failing)
        assert report.verdict == "fail"
        kinds = {w.get("violation") for w in report.witnesses if "violation" in w}
        assert kinds == {"transfer_relation", "relabeling_not_injective"}
        pointwise = next(
            w for w in report.witnesses if w.get("violation") == "transfer_relation"
        )
        assert pointwise["phi"] == 3
        assert pointwise["expected"] == 2 and pointwise["got"] == 1


# ---------------------------------------------------------------------------
# basis and representation


class TestHilbertSubspace:
    def test_two_level_halves(self):
        model = sym.FiniteSymmetryModel(
            4, (("0", (0, 0, 1, 1)),), "0", {}
        )
        basis = sym.hilbert_subspace(model)
        assert basis.dim == 2
        assert basis.values == (0, 1)
        assert basis.levels == ((0, 1), (2, 3))
        amp = 1.0 / math.sqrt(2.0)
        assert np.allclose(basis.functions[0], [amp, amp, 0, 0])
        assert np.allclose(basis.functions[1], [0, 0, amp, amp])

    def test_mod_three_levels(self):
        model = sym.FiniteSymmetryModel(
            6, (("0", (0, 1, 2, 0, 1, 2)),), "0", {}
        )
        basis = sym.hilbert_subspace(model)
        assert basis.dim == 3
        amp = 1.0 / math.sqrt(2.0)
        for row in basis.functions:
            assert np.isclose(np.max(np.abs(row)), amp)

    def test_gram_is_identity(self, structural):
        basis = sym.hilbert_subspace(structural)
        gram = np.conjugate(basis.functions) @ basis.functions.T
        assert np.max(np.abs(gram - np.eye(basis.dim))) <= 1e-12

    def test_single_value_rejected(self):
        model = sym.FiniteSymmetryModel(2, (("0", (7, 7)),), "0", {})
        with pytest.raises(ValueError, match="at least 2"):
            sym.hilbert_subspace(model)

    def test_coordinates_split_inside_and_outside(self, structural):
        basis = sym.hilbert_subspace(structural)
        inside = basis.functions[2] + 0.5j * basis.functions[4]
        coords, residual = basis.coordinates(inside)
        assert residual <= 1e-12
        assert np.isclose(coords[2], 1.0) and np.isclose(coords[4], 0.5j)
        outside = np.zeros(12, dtype=complex)
        outside[0], outside[1] = 1.0, -1.0
        _, residual = basis.coordinates(outside)
        assert np.isclose(residual, math.sqrt(2.0))


class TestRegularRepresentation:
    def test_identity_leaves_functions_alone(self, structural):
        rng = np.random.default_rng(SEED)
        f = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        out = sym.regular_representation(
            structural, sym.identity_permutation(12), f
        )
        assert np.array_equal(out, f)

    def test_cycle_moves_indicator(self):
        model = sym.FiniteSymmetryModel(
            3, (("0", (0, 1, 2)),), "0", {"0": ((1, 2, 0),)}
        )
        k = (1, 2, 0)
        f = np.array([1.0, 0.0, 0.0], dtype=complex)
        out = sym.regular_representation(model, k, f)
        expected = np.zeros(3, dtype=complex)
        expected[k[0]] = 1.0
        assert np.array_equal(out, expected)

    def test_unitary_on_random_functions(self, structural):
        rng = np.random.default_rng(SEED)
        for k in structural.full_group:
            f = rng.standard_normal(12) + 1j * rng.standard_normal(12)
            out = sym.regular_representation(structural, k, f)
            assert abs(np.linalg.norm(out) - np.linalg.norm(f)) <= 1e-12

    def test_basis_stable_under_distinguished_subgroup(self, structural):
        basis = sym.hilbert_subspace(structural)
        for k in structural.subgroup("0"):
            for i in range(basis.dim):
                moved = sym.regular_representation(structural, k, basis.functions[i])
                _, residual = basis.coordinates(moved)
                assert residual <= 1e-12

    def test_rejects_non_member(self, structural):
        stranger = tuple([1, 0] + list(range(2, 12)))
        with pytest.raises(ValueError, match="closure group"):
            sym.regular_representation(structural, stranger, np.zeros(12))


# ---------------------------------------------------------------------------
# words


class TestWords:
    def test_reduction_merges_and_drops(self, structural):
        group = structural.subgroup("0")
        i_tau = group.index(left(TAU))
        i_rho = group.index(left(RHO))
        assert structural.word([]).is_identity
        assert structural.word([("0", 0)]).is_identity
        assert structural.word([("0", i_tau), ("0", i_tau)]).is_identity
        merged = structural.word([("0", i_tau), ("0", i_rho)])
        assert merged.letters == (("0", group.index(left(mul(TAU, RHO)))),)
        mixed = structural.word([("0", i_tau), ("1", i_rho)])
        assert mixed.letters == (("0", i_tau), ("1", i_rho))

    def test_letter_index_must_be_an_integer(self, structural):
        # A float index used to be truncated: 1.9 read as element 1.
        with pytest.raises(ValueError, match="letter '0' index must be an integer, got 1.9"):
            structural.word([("0", 1.9)])
        with pytest.raises(ValueError, match="letter '0' index must be an integer, got 1.9"):
            sym.word_image(structural, [("0", 1.9)])
        assert structural.word([("0", np.int64(1))]).letters == (("0", 1),)

    def test_letter_index_may_not_be_a_bool(self, structural):
        # True used to be read as element 1.
        with pytest.raises(ValueError, match="letter '0' index must be an integer, got True"):
            structural.word([("0", True)])
        with pytest.raises(ValueError, match="must be an integer, got True"):
            sym.word_image(structural, [("0", True)])

    def test_word_rejects_bad_letters(self, structural):
        with pytest.raises(ValueError, match="unknown variable"):
            structural.word([("9", 1)])
        with pytest.raises(ValueError, match="indexes outside"):
            structural.word([("0", 99)])

    def test_empty_word_image(self, structural):
        element, image = sym.word_image(structural, structural.word([]))
        assert element == image == sym.identity_permutation(12)

    def test_distinguished_letter_maps_to_itself(self, structural):
        group = structural.subgroup("0")
        i_rho = group.index(left(RHO))
        element, image = sym.word_image(structural, [("0", i_rho)])
        assert element == image == left(RHO)

    def test_two_letter_image_hand_composed(self, structural):
        # Letter from subgroup "1" is conjugated through the "01" transfer.
        group = structural.subgroup("1")
        i_rho = group.index(left(RHO))
        element, image = sym.word_image(structural, [("1", i_rho)])
        assert element == left(RHO)
        assert image == left(mul(TAU, mul(RHO, TAU)))
        element, image = sym.word_image(
            structural, [("0", structural.subgroup("0").index(left(TAU))), ("1", i_rho)]
        )
        assert element == mul(left(TAU), left(RHO))
        assert image == mul(left(TAU), left(mul(TAU, mul(RHO, TAU))))

    def test_image_multiplicative_over_concatenation(self, structural):
        rng = np.random.default_rng(SEED)
        labels = structural.labels
        orders = {label: len(structural.subgroup(label)) for label in labels}

        def random_word():
            letters = []
            for _ in range(int(rng.integers(0, 4))):
                label = labels[int(rng.integers(0, len(labels)))]
                letters.append((label, int(rng.integers(1, orders[label]))))
            return structural.word(letters)

        for _ in range(60):
            w1, w2 = random_word(), random_word()
            e1, im1 = sym.word_image(structural, w1)
            e2, im2 = sym.word_image(structural, w2)
            element, image = sym.word_image(structural, sym.concat_words(structural, w1, w2))
            assert element == mul(e1, e2)
            assert image == mul(im1, im2)

    def test_image_stays_in_distinguished_subgroup(self, structural):
        k0 = set(structural.subgroup("0"))
        for label in structural.labels:
            for idx in range(1, len(structural.subgroup(label))):
                _, image = sym.word_image(structural, [(label, idx)])
                assert image in k0


# ---------------------------------------------------------------------------
# multivaluedness scan


class TestWordScan:
    def test_structural_pairs_found_for_all_transfers(self, structural):
        report = sym.detect_multivaluedness(structural)
        assert report.verdict == "pass"
        assert report.metrics["multivalued"] == 1.0
        assert report.metrics["transfer_pairs_found"] == 6
        assert report.metrics["transfer_pairs_total"] == 6

    def test_canonical_pair_is_lex_first(self, structural):
        scan = sym.scan_words(structural, max_len=3)
        finding = next(
            f for f in scan.transfer_findings
            if (f.from_label, f.to_label) == ("0", "1")
        )
        assert finding.status == "pair"
        group = structural.subgroup("0")
        i_tau = group.index(left(TAU))
        (word_1, image_1), (word_2, image_2) = finding.words
        assert word_1 == (("0", i_tau),)
        assert image_1 == left(TAU)
        assert word_2 == (("2", i_tau),)
        assert image_2 == left(mul(RHO, mul(TAU, RHO2)))

    def test_commuting_model_single_valued(self):
        report = sym.detect_multivaluedness(commuting_model())
        assert report.verdict == "undetermined"
        assert report.metrics["multivalued"] == 0.0
        assert all(w["status"] == "single" for w in report.witnesses)
        assert "undetermined at this depth" in report.notes

    def test_single_subgroup_not_multivalued(self):
        report = sym.detect_multivaluedness(single_variable_model())
        assert report.verdict == "pass"
        assert report.metrics["multivalued"] == 0.0
        assert report.metrics["transfer_pairs_total"] == 0

    def test_failing_model_undetermined_and_saturated(self, failing):
        report = sym.detect_multivaluedness(failing)
        assert report.verdict == "undetermined"
        assert report.metrics["saturated"] == 1.0
        assert "exhaustive" in report.notes

    def test_scan_is_deterministic(self):
        first, second = (
            sym.load_model(sym.bundled_model_path("structural_example")) for _ in range(2)
        )
        assert sym.scan_words(first, 4) is not sym.scan_words(second, 4)
        assert sym.scan_words(first, 4) == sym.scan_words(second, 4)

    def test_shared_scan_is_read_only(self, structural):
        scan = sym.scan_words(structural, 4)
        assert sym.scan_words(structural, 4) is scan
        identity = sym.identity_permutation(12)
        images = scan.fibers[identity]
        with pytest.raises(TypeError):
            scan.fibers[identity] = ()
        with pytest.raises(TypeError):
            del scan.first_words[(identity, identity)]
        assert scan.fibers[identity] == images
        assert scan.first_words[(identity, identity)] == ()

    @pytest.mark.parametrize(
        "build",
        [
            lambda: sym.load_model(sym.bundled_model_path("structural_example")),
            lambda: sym.load_model(sym.bundled_model_path("designed_failure")),
            lambda: dihedral_model(4),
        ],
        ids=["structural_example", "designed_failure", "dihedral4"],
    )
    def test_trusted_loops_match_validating_reference(self, build):
        model = build()
        for label in model.labels:
            assert model.subgroup(label) == reference_closure(
                model.generators[label], model.phi_size
            )
        assert model.full_group == reference_closure(
            [*itertools.chain.from_iterable(model.generators.values()),
             *model.transfers.values()],
            model.phi_size,
        )
        scan = sym.scan_words(model, 4)
        fibers, first_words, visited, kernel_count = reference_scan(model, 4)
        assert dict(scan.fibers) == fibers
        assert dict(scan.first_words) == first_words
        assert scan.words_visited == visited
        assert scan.kernel_count == kernel_count

    def test_depth_must_be_positive(self, structural):
        with pytest.raises(ValueError, match="max_len"):
            sym.scan_words(structural, 0)

    def test_depth_must_be_an_integer(self, structural):
        # 3.7 used to run a depth-3 scan.
        with pytest.raises(ValueError, match="max_len must be an integer, got 3.7"):
            sym.scan_words(structural, 3.7)
        with pytest.raises(ValueError, match="max_len must be an integer, got True"):
            sym.scan_words(structural, True)
        assert sym.scan_words(structural, np.int64(3)) is sym.scan_words(structural, 3)

    @pytest.mark.parametrize("max_len", [3, 6])
    def test_findings_take_words_in_length_letter_order(self, max_len):
        # The scan reads its candidate words in recording order; they must
        # come out as if sorted by (length, letters), whatever order the
        # model stores its variables in.
        for name, model in family().items():
            scan = sym.scan_words(model, max_len)
            assert scan.transfer_findings == reference_findings(model, max_len), name


class TestWordKernel:
    def test_structural_kernel_word_verified_by_hand(self, structural):
        report = sym.verify_word_kernel(structural)
        assert report.verdict == "fail"
        witness = report.witnesses[0]
        # Recompute the image of the reported word independently.
        image = sym.identity_permutation(12)
        element = sym.identity_permutation(12)
        transfers = {
            "0": sym.identity_permutation(12),
            "1": left(TAU),
            "2": left(RHO),
        }
        for label, idx in witness["word"]:
            perm = structural.subgroup(label)[idx]
            element = mul(element, perm)
            conj = mul(transfers[label], mul(perm, sym.invert_permutation(transfers[label])))
            image = mul(image, conj)
        assert image == sym.identity_permutation(12)
        assert element == tuple(witness["group_element"])
        assert witness["group_element_nonidentity"] == (
            element != sym.identity_permutation(12)
        )

    def test_failing_model_has_trivial_kernel(self, failing):
        report = sym.verify_word_kernel(failing)
        assert report.verdict == "pass"
        assert report.metrics["kernel_words"] == 0
        assert "exhaustive" in report.notes

    def test_single_subgroup_kernel_trivial(self):
        report = sym.verify_word_kernel(single_variable_model())
        assert report.verdict == "pass"


# ---------------------------------------------------------------------------
# induced transformations


@pytest.fixture(scope="module")
def quad():
    # Full symmetric group on four points over a two-level variable.
    return sym.FiniteSymmetryModel(
        4,
        (("0", (0, 0, 1, 1)),),
        "0",
        {"0": ((1, 0, 2, 3), (1, 2, 3, 0))},
    )


class TestInducedTransformations:
    def test_search_space_is_all_24(self, quad):
        assert len(quad.full_group) == 24

    def test_identity_map_contains_identity(self, quad):
        found = sym.induced_transformations(quad, "0", {0: 0, 1: 1})
        assert sym.identity_permutation(4) in found

    def test_value_swap_has_four_realizations(self, quad):
        found = sym.induced_transformations(quad, "0", {0: 1, 1: 0})
        assert found == (
            (2, 3, 0, 1),
            (2, 3, 1, 0),
            (3, 2, 0, 1),
            (3, 2, 1, 0),
        )
        # The two double transpositions are among them.
        assert (2, 3, 0, 1) in found and (3, 2, 1, 0) in found

    def test_nonexistence_gives_empty(self, structural):
        # Swapping only two of six values cannot be realized by translations.
        mapping = {0: 1, 1: 0, 2: 2, 3: 3, 4: 4, 5: 5}
        assert sym.induced_transformations(structural, "0", mapping) == ()

    def test_value_map_entries_must_be_integers(self, quad):
        # {0.0: 0.9, 1: 1} used to be read as the identity map.
        with pytest.raises(ValueError, match="value_map key must be an integer, got 0.0"):
            sym.induced_transformations(quad, "0", {0.0: 0.9, 1: 1})
        with pytest.raises(ValueError, match=r"value_map\[0\] must be an integer, got 0.9"):
            sym.induced_transformations(quad, "0", {0: 0.9, 1: 1})
        with pytest.raises(ValueError, match="must be an integer, got True"):
            sym.induced_transformations(quad, "0", {0: True, 1: 0})

    def test_rejects_non_permutation_of_range(self, quad):
        with pytest.raises(ValueError, match="permute"):
            sym.induced_transformations(quad, "0", {0: 0, 1: 2})
        with pytest.raises(ValueError, match="permute"):
            sym.induced_transformations(quad, "0", {0: 1})


# ---------------------------------------------------------------------------
# question states


class TestQuestionStates:
    def test_distinguished_states_are_basis_vectors(self, structural):
        built = sym.build_question_states(structural)
        zero_states = [s for s in built.states if s[0] == "0"]
        assert len(zero_states) == 6
        for _, i, level in zero_states:
            assert level == i

    def test_kappas_match_hand_derivation(self, structural):
        built = sym.build_question_states(structural)
        assert built.labels == ("0", "1", "2")
        assert built.kappas["0"] == sym.identity_permutation(12)
        assert built.kappas["1"] == left(RHO)
        assert built.kappas["2"] == left(RHO)
        assert built.skipped == ()
        assert built.degenerate == ()

    def test_states_are_permuted_basis_vectors(self, structural):
        built = sym.build_question_states(structural)
        for label in built.labels:
            levels = [level for name, _, level in built.states if name == label]
            assert sorted(levels) == list(range(built.basis.dim)), label

    def test_translation_action_on_levels(self, structural):
        # kappa = left(RHO): U(kappa^{-1}) moves level g to level rho^2 g.
        built = sym.build_question_states(structural)
        for _, i, level in (s for s in built.states if s[0] == "1"):
            assert level == S3_INDEX[mul(RHO2, S3[i])]

    def test_failing_model_skips_unpaired_label(self, failing):
        built = sym.build_question_states(failing)
        assert built.labels == ("0",)
        assert len(built.states) == 2
        assert built.skipped == (("1", "no distinct-image word pair at depth 6"),)

    @pytest.mark.parametrize("max_len", [3, sym.WORD_DEPTH_DEFAULT])
    def test_states_match_scatter_reference(self, max_len):
        # Each state's level is the reference's peak, and the reference's
        # float product lies within 1e-15 of that level's unit vector.
        for name, model in representation_family().items():
            built = sym.build_question_states(model, max_len)
            expected = reference_states(model, built.kappas)
            assert [s[:2] for s in built.states] == [s[:2] for s in expected], name
            unit = np.eye(built.basis.dim, dtype=complex)
            for (label, i, level), (_, _, want) in zip(built.states, expected):
                assert level == int(np.argmax(np.abs(want))), (name, label, i)
                assert np.max(np.abs(unit[level] - want)) <= 1e-15, (name, label, i)

    def test_rejects_subgroup_splitting_levels(self):
        model = level_splitting_model()
        with pytest.raises(ValueError, match=r'^subgroups\["0"\]: .*level sets'):
            sym.build_question_states(model)
        with pytest.raises(ValueError, match=r'^subgroups\["0"\]: .*level sets'):
            sym.verify_theorem1(model)


# ---------------------------------------------------------------------------
# assumption battery


class TestCheckAssumptions:
    def test_structural_battery(self, structural):
        measure, closure, irreducibility, separation, lemma2 = sym.check_assumptions(
            structural
        )
        assert measure.subject == "assumption_1" and measure.verdict == "pass"
        assert closure.subject == "assumption_2" and closure.verdict == "pass"
        assert closure.metrics["subgroup_closure_order"] == 6
        assert closure.metrics["full_closure_order"] == 6
        assert irreducibility.subject == "assumption_3a"
        assert irreducibility.verdict == "undetermined"
        assert "reducible" in irreducibility.notes
        # S3 has three order-2 and one order-3 cyclic subgroup.
        assert irreducibility.metrics["cyclic_subgroups"] == 4
        assert all(w["finding"] == "reducible" for w in irreducibility.witnesses)
        assert separation.subject == "assumption_3c" and separation.verdict == "fail"
        assert separation.metrics["pairs_failing"] == 30
        assert lemma2.subject == "lemma2" and lemma2.verdict == "pass"
        assert lemma2.metrics["max_self_overlap"] == 0.0

    def test_failing_battery(self, failing):
        measure, closure, irreducibility, separation, lemma2 = sym.check_assumptions(
            failing
        )
        assert measure.verdict == "pass"
        assert closure.verdict == "pass"
        assert irreducibility.verdict == "undetermined"
        assert "reducible" in irreducibility.notes
        assert separation.verdict == "pass"
        assert lemma2.verdict == "fail"
        witness = lemma2.witnesses[0]
        assert witness["permutation"] == [0, 2, 3, 1]
        assert witness["overlap"] > 1.0 - 1e-9

    def test_transfer_outside_subgroups_fails_closure_check(self):
        model = sym.FiniteSymmetryModel(
            phi_size=4,
            variables=(("0", (0, 0, 1, 1)), ("1", (0, 0, 1, 1))),
            distinguished="0",
            generators={"0": ((1, 0, 2, 3),), "1": ((1, 0, 2, 3),)},
            transfers={("0", "1"): (0, 1, 3, 2)},
        )
        _, closure, *_ = sym.check_assumptions(model)
        assert closure.verdict == "fail"
        assert closure.metrics["extra_elements"] > 0
        assert closure.witnesses

    def test_trivial_subgroup_is_vacuous(self):
        model = sym.FiniteSymmetryModel(
            4, (("0", (0, 0, 1, 2)),), "0", {}
        )
        _, _, irreducibility, separation, lemma2 = sym.check_assumptions(model)
        assert irreducibility.verdict == "pass"
        assert "vacuous" in irreducibility.notes
        assert lemma2.verdict == "pass"
        # Level sizes 2, 1, 1: only the equal-size pair fails separation.
        assert separation.verdict == "fail"
        assert separation.metrics["pairs_failing"] == 2

    def test_separation_passes_iff_level_sizes_differ(self):
        distinct = sym.FiniteSymmetryModel(4, (("0", (0, 1, 1, 1)),), "0", {})
        _, _, _, separation, _ = sym.check_assumptions(distinct)
        assert separation.verdict == "pass"
        equal = sym.FiniteSymmetryModel(4, (("0", (0, 0, 1, 1)),), "0", {})
        _, _, _, separation, _ = sym.check_assumptions(equal)
        assert separation.verdict == "fail"
        assert separation.witnesses[0]["level_sizes"] == [2, 2]

        # Level-size patterns at every dimension from 2 to 9: the closed form
        # must agree where S_dim is small enough to enumerate and beyond it.
        for dim in range(2, 10):
            patterns = (
                (list(range(1, dim + 1)), 0),  # all sizes distinct
                (list(range(1, dim)) + [1], 2),  # one size shared by two levels
                ([2] * dim, dim * (dim - 1)),  # all sizes equal
            )
            for sizes, failing in patterns:
                theta = tuple(v for v, size in enumerate(sizes) for _ in range(size))
                model = sym.FiniteSymmetryModel(len(theta), (("0", theta),), "0", {})
                _, _, _, separation, _ = sym.check_assumptions(model)
                assert separation.metrics["dim"] == dim
                assert separation.metrics["pairs_checked"] == dim * (dim - 1)
                assert separation.metrics["pairs_failing"] == failing, sizes
                assert separation.verdict == ("fail" if failing else "pass"), sizes
                assert len(separation.witnesses) == min(failing, 32)
                for w in separation.witnesses:
                    assert sizes[w["i"]] == sizes[w["j"]] and w["i"] != w["j"]

    def test_subgroup_fixing_levels_fails_lemma2(self):
        # The swap fixes both level sets, so it fixes both indicators.
        model = sym.FiniteSymmetryModel(
            4, (("0", (0, 0, 1, 1)),), "0", {"0": ((1, 0, 2, 3),)}
        )
        *_, lemma2 = sym.check_assumptions(model)
        assert lemma2.verdict == "fail"
        assert {w["level_index"] for w in lemma2.witnesses} == {0, 1}

    def test_rejects_subgroup_breaking_levels(self):
        model = sym.FiniteSymmetryModel(
            4, (("0", (0, 0, 1, 1)),), "0", {"0": ((0, 2, 1, 3),)}
        )
        with pytest.raises(ValueError, match="level sets"):
            sym.check_assumptions(model)

    def test_lemma2_matches_scatter_reference(self):
        # The level permutation gives exact overlaps, 1.0 for a kept level
        # and 0.0 otherwise; the scattered float overlaps lie within 1e-15.
        fixed = 0
        for name, model in representation_family().items():
            *_, lemma2 = sym.check_assumptions(model)
            metrics, witnesses = reference_lemma2(model)
            got = lemma2.metrics
            assert got["elements_checked"] == metrics["elements_checked"], name
            assert got["max_self_overlap"] in (0.0, 1.0), name
            assert abs(got["max_self_overlap"] - metrics["max_self_overlap"]) <= 1e-15, name
            key = ("permutation", "level_index", "value")
            assert [[w[k] for k in key] for w in lemma2.witnesses] == [
                [w[k] for k in key] for w in witnesses
            ], name
            for mine, theirs in zip(lemma2.witnesses, witnesses):
                assert mine["overlap"] == 1.0, name
                assert abs(mine["overlap"] - theirs["overlap"]) <= 1e-15, name
            assert lemma2.verdict == ("fail" if witnesses else "pass"), name
            fixed += len(witnesses)
        assert fixed > 0


# ---------------------------------------------------------------------------
# state distinctness


class TestTheorem1:
    def test_structural_collisions_reported(self, structural):
        report = sym.verify_theorem1(structural)
        assert report.verdict == "fail"
        assert report.metrics["states"] == 18
        assert report.metrics["max_gram_defect"] <= 1e-12
        # Every non-distinguished state lands on a basis vector, and the
        # two built labels share their group element, so collisions come in
        # (0,1), (0,2), (1,2) label pairs over six levels each.
        assert report.metrics["collisions"] == 18
        for witness in report.witnesses:
            assert witness["overlap"] >= 1.0 - 1e-9

    def test_collision_witnesses_name_real_collisions(self, structural):
        report = sym.verify_theorem1(structural)
        built = sym.build_question_states(structural)
        lookup = {(label, i): level for label, i, level in built.states}
        for witness in report.witnesses:
            assert lookup[(witness["a"], witness["i"])] == lookup[(witness["b"], witness["j"])]

    @pytest.mark.parametrize("max_len", [2, 3, 6])
    def test_collisions_are_forced(self, max_len):
        # Every built label holds each of the d levels once, so L labels
        # give d*C(L,2) equal-level pairs, and the note says so.
        models = representation_family()
        models.update({f"D{n}": dihedral_model(n) for n in range(7, 11)})
        built_any = 0
        for name, model in models.items():
            report = sym.verify_theorem1(model, max_len)
            built = sym.build_question_states(model, max_len)
            if report.verdict == "undetermined":
                assert built.labels == (model.distinguished,), name
                continue
            built_any += 1
            dim, count = built.basis.dim, len(built.labels)
            forced = dim * math.comb(count, 2)
            assert report.verdict == "fail", name
            assert report.metrics["collisions"] == forced, name
            assert f"{dim}*C({count},2) = {forced} collisions are forced" in report.notes, name
            lookup = {(label, i): level for label, i, level in built.states}
            for w in report.witnesses:
                assert lookup[(w["a"], w["i"])] == lookup[(w["b"], w["j"])], name
        assert built_any > 0

    def test_failing_model_undetermined(self, failing):
        report = sym.verify_theorem1(failing)
        assert report.verdict == "undetermined"
        assert "no distinct-image word pair" in report.notes

    def test_single_variable_model_names_the_reason(self):
        report = sym.verify_theorem1(single_variable_model())
        assert report.verdict == "undetermined"
        assert report.notes == (
            "no non-distinguished states available "
            "(the model has no variable besides the distinguished one)"
        )

    def test_eps_validated(self, structural):
        with pytest.raises(ValueError, match="eps"):
            sym.verify_theorem1(structural, eps=0.0)

    @pytest.mark.parametrize("eps", [1e-9, 0.5])
    def test_matches_pairwise_reference(self, eps):
        for name, model in family().items():
            report = sym.verify_theorem1(model, eps=eps)
            if report.verdict == "undetermined":
                assert name == "designed_failure"
                continue
            defect, witnesses = reference_theorem1(model, sym.WORD_DEPTH_DEFAULT, eps)
            assert report.metrics["max_gram_defect"] == pytest.approx(defect, abs=1e-15), name
            assert report.metrics["collisions"] == len(witnesses), name
            assert len(report.witnesses) == min(len(witnesses), 32), name
            for got, want in zip(report.witnesses, witnesses):
                assert got == {**want, "overlap": pytest.approx(want["overlap"], abs=1e-15)}

    def test_collisions_counted_past_witness_cap(self):
        model = dihedral_model(6)
        report = sym.verify_theorem1(model)
        _, witnesses = reference_theorem1(model, sym.WORD_DEPTH_DEFAULT, 1e-9)
        assert report.metrics["collisions"] == len(witnesses) == 36
        assert len(report.witnesses) == 32
        assert [(w["a"], w["i"], w["b"], w["j"]) for w in report.witnesses] == [
            (w["a"], w["i"], w["b"], w["j"]) for w in witnesses[:32]
        ]
