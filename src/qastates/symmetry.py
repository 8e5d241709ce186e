"""Finite symmetry models over a discrete configuration space.

A model carries a finite configuration set, several integer-valued variables
on it, a permutation group per variable that respects that variable's level
sets, and transfer permutations linking every variable to a distinguished
one.  From this data the module materializes the function space spanned by
the distinguished variable's normalized level indicators, the regular
representation of the permutation groups on it, and formal words over the
subgroups whose group images reveal whether the transfer structure is
genuinely multivalued.  Structural checkers reduce each property to a
:class:`~qastates.report.VerificationReport`.

Permutations are image tuples: ``p[i]`` is where ``i`` goes.  Products
follow function composition, so ``compose_permutations(p, q)`` applies ``q``
first.

Permutations are validated once, at the model boundary: model construction
and the public permutation functions reject anything but integer bijections
and name the offending model-file field.  Inside the model, products,
inverses and closures are computed unchecked (`_compose`, `_invert`,
`_closure`), except in `zero_transfers` and `build_question_states`'
kappas, whose products the benchmark counts as
`symmetry.compose_permutations` calls.  A closure stops past
`CLOSURE_LIMIT` elements with an error naming its generators' model-file
field.  The word scan runs once per (model, depth) and its read-only result
is shared by every checker.
The distinguished subgroup acts on the level span by permuting the level
indicators.  Each model builds one level structure, once: the level basis
and a level permutation per distinguished-subgroup element
(`FiniteSymmetryModel._levels`).  It is the only encoding of the action
that the representation checkers read, so each refuses a model whose
distinguished subgroup splits a level set, before any word scan.  Lemma 2
is exact: an element fixes a basis function (overlap 1) iff it keeps that
level.  A question state is a level index, each built label holding the
levels permuted by one element, so Theorem 1 counts equal-level pairs.
The float functions (`HilbertBasis.functions`) are the tests' reference.
"""

from __future__ import annotations

import itertools
import json
import math
import types
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from importlib import resources
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

# `inner` is unused here, but the benchmark tracer patches `symmetry.inner`;
# it goes when the trace moves into the package.
from .linalg import inner, norm
from .report import VerificationReport, check_eps

# Default breadth-first word enumeration depth.
WORD_DEPTH_DEFAULT = 6

# Witness records stored per report; totals always appear in metrics.
_WITNESS_CAP = 32

# Largest group a closure may list (S_8 has 40,320 elements); beyond it a
# model is refused instead of held element by element.
CLOSURE_LIMIT = 100_000


# ---------------------------------------------------------------------------
# permutations


def identity_permutation(size: int) -> tuple[int, ...]:
    """The identity permutation on ``size`` points."""
    if size < 1:
        raise ValueError(f"permutation size must be positive, got {size}")
    return tuple(range(size))


def _integer(value, field: str) -> int:
    """A Python, JSON or numpy integer as an int; bools and floats are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{field} must be an integer, got {value!r}")
    return int(value)


def _entries(value, field: str) -> list:
    """Items of a list-like field; strings and mappings are rejected."""
    if isinstance(value, (str, bytes, Mapping)) or not isinstance(value, Iterable):
        raise ValueError(f"{field} must be a list, got {value!r}")
    return list(value)


def _integers(value, field: str) -> tuple[int, ...]:
    return tuple(_integer(x, f"{field}[{i}]") for i, x in enumerate(_entries(value, field)))


def _as_permutation(
    value, size: int | None = None, field: str = "permutation"
) -> tuple[int, ...]:
    """Validate an image array and return it as a tuple of ints.

    ``field`` names the value in error messages.
    """
    perm = _integers(value, field)
    if size is not None and len(perm) != size:
        raise ValueError(f"{field} acts on {len(perm)} points, expected {size}")
    if sorted(perm) != list(range(len(perm))):
        raise ValueError(
            f"{field} is not a bijection on {{0..{len(perm) - 1}}}: {list(perm)}"
        )
    return perm


def _compose(p: tuple, q: tuple) -> tuple[int, ...]:
    """Product p*q of permutations already validated on the same points."""
    return tuple(map(p.__getitem__, q))


def _invert(p: tuple) -> tuple[int, ...]:
    """Inverse of a permutation already validated: the points sorted by image."""
    return tuple(sorted(range(len(p)), key=p.__getitem__))


def compose_permutations(p, q) -> tuple[int, ...]:
    """Product p*q acting as the function composition p after q."""
    p = _as_permutation(p)
    return _compose(p, _as_permutation(q, len(p)))


def invert_permutation(p) -> tuple[int, ...]:
    """Inverse permutation."""
    return _invert(_as_permutation(p))


def group_closure(generators: Iterable, phi_size: int | None = None) -> tuple:
    """Smallest permutation group containing the generators.

    Returns the closure under composition and inverse, including the
    identity, sorted lexicographically on the image arrays.  ``phi_size``
    is required when the generator list is empty and must agree with the
    generators otherwise.  A closure of more than ``CLOSURE_LIMIT``
    elements raises ValueError.
    """
    gens = [_as_permutation(g) for g in generators]
    if gens:
        size = len(gens[0])
        for g in gens:
            if len(g) != size:
                raise ValueError("generators act on different point counts")
        if phi_size is not None and phi_size != size:
            raise ValueError(f"generators act on {size} points, expected {phi_size}")
    else:
        if phi_size is None:
            raise ValueError("empty generator list needs an explicit phi_size")
        size = _integer(phi_size, "phi_size")
    return _closure(gens, size, "generators")


def _closure(gens: Sequence[tuple], size: int, field: str) -> tuple:
    """`group_closure` of generators already validated on ``size`` points.

    ``field`` names the generators' model-file field in the error raised
    when the closure outgrows ``CLOSURE_LIMIT``.
    """
    identity = identity_permutation(size)
    seen = {identity}
    frontier = [identity]
    while frontier:
        new: list[tuple[int, ...]] = []
        for p in frontier:
            for g in gens:
                q = _compose(g, p)
                if q not in seen:
                    if len(seen) == CLOSURE_LIMIT:
                        raise ValueError(
                            f"{field}: the closure of these generators exceeds "
                            f"{CLOSURE_LIMIT} elements"
                        )
                    seen.add(q)
                    new.append(q)
        frontier = new
    return tuple(sorted(seen))


# ---------------------------------------------------------------------------
# model


def _variable_labels(variables: Sequence) -> tuple[str, ...]:
    """Labels of ``(label, theta)`` pairs: distinct nonempty strings."""
    labels: list[str] = []
    for pos, (label, _) in enumerate(variables):
        if not isinstance(label, str) or not label:
            raise ValueError(
                f"variables[{pos}].label must be a nonempty string, got {label!r}"
            )
        if label in labels:
            raise ValueError(f"variables[{pos}].label: duplicate variable label {label!r}")
        labels.append(label)
    return tuple(labels)


def _split_transfer_key(key: str, labels: Sequence[str]) -> tuple[str, str]:
    """Resolve a concatenated transfer key like "01" into its label pair."""
    options = [
        (key[:cut], key[cut:])
        for cut in range(1, len(key))
        if key[:cut] in labels and key[cut:] in labels
    ]
    if len(options) != 1:
        raise ValueError(f"transfer key {key!r} does not split into a unique label pair")
    a, b = options[0]
    if a == b:
        raise ValueError(f"transfer key {key!r} links a variable to itself")
    return a, b


@dataclass(frozen=True)
class FiniteSymmetryModel:
    """Immutable finite model: variables, subgroups, and transfer maps.

    ``variables`` is an ordered tuple of ``(label, values)`` pairs where
    ``values[phi]`` is the integer value the variable takes at point
    ``phi``.  ``generators`` maps each label to the generating permutations
    of its subgroup.  ``transfers`` maps a directed label pair ``(a, b)``
    to a permutation ``k`` satisfying ``values_b[phi] == values_a[k[phi]]``;
    the reverse direction is derived as the inverse when absent, and a
    supplied reverse must be that inverse.

    Every integer is checked here, once: only ints and numpy integers are
    accepted.  Errors name the field by its model-file path (see
    :func:`load_model`), such as ``variables[0].theta`` or
    ``subgroups["0"][1]``.
    """

    phi_size: int
    variables: tuple
    distinguished: str
    generators: Mapping[str, tuple]
    transfers: Mapping[tuple, tuple] = field(default_factory=dict)

    def __post_init__(self) -> None:
        size = _integer(self.phi_size, "phi_size")
        if size < 1:
            raise ValueError(f"phi_size must be positive, got {self.phi_size}")
        object.__setattr__(self, "phi_size", size)

        seen_labels = set(_variable_labels(self.variables))
        cleaned = []
        for pos, (label, values) in enumerate(self.variables):
            theta = _integers(values, f"variables[{pos}].theta")
            if len(theta) != size:
                raise ValueError(
                    f"variables[{pos}].theta assigns {len(theta)} values, expected {size}"
                )
            cleaned.append((label, theta))
        if not cleaned:
            raise ValueError("a model needs at least one variable")
        object.__setattr__(self, "variables", tuple(cleaned))

        if self.distinguished not in seen_labels:
            raise ValueError(f"distinguished label {self.distinguished!r} is not a variable")

        gens: dict[str, tuple] = {}
        for label, perms in dict(self.generators).items():
            where = f"subgroups[{json.dumps(label)}]"
            if label not in seen_labels:
                raise ValueError(f"{where}: names unknown variable {label!r}")
            gens[label] = tuple(
                _as_permutation(p, size, f"{where}[{i}]")
                for i, p in enumerate(_entries(perms, where))
            )
        for label in seen_labels:
            gens.setdefault(label, ())
        object.__setattr__(self, "generators", gens)

        transfers: dict[tuple, tuple] = {}
        for key, perm in dict(self.transfers).items():
            a, b = key
            if a not in seen_labels or b not in seen_labels:
                raise ValueError(f"transfer ({a!r}, {b!r}) names an unknown variable")
            if a == b:
                raise ValueError(f"transfer ({a!r}, {b!r}) links a variable to itself")
            transfers[(a, b)] = _as_permutation(perm, size, f"transfer[{json.dumps(a + b)}]")
        for (a, b), perm in list(transfers.items()):
            reverse = _invert(perm)
            stored = transfers.get((b, a))
            if stored is None:
                transfers[(b, a)] = reverse
            elif stored != reverse:
                raise ValueError(
                    f"transfers ({a!r}, {b!r}) and ({b!r}, {a!r}) are not mutual inverses"
                )
        object.__setattr__(self, "transfers", transfers)

    # -- structure ---------------------------------------------------------

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.variables)

    def theta(self, label: str) -> tuple[int, ...]:
        """Value assignment of one variable."""
        for name, values in self.variables:
            if name == label:
                return values
        raise ValueError(f"unknown variable label {label!r}")

    @cached_property
    def _subgroups(self) -> dict[str, tuple]:
        return {
            label: _closure(
                self.generators[label], self.phi_size, f"subgroups[{json.dumps(label)}]"
            )
            for label in self.labels
        }

    def subgroup(self, label: str) -> tuple:
        """Closure of one variable's subgroup, in canonical order."""
        if label not in self._subgroups:
            raise ValueError(f"unknown variable label {label!r}")
        return self._subgroups[label]

    @cached_property
    def _word_scans(self) -> dict[int, "WordScan"]:
        """Word scans already run on this model, keyed by depth."""
        return {}

    @cached_property
    def _element_index(self) -> dict[str, dict[tuple, int]]:
        return {
            label: {perm: idx for idx, perm in enumerate(elements)}
            for label, elements in self._subgroups.items()
        }

    @cached_property
    def full_group(self) -> tuple:
        """Closure of every subgroup generator and transfer map."""
        gens: list[tuple] = []
        for label in self.labels:
            gens.extend(self.generators[label])
        gens.extend(self.transfers.values())
        return _closure(gens, self.phi_size, "subgroups and transfer")

    @cached_property
    def _full_set(self) -> frozenset:
        return frozenset(self.full_group)

    @cached_property
    def zero_transfers(self) -> dict[str, tuple]:
        """Per label, a permutation k with theta_label == theta_0 o k.

        Composed along stored transfer edges from the distinguished
        variable; labels without a transfer chain are absent.
        """
        start = self.distinguished
        reached = {start: identity_permutation(self.phi_size)}
        queue = deque([start])
        while queue:
            a = queue.popleft()
            for (x, y), perm in sorted(self.transfers.items()):
                if x == a and y not in reached:
                    reached[y] = compose_permutations(reached[a], perm)
                    queue.append(y)
        return reached

    @cached_property
    def _levels(self) -> tuple["HilbertBasis", dict]:
        """The level basis and the level permutation of every
        distinguished-subgroup element, built once per model.

        The representation checkers need the distinguished subgroup to act on
        the level sets; a model violating that is rejected outright.  Element
        ``k`` maps level ``i`` onto level ``actions[k][i]``, so ``U(k)f_i`` is
        exactly that level's indicator.
        """
        basis = hilbert_subspace(self)
        level_index = {phi: i for i, level in enumerate(basis.levels) for phi in level}
        actions = {}
        for k in self.subgroup(self.distinguished):
            targets = [{level_index[k[phi]] for phi in level} for level in basis.levels]
            if any(len(t) != 1 for t in targets):
                raise ValueError(
                    f"subgroups[{json.dumps(self.distinguished)}]: "
                    "a distinguished-subgroup element does not permute the "
                    "distinguished level sets; representation checks are undefined"
                )
            actions[k] = tuple(t.pop() for t in targets)
        return basis, actions

    @cached_property
    def _letter_images(self) -> dict[str, tuple]:
        """Per label, the image in the distinguished subgroup of each element.

        Element ``k`` of subgroup ``a`` maps to ``k_0a * k * k_a0``.  Every
        image must land in the distinguished subgroup's closure; a model
        violating that cannot support the word machinery.
        """
        k0_set = frozenset(self.subgroup(self.distinguished))
        images: dict[str, tuple] = {}
        for label in self.labels:
            forward = self.zero_transfers.get(label)
            if forward is None:
                continue
            backward = _invert(forward)
            row = []
            for idx, element in enumerate(self.subgroup(label)):
                image = _compose(forward, _compose(element, backward))
                if image not in k0_set:
                    raise ValueError(
                        f"subgroups[{json.dumps(label)}]: element {idx} of subgroup {label!r} "
                        "maps outside the distinguished subgroup closure; the model "
                        "cannot support word images"
                    )
                row.append(image)
            images[label] = tuple(row)
        return images

    def _images_for(self, label: str) -> tuple:
        images = self._letter_images.get(label)
        if images is None:
            raise ValueError(
                f"transfer: no transfer chain from {self.distinguished!r} to {label!r}; "
                "word letters over that subgroup are undefined"
            )
        return images

    # -- words -------------------------------------------------------------

    def _letter(self, entry) -> tuple[str, int, tuple]:
        """A ``(label, index)`` letter checked against its subgroup, with
        that subgroup's elements."""
        label, idx = entry
        elements = self.subgroup(label)
        idx = _integer(idx, f"letter {label!r} index")
        if not 0 <= idx < len(elements):
            raise ValueError(
                f"letter ({label!r}, {idx}) indexes outside the subgroup "
                f"of order {len(elements)}"
            )
        return label, idx, elements

    def word(self, letters: Iterable) -> "GroupWord":
        """Validated, reduced word over this model's subgroups.

        Identity letters are dropped and adjacent letters from the same
        subgroup are composed inside it, so distinct stored words are
        genuinely distinct formal products.
        """
        stack: list[tuple[str, int]] = []
        for entry in letters:
            label, idx, elements = self._letter(entry)
            if idx == 0:
                continue
            if stack and stack[-1][0] == label:
                prev_label, prev_idx = stack.pop()
                merged = _compose(elements[prev_idx], elements[idx])
                midx = self._element_index[label][merged]
                if midx != 0:
                    stack.append((label, midx))
            else:
                stack.append((label, idx))
        return GroupWord(tuple(stack))


@dataclass(frozen=True)
class GroupWord:
    """Reduced formal product of subgroup elements.

    Letters are ``(label, element index)`` pairs where the index points
    into the subgroup's canonical closure order (index 0 is the identity
    and never appears in a reduced word).  Build instances through
    :meth:`FiniteSymmetryModel.word` so reduction is enforced.
    """

    letters: tuple = ()

    def __len__(self) -> int:
        return len(self.letters)

    @property
    def is_identity(self) -> bool:
        return not self.letters


def concat_words(model: FiniteSymmetryModel, first: GroupWord, second: GroupWord) -> GroupWord:
    """Concatenation of two words, reduced in the model."""
    return model.word(first.letters + second.letters)


def word_image(model: FiniteSymmetryModel, word) -> tuple[tuple, tuple]:
    """Evaluate a word to its group element and its transferred image.

    Returns ``(k_in_group, image)``: the plain product of the letters, and
    the product of their conjugates through the transfer maps to the
    distinguished subgroup.  The image is verified to lie in the
    distinguished subgroup's closure.  The map is multiplicative over word
    concatenation.
    """
    letters = word.letters if isinstance(word, GroupWord) else tuple(word)
    identity = identity_permutation(model.phi_size)
    k_in_group = identity
    image = identity
    for entry in letters:
        label, idx, elements = model._letter(entry)
        k_in_group = _compose(k_in_group, elements[idx])
        image = _compose(image, model._images_for(label)[idx])
    return k_in_group, image


# ---------------------------------------------------------------------------
# model files


def load_model(source) -> FiniteSymmetryModel:
    """Load a model from a file path or a parsed mapping.

    Schema::

        {"phi_size": n,
         "distinguished": 0,
         "variables": [{"label": "0", "theta": [int; n]}, ...],
         "subgroups": {"0": [[int; n], ...], ...},
         "transfer": {"01": [int; n], ...}}

    Permutations are image arrays.  ``distinguished`` indexes into
    ``variables``.  Transfer keys concatenate two variable labels; the
    reverse direction is derived as the inverse when not supplied.  Every
    number must be a JSON integer; errors name the offending field.
    """
    if isinstance(source, Mapping):
        raw: Any = source
    else:
        text = Path(source).read_text(encoding="utf-8")
        raw = json.loads(text)
    if not isinstance(raw, Mapping):
        raise ValueError("model file must hold a JSON object")

    known = {"phi_size", "distinguished", "variables", "subgroups", "transfer"}
    unknown = set(raw) - known
    if unknown:
        raise ValueError(f"model file has unknown fields: {sorted(unknown)}")
    for required in ("phi_size", "variables"):
        if required not in raw:
            raise ValueError(f"model file lacks required field {required!r}")

    entries = raw["variables"]
    if not isinstance(entries, Sequence) or isinstance(entries, (str, bytes)):
        raise ValueError("field 'variables' must be a list of objects")
    variables = []
    for pos, entry in enumerate(entries):
        if not isinstance(entry, Mapping) or set(entry) != {"label", "theta"}:
            raise ValueError(f"variables[{pos}] must be an object with 'label' and 'theta'")
        variables.append((entry["label"], entry["theta"]))
    labels = _variable_labels(variables)

    for name in ("subgroups", "transfer"):
        if not isinstance(raw.get(name, {}), Mapping):
            raise ValueError(f"field {name!r} must be an object")

    index = raw.get("distinguished", 0)
    if isinstance(index, bool) or not isinstance(index, int) or not 0 <= index < len(variables):
        raise ValueError(f"field 'distinguished' must index a variable, got {index!r}")

    transfers = {}
    for key, perm in dict(raw.get("transfer", {})).items():
        transfers[_split_transfer_key(str(key), labels)] = perm

    return FiniteSymmetryModel(
        phi_size=raw["phi_size"],
        variables=tuple(variables),
        distinguished=variables[index][0],
        generators=dict(raw.get("subgroups", {})),
        transfers=transfers,
    )


def bundled_model_path(name: str) -> Path:
    """Filesystem path of a model file shipped with the package.

    Two models ship by default: "structural_example" (all structural
    checks hold) and "designed_failure" (breaks exactly the transfer
    relation and the fixed-basis-function checks).
    """
    root = resources.files("qastates").joinpath("models")
    entry = root.joinpath(f"{name}.json")
    if not entry.is_file():
        available = sorted(
            item.name[: -len(".json")]
            for item in root.iterdir()
            if item.name.endswith(".json")
        )
        raise ValueError(f"unknown bundled model {name!r}; available: {available}")
    return Path(str(entry))


# ---------------------------------------------------------------------------
# function space and representation


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
    if perm not in model._full_set:
        raise ValueError("permutation is not an element of the model's closure group")
    vec = np.asarray(f, dtype=complex)
    if vec.shape != (model.phi_size,):
        raise ValueError(f"function has shape {vec.shape}, expected ({model.phi_size},)")
    out = np.empty_like(vec)
    out[np.array(perm)] = vec
    return out


# ---------------------------------------------------------------------------
# word enumeration


@dataclass(frozen=True)
class TransferFinding:
    """Word-pair search outcome for one directed transfer map.

    ``status`` is "pair" when two words with the same group element but
    different images were found, "single" when words exist but share one
    image, and "none" when no word evaluates to the transfer at this depth.
    ``words`` holds ``(letters, image)`` entries: the canonical pair, the
    single canonical word, or nothing.
    """

    from_label: str
    to_label: str
    status: str
    words: tuple = ()


@dataclass(frozen=True)
class WordScan:
    """Deduplicated breadth-first enumeration of reduced words.

    ``fibers`` maps each reachable group element to the sorted distinct
    word images over it; ``first_words`` holds the (length, letter order)
    minimal word per (element, image) pair.  ``saturated`` is true when
    every reduced word beyond ``max_len`` can only revisit recorded
    (element, image) pairs, so the enumeration is exhaustive.  One scan is
    shared by every checker of a (model, depth), so both mappings are
    read-only.
    """

    max_len: int
    saturated: bool
    words_visited: int
    fibers: Mapping[tuple, tuple]
    first_words: Mapping[tuple, tuple]
    transfer_findings: tuple
    kernel_words: tuple
    kernel_count: int


def scan_words(model: FiniteSymmetryModel, max_len: int = WORD_DEPTH_DEFAULT) -> WordScan:
    """Reduced words up to ``max_len`` letters, enumerated once per depth.

    The scan is memoized on the model, so the checkers of one (model,
    depth) share a single enumeration.
    """
    max_len = _integer(max_len, "max_len")
    if max_len < 1:
        raise ValueError(f"max_len must be at least 1, got {max_len}")
    scans = model._word_scans
    if max_len not in scans:
        scans[max_len] = _enumerate_words(model, max_len)
    return scans[max_len]


def _enumerate_words(model: FiniteSymmetryModel, max_len: int) -> WordScan:
    """Enumerate reduced words breadth-first up to ``max_len`` letters.

    States are deduplicated on (group element, image, last subgroup), which
    preserves both reachability and minimal-word order: with the alphabet
    sorted, the queue holds words in (length, letter) order, so the first
    word recorded for an (element, image) pair is the first one in that
    order, and ``first_words`` is filled in that order too.
    """
    identity = identity_permutation(model.phi_size)
    alphabet: list[tuple[str, int, tuple, tuple]] = []
    for label in sorted(model.labels):
        elements = model.subgroup(label)
        if len(elements) > 1:
            images = model._images_for(label)
            for idx in range(1, len(elements)):
                alphabet.append((label, idx, elements[idx], images[idx]))

    start = (identity, identity, None)
    seen = {start}
    first_words: dict[tuple, tuple] = {(identity, identity): ()}
    fibers: dict[tuple, set] = {identity: {identity}}
    kernel_words: list[tuple] = []
    kernel_count = 0
    visited = 1
    deepest = 0
    queue = deque([((), identity, identity, None)])
    while queue:
        letters, element, image, last = queue.popleft()
        if len(letters) == max_len:
            continue
        for label, idx, perm, perm_image in alphabet:
            if label == last:
                continue
            state = (_compose(element, perm), _compose(image, perm_image), label)
            if state in seen:
                continue
            seen.add(state)
            new_letters = letters + ((label, idx),)
            visited += 1
            deepest = max(deepest, len(new_letters))
            pair = (state[0], state[1])
            if pair not in first_words:
                first_words[pair] = new_letters
            fibers.setdefault(state[0], set()).add(state[1])
            if state[1] == identity:
                kernel_count += 1
                if len(kernel_words) < _WITNESS_CAP:
                    kernel_words.append((new_letters, state[0]))
            queue.append((new_letters, state[0], state[1], label))

    findings = []
    for (a, b), target in sorted(model.transfers.items()):
        entries = [
            (letters, image)
            for (element, image), letters in first_words.items()
            if element == target
        ]
        if not entries:
            findings.append(TransferFinding(a, b, "none"))
            continue
        head = entries[0]
        other = next((e for e in entries if e[1] != head[1]), None)
        if other is None:
            findings.append(TransferFinding(a, b, "single", (head,)))
        else:
            findings.append(TransferFinding(a, b, "pair", (head, other)))

    return WordScan(
        max_len=max_len,
        saturated=deepest < max_len,
        words_visited=visited,
        fibers=types.MappingProxyType(
            {element: tuple(sorted(images)) for element, images in fibers.items()}
        ),
        first_words=types.MappingProxyType(first_words),
        transfer_findings=tuple(findings),
        kernel_words=tuple(kernel_words),
        kernel_count=kernel_count,
    )


def _word_record(letters: tuple) -> list:
    return [[label, idx] for label, idx in letters]


def detect_multivaluedness(
    model: FiniteSymmetryModel, max_len: int = WORD_DEPTH_DEFAULT
) -> VerificationReport:
    """Whether word images are genuinely multivalued on the transfer maps.

    Passes when every directed transfer map admits two words with the same
    group element but distinct images.  A transfer with no witnessing pair
    leaves the verdict undetermined at this depth; bounded enumeration
    never claims single-valuedness as a failure.
    """
    scan = scan_words(model, max_len)
    multivalued_fibers = sum(1 for images in scan.fibers.values() if len(images) >= 2)
    max_images = max((len(images) for images in scan.fibers.values()), default=0)

    witnesses = []
    missing = []
    for finding in scan.transfer_findings:
        record: dict[str, Any] = {
            "from": finding.from_label,
            "to": finding.to_label,
            "status": finding.status,
        }
        for slot, (letters, image) in enumerate(finding.words, start=1):
            record[f"word_{slot}"] = _word_record(letters)
            record[f"image_{slot}"] = list(image)
        witnesses.append(record)
        if finding.status != "pair":
            missing.append(f"{finding.from_label}->{finding.to_label} ({finding.status})")

    found = len(scan.transfer_findings) - len(missing)
    if missing:
        verdict = "undetermined"
        notes = (
            "undetermined at this depth: no distinct-image word pair for "
            + ", ".join(missing)
        )
    else:
        verdict = "pass"
        notes = "every transfer map carries two words with distinct images"
    if scan.saturated:
        notes += "; word enumeration is exhaustive at this depth"

    return VerificationReport(
        subject="assumption_3b",
        verdict=verdict,
        metrics={
            "max_len": scan.max_len,
            "saturated": float(scan.saturated),
            "words_visited": scan.words_visited,
            "group_elements_reached": len(scan.fibers),
            "multivalued": float(multivalued_fibers > 0),
            "multivalued_fibers": multivalued_fibers,
            "max_images_per_fiber": max_images,
            "transfer_pairs_found": found,
            "transfer_pairs_total": len(scan.transfer_findings),
        },
        witnesses=tuple(witnesses),
        notes=notes,
    )


def verify_word_kernel(
    model: FiniteSymmetryModel, max_len: int = WORD_DEPTH_DEFAULT
) -> VerificationReport:
    """Check that no nonempty reduced word has the identity image.

    The word-to-image map should send only the empty word to the identity
    of the distinguished subgroup; any nonempty word with identity image is
    a counterexample and fails the check.  Words whose plain group element
    is itself nonidentity are additionally flagged in the witnesses.
    """
    scan = scan_words(model, max_len)
    identity = identity_permutation(model.phi_size)
    witnesses = tuple(
        {
            "word": _word_record(letters),
            "group_element": list(element),
            "group_element_nonidentity": element != identity,
        }
        for letters, element in scan.kernel_words
    )
    flagged = sum(1 for _, element in scan.kernel_words if element != identity)
    if scan.kernel_count:
        verdict = "fail"
        notes = (
            f"{scan.kernel_count} nonempty word(s) map to the identity image; "
            "the word-to-image map has a nontrivial kernel at this depth"
        )
    else:
        verdict = "pass"
        notes = "no nonempty word maps to the identity image at this depth"
    if scan.saturated:
        notes += "; word enumeration is exhaustive at this depth"
    return VerificationReport(
        subject="prop3",
        verdict=verdict,
        metrics={
            "max_len": scan.max_len,
            "saturated": float(scan.saturated),
            "words_visited": scan.words_visited,
            "kernel_words": scan.kernel_count,
            "kernel_words_nonidentity_element": flagged,
        },
        witnesses=witnesses,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# question states


@dataclass(frozen=True)
class QuestionStates:
    """States built from the word machinery, as level indices.

    ``states`` holds ``(label, i, level)``: the state ``U(kappa^-1) f_i``
    is exactly the basis function of level ``level`` (for the distinguished
    label, level ``i``), so each label's levels permute ``range(basis.dim)``.
    ``kappas`` maps each built label to the group element whose inverse
    representation produced its states.  ``skipped`` lists labels without a
    distinct-image word pair, and ``degenerate`` labels whose group element
    is the identity.
    """

    basis: HilbertBasis
    labels: tuple
    states: tuple
    kappas: Mapping[str, tuple]
    skipped: tuple
    degenerate: tuple


def build_question_states(
    model: FiniteSymmetryModel, max_len: int = WORD_DEPTH_DEFAULT
) -> QuestionStates:
    """Build one state per (variable, level) from canonical word pairs.

    For each non-distinguished label the canonical word pair for its
    transfer map yields a group element ``kappa`` as (first image)^-1 *
    (second image); the states are the represented basis functions
    ``U(kappa^-1) f_i``.  ``kappa`` lies in the distinguished subgroup,
    which must permute the level indicators, so each state is the basis
    function of the level that ``kappa^-1`` sends level ``i`` to, recorded
    as that level's index.  It is read from the model's one level structure,
    which is built before the word scan runs.  Labels without a pair at
    this depth are skipped and reported.
    """
    basis, actions = model._levels
    scan = scan_words(model, max_len)
    identity = identity_permutation(model.phi_size)

    findings = {
        (finding.from_label, finding.to_label): finding
        for finding in scan.transfer_findings
    }

    labels = [model.distinguished]
    kappas: dict[str, tuple] = {model.distinguished: identity}
    skipped = []
    degenerate = []
    states = [(model.distinguished, i, i) for i in range(basis.dim)]

    for label in sorted(model.labels):
        if label == model.distinguished:
            continue
        finding = findings.get((model.distinguished, label))
        if finding is None:
            skipped.append((label, "no transfer map from the distinguished variable"))
            continue
        if finding.status != "pair":
            skipped.append(
                (label, f"no distinct-image word pair at depth {scan.max_len}")
            )
            continue
        (_, image_1), (_, image_2) = finding.words
        kappa = compose_permutations(_invert(image_1), image_2)
        kappas[label] = kappa
        if kappa == identity:
            degenerate.append(label)
        labels.append(label)
        states.extend((label, i, level) for i, level in enumerate(actions[_invert(kappa)]))

    return QuestionStates(
        basis=basis,
        labels=tuple(labels),
        states=tuple(states),
        kappas=kappas,
        skipped=tuple(skipped),
        degenerate=tuple(degenerate),
    )


# ---------------------------------------------------------------------------
# structural checkers


def validate_model(model: FiniteSymmetryModel) -> VerificationReport:
    """Structural validation: transfer relations, relabeling, partitions.

    Checks that (i) every stored transfer satisfies its pointwise relation,
    (ii) every variable's value range maps bijectively onto the
    distinguished range under the relabeling induced by the transfer chain,
    and (iii) each subgroup generator permutes its own variable's level
    sets.  Violations are witness records, never exceptions.
    """
    witnesses: list[dict] = []
    violations = {"transfer": 0, "relabeling": 0, "partition": 0}

    def violation(kind: str, record: dict) -> None:
        violations[kind] += 1
        if len(witnesses) < _WITNESS_CAP:
            witnesses.append(record)

    relations_checked = 0
    for (a, b), perm in sorted(model.transfers.items()):
        theta_a = model.theta(a)
        theta_b = model.theta(b)
        relations_checked += 1
        for phi in range(model.phi_size):
            if theta_b[phi] != theta_a[perm[phi]]:
                violation(
                    "transfer",
                    {
                        "violation": "transfer_relation",
                        "from": a,
                        "to": b,
                        "phi": phi,
                        "expected": theta_b[phi],
                        "got": theta_a[perm[phi]],
                    },
                )

    theta_zero = model.theta(model.distinguished)
    zero_values = sorted(set(theta_zero))
    for label in model.labels:
        if label == model.distinguished:
            continue
        forward = model.zero_transfers.get(label)
        if forward is None:
            violation(
                "relabeling",
                {
                    "violation": "relabeling_unreachable",
                    "variable": label,
                    "reason": "no transfer chain from the distinguished variable",
                },
            )
            continue
        theta = model.theta(label)
        mapping: dict[int, set] = {}
        for phi in range(model.phi_size):
            mapping.setdefault(theta[phi], set()).add(theta_zero[forward[phi]])
        relabeling: dict[int, int] = {}
        broken = False
        for value in sorted(mapping):
            images = sorted(mapping[value])
            if len(images) != 1:
                broken = True
                violation(
                    "relabeling",
                    {
                        "violation": "relabeling_not_functional",
                        "variable": label,
                        "value": value,
                        "images": images,
                    },
                )
            else:
                relabeling[value] = images[0]
        if not broken:
            hits: dict[int, list] = {}
            for value, image in relabeling.items():
                hits.setdefault(image, []).append(value)
            for image, sources in sorted(hits.items()):
                if len(sources) > 1:
                    broken = True
                    violation(
                        "relabeling",
                        {
                            "violation": "relabeling_not_injective",
                            "variable": label,
                            "values": sorted(sources),
                            "image": image,
                        },
                    )
            if sorted(relabeling.values()) != zero_values and not broken:
                broken = True
                violation(
                    "relabeling",
                    {
                        "violation": "relabeling_range_mismatch",
                        "variable": label,
                        "range": sorted(set(relabeling.values())),
                        "distinguished_range": zero_values,
                    },
                )
        if not broken:
            witnesses.append(
                {
                    "relabeling": {str(v): r for v, r in sorted(relabeling.items())},
                    "variable": label,
                }
            )

    for label in model.labels:
        theta = model.theta(label)
        for gen_index, perm in enumerate(model.generators[label]):
            images: dict[int, dict] = {}
            for phi in range(model.phi_size):
                bucket = images.setdefault(theta[phi], {})
                bucket.setdefault(theta[perm[phi]], phi)
            for value, bucket in sorted(images.items()):
                if len(bucket) > 1:
                    violation(
                        "partition",
                        {
                            "violation": "partition_not_preserved",
                            "variable": label,
                            "generator": gen_index,
                            "value": value,
                            "phi_pair": sorted(bucket.values())[:2],
                        },
                    )

    failed = sum(violations.values()) > 0
    notes = (
        "transfer relations, value relabeling, or level partitions violated"
        if failed
        else "transfer relations hold pointwise, relabelings are bijective, "
        "and every generator permutes its variable's level sets"
    )
    return VerificationReport(
        subject="lemma1",
        verdict="fail" if failed else "pass",
        metrics={
            "phi_size": model.phi_size,
            "variables": len(model.labels),
            "transfer_relations_checked": relations_checked,
            "transfer_violations": violations["transfer"],
            "relabeling_violations": violations["relabeling"],
            "partition_violations": violations["partition"],
        },
        witnesses=tuple(witnesses),
        notes=notes,
    )


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


def _cycles(perm: tuple) -> list[list[int]]:
    seen = [False] * len(perm)
    cycles = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        cycle = []
        i = start
        while not seen[i]:
            seen[i] = True
            cycle.append(i)
            i = perm[i]
        cycles.append(cycle)
    return cycles


def check_assumptions(model: FiniteSymmetryModel) -> tuple[VerificationReport, ...]:
    """Reports for the measure, closure, representation, and separation checks.

    Returns five reports in order: invariant measure (assumption_1),
    closure equality (assumption_2), cyclic irreducibility
    (assumption_3a), basis separation (assumption_3c), and the
    fixed-basis-function check (lemma2).  Requires the distinguished
    variable to take at least two values and its subgroup to permute its
    level sets, both read from the model's one level structure, which the
    question states share; everything else is report content.  lemma2
    reads only the level permutations, so its overlaps are exactly 1.0 or 0.0.
    """
    basis, actions = model._levels
    k_zero = model.subgroup(model.distinguished)
    identity = identity_permutation(model.phi_size)

    # assumption_1: the counting measure is permutation invariant.
    measure = VerificationReport(
        subject="assumption_1",
        verdict="pass",
        metrics={"phi_size": model.phi_size, "group_order": len(model.full_group)},
        notes=(
            "the counting measure on a finite set is invariant under every "
            "permutation, so an invariant measure always exists here"
        ),
    )

    # assumption_2: subgroups alone already generate the full closure.
    plain_gens: list[tuple] = []
    for label in model.labels:
        plain_gens.extend(model.generators[label])
    union_closure = _closure(plain_gens, model.phi_size, "subgroups")
    union_set = frozenset(union_closure)
    extra = [k for k in model.full_group if k not in union_set]
    closure = VerificationReport(
        subject="assumption_2",
        verdict="fail" if extra else "pass",
        metrics={
            "subgroup_closure_order": len(union_closure),
            "full_closure_order": len(model.full_group),
            "extra_elements": len(extra),
        },
        witnesses=tuple({"permutation": list(k)} for k in extra[:_WITNESS_CAP]),
        notes=(
            "transfer maps lie outside the closure of the subgroups"
            if extra
            else "the subgroups already generate the closure including transfers"
        ),
    )

    # assumption_3a: cyclic subgroups acting irreducibly on the basis span.
    cyclic: dict[frozenset, tuple] = {}
    for k in k_zero:
        if k != identity:
            cyclic.setdefault(frozenset(_closure((k,), model.phi_size, "subgroups")), k)
    reducible_witnesses = []
    for group, generator in sorted(cyclic.items(), key=lambda item: item[1]):
        action = actions[generator]
        cycles = _cycles(action)
        lengths = sorted(len(c) for c in cycles)
        if len(cycles) >= 2:
            subspace = {
                "kind": "level_cycle_indicators",
                "levels": sorted(cycles[0]),
                "dimension": len(cycles[0]),
            }
        else:
            subspace = {"kind": "eigenline_of_level_cycle", "dimension": 1}
        reducible_witnesses.append(
            {
                "finding": "reducible",
                "generator": list(generator),
                "subgroup_order": len(group),
                "level_cycle_lengths": lengths,
                "proper_invariant_subspace": subspace,
            }
        )
    irreducibility = VerificationReport(
        subject="assumption_3a",
        verdict="undetermined" if cyclic else "pass",
        metrics={
            "dim": basis.dim,
            "cyclic_subgroups": len(cyclic),
            "reducible_subgroups": len(reducible_witnesses),
        },
        witnesses=tuple(reducible_witnesses),
        notes=(
            "reducible: every nontrivial cyclic subgroup leaves a proper "
            f"subspace of the {basis.dim}-dimensional level span invariant "
            "(the uniform level superposition is always fixed); the literal "
            "irreducibility condition cannot hold for dimension >= 2"
            if cyclic
            else "vacuous: the distinguished subgroup is trivial"
        ),
    )

    # assumption_3c: separating basis pairs through relabeled arguments.
    # Basis function i is the level indicator with amplitude 1/sqrt(size_i)
    # in slot i.  The full symmetric group moves a slot anywhere, so the
    # only argument that can separate i from j is slot j, and it does iff
    # the two amplitudes differ: pair (i, j) fails iff the sizes are equal.
    sizes = [len(level) for level in basis.levels]
    failing = [
        (i, j)
        for i, j in itertools.permutations(range(basis.dim), 2)
        if sizes[i] == sizes[j]
    ]
    separation_witnesses = [
        {
            "i": i,
            "j": j,
            "value_i": basis.values[i],
            "value_j": basis.values[j],
            "level_sizes": [sizes[i], sizes[j]],
        }
        for i, j in failing[:_WITNESS_CAP]
    ]
    separation = VerificationReport(
        subject="assumption_3c",
        verdict="fail" if failing else "pass",
        metrics={
            "dim": basis.dim,
            "pairs_checked": basis.dim * (basis.dim - 1),
            "pairs_failing": len(failing),
        },
        witnesses=tuple(separation_witnesses),
        notes=(
            "pairs of equal-size level sets cannot be separated: both indicator "
            "amplitudes take the same nonzero value"
            if failing
            else "every ordered basis pair admits a separating argument"
        ),
    )

    # lemma2: no nontrivial subgroup element fixes a basis function.  U(k)f_i
    # is f_i itself, overlap exactly 1, when k keeps level i, and has disjoint
    # support, overlap exactly 0, otherwise.
    elements_checked = len(k_zero) - 1
    fixed = [
        (k, i)
        for k in k_zero
        if k != identity
        for i, target in enumerate(actions[k])
        if target == i
    ]
    lemma2_witnesses = [
        {"permutation": list(k), "level_index": i, "value": basis.values[i], "overlap": 1.0}
        for k, i in fixed[:_WITNESS_CAP]
    ]
    if elements_checked == 0:
        lemma2_notes = "vacuous: the distinguished subgroup is trivial"
    elif lemma2_witnesses:
        lemma2_notes = "a nontrivial subgroup element fixes a basis function up to phase"
    else:
        lemma2_notes = "no nontrivial subgroup element fixes any basis function"
    lemma2 = VerificationReport(
        subject="lemma2",
        verdict="fail" if lemma2_witnesses else "pass",
        metrics={"elements_checked": elements_checked, "max_self_overlap": 1.0 if fixed else 0.0},
        witnesses=tuple(lemma2_witnesses),
        notes=lemma2_notes,
    )

    return (measure, closure, irreducibility, separation, lemma2)


def verify_theorem1(
    model: FiniteSymmetryModel,
    max_len: int = WORD_DEPTH_DEFAULT,
    eps: float = 1e-9,
) -> VerificationReport:
    """Orthonormality and pairwise distinctness of the built states.

    Each state is a level index, and each label's states permute the
    levels, so they are orthonormal per label (``max_gram_defect`` is 0.0)
    and two states coincide, with overlap 1.0, exactly when they share a
    level; every other overlap is 0.0, so ``eps`` is validated but cannot
    change the result.  Each level is held once by every one of the L
    built labels, so the d levels force d*C(L,2) collisions and, with
    L >= 2, the verdict fails.  Collisions are listed in row-major order of
    the pairs.  With no non-distinguished label built the verdict is
    undetermined.
    """
    check_eps(eps)
    built = build_question_states(model, max_len)
    others = [label for label in built.labels if label != model.distinguished]
    if not others:
        reasons = "; ".join(f"{label}: {reason}" for label, reason in built.skipped)
        reasons = reasons or "the model has no variable besides the distinguished one"
        return VerificationReport(
            subject="theorem1",
            verdict="undetermined",
            metrics={"states": len(built.states), "labels_built": len(built.labels)},
            notes=f"no non-distinguished states available ({reasons})",
        )

    colliding = [
        (a, i, b, j)
        for (a, i, level_a), (b, j, level_b) in itertools.combinations(built.states, 2)
        if level_a == level_b
    ]
    collisions = len(colliding)
    witnesses = [
        {"a": a, "i": i, "b": b, "j": j, "overlap": 1.0} for a, i, b, j in colliding[:_WITNESS_CAP]
    ]

    dim, count = built.basis.dim, len(built.labels)
    notes_parts = [
        f"{collisions} state pair(s) coincide up to phase across labels: each of "
        f"the {count} built labels holds the {dim} level states in some order, "
        f"so {dim}*C({count},2) = {dim * math.comb(count, 2)} collisions are forced"
    ]
    if built.degenerate:
        notes_parts.append(
            "degenerate labels with identity group element: "
            + ", ".join(built.degenerate)
        )
    if built.skipped:
        notes_parts.append(
            "skipped: " + "; ".join(f"{label}: {reason}" for label, reason in built.skipped)
        )
    return VerificationReport(
        subject="theorem1",
        verdict="fail",
        metrics={
            "states": len(built.states),
            "labels_built": len(built.labels),
            "max_gram_defect": 0.0,
            "collisions": collisions,
        },
        witnesses=tuple(witnesses),
        notes="; ".join(notes_parts),
    )
