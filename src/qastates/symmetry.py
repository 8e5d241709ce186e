"""Finite symmetry models over a discrete configuration space.

A model carries a finite configuration set, several integer-valued variables
on it, a permutation group per variable that respects that variable's level
sets, and transfer permutations linking every variable to a distinguished
one.  From this data the module computes the distinguished variable's level
sets, the permutation of those levels by each distinguished-subgroup
element, and formal words over the subgroups whose group images reveal
whether the transfer structure is genuinely multivalued.  Structural
checkers reduce each property to a
:class:`~qastates.report.VerificationReport`.  Everything is computed on
integers: a level set stands for its normalized indicator function, and a
permutation of level sets for that permutation's regular representation on
their span.

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
field.  A model closes each group once, and shares closures where it can:
labels holding one generator set share its closure, the subgroups' union
is a label's closure when that closure holds every generator, and the full
group is the union when the union holds every transfer; assumption_3a
builds each distinct cyclic subgroup once, from its generator's powers.
The word scan runs once per model and its read-only result is
shared by every checker.  It has no depth bound: its states are finite, so
it runs until its queue is empty and so decides the word claims over every
reduced word; past `CLOSURE_LIMIT` states it stops with an error naming the
`subgroups` field.  The scan owns its group index (:class:`GroupIndex`):
each permutation is interned to an int once, the identity being 0, and
each right factor keeps a memo from element id to product id, so every
(element, letter) product is composed once per model.  The scan's states
are ints; they become permutations again only in the returned
:class:`WordScan`, whose transfer findings are read off the fibers.
The distinguished subgroup acts on the level span by permuting the level
indicators.  Each model builds one level structure, once: the ascending
values, the level sets and a level permutation per distinguished-subgroup
element (`FiniteSymmetryModel._levels`).  It is the only encoding of the
action that the representation checkers read, so each refuses a model
with a constant distinguished variable, or whose distinguished subgroup
splits a level set, before any word scan.  Lemma 2 is exact: an element
fixes a level indicator (overlap 1) iff it keeps that level.  A question
state is a level index, each built label holding the levels permuted by
one element, so Theorem 1 counts equal-level pairs, exactly and with no
tolerance.  That element is never the identity: it is built from two
words with different images.

The reports of each ``qastates symmetry`` subcommand, and their order, are
fixed here once (`check_reports`, `assumption_reports`,
`theorem1_reports`); the CLI, the golden battery and the demo call them.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
import types
from collections import deque
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from importlib import resources
from pathlib import Path
from typing import Any

# `inner` is unused here, but the benchmark tracer patches `symmetry.inner`;
# it goes when the trace moves into the package.
from .linalg import inner
from .report import VerificationReport

# Witness records stored per report; totals always appear in metrics.
_WITNESS_CAP = 32

# Largest group a closure may list (S_8 has 40,320 elements), and the most
# states a word scan may visit; beyond it a model is refused instead of held
# element by element.
CLOSURE_LIMIT = 100_000


# ---------------------------------------------------------------------------
# permutations


def identity_permutation(size: int) -> tuple[int, ...]:
    """The identity permutation on ``size`` points."""
    if size < 1:
        raise ValueError(f"permutation size must be positive, got {size}")
    return tuple(range(size))


_INT_TYPE = frozenset((int,))


def _integer(value, field: str) -> int:
    """A Python, JSON or numpy integer as an int; bools and floats are rejected."""
    # `int` first: the `numbers.Integral` check alone is several times
    # slower, and it runs on every integer of every model.
    if isinstance(value, bool) or not isinstance(value, (int, numbers.Integral)):
        raise ValueError(f"{field} must be an integer, got {value!r}")
    return int(value)


def _entries(value, field: str) -> list:
    """Items of a list-like field; strings and mappings are rejected."""
    if isinstance(value, (str, bytes, Mapping)) or not isinstance(value, Iterable):
        raise ValueError(f"{field} must be a list, got {value!r}")
    return list(value)


def _integers(value, field: str) -> tuple[int, ...]:
    """The items of a list-like field as ints.

    A field whose items are all exactly ``int``, as JSON gives, passes one
    type test; any other goes item by item through `_integer`, which
    accepts numpy integers and names the first bad item.
    """
    items = _entries(value, field)
    if set(map(type, items)) <= _INT_TYPE:
        return tuple(items)
    return tuple(_integer(x, f"{field}[{i}]") for i, x in enumerate(items))


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
    when the closure outgrows ``CLOSURE_LIMIT``.  A repeated generator is
    composed once: its later copies could only reach elements already seen.
    """
    gens = tuple(dict.fromkeys(gens))
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


class _RightProducts(dict):
    """Ids of the products ``a * g`` for one right factor ``g``, keyed by the
    id of ``a`` and composed on first lookup."""

    def __init__(self, index: "GroupIndex", factor: tuple) -> None:
        super().__init__()
        self.index, self.factor = index, factor

    def __missing__(self, a: int) -> int:
        product = self[a] = self.index.intern(_compose(self.index.elements[a], self.factor))
        return product


class GroupIndex:
    """Permutations of one model interned to ints, with memoized products.

    ``elements[i]`` is the permutation with id ``i``, and ``ids`` maps it
    back; the identity is id 0.  ``times(g)`` is the product memo of one
    right factor ``g``: it maps the id of ``a`` to the id of ``a * g``,
    composing each product only the first time it is looked up.
    """

    def __init__(self, size: int) -> None:
        self.elements = [identity_permutation(size)]
        self.ids = {self.elements[0]: 0}
        self.memos: dict[tuple, _RightProducts] = {}

    def intern(self, perm: tuple) -> int:
        """The id of a permutation already validated on the model's points."""
        if perm not in self.ids:
            self.ids[perm] = len(self.elements)
            self.elements.append(perm)
        return self.ids[perm]

    def times(self, g: tuple) -> _RightProducts:
        """The product memo of right multiplication by ``g``."""
        if g not in self.memos:
            self.memos[g] = _RightProducts(self, g)
        return self.memos[g]


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
        """Per label, its subgroup's closure.  Each distinct generator set is
        closed once, labels sharing it share the closure, and an overflow
        names the first label that holds the set.  The union and the full
        group reuse one of these closures when it holds all their
        generators (`_union_group`, `full_group`)."""
        closures: dict[frozenset, tuple] = {}
        subgroups = {}
        for label in self.labels:
            gens = self.generators[label]
            if frozenset(gens) not in closures:
                where = f"subgroups[{json.dumps(label)}]"
                closures[frozenset(gens)] = _closure(gens, self.phi_size, where)
            subgroups[label] = closures[frozenset(gens)]
        return subgroups

    def subgroup(self, label: str) -> tuple:
        """Closure of one variable's subgroup, in canonical order."""
        if label not in self._subgroups:
            raise ValueError(f"unknown variable label {label!r}")
        return self._subgroups[label]

    @cached_property
    def _word_scan(self) -> "WordScan":
        """The model's one word scan, shared by every checker."""
        return _enumerate_words(self)

    @cached_property
    def _union_group(self) -> tuple:
        """Closure of every subgroup generator.  A label's closure that holds
        them all is this group, since the label's generators are among them,
        so the first such closure is reused; only without one is the union
        closed anew.  Its overflow names ``subgroups and transfer``, as the
        full group's would: that group holds it, and `check_assumptions`
        reads it first."""
        gens = [g for label in self.labels for g in self.generators[label]]
        for closure in self._subgroups.values():
            if set(closure).issuperset(gens):
                return closure
        return _closure(gens, self.phi_size, "subgroups and transfer")

    @cached_property
    def full_group(self) -> tuple:
        """Closure of every subgroup generator and transfer map.  It is the
        subgroups' union (`_union_group`) when that group holds every
        transfer, and is closed anew only otherwise."""
        union = self._union_group
        if set(union).issuperset(self.transfers.values()):
            return union
        gens = [g for label in self.labels for g in self.generators[label]]
        return _closure([*gens, *self.transfers.values()], self.phi_size, "subgroups and transfer")

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
    def _levels(self) -> tuple[tuple[int, ...], tuple, dict]:
        """``(values, levels, actions)`` of the distinguished variable, built
        once per model.

        ``values`` holds its values in ascending order and ``levels[i]`` the
        points taking ``values[i]``.  The representation checkers need at
        least two levels, and the distinguished subgroup to permute them; a
        model violating either is rejected outright.  Element ``k`` maps
        level ``i`` onto level ``actions[k][i]``, so ``U(k)f_i`` is exactly
        that level's indicator.
        """
        theta = self.theta(self.distinguished)
        values = tuple(sorted(set(theta)))
        if len(values) < 2:
            raise ValueError(
                f"variables[{self.labels.index(self.distinguished)}].theta: distinguished "
                f"variable takes {len(values)} value(s); need at least 2"
            )
        level_of = {value: i for i, value in enumerate(values)}
        buckets: tuple[list, ...] = tuple([] for _ in values)
        for phi, value in enumerate(theta):
            buckets[level_of[value]].append(phi)
        levels = tuple(map(tuple, buckets))
        actions = {}
        for k in self.subgroup(self.distinguished):
            targets = [{level_of[theta[k[phi]]] for phi in level} for level in levels]
            if any(len(t) != 1 for t in targets):
                raise ValueError(
                    f"subgroups[{json.dumps(self.distinguished)}]: "
                    "a distinguished-subgroup element does not permute the "
                    "distinguished level sets; representation checks are undefined"
                )
            actions[k] = tuple(t.pop() for t in targets)
        return values, levels, actions

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

    def word(self, letters: Iterable) -> tuple:
        """Validated, reduced word over this model's subgroups.

        A word is a tuple of ``(label, element index)`` letters, the index
        pointing into the subgroup's canonical closure order.  Identity
        letters are dropped and adjacent letters from the same subgroup are
        composed inside it, so distinct reduced words are genuinely
        distinct formal products.
        """
        stack: list[tuple[str, int]] = []
        for entry in letters:
            label, idx, elements = self._letter(entry)
            if idx == 0:
                continue
            if stack and stack[-1][0] == label:
                prev_label, prev_idx = stack.pop()
                merged = _compose(elements[prev_idx], elements[idx])
                midx = elements.index(merged)
                if midx != 0:
                    stack.append((label, midx))
            else:
                stack.append((label, idx))
        return tuple(stack)


def word_image(model: FiniteSymmetryModel, letters: Iterable) -> tuple[tuple, tuple]:
    """Evaluate a sequence of letters to its group element and its
    transferred image.

    Returns ``(k_in_group, image)``: the plain product of the letters, and
    the product of their conjugates through the transfer maps to the
    distinguished subgroup.  The image is verified to lie in the
    distinguished subgroup's closure.  The map is multiplicative over word
    concatenation.
    """
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

    index = _integer(raw.get("distinguished", 0), "distinguished")
    if not 0 <= index < len(variables):
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
# word enumeration


@dataclass(frozen=True)
class TransferFinding:
    """Word-pair search outcome for one directed transfer map.

    ``status`` is "pair" when two words with the same group element but
    different images were found, "single" when words exist but share one
    image, and "none" when no reduced word evaluates to the transfer.
    ``words`` holds ``(letters, image)`` entries: the canonical pair, the
    single canonical word, or nothing.
    """

    from_label: str
    to_label: str
    status: str
    words: tuple = ()


@dataclass(frozen=True)
class WordScan:
    """Deduplicated breadth-first enumeration of every reduced word.

    ``fibers`` maps each reachable group element to the sorted distinct
    word images over it; ``first_words`` holds the (length, letter order)
    minimal word per (element, image) pair.  The scan is exhaustive: every
    (element, image) pair that some reduced word reaches is recorded.  One
    scan is shared by every checker of a model, so both mappings are
    read-only.
    """

    words_visited: int
    fibers: Mapping[tuple, tuple]
    first_words: Mapping[tuple, tuple]
    transfer_findings: tuple
    kernel_words: tuple
    kernel_count: int


def scan_words(model: FiniteSymmetryModel) -> WordScan:
    """Every reduced word, enumerated once per model.

    The scan is memoized on the model, so its checkers share a single
    enumeration.
    """
    return model._word_scan


def _enumerate_words(model: FiniteSymmetryModel) -> WordScan:
    """Enumerate reduced words breadth-first until the queue is empty.

    States are deduplicated on (group element, image, last subgroup), which
    preserves both reachability and minimal-word order: with the alphabet
    sorted, the queue holds words in (length, letter) order, so the first
    word recorded for an (element, image) pair is the first one in that
    order, and ``first_words`` is filled in that order too.  There are
    finitely many states, so the scan ends by itself; one that visits more
    than ``CLOSURE_LIMIT`` of them raises ValueError instead.

    States hold group-index ids (the identity is 0), stepped through each
    letter's product memos; they become permutations again only here, in
    the returned scan, in the order they were recorded.
    """
    index = GroupIndex(model.phi_size)
    # Per subgroup, in label order: the (element, image) ids reached with its
    # letter last, and its letters as (position in the subgroup, element
    # memo, image memo).
    groups = []
    for label in sorted(model.labels):
        elements = model.subgroup(label)
        if len(elements) > 1:
            images = model._images_for(label)
            row = [
                (idx, index.times(elements[idx]), index.times(images[idx]))
                for idx in range(1, len(elements))
            ]
            groups.append((label, set(), row))

    first_ids: dict[tuple, tuple] = {(0, 0): ()}
    kernel_ids: list[tuple] = []
    kernel_count = 0
    visited = 1
    queue = deque([((), 0, 0, None)])
    while queue:
        letters, element, image, last = queue.popleft()
        for label, seen, row in groups:
            if label == last:
                continue
            for idx, times_element, times_image in row:
                pair = (times_element[element], times_image[image])
                if pair in seen:
                    continue
                seen.add(pair)
                new_letters = letters + ((label, idx),)
                visited += 1
                if visited > CLOSURE_LIMIT:
                    raise ValueError(
                        "subgroups: the word scan of these subgroups exceeds "
                        f"{CLOSURE_LIMIT} states"
                    )
                first_ids.setdefault(pair, new_letters)
                if pair[1] == 0:
                    kernel_count += 1
                    if len(kernel_ids) < _WITNESS_CAP:
                        kernel_ids.append((new_letters, pair[0]))
                queue.append((new_letters, *pair, label))

    perm = index.elements
    first_words = {(perm[e], perm[i]): letters for (e, i), letters in first_ids.items()}
    # Every reached pair has a first word, recorded in the order the pairs
    # were reached, so the fibers read them off in that order.
    fibers: dict[tuple, list] = {}
    for element, image in first_words:
        fibers.setdefault(element, []).append(image)
    # A transfer's finding is the first two images of its fiber, which are
    # distinct, with their first words.
    findings = []
    for (a, b), target in sorted(model.transfers.items()):
        images = fibers.get(target, [])[:2]
        words = tuple((first_words[target, image], image) for image in images)
        findings.append(TransferFinding(a, b, ("none", "single", "pair")[len(words)], words))

    return WordScan(
        words_visited=visited,
        fibers=types.MappingProxyType(
            {element: tuple(sorted(images)) for element, images in fibers.items()}
        ),
        first_words=types.MappingProxyType(first_words),
        transfer_findings=tuple(findings),
        kernel_words=tuple((letters, perm[e]) for letters, e in kernel_ids),
        kernel_count=kernel_count,
    )


def _word_record(letters: tuple) -> list:
    return [[label, idx] for label, idx in letters]


def detect_multivaluedness(model: FiniteSymmetryModel) -> VerificationReport:
    """Whether word images are genuinely multivalued on the transfer maps.

    Passes when every directed transfer map admits two words with the same
    group element but distinct images.  The scan is exhaustive, so a
    transfer with no witnessing pair has none over every reduced word; the
    verdict is then undetermined, never a failure.
    """
    scan = scan_words(model)
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
            "undetermined: the exhaustive word scan finds no distinct-image pair for "
            + ", ".join(missing)
        )
    else:
        verdict = "pass"
        notes = "every transfer map carries two words with distinct images"

    return VerificationReport(
        subject="assumption_3b",
        verdict=verdict,
        metrics={
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


def verify_word_kernel(model: FiniteSymmetryModel) -> VerificationReport:
    """Check that no nonempty reduced word has the identity image.

    The word-to-image map should send only the empty word to the identity
    of the distinguished subgroup; any nonempty word with identity image is
    a counterexample and fails the check.  Words whose plain group element
    is itself nonidentity are additionally flagged in the witnesses.
    """
    scan = scan_words(model)
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
            "the word-to-image map has a nontrivial kernel"
        )
    else:
        verdict = "pass"
        notes = "no nonempty word maps to the identity image"
    return VerificationReport(
        subject="prop3",
        verdict=verdict,
        metrics={
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

    ``dim`` is the number of levels of the distinguished variable.
    ``states`` holds ``(label, i, level)``: the state ``U(kappa^-1) f_i``
    is exactly the indicator state of level ``level`` (for the distinguished
    label, level ``i``), so each label's levels permute ``range(dim)``.
    ``kappas`` maps each built label to the group element whose inverse
    representation produced its states; a built label's kappa is never the
    identity, because its word pair has two different images.  ``skipped``
    lists labels without a distinct-image word pair.
    """

    dim: int
    labels: tuple
    states: tuple
    kappas: Mapping[str, tuple]
    skipped: tuple


def build_question_states(model: FiniteSymmetryModel) -> QuestionStates:
    """Build one state per (variable, level) from canonical word pairs.

    For each non-distinguished label the canonical word pair for its
    transfer map yields a group element ``kappa`` as (first image)^-1 *
    (second image); the states are the represented level indicators
    ``U(kappa^-1) f_i``.  ``kappa`` lies in the distinguished subgroup,
    which must permute the level indicators, so each state is the indicator
    of the level that ``kappa^-1`` sends level ``i`` to, recorded as that
    level's index.  It is read from the model's one level structure,
    which is built before the word scan runs.  Labels without a pair are
    skipped and reported.
    """
    values, _, actions = model._levels
    scan = scan_words(model)
    identity = identity_permutation(model.phi_size)

    findings = {
        (finding.from_label, finding.to_label): finding
        for finding in scan.transfer_findings
    }

    labels = [model.distinguished]
    kappas: dict[str, tuple] = {model.distinguished: identity}
    skipped = []
    states = [(model.distinguished, i, i) for i in range(len(values))]

    for label in sorted(model.labels):
        if label == model.distinguished:
            continue
        finding = findings.get((model.distinguished, label))
        if finding is None:
            skipped.append((label, "no transfer map from the distinguished variable"))
            continue
        if finding.status != "pair":
            skipped.append((label, "no distinct-image word pair"))
            continue
        (_, image_1), (_, image_2) = finding.words
        kappa = compose_permutations(_invert(image_1), image_2)
        kappas[label] = kappa
        labels.append(label)
        states.extend((label, i, level) for i, level in enumerate(actions[_invert(kappa)]))

    return QuestionStates(
        dim=len(values),
        labels=tuple(labels),
        states=tuple(states),
        kappas=kappas,
        skipped=tuple(skipped),
    )


# ---------------------------------------------------------------------------
# structural checkers


def validate_model(model: FiniteSymmetryModel) -> VerificationReport:
    """Structural validation: transfer relations, relabeling, partitions.

    Checks that (i) every stored transfer satisfies its pointwise relation,
    (ii) every variable's value range maps bijectively onto the
    distinguished range under the relabeling induced by the transfer chain,
    and (iii) each subgroup generator permutes its own variable's level
    sets.  The chain is a bijection of the points, so the value images
    cover the distinguished range: a relabeling that is a function and
    injective is onto it.  Violations are witness records, never
    exceptions.
    """
    witnesses: list[dict] = []
    violations = {"transfer": 0, "relabeling": 0, "partition": 0}

    def violation(kind: str, record: dict) -> None:
        violations[kind] += 1
        if len(witnesses) < _WITNESS_CAP:
            witnesses.append(record)

    for (a, b), perm in sorted(model.transfers.items()):
        theta_b = model.theta(b)
        moved = tuple(map(model.theta(a).__getitem__, perm))
        if moved == theta_b:
            continue
        for phi, (expected, got) in enumerate(zip(theta_b, moved)):
            if expected != got:
                violation(
                    "transfer",
                    {
                        "violation": "transfer_relation",
                        "from": a,
                        "to": b,
                        "phi": phi,
                        "expected": expected,
                        "got": got,
                    },
                )

    theta_zero = model.theta(model.distinguished)
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
        # The (value, distinguished value) pairs the points take, in order.
        pairs = sorted(set(zip(model.theta(label), map(theta_zero.__getitem__, forward))))
        relabeling = dict(pairs)
        if len(relabeling) < len(pairs):
            images: dict[int, list] = {}
            for value, image in pairs:
                images.setdefault(value, []).append(image)
            for value, found in images.items():
                if len(found) > 1:
                    violation(
                        "relabeling",
                        {
                            "violation": "relabeling_not_functional",
                            "variable": label,
                            "value": value,
                            "images": found,
                        },
                    )
        elif len(set(relabeling.values())) < len(relabeling):
            sources: dict[int, list] = {}
            for value, image in pairs:
                sources.setdefault(image, []).append(value)
            for image, values in sorted(sources.items()):
                if len(values) > 1:
                    violation(
                        "relabeling",
                        {
                            "violation": "relabeling_not_injective",
                            "variable": label,
                            "values": values,
                            "image": image,
                        },
                    )
        else:
            witnesses.append(
                {"relabeling": {str(v): r for v, r in pairs}, "variable": label}
            )

    for label in model.labels:
        theta = model.theta(label)
        levels = len(set(theta))
        for gen_index, perm in enumerate(model.generators[label]):
            # It keeps the partition iff each value's points land on one value.
            if len(set(zip(theta, map(theta.__getitem__, perm)))) == levels:
                continue
            buckets: dict[int, dict] = {}
            for phi in range(model.phi_size):
                buckets.setdefault(theta[phi], {}).setdefault(theta[perm[phi]], phi)
            for value, bucket in sorted(buckets.items()):
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
            "transfer_relations_checked": len(model.transfers),
            "transfer_violations": violations["transfer"],
            "relabeling_violations": violations["relabeling"],
            "partition_violations": violations["partition"],
        },
        witnesses=tuple(witnesses),
        notes=notes,
    )


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
    level sets, both checked where the model's one level structure is
    built; the question states read the same structure.  Everything else
    is report content.  lemma2
    reads only the level permutations, so its overlaps are exactly 1.0 or 0.0.
    """
    values, levels, actions = model._levels
    dim = len(values)
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
    union_closure = model._union_group
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
    # Each is listed once, by its first generator in canonical order, and
    # built once, as that generator's powers; the powers k^m with m prime to
    # the order generate it too, so they are skipped.
    cyclic: dict[tuple, int] = {}
    generating = {identity}
    for k in k_zero:
        if k not in generating:
            powers = [k]
            while powers[-1] != identity:
                powers.append(_compose(k, powers[-1]))
            order = cyclic[k] = len(powers)
            generating.update(p for m, p in enumerate(powers, 1) if math.gcd(m, order) == 1)
    reducible_witnesses = []
    for generator, order in cyclic.items():
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
                "subgroup_order": order,
                "level_cycle_lengths": lengths,
                "proper_invariant_subspace": subspace,
            }
        )
    irreducibility = VerificationReport(
        subject="assumption_3a",
        verdict="undetermined" if cyclic else "pass",
        metrics={
            "dim": dim,
            "cyclic_subgroups": len(cyclic),
            "reducible_subgroups": len(reducible_witnesses),
        },
        witnesses=tuple(reducible_witnesses),
        notes=(
            "reducible: every nontrivial cyclic subgroup leaves a proper "
            f"subspace of the {dim}-dimensional level span invariant "
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
    sizes = [len(level) for level in levels]
    failing = [
        (i, j)
        for i, j in itertools.permutations(range(dim), 2)
        if sizes[i] == sizes[j]
    ]
    separation_witnesses = [
        {
            "i": i,
            "j": j,
            "value_i": values[i],
            "value_j": values[j],
            "level_sizes": [sizes[i], sizes[j]],
        }
        for i, j in failing[:_WITNESS_CAP]
    ]
    separation = VerificationReport(
        subject="assumption_3c",
        verdict="fail" if failing else "pass",
        metrics={
            "dim": dim,
            "pairs_checked": dim * (dim - 1),
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
        {"permutation": list(k), "level_index": i, "value": values[i], "overlap": 1.0}
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


def verify_theorem1(model: FiniteSymmetryModel) -> VerificationReport:
    """Orthonormality and pairwise distinctness of the built states.

    Each state is a level index, and each label's states permute the
    levels, so they are orthonormal per label (``max_gram_defect`` is 0.0)
    and two states coincide, with overlap 1.0, exactly when they share a
    level; every other overlap is 0.0, so the check is exact and takes no
    tolerance.  Each level is held once by every one of the L built
    labels, so the d levels force d*C(L,2) collisions and, with L >= 2,
    the verdict fails.  Collisions are listed in row-major order of the
    pairs.  With no non-distinguished label built the verdict is
    undetermined.
    """
    built = build_question_states(model)
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

    dim, count = built.dim, len(built.labels)
    notes_parts = [
        f"{collisions} state pair(s) coincide up to phase across labels: each of "
        f"the {count} built labels holds the {dim} level states in some order, "
        f"so {dim}*C({count},2) = {dim * math.comb(count, 2)} collisions are forced"
    ]
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


# ---------------------------------------------------------------------------
# report batteries
#
# The reports of each ``qastates symmetry`` subcommand, in payload order.
# The checkers are called by their module names, so a rebound attribute of
# this module is honoured.


def check_reports(model: FiniteSymmetryModel) -> list[VerificationReport]:
    """lemma1, then the assumption and theorem1 batteries."""
    return [validate_model(model), *assumption_reports(model), *theorem1_reports(model)]


def assumption_reports(model: FiniteSymmetryModel) -> list[VerificationReport]:
    """assumption_1, 2, 3a, 3b, 3c and lemma2; 3b comes from the word scan."""
    measure, closure, irreducibility, separation, lemma2 = check_assumptions(model)
    return [measure, closure, irreducibility, detect_multivaluedness(model), separation, lemma2]


def theorem1_reports(model: FiniteSymmetryModel) -> list[VerificationReport]:
    """prop3 and theorem1.  theorem1 runs first: its states refuse a
    level-splitting model before the shared word scan."""
    theorem1 = verify_theorem1(model)
    return [verify_word_kernel(model), theorem1]
