"""Spin states built a stack at a time, against the per-state reference.

`qastates.spin` builds its states in `_stack_states`: the recursion's
passes run one at a time below `_STEPPED_PASSES` passes and step together
from there, the rows are stitched in one pass, then the norms, the phase
convention and the residual bound run once over the (n, d) stack; the
oracle's eigenvectors take the same pass.  `float_reference` keeps the
constructors that built one state at a time.  Recursion faults are planted
at `spin._pass_coefficients`, which the library and the reference both
call, so they reach either loop.
Here every ket must equal the reference's byte for byte and every residual
bit for bit, every verifier report and the generator state after it must
be the same, and a refused stack must raise the reference's exception with
its text: that of the first failing row, from its first failing check.

The stacks mix the fragile zones: the poles, directions just off them,
the xz and yz planes, random directions, the extreme answers h = +-j, and
answers whose recursion junction sits one step inside either end.  numpy
picks its loops by CPU level, so the module carries the `dispatch` marker,
which CI runs at each level.
"""

import contextlib
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import float_reference as ref
from fake_solves import plant_eig
from qastates import cli, linalg, qubit, spin
from qastates.spin import Direction, SpinSystem

pytestmark = pytest.mark.dispatch

ALL_SPINS = [k / 2 for k in range(1, 51)]
Z = Direction(0.0, 0.0, 1.0)


def junction(system, direction, h):
    """Where the recursion stitches its passes for (direction, h)."""
    return min(max(round(h * direction.z + system.j), 0), system.dim - 1)


def near_pole(t, phi, z):
    """A direction whose transverse component is t, up to rounding: at t =
    POLE_THRESHOLD it may fall on either side."""
    return Direction.normalized(t * math.cos(phi), t * math.sin(phi), z)


def fragile_answers(system, direction):
    """h = -j and +j, and the answers whose junction is one step inside
    either end."""
    inside = (1, system.dim - 2)
    answers = [-system.j, system.j]
    answers += [h for h in system.m_values.tolist() if junction(system, direction, h) in inside]
    return answers


def assert_same_states(got, want, where=""):
    assert len(got) == len(want), where
    for k, (a, b) in enumerate(zip(got, want)):
        at = (where, k, a.answer, a.direction)
        assert a.system == b.system and a.direction == b.direction, at
        assert type(a.answer) is float and a.answer.hex() == b.answer.hex(), at
        assert a.ket.dtype == b.ket.dtype and a.ket.shape == b.ket.shape, at
        assert a.ket.tobytes() == b.ket.tobytes(), at
        assert type(a.residual) is float and a.residual.hex() == b.residual.hex(), at
        assert not a.ket.flags.writeable, at


def reference_rows(system, directions, answers, op=None):
    """The per-state reference for each row, on the shared operator `op` or
    on each row's own."""
    return [
        ref.recursion_state(
            system, a, h, op if op is not None else spin.component_operator(system, a)
        )
        for a, h in zip(directions, answers)
    ]


def outcome(build):
    """What a build returns, or the type and text of what it raises."""
    try:
        return build()
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


def assert_same_outcome(got, want):
    """The same refusal, or the same states."""
    if isinstance(want, tuple):
        assert got == want
    else:
        assert_same_states(got, want)


# ---------------------------------------------------------------------------
# rows drawn from the fragile zones


@st.composite
def directions(draw):
    kind = draw(st.sampled_from(["pole", "inside", "near_pole", "xz", "yz", "random"]))
    sign = draw(st.sampled_from([1.0, -1.0]))
    if kind == "pole":
        return Direction(0.0, 0.0, sign)
    if kind == "inside":
        # Inside POLE_THRESHOLD of a pole: the axis branch.
        t = 10.0 ** draw(st.floats(-16.0, math.log10(spin.POLE_THRESHOLD) - 0.01))
        return Direction.normalized(0.6 * t, -0.8 * t, sign)
    if kind == "near_pole":
        t = 10.0 ** draw(st.floats(math.log10(spin.POLE_THRESHOLD), -3.0))
        return near_pole(t, draw(st.floats(0.0, 2.0 * math.pi)), sign)
    if kind in ("xz", "yz"):
        theta = draw(st.floats(0.0, math.pi))
        s, c = math.sin(theta), math.cos(theta)
        return Direction.normalized(s, 0.0, c) if kind == "xz" else Direction.normalized(0.0, s, c)
    return spin.random_direction(np.random.default_rng(draw(st.integers(0, 2**32 - 1))))


@st.composite
def answers_for(draw, system, direction):
    kind = draw(st.sampled_from(["extreme", "fragile", "any"]))
    pool = system.m_values.tolist()
    if kind == "extreme":
        pool = [-system.j, system.j]
    elif kind == "fragile":
        pool = fragile_answers(system, direction)
    return draw(st.sampled_from(pool))


@st.composite
def stacks(draw, shared=False):
    """(system, directions, answers): rows at one j, of one direction if
    `shared`."""
    system = SpinSystem(draw(st.sampled_from(ALL_SPINS)))
    n = draw(st.integers(1, 12))
    rows_dirs = [draw(directions())] * n if shared else [draw(directions()) for _ in range(n)]
    answers = [draw(answers_for(system, a)) for a in rows_dirs]
    return system, rows_dirs, answers


class TestStacksAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(stack=stacks())
    def test_rows_on_their_own_operators(self, stack):
        system, dirs, answers = stack
        got = spin.recursion_states(system, dirs, answers)
        assert_same_states(got, reference_rows(system, dirs, answers))

    @settings(max_examples=60, deadline=None)
    @given(stack=stacks(), per_stack=st.integers(1, 5))
    def test_rows_split_into_stacks(self, stack, per_stack):
        # Rows whose operators exceed the byte budget go in consecutive
        # stacks, with the same states.
        system, dirs, answers = stack
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(spin, "_OPERATOR_STACK_BYTES", per_stack * 16 * system.dim**2)
            got = spin.recursion_states(system, dirs, answers)
        assert_same_states(got, reference_rows(system, dirs, answers))

    def test_component_operators_have_component_operator_bits(self):
        rng = np.random.default_rng(2602)
        for j in (0.5, 3.5, 25.0):
            system = SpinSystem(j)
            dirs = [spin.random_direction(rng) for _ in range(5)] + [Z, Z.antipode()]
            for op, a in zip(spin._component_operators(system, dirs), dirs):
                assert op.tobytes() == spin.component_operator(system, a).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(stack=stacks(shared=True))
    def test_rows_on_one_shared_operator(self, stack):
        system, dirs, answers = stack
        op = spin.component_operator(system, dirs[0])
        got = spin._stack_states(system, dirs, answers, op)
        assert_same_states(got, reference_rows(system, dirs, answers, op))

    @settings(max_examples=60, deadline=None)
    @given(stack=stacks(shared=True))
    def test_a_state_alone_is_a_stack_of_one(self, stack):
        system, dirs, answers = stack
        for a, h in zip(dirs, answers):
            # An unsnapped answer is snapped as before.
            got = spin.eigenstate_recursion(system, a, h + 1e-12)
            assert_same_states([got], [ref.eigenstate_recursion(system, a, h + 1e-12)])

    @pytest.mark.parametrize("j", ALL_SPINS)
    def test_every_spin(self, j):
        # Every route at every j: catalogs along each zone's directions,
        # one mixed stack of all their fragile rows, and the oracle.
        system = SpinSystem(j)
        rng = np.random.default_rng(round(4 * j) + 2600)
        theta = rng.uniform(0.0, math.pi)
        dirs = [
            spin.random_direction(rng),
            near_pole(10.0 ** rng.uniform(math.log10(spin.POLE_THRESHOLD), -3.0), 1.0, 1.0),
            near_pole(10.0 ** rng.uniform(math.log10(spin.POLE_THRESHOLD), -3.0), 4.0, -1.0),
            Direction.normalized(math.sin(theta), 0.0, math.cos(theta)),
            Direction.normalized(0.0, math.sin(theta), math.cos(theta)),
            Z,
            Z.antipode(),
            Direction.normalized(3e-12, -4e-12, -1.0),
        ]
        for a in dirs:
            assert_same_states(spin.state_catalog(system, a), ref.state_catalog(system, a), a)
        rows = [(a, h) for a in dirs for h in fragile_answers(system, a)]
        got = spin.recursion_states(system, [a for a, _ in rows], [h for _, h in rows])
        assert_same_states(got, reference_rows(system, *zip(*rows)))
        a = dirs[0]
        op = spin.component_operator(system, a)
        assert_same_states(spin.oracle_catalog(system, a), ref.oracle_states(system, a, op))


def pass_count(system, direction, h):
    """The recurrence passes of a row: none at a pole, one when its
    junction sits at an end, else two."""
    if direction.transverse < spin.POLE_THRESHOLD:
        return 0
    return 1 if junction(system, direction, h) in (0, system.dim - 1) else 2


def rows_making(system, count, rng):
    """A pole row, then rows from the other fragile zones whose recursion
    makes `count` passes in all, the last ones one-sided: h = +j just off
    the north pole."""
    rows, total = [(Z, system.j)], 0
    while total < count - 2:
        a = [
            spin.random_direction(rng),
            near_pole(10.0 ** rng.uniform(math.log10(spin.POLE_THRESHOLD), -3.0), 1.0, -1.0),
            Direction.normalized(math.sin(len(rows)), 0.0, math.cos(len(rows))),
            Direction.normalized(0.0, math.sin(len(rows)), math.cos(len(rows))),
        ][len(rows) % 4]
        h = float(rng.choice(system.m_values))
        if total + pass_count(system, a, h) <= count - 2:
            rows.append((a, h))
            total += pass_count(system, a, h)
        else:
            break
    north = near_pole(2.0 * spin.POLE_THRESHOLD, 0.5, 1.0)
    assert pass_count(system, north, system.j) == 1
    rows += [(north, system.j)] * (count - total)
    return [a for a, _ in rows], [h for _, h in rows]


class TestSteppedThreshold:
    """Stacks of _STEPPED_PASSES - 1 passes, whose passes each run alone,
    and of _STEPPED_PASSES, whose passes step together, against the
    reference: the same kets and residuals, and the same refusals."""

    @pytest.mark.parametrize("side", [-1, 0], ids=["loop", "stepped"])
    @pytest.mark.parametrize("j", [0.5, 2.0, 3.5, 12.5, 25.0])
    def test_either_side(self, monkeypatch, j, side):
        system = SpinSystem(j)
        count = spin._STEPPED_PASSES + side
        dirs, answers = rows_making(system, count, np.random.default_rng(round(4 * j) - side))
        assert sum(pass_count(system, a, h) for a, h in zip(dirs, answers)) == count
        stepped = []
        true_stepped = spin._stepped_passes

        def counted(system, passes):
            stepped.append(len(passes))
            return true_stepped(system, passes)

        monkeypatch.setattr(spin, "_stepped_passes", counted)
        ops = spin._component_operators(system, dirs)
        got = spin._stack_states(system, dirs, answers, ops)
        assert stepped == ([count] if side == 0 else [])
        assert_same_states(got, reference_rows(system, dirs, answers))
        # A fault on one answer, planted on what either loop computed, is
        # refused as the reference refuses it.
        pool = sorted(set(answers))
        for kind in ("scaled", "zeros", "nan", "ones"):
            faults = {pool[len(pool) // 2]: kind}
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(spin, "_pass_coefficients", faulted_passes(faults))
                got = outcome(lambda: spin._stack_states(system, dirs, answers, ops))
                want = outcome(lambda: reference_rows(system, dirs, answers))
            assert_same_outcome(got, want)
            assert isinstance(want, tuple)


class TestPhaseStack:
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_rows_match_fix_phase(self, order):
        rng = np.random.default_rng(2601)
        for d in range(2, 52):
            rows = rng.standard_normal((9, d)) + 1j * rng.standard_normal((9, d))
            rows[3, 0] = rows[3, d - 1] = 3.0  # a tie
            rows[4, 0], rows[4, 1] = 2.0, 2.0 + 1e-13  # a tie inside the window
            rows[5] = np.eye(d)[d // 2] * -1j
            rows = np.asarray(rows, order=order)
            fixed = linalg.fix_phases(rows)
            assert fixed.flags.c_contiguous
            for got, v in zip(fixed, rows):
                assert got.tobytes() == linalg.fix_phase(v).tobytes(), (d, v)


def assert_same_report(name, j, samples, seed, eps=1e-9):
    """The library verifier and its one-direction-at-a-time reference give
    the same report and leave the generator in the same state."""
    lib_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    lib = getattr(spin, name)(SpinSystem(j), samples=samples, eps=eps, rng=lib_rng)
    want = getattr(ref, name)(SpinSystem(j), samples=samples, eps=eps, rng=ref_rng)
    assert repr(lib.to_json_dict()) == repr(want.to_json_dict())
    assert lib_rng.bit_generator.state == ref_rng.bit_generator.state


class TestVerifiersAgainstReference:
    # The last two hold many directions to one stack.
    @pytest.mark.parametrize(
        "j,samples",
        [(0.5, 6), (1.0, 5), (2.5, 4), (3.5, 3), (7.0, 2), (12.5, 1), (2.0, 40), (7.0, 12)],
    )
    def test_verify_eigenstates(self, j, samples):
        for seed in range(2):
            assert_same_report("verify_eigenstates", j, samples, seed)

    # At j = 25 fourteen directions take two passes of twelve and two.
    @pytest.mark.parametrize("j,samples", [(0.5, 30), (2.0, 40), (7.0, 12), (25.0, 14)])
    def test_verify_orthogonality(self, j, samples):
        for seed in range(2):
            assert_same_report("verify_orthogonality", j, samples, seed)
        # An eps below the defects: every direction is a witness.
        assert_same_report("verify_orthogonality", j, 3, 2, eps=1e-300)

    @pytest.mark.parametrize("per_pass", [1, 2, 3])
    def test_requests_split_into_passes(self, monkeypatch, per_pass):
        # Directions whose operators exceed the byte budget go in
        # consecutive passes, with the same reports.
        system = SpinSystem(3.5)
        monkeypatch.setattr(spin, "_OPERATOR_STACK_BYTES", per_pass * 16 * system.dim**2)
        for name in ("verify_eigenstates", "verify_orthogonality"):
            assert_same_report(name, system.j, 5, per_pass)

    @pytest.mark.parametrize("j", [0.5, 2.0, 3.5])
    def test_orthogonality_refuses_as_the_reference(self, monkeypatch, j):
        # A wrong recursion: the first failing row of the first failing
        # catalog, with `state_catalog`'s prefix.
        monkeypatch.setattr(spin, "_pass_coefficients", per_pass(scaled_recurrence_up))
        system = SpinSystem(j)
        got = outcome(lambda: spin.verify_orthogonality(system, samples=3, rng=np.random.default_rng(1)))
        want = outcome(lambda: ref.verify_orthogonality(system, samples=3, rng=np.random.default_rng(1)))
        assert got == want and got[0] is ValueError
        assert got[1].startswith("catalog failed at direction=")

    @pytest.mark.parametrize("j", [0.5, 1.0, 2.0, 3.5, 12.5, 25.0])
    def test_verify_ray_collisions(self, j):
        for samples, eps in ((0, 1e-9), (1, 1e-9), (25, 1e-9), (10, 0.999999)):
            lib_rng, ref_rng = np.random.default_rng(samples), np.random.default_rng(samples)
            lib = spin.verify_ray_collisions(SpinSystem(j), samples=samples, eps=eps, rng=lib_rng)
            want = ref.verify_ray_collisions(SpinSystem(j), samples=samples, eps=eps, rng=ref_rng)
            assert repr(lib.to_json_dict()) == repr(want.to_json_dict())
            assert lib_rng.bit_generator.state == ref_rng.bit_generator.state


# ---------------------------------------------------------------------------
# refusals


def scaled_recurrence_up(system, direction, h, k_end):
    """`_recurrence_up` with its z * m term scaled by 1.001: a wrong
    recursion whose states fail the residual bound."""
    j = system.j
    raising, lowering = spin._ladder_table(system)
    up = complex(direction.x, direction.y)
    dn = up.conjugate()
    b = np.zeros(k_end + 1, dtype=complex)
    b[0] = 1.0
    for k in range(k_end):
        m = -j + k
        num = (h - 1.001 * (direction.z * m)) * b[k]
        if k > 0:
            num -= 0.5 * dn * raising[k - 1] * b[k - 1]
        b[k + 1] = num / (0.5 * up * lowering[k + 1])
        peak = abs(b[k + 1])
        if peak > spin._RESCALE_LIMIT:
            b[: k + 2] /= peak
    return b


def per_pass(recurrence):
    """A stand-in for `spin._pass_coefficients`, the seam every recursion
    pass of the library and of the reference goes through, that computes
    each pass with `recurrence(system, direction, h, k_end)` in place of
    `_recurrence_up`, on either side of _STEPPED_PASSES."""

    def pass_coefficients(system, passes):
        table = np.zeros((len(passes), system.dim), dtype=complex)
        for row, (direction, h, k_end) in zip(table, passes):
            row[: k_end + 1] = recurrence(system, direction, h, k_end)
        return table

    return pass_coefficients


def faulted_passes(faults):
    """`spin._pass_coefficients` with a fault per answer, planted on the
    passes the true seam computed, whichever loop it ran: "ones" (not an
    eigenvector), "zeros" (a vanishing pass, or a degenerate junction),
    "nan" (a pass that left the floats; NaN, unlike inf, passes the stitch
    without a warning), "huge" (finite coefficients whose norm overflows,
    planted on one-sided routes only, where no stitch squares them), or
    "scaled"."""
    true_passes = spin._pass_coefficients

    def pass_coefficients(system, passes):
        table = true_passes(system, passes)
        for row, (direction, h, k_end) in zip(table, passes):
            fault = faults.get(h)  # the downward pass runs along the mirror, at h
            b = row[: k_end + 1]
            if fault == "ones":
                b[:] = 1.0
            elif fault == "zeros":
                b[:] = 0.0
            elif fault == "scaled":
                b[:] = scaled_recurrence_up(system, direction, h, k_end)
            elif fault == "nan":
                b[k_end // 2] = math.nan
            elif fault == "huge":
                b *= 1e300 / np.abs(b).max()
        return table

    return pass_coefficients


FAULTS = st.sampled_from(["none", "ones", "zeros", "nan", "scaled"])


class TestRefusals:
    @settings(max_examples=150, deadline=None)
    @given(stack=stacks(), data=st.data())
    def test_first_failing_row_and_check(self, stack, data):
        system, dirs, answers = stack
        pool = system.m_values.tolist()
        faults = dict(zip(pool, data.draw(st.lists(FAULTS, min_size=len(pool), max_size=len(pool)))))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(spin, "_pass_coefficients", faulted_passes(faults))
            per_stack = data.draw(st.sampled_from([1, 2, 3, 64]))
            patch.setattr(spin, "_OPERATOR_STACK_BYTES", per_stack * 16 * system.dim**2)
            got = outcome(lambda: spin.recursion_states(system, dirs, answers))
            assert_same_outcome(got, outcome(lambda: reference_rows(system, dirs, answers)))
            got = outcome(lambda: spin.state_catalog(system, dirs[0]))
            assert_same_outcome(got, outcome(lambda: ref.state_catalog(system, dirs[0])))
            if isinstance(got, tuple):
                assert got[1].startswith(f"catalog failed at direction={dirs[0]}, h=")

    def test_norm_overflow(self, monkeypatch):
        # Finite coefficients whose squares overflow divide by an infinite
        # norm into NaN, so the phase convention refuses them, after any row
        # before them.  The per-state code also warned in that division;
        # the stack does not.  The recursion rescales its passes below
        # 1e150, so no real pass comes near this.
        system = SpinSystem(3.0)
        direction = Direction.normalized(0.3, 0.4, 0.8)
        assert junction(system, direction, 3.0) == system.dim - 1
        monkeypatch.setattr(spin, "_pass_coefficients", faulted_passes({3.0: "huge", 2.0: "ones"}))
        for answers in ([3.0], [2.0, 3.0], [3.0, 3.0, 2.0]):
            dirs = [direction] * len(answers)
            got = outcome(lambda: spin.recursion_states(system, dirs, answers))
            with np.errstate(invalid="ignore"):
                assert got == outcome(lambda: reference_rows(system, dirs, answers))
            text = "residual" if answers[0] == 2.0 else "cannot fix the phase of a vector with non-finite"
            assert got[0] is ValueError and text in got[1]

    def test_oracle_refusals(self, monkeypatch):
        # The basis vectors as eigenvectors: the first answer is refused by
        # its residual, also when the second eigenvector is zero.  A zero
        # first eigenvector is refused by the phase convention instead.
        vectors = np.eye(2, dtype=complex)
        decomposition = linalg.EigenDecomposition(np.array([-0.5, 0.5]), vectors)
        plant_eig(monkeypatch, lambda a: decomposition)
        for column in (None, 1, 0):
            vectors[:] = np.eye(2)
            if column is not None:
                vectors[:, column] = 0.0
            x = Direction(1.0, 0.0, 0.0)
            op = spin.component_operator(SpinSystem(0.5), x)
            got = outcome(lambda: spin.oracle_catalog(SpinSystem(0.5), x))
            assert got == outcome(lambda: ref.oracle_states(SpinSystem(0.5), x, op))
            assert got[0] is ValueError
        assert got[1] == "cannot fix the phase of the zero vector"

    @pytest.mark.parametrize("j", [0.5, 2.0, 3.5])
    def test_verifiers_refuse_as_the_reference(self, monkeypatch, j):
        monkeypatch.setattr(spin, "_pass_coefficients", per_pass(scaled_recurrence_up))
        system = SpinSystem(j)
        for name in ("verify_eigenstates", "verify_ray_collisions"):
            got = outcome(lambda: getattr(spin, name)(system, samples=3, rng=np.random.default_rng(1)))
            want = outcome(lambda: getattr(ref, name)(system, samples=3, rng=np.random.default_rng(1)))
            assert got == want and got[0] is ValueError, name
        got = outcome(lambda: qubit.verify_prop2(samples=4, rng=np.random.default_rng(1)))
        assert got == outcome(lambda: ref.verify_prop2(samples=4, rng=np.random.default_rng(1)))


# The planted fault's exit code and stderr line for each command, as
# produced by the per-state constructors.
FAULTED_COMMANDS = [
    ("spin state --j 2 --dir 0.6,0,0.8 --h 1",
     "error: ket is not an eigenvector: residual 3.903e-04 exceeds 1e-09"),
    ("spin state --j 0.5 --dir 0.6,0,0.8 --h 0.5",
     "error: ket is not an eigenvector: residual 1.333e-04 exceeds 1e-09"),
    ("spin catalog --j 2 --dir 0.6,0,0.8",
     "error: catalog failed at direction=Direction(x=0.6, y=0.0, z=0.8), h=-2.0: "
     "ket is not an eigenvector: residual 5.199e-04 exceeds 1e-09"),
    ("spin catalog --j 12.5 --dir 0.6,0.48,0.64",
     "error: catalog failed at direction=Direction(x=0.6, y=0.48, z=0.64), h=-12.5: "
     "ket is not an eigenvector: residual 6.453e-03 exceeds 1e-09"),
    ("spin verify --j 2 --samples 3",
     "error: ket is not an eigenvector: residual 2.685e-04 exceeds 1e-09"),
    ("spin verify --j 3.5 --samples 2 --seed 7",
     "error: ket is not an eigenvector: residual 6.422e-04 exceeds 1e-09"),
    ("spin overlap --j 2 --samples 3",
     "error: ket is not an eigenvector: residual 2.685e-04 exceeds 1e-09"),
    ("spin overlap --j 0.5 --samples 4 --seed 2",
     "error: ket is not an eigenvector: residual 1.499e-04 exceeds 1e-09"),
    ("qubit prop2 --samples 5",
     "error: ket is not an eigenvector: residual 1.130e-04 exceeds 1e-09"),
    ("qubit bloch --dir 0.6,0,0.8",
     "error: ket is not an eigenvector: residual 1.333e-04 exceeds 1e-09"),
    ("report --golden --seed 0",
     "error: ket is not an eigenvector: residual 6.710e-05 exceeds 1e-09"),
]


class TestFaultParity:
    """A wrong recursion, planted with monkeypatch, ends each command as it
    did when states were built one at a time: exit 2 and the same line."""

    @pytest.mark.parametrize("argv,line", FAULTED_COMMANDS, ids=[a for a, _ in FAULTED_COMMANDS])
    def test_planted_fault(self, monkeypatch, argv, line):
        monkeypatch.setattr(spin, "_pass_coefficients", per_pass(scaled_recurrence_up))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv.split())
        assert (code, out.getvalue(), err.getvalue()) == (2, "", line + "\n")
