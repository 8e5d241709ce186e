"""Tests for the command-line front end.

Each command runs in-process through main() with captured output; one
test drives the installed console script end to end.  The golden battery
file freezes the report schema: regenerating it byte-identically is part
of the determinism contract.
"""

import contextlib
import copy
import functools
import io
import json
import math
import os
import shutil
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qastates import cli, evariables, linalg, spin, symmetry
from test_symmetry import dihedral_model

GOLDEN = Path(__file__).parent / "golden" / "battery.json"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out), err


def run_in_process(argv) -> tuple[int, str, str]:
    """main(argv) with its output captured, for hypothesis tests, which
    cannot take the function-scoped capsys fixture."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def random_state(seed, j):
    rng = np.random.default_rng(seed)
    system = spin.SpinSystem(j)
    direction = spin.random_direction(rng)
    h = float(rng.choice(system.m_values))
    return spin.eigenstate_recursion(system, direction, h)


# ---------------------------------------------------------------------------
# state records


class TestStateRecords:
    def test_z_axis_record(self):
        state = spin.eigenstate_recursion(
            spin.SpinSystem(0.5), spin.Direction(0.0, 0.0, 1.0), 0.5
        )
        record = cli.emit_state(state)
        assert list(record) == ["j", "dir", "h", "amplitudes"]
        assert record["j"] == 0.5
        assert record["dir"] == [0.0, 0.0, 1.0]
        assert record["h"] == 0.5
        assert record["amplitudes"] == [[0.0, 0.0], [1.0, 0.0]]

    def test_amplitudes_equal_the_elementwise_floats(self):
        up = spin.Direction(0.0, 0.0, 1.0)
        signed_zeros = np.array([complex(-0.0, -0.0), complex(1.0, -0.0)])
        states = [random_state(5, j) for j in (0.5, 12.5, 25.0)]
        states.append(spin.QuestionAnswerState(spin.SpinSystem(0.5), up, 0.5, signed_zeros))
        for state in states:
            reference = [[float(z.real), float(z.imag)] for z in state.ket]
            amplitudes = cli.emit_state(state)["amplitudes"]
            # repr tells -0.0 from 0.0 and a numpy float from a float.
            assert repr(amplitudes) == repr(reference)
            assert {type(x) for pair in amplitudes for x in pair} == {float}

    @pytest.mark.parametrize("j", [0.5, 1.0, 1.5, 2.0])
    def test_round_trip_is_exact(self, j):
        state = random_state(20240817 + int(2 * j), j)
        restored = cli.parse_state(json.loads(json.dumps(cli.emit_state(state))))
        assert restored.system == state.system
        assert restored.direction == state.direction
        assert restored.answer == state.answer
        assert np.array_equal(restored.ket, state.ket)

    def test_record_norm(self):
        record = cli.emit_state(random_state(7, 1.0))
        norm = sum(re * re + im * im for re, im in record["amplitudes"])
        assert abs(norm - 1.0) <= 1e-12

    def test_parse_rejects_malformed_records(self):
        good = cli.emit_state(random_state(2, 0.5))
        with pytest.raises(ValueError, match="fields"):
            cli.parse_state({**good, "extra": 1})
        with pytest.raises(ValueError, match="fields"):
            cli.parse_state({"j": 0.5})
        bad_dir = dict(good)
        bad_dir["dir"] = [0.0, 1.0]
        with pytest.raises(ValueError, match="three components"):
            cli.parse_state(bad_dir)
        with pytest.raises(ValueError, match="JSON object"):
            cli.parse_state([1, 2])
        # Only JSON numbers are numbers, and each error names its field.
        amplitudes = good["amplitudes"]
        for message, edit in [
            ("^j must be a finite JSON number", {"j": True}),
            ("^j must be a finite JSON number", {"j": "0.5"}),
            ("^h must be a finite JSON number", {"h": "0.5"}),
            ("^h must be a finite JSON number", {"h": None}),
            (r"^dir\[0\] must be", {"dir": ["0", 0, 1]}),
            (r"^dir\[2\] must be", {"dir": [0, 0, True]}),
            ("^field 'dir' must hold three components", {"dir": "0,0,1"}),
            ("^dir: direction must be unit length", {"dir": [0, 0, 2]}),
            (r"^amplitudes\[1\]\[0\] must be", {"amplitudes": [amplitudes[0], ["1", 0.0]]}),
            (r"^amplitudes\[0\]\[1\] must be", {"amplitudes": [[0.0, False], amplitudes[1]]}),
            (r"^amplitudes\[1\]\[1\] must be", {"amplitudes": [amplitudes[0], [0.0, math.nan]]}),
            (r"^amplitudes\[0\]\[0\] must be", {"amplitudes": [[10**400, 0.0], amplitudes[1]]}),
            (r"^amplitudes\[1\] must be a two-element", {"amplitudes": [amplitudes[0], [1.0]]}),
            (r"^amplitudes\[0\] must be a two-element", {"amplitudes": [[1.0, 0.0, 0.0]]}),
            (r"^amplitudes\[0\] must be a two-element", {"amplitudes": [(1.0, 0.0)]}),
            ("^amplitudes must be a list", {"amplitudes": "[[0, 0], [1, 0]]"}),
        ]:
            with pytest.raises(ValueError, match=message):
                cli.parse_state({**good, **edit})
        # The lax parser read this record as j=1 along +z with answer 1.
        with pytest.raises(ValueError, match="^j must be a finite JSON number"):
            cli.parse_state(
                {"j": True, "dir": ["0", 0, True], "h": "1",
                 "amplitudes": [[0, 0], [0, 0], [1, 0]]}
            )

    def test_parse_names_dir_when_its_norm_overflows(self):
        record = {"j": 0.5, "dir": [1e200, 0, 0], "h": 0.5, "amplitudes": [[1, 0], [0, 0]]}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^dir: .* unit length, got norm inf$"):
                cli.parse_state(record)

    def test_parse_refuses_kets_the_state_constructor_refuses(self):
        # The records are well formed; the ket is not a state of the
        # package, and the validating constructor says why.
        good = cli.emit_state(random_state(4, 1.5))
        other = cli.emit_state(random_state(5, 1.5))
        scaled = [[2.0 * re, 2.0 * im] for re, im in good["amplitudes"]]
        negated = [[-re, -im] for re, im in good["amplitudes"]]
        for message, edit in [
            ("^ket must be normalized$", {"amplitudes": scaled}),
            ("^ket does not follow the package phase convention$", {"amplitudes": negated}),
            (r"^ket is not an eigenvector: residual \S+ exceeds 1e-09$", {"dir": other["dir"]}),
        ]:
            with pytest.raises(ValueError, match=message):
                cli.parse_state({**good, **edit})
        assert np.array_equal(cli.parse_state(good).ket, random_state(4, 1.5).ket)


# ---------------------------------------------------------------------------
# spin commands


class TestSpinCommands:
    def test_state_z_axis_spin_one(self, capsys):
        code, record, _ = run_json(
            capsys, "spin", "state", "--j", "1", "--dir", "0,0,1", "--h", "0"
        )
        assert code == 0
        assert record["amplitudes"] == [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]

    def test_state_output_parses_back(self, capsys):
        code, record, _ = run_json(
            capsys, "spin", "state", "--j", "1.5", "--dir", "0.6,0,0.8", "--h", "-0.5"
        )
        assert code == 0
        state = cli.parse_state(record)
        assert state.answer == -0.5
        assert state.residual <= 1e-9

    @pytest.mark.parametrize(
        "flags",
        [
            ("--j", "2", "--samples", "10"),
            # The top of the supported range: recursion against oracle and
            # per-direction orthonormality at d = 51.
            ("--j", "25", "--samples", "5", "--seed", "3"),
        ],
        ids=["j2", "j25"],
    )
    def test_verify_passes(self, capsys, flags):
        code, payload, err = run_json(capsys, "spin", "verify", *flags)
        assert code == 0
        subjects = [r["subject"] for r in payload["reports"]]
        assert subjects == ["prop1", "cor1"]
        assert all(r["verdict"] == "pass" for r in payload["reports"])
        assert payload["reports"][0]["metrics"]["max_residual"] <= 1e-9
        assert "prop1: pass" in err

    def test_catalog_counts_and_gram(self, capsys):
        code, payload, _ = run_json(
            capsys, "spin", "catalog", "--j", "1.5", "--dir", "0.6,0,0.8"
        )
        assert code == 0
        assert len(payload["states"]) == 4
        assert payload["gram_defect"] <= 1e-9
        answers = [s["h"] for s in payload["states"]]
        assert answers == [-1.5, -0.5, 0.5, 1.5]

    def test_overlap_records_collisions(self, capsys):
        code, payload, _ = run_json(
            capsys, "spin", "overlap", "--j", "1", "--samples", "20"
        )
        assert code == 0
        report = payload["reports"][0]
        assert report["subject"] == "cor2"
        assert report["verdict"] == "pass"
        assert len(report["witnesses"]) == 20

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "state.json"
        code, out, _ = run_cli(
            capsys,
            "spin", "state", "--j", "1", "--dir", "0,0,1", "--h", "1",
            "--out", str(target),
        )
        assert code == 0
        assert out == ""
        record = json.loads(target.read_text(encoding="utf-8"))
        assert record["h"] == 1.0

    @pytest.mark.parametrize(
        "argv",
        [
            ("spin", "state", "--j", "0.7", "--dir", "0,0,1", "--h", "0.5"),
            ("spin", "state", "--j", "40", "--dir", "0,0,1", "--h", "0.5"),
            ("spin", "state", "--j", "1", "--dir", "0,0,2", "--h", "0"),
            ("spin", "state", "--j", "1", "--dir", "0,0", "--h", "0"),
            ("spin", "state", "--j", "1", "--dir", "0,0,1", "--h", "0.5"),
            ("spin", "state", "--j", "1", "--dir", "0,0,1", "--h", "7"),
            ("spin", "verify", "--j", "1", "--samples", "0"),
            ("spin", "verify", "--j", "1", "--seed", "-3"),
            ("spin", "verify", "--j", "1", "--eps", "2"),
            ("spin", "nonsense",),
            ("spin", "state", "--j", "0", "--dir", "0,0,1", "--h", "0"),
            ("spin", "state", "--j", "25.5", "--dir", "0,0,1", "--h", "0.5"),
            ("spin", "state", "--j", "nan", "--dir", "0,0,1", "--h", "0.5"),
            # More than 1e-12 from 2.5: once snapped to 2.5 and accepted.
            ("spin", "state", "--j", "2.5000000001", "--dir", "0,0,1", "--h", "0.5"),
            # Once an OverflowError traceback from rounding 2j.
            ("spin", "verify", "--j", "1e308"),
        ],
    )
    def test_usage_errors_exit_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "Traceback" not in err

    def test_j_accepts_every_half_integer(self, capsys):
        for two_j in range(1, 51):
            j = f"{two_j / 2:g}"
            code, record, _ = run_json(
                capsys, "spin", "state", "--j", j, "--dir", "0,0,1", "--h", j
            )
            assert code == 0
            assert record["j"] == spin.SpinSystem(float(j)).j == two_j / 2

    @pytest.mark.parametrize("j", ["2.5000000001", "0.7", "26", "1e308"])
    def test_j_rejection_names_flag(self, capsys, j):
        code, out, err = run_cli(capsys, "spin", "catalog", "--j", j, "--dir", "0,0,1")
        assert code == 2
        assert out == ""
        assert "error: argument --j: j must " in err

    @pytest.mark.parametrize("h", ["inf", "nan"])
    def test_non_finite_answer_names_flag(self, capsys, h):
        code, out, err = run_cli(
            capsys, "spin", "state", "--j", "1", "--dir", "0,0,1", "--h", h
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: --h: ")

    def test_near_unit_direction_accepted(self, capsys):
        code, record, _ = run_json(
            capsys, "spin", "state", "--j", "0.5", "--dir", "0,0,0.9999999", "--h", "0.5"
        )
        assert code == 0
        assert record["dir"] == [0.0, 0.0, 1.0]


# ---------------------------------------------------------------------------
# qubit commands


class TestQubitCommands:
    def test_bloch_round_trip(self, capsys):
        code, payload, _ = run_json(capsys, "qubit", "bloch", "--dir", "0,1,0")
        assert code == 0
        assert np.allclose(payload["bloch"], [0.0, 1.0, 0.0], atol=1e-9)
        assert payload["roundtrip_angle"] <= 1e-8
        assert payload["state"]["j"] == 0.5

    def test_prop2_reports(self, capsys):
        code, payload, _ = run_json(
            capsys, "qubit", "prop2", "--samples", "50", "--seed", "3"
        )
        assert code == 0
        assert payload["parameters"]["pairs"] == 25
        assert [r["subject"] for r in payload["reports"]] == ["prop2", "prop2"]
        assert all(r["verdict"] == "pass" for r in payload["reports"])


# ---------------------------------------------------------------------------
# evar commands


@st.composite
def separation_values(draw, size: int) -> list[float]:
    """``size`` ascending floats from a small or a large offset, each gap a
    multiple of SEPARATION times the offset's magnitude: just below, just
    above, or far from the separation threshold."""
    offset = draw(st.sampled_from((0.0, 1.0, -3.0, 1e6, -1e6, 1e12)))
    unit = evariables.SEPARATION * max(1.0, abs(offset))
    factors = st.sampled_from((0.5, 0.999, 1.001, 2.0)) | st.floats(1e-3, 1e10)
    values = [offset]
    for _ in range(size - 1):
        values.append(values[-1] + draw(factors) * unit)
    return values


@st.composite
def evar_inputs(draw) -> tuple[list[float], list[float] | None]:
    """Outcome values and, half the time, a map onto a few levels whose
    gaps sit near the threshold too."""
    values = draw(separation_values(draw(st.integers(1, 5))))
    if draw(st.booleans()):
        return values, None
    levels = draw(separation_values(draw(st.integers(1, len(values)))))
    return values, [draw(st.sampled_from(levels)) for _ in values]


# Signed magnitudes on both sides of the largest float's square root.  Any
# two are separated unless 1e200 is among them, and then the squares
# overflow first.
HUGE_OUTCOMES = st.sampled_from((1e153, 9e153, 1e154, 1.2e154, 1.3e154, 1e200)).flatmap(
    lambda m: st.sampled_from((m, -m))
)


@st.composite
def huge_evar_argvs(draw) -> list[str]:
    """An evar command over huge outcomes, its map drawn from them too."""
    values = sorted(draw(st.lists(HUGE_OUTCOMES, min_size=1, max_size=3, unique=True)))
    command = draw(st.sampled_from(("maximal", "coarse-grain")))
    argv = ["evar", command, f"--values={','.join(map(repr, values))}"]
    if command == "coarse-grain" or draw(st.booleans()):
        mapped = draw(st.lists(HUGE_OUTCOMES, min_size=len(values), max_size=len(values)))
        argv.append(f"--map={','.join(map(repr, mapped))}")
    return argv


class TestEvarCommands:
    def test_coarse_grain_merges(self, capsys):
        code, payload, _ = run_json(
            capsys, "evar", "coarse-grain", "--values", "1,2,3,4", "--map", "1,1,2,2"
        )
        assert code == 0
        assert payload["coarse_values"] == [1.0, 2.0]
        assert payload["classes"] == [[0, 1], [2, 3]]
        report = payload["reports"][0]
        assert report["subject"] == "coarse_grain"
        assert report["verdict"] == "pass"

    def test_maximal_detection(self, capsys):
        code, payload, _ = run_json(capsys, "evar", "maximal", "--values", "1,2,3")
        assert code == 0
        assert payload["maximal"] is True
        assert payload["eigenvalues"] == [1.0, 2.0, 3.0]
        code, payload, _ = run_json(
            capsys, "evar", "maximal", "--values", "1,2,3", "--map", "1,1,2"
        )
        assert code == 0
        assert payload["maximal"] is False
        # A gap past 1e-9 of the largest magnitude is separated, however
        # small next to the values.
        code, payload, _ = run_json(capsys, "evar", "maximal", "--values", "1000000,1000000.5")
        assert code == 0
        assert payload["maximal"] is True

    def test_each_command_builds_once(self, capsys, monkeypatch):
        calls = []
        for module, name in ((linalg, "hermitian_eig"), (evariables, "coarse_grain")):
            original = getattr(module, name)

            def counted(*args, _name=name, _original=original):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(module, name, counted)
        args = ("--values", "1,2,3,4", "--map", "1,1,2,2")
        assert run_cli(capsys, "evar", "maximal", *args)[0] == 0
        assert calls == ["coarse_grain", "hermitian_eig"]
        calls.clear()
        assert run_cli(capsys, "evar", "coarse-grain", *args)[0] == 0
        # One coarse graining, and one diagonalization for the maximality check.
        assert calls == ["coarse_grain", "hermitian_eig"]

    @pytest.mark.parametrize(
        "flag,argv",
        [
            ("--values", ("evar", "maximal", "--values", "1,1e300,1e308")),
            ("--map", ("evar", "maximal", "--values", "1,2,3", "--map", "1,1e300,1e308")),
            ("--map", ("evar", "coarse-grain", "--values", "1,2,3", "--map", "1,1e300,1e308")),
            ("--values", ("evar", "maximal", "--values=-1e308,1e308")),
            ("--map", ("evar", "coarse-grain", "--values", "1,2", "--map=-1e308,1e308")),
            # Refused at its flag, before the eigensolver.
            ("--values", ("evar", "maximal", "--values", "1,1e200")),
        ],
        ids=[
            "maximal_values",
            "maximal_map",
            "coarse_grain_map",
            "maximal_values_range",
            "coarse_grain_map_range",
            "maximal_values_squares",
        ],
    )
    def test_overflowing_operator_exits_2(self, capsys, flag, argv):
        # Before, the first three printed "Infinity" in their JSON and exited
        # 0, and the last two, whose value range overflows, were reported as
        # values "too close".
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {flag}: ")
        assert err.count("\n") == 1
        assert "overflow" in err
        assert "too close" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("evar", "coarse-grain", "--values", "1,2,3", "--map", "1,1"),
            ("evar", "coarse-grain", "--values", "3,2,1", "--map", "1,1,2"),
            ("evar", "coarse-grain", "--values", "1,2,x", "--map", "1,1,2"),
            ("evar", "maximal", "--values", "1,1,2"),
            # A gap within 1e-9 of the largest magnitude.
            ("evar", "maximal", "--values", "1,1.0000000001"),
        ],
    )
    def test_bad_inputs_exit_2(self, capsys, argv):
        code, _, _ = run_cli(capsys, *argv)
        assert code == 2

    @settings(max_examples=100, deadline=None)
    @given(argv=huge_evar_argvs())
    # Each passed the value checks and was then refused by the eigensolver.
    @example(argv=["evar", "maximal", "--values=1,1e200"])
    @example(argv=["evar", "coarse-grain", "--values=1,2", "--map=1,1e200"])
    @example(argv=["evar", "maximal", "--values=1,2,3", "--map=1e154,1e154,1e154"])
    def test_overflow_is_refused_at_its_flag(self, argv):
        # A flag's list is refused iff its squares, with multiplicity, sum
        # past the largest float; 1e-12 covers the rounding of that sum.
        code, out, err = run_in_process(argv)
        largest = Fraction(sys.float_info.max)
        for flag, text in (item.split("=", 1) for item in argv[2:]):
            total = sum(Fraction(float(t)) ** 2 for t in text.split(","))
            if code == 2 and err.startswith(f"error: {flag}: "):
                assert "their squares sum to inf" in err
                assert total > largest * (1 - Fraction(1, 10**12)), err
                return
            assert total < largest * (1 + Fraction(1, 10**12)), err
        assert code == 0, err

    @settings(max_examples=200, deadline=None)
    @given(inputs=evar_inputs())
    # Both were once reported not maximal, although each map is injective:
    # detection measured gaps against 1e-6 of the scale, construction
    # against 1e-9 of the range.
    @example(inputs=([1000000.0, 1000000.5], None))
    @example(inputs=([1.0, 2.0], [1.0, 1.0000001]))
    def test_maximality_is_injectivity(self, inputs):
        values, mapped = inputs
        flags = [f"--values={','.join(map(repr, values))}"]
        if mapped is not None:
            flags.append(f"--map={','.join(map(repr, mapped))}")
        for command in ("maximal", "coarse-grain") if mapped is not None else ("maximal",):
            code, out, err = run_in_process(["evar", command, *flags])
            if code == 2:
                assert err.startswith(("error: --values", "error: --map")), err
                continue
            assert code == 0, err
            payload = json.loads(out)
            if command == "maximal":
                injective = mapped is None or len(set(mapped)) == len(mapped)
                assert payload["maximal"] is injective
            else:
                assert payload["reports"][0]["verdict"] == "pass"


# ---------------------------------------------------------------------------
# symmetry commands


# The transposition (1 2) on the 12 points of structural_example.
SWAP_1_2 = [0, 2, 1, *range(3, 12)]


def passing_model_file(tmp_path):
    # Distinct level sizes demand a trivial distinguished subgroup, or the
    # representation check fails; this is the smallest no-fail model.
    raw = {
        "phi_size": 3,
        "distinguished": 0,
        "variables": [
            {"label": "0", "theta": [0, 1, 1]},
            {"label": "1", "theta": [0, 1, 1]},
        ],
        "transfer": {"01": [0, 1, 2]},
    }
    path = tmp_path / "passing.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    return path


def model_file(model, path):
    """Write a model in the model-file schema, each transfer stored once."""
    raw = {
        "phi_size": model.phi_size,
        "distinguished": model.labels.index(model.distinguished),
        "variables": [{"label": label, "theta": list(theta)} for label, theta in model.variables],
        "subgroups": {label: [list(g) for g in gens] for label, gens in model.generators.items()},
        "transfer": {a + b: list(k) for (a, b), k in model.transfers.items() if a < b},
    }
    path.write_text(json.dumps(raw), encoding="utf-8")
    return path


class TestSymmetryCommands:
    @pytest.mark.parametrize("name", ["structural_example", "designed_failure", 3, 4, 5, 6, 32])
    def test_each_subcommand_emits_its_battery(self, capsys, tmp_path, name):
        # Each subcommand's payload lists the reports of one symmetry
        # battery, in the battery's order.  A D_n left-translation model
        # gives structural_example's verdicts.  The word scan composes each
        # (element, letter) product once, so `check` on D_32 (128 points)
        # ends well inside ten seconds.
        if isinstance(name, int):
            source = model_file(dihedral_model(name), tmp_path / f"d{name}.json")
        else:
            source = symmetry.bundled_model_path(name)
        example = symmetry.load_model(symmetry.bundled_model_path("structural_example"))
        for command, battery in (
            ("check", symmetry.check_reports),
            ("assumptions", symmetry.assumption_reports),
            ("theorem1", symmetry.theorem1_reports),
        ):
            start = time.perf_counter()
            code, payload, _ = run_json(capsys, "symmetry", command, "--model", str(source))
            elapsed = time.perf_counter() - start
            reports = battery(symmetry.load_model(source))
            assert payload["reports"] == [r.to_json_dict() for r in reports], command
            assert code == int(any(r.verdict == "fail" for r in reports)), command
            if isinstance(name, int):
                verdicts = [(r.subject, r.verdict) for r in reports]
                assert verdicts == [(r.subject, r.verdict) for r in battery(example)], command
            if command == "check":
                assert elapsed < 10.0

    def test_designed_failure_file(self, capsys, tmp_path):
        bad = tmp_path / "bad_model.json"
        shutil.copy(symmetry.bundled_model_path("designed_failure"), bad)
        code, payload, _ = run_json(capsys, "symmetry", "check", "--model", str(bad))
        assert code == 1
        verdicts = {r["subject"]: r["verdict"] for r in payload["reports"]}
        assert verdicts["lemma1"] == "fail"
        lemma1 = next(r for r in payload["reports"] if r["subject"] == "lemma1")
        assert lemma1["witnesses"]
        failing = sorted(s for s, v in verdicts.items() if v == "fail")
        assert failing == ["lemma1", "lemma2"]

    def test_symmetric_group_on_nine_points_exits_2(self, capsys, tmp_path):
        # A 9-cycle and a transposition generate S_9, past CLOSURE_LIMIT.
        points = list(range(9))
        raw = {
            "phi_size": 9,
            "distinguished": 0,
            "variables": [{"label": "0", "theta": points}, {"label": "1", "theta": points}],
            "subgroups": {"0": [points[1:] + [0], [1, 0] + points[2:]], "1": []},
            "transfer": {"01": points},
        }
        path = tmp_path / "s9.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        code, out, err = run_cli(capsys, "symmetry", "check", "--model", str(path))
        assert (code, out) == (2, "")
        assert err.startswith('error: subgroups["0"]: ')
        assert str(symmetry.CLOSURE_LIMIT) in err
        assert err.count("\n") == 1

    def test_structural_example_by_name(self, capsys):
        code, payload, _ = run_json(
            capsys, "symmetry", "check", "--model", "structural_example"
        )
        assert code == 1
        verdicts = {r["subject"]: r["verdict"] for r in payload["reports"]}
        assert verdicts == {
            "lemma1": "pass",
            "assumption_1": "pass",
            "assumption_2": "pass",
            "assumption_3a": "undetermined",
            "assumption_3b": "pass",
            "assumption_3c": "fail",
            "lemma2": "pass",
            "prop3": "fail",
            "theorem1": "fail",
        }

    def test_assumptions_subset_and_exit_zero(self, capsys, tmp_path):
        path = passing_model_file(tmp_path)
        code, payload, _ = run_json(
            capsys, "symmetry", "assumptions", "--model", str(path)
        )
        assert code == 0
        subjects = [r["subject"] for r in payload["reports"]]
        assert subjects == [
            "assumption_1",
            "assumption_2",
            "assumption_3a",
            "assumption_3b",
            "assumption_3c",
            "lemma2",
        ]
        assert not any(r["verdict"] == "fail" for r in payload["reports"])

    def test_theorem1_subset(self, capsys):
        code, payload, _ = run_json(
            capsys, "symmetry", "theorem1", "--model", "structural_example"
        )
        assert code == 1
        assert [r["subject"] for r in payload["reports"]] == ["prop3", "theorem1"]

    @pytest.mark.parametrize(
        "argv",
        [
            ("symmetry", "check", "--model", "/nonexistent/model.json"),
            ("symmetry", "check", "--model", "no_such_bundled_model"),
            # The word scan runs until its queue is empty; the depth flag is gone.
            ("symmetry", "check", "--model", "designed_failure", "--max-word-len", "6"),
            ("symmetry", "check", "--model", "structural_example", "--max-word-len", "6"),
        ],
    )
    def test_model_errors_exit_2(self, capsys, argv):
        # The error line names the last flag given.
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert [a for a in argv if a.startswith("--")][-1] in err

    @pytest.mark.parametrize(
        "content,detail",
        [
            (b"not json", "is not a UTF-8 JSON file: Expecting value"),
            (b"\xff\xfe{}", "is not a UTF-8 JSON file: 'utf-8' codec can't decode"),
            (b"[1, 2]", "does not hold a JSON object"),
        ],
        ids=["not_json", "not_utf8", "not_an_object"],
    )
    def test_unreadable_model_file_names_flag_and_path(
        self, capsys, tmp_path, content, detail
    ):
        path = tmp_path / "model.json"
        path.write_bytes(content)
        code, out, err = run_cli(capsys, "symmetry", "check", "--model", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: --model: {str(path)!r} {detail}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("kind", ["directory", "device"])
    def test_model_path_that_is_not_a_regular_file(self, capsys, tmp_path, kind):
        # An existing path that is not a file is named as such, not as missing.
        path = str(tmp_path) if kind == "directory" else os.devnull
        code, out, err = run_cli(capsys, "symmetry", "check", "--model", path)
        assert (code, out, err) == (2, "", f"error: --model: {path!r} is not a regular file\n")

    def test_malformed_model_names_field(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text(
            '{"phi_size": 2, "mystery": 1, '
            '"variables": [{"label": "0", "theta": [0, 1]}]}',
            encoding="utf-8",
        )
        code, _, err = run_cli(capsys, "symmetry", "check", "--model", str(path))
        assert code == 2
        assert "mystery" in err

    @pytest.mark.parametrize(
        "field,edit",
        [
            ("variables[0].theta", lambda raw: raw["variables"][0].update(theta=5)),
            ('subgroups["0"][0]', lambda raw: raw["subgroups"].update({"0": [[0, 1, 2, 3.5]]})),
            ("phi_size", lambda raw: raw.update(phi_size=4.7)),
            ("variables[0].theta", lambda raw: raw["variables"][0]["theta"].__setitem__(1, True)),
            # The label sits in transfer key "01" too; the label is named.
            ("variables[1].label", lambda raw: raw["variables"][1].update(label=1)),
        ],
        ids=[
            "theta_not_a_list",
            "float_generator_entry",
            "float_phi_size",
            "bool_in_theta",
            "int_label",
        ],
    )
    def test_non_integer_model_fields_exit_2(self, capsys, tmp_path, field, edit):
        raw = json.loads(
            symmetry.bundled_model_path("designed_failure").read_text(encoding="utf-8")
        )
        edit(raw)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        code, out, err = run_cli(capsys, "symmetry", "check", "--model", str(path))
        assert code == 2
        assert out == ""
        assert field in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "field,edit",
        [
            ("variables[0].theta", lambda raw: raw["variables"][0].update(theta=[0] * 12)),
            ('subgroups["0"]', lambda raw: raw["subgroups"].update({"0": [SWAP_1_2]})),
            ('subgroups["1"]', lambda raw: raw["subgroups"].update({"1": [SWAP_1_2]})),
            ("transfer", lambda raw: raw.update(transfer={"01": raw["transfer"]["01"]})),
        ],
        ids=[
            "constant_distinguished_theta",
            "distinguished_subgroup_splits_levels",
            "image_outside_distinguished_subgroup",
            "no_transfer_chain",
        ],
    )
    def test_unusable_model_names_field(self, capsys, tmp_path, field, edit):
        raw = json.loads(
            symmetry.bundled_model_path("structural_example").read_text(encoding="utf-8")
        )
        edit(raw)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        code, out, err = run_cli(capsys, "symmetry", "check", "--model", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {field}: ")
        assert "Traceback" not in err

    def test_level_splitting_subgroup_refused_by_every_command(
        self, capsys, monkeypatch, tmp_path
    ):
        raw = json.loads(
            symmetry.bundled_model_path("structural_example").read_text(encoding="utf-8")
        )
        raw["subgroups"]["0"].append(SWAP_1_2)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(raw), encoding="utf-8")

        def no_scan(model):
            raise AssertionError("the word scan ran before the level check")

        monkeypatch.setattr(symmetry, "_enumerate_words", no_scan)
        errors = set()
        for command in ("check", "assumptions", "theorem1"):
            code, out, err = run_cli(capsys, "symmetry", command, "--model", str(path))
            assert code == 2, command
            assert out == ""
            assert err.startswith('error: subgroups["0"]: ')
            errors.add(err)
        assert len(errors) == 1

    def test_check_scans_words_once_per_model(self, capsys, monkeypatch):
        scanned = []
        enumerate_words = symmetry._enumerate_words

        def counted(model):
            scanned.append(model)
            return enumerate_words(model)

        monkeypatch.setattr(symmetry, "_enumerate_words", counted)
        code, _, _ = run_cli(capsys, "symmetry", "check", "--model", "structural_example")
        assert code == 1
        assert len(scanned) == 1

        model = symmetry.load_model(symmetry.bundled_model_path("structural_example"))
        first = symmetry.check_reports(model)
        assert symmetry.check_reports(model) == first
        assert scanned[1:] == [model]

    def test_scan_past_the_state_limit_exits_2(self, capsys, monkeypatch):
        # structural_example has |G| = 6, so its closures stay under the
        # limit, but its word scan visits 55 states.
        monkeypatch.setattr(symmetry, "CLOSURE_LIMIT", 20)
        errors = set()
        for command in ("check", "assumptions", "theorem1"):
            code, out, err = run_cli(
                capsys, "symmetry", command, "--model", "structural_example"
            )
            assert code == 2, command
            assert out == ""
            errors.add(err)
        assert errors == {
            "error: subgroups: the word scan of these subgroups exceeds 20 states\n"
        }

    def test_check_builds_level_structure_once_per_model(self, capsys, monkeypatch):
        structures = []
        build_levels = symmetry.FiniteSymmetryModel._levels.func

        def counted_levels(model):
            structures.append(model)
            return build_levels(model)

        levels = functools.cached_property(counted_levels)
        levels.__set_name__(symmetry.FiniteSymmetryModel, "_levels")
        monkeypatch.setattr(symmetry.FiniteSymmetryModel, "_levels", levels)
        for name in ("structural_example", "designed_failure"):
            code, _, _ = run_cli(capsys, "symmetry", "check", "--model", name)
            assert code == 1
        assert [model.phi_size for model in structures] == [12, 4]


# ---------------------------------------------------------------------------
# golden battery


class TestReportCommand:
    def test_requires_golden_flag(self, capsys):
        code, _, err = run_cli(capsys, "report")
        assert code == 2
        assert "--golden" in err

    def test_battery_matches_frozen_file(self, capsys, tmp_path):
        target = tmp_path / "battery.json"
        code, _, _ = run_cli(capsys, "report", "--golden", "--out", str(target))
        assert code == 1
        assert target.read_bytes() == GOLDEN.read_bytes()

    def test_battery_is_deterministic(self, capsys, tmp_path):
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        run_cli(capsys, "report", "--golden", "--out", str(first))
        run_cli(capsys, "report", "--golden", "--out", str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_seed_changes_but_structure_holds(self, capsys, tmp_path):
        target = tmp_path / "alt.json"
        code, _, _ = run_cli(
            capsys, "report", "--golden", "--seed", "42", "--out", str(target)
        )
        payload = json.loads(target.read_text(encoding="utf-8"))
        assert payload["seed"] == 42
        assert target.read_bytes() != GOLDEN.read_bytes()
        names = [s["name"] for s in payload["sections"]]
        assert names == [
            "spin j=0.5",
            "spin j=1",
            "spin j=1.5",
            "spin j=2",
            "qubit",
            "coarse graining",
            "symmetry structural_example",
            "symmetry designed_failure",
        ]


# ---------------------------------------------------------------------------
# flag values that start with a minus


class TestLeadingMinusValues:
    """argparse reads a spaced value that starts with a minus and is not a
    plain number, such as `-1,0,0`, as an option; the `=` form passes it to
    its flag, as the README says."""

    def test_equals_form_is_accepted(self, capsys):
        code, record, _ = run_json(capsys, "spin", "state", "--j", "1", "--dir=-1,0,0", "--h", "1")
        assert code == 0
        assert record["dir"] == [-1.0, 0.0, 0.0]
        code, payload, _ = run_json(capsys, "evar", "maximal", "--values=-2,1", "--map=-1,-1")
        assert code == 0
        assert payload["parameters"] == {"values": [-2.0, 1.0], "map": [-1.0, -1.0]}
        code, payload, _ = run_json(
            capsys, "evar", "coarse-grain", "--values=-2,1,3", "--map=-1,-1,2"
        )
        assert code == 0
        assert payload["classes"] == [[0, 1], [2]]

    @pytest.mark.parametrize(
        "flag,argv",
        [
            ("--dir", ("spin", "state", "--j", "1", "--dir", "-1,0,0", "--h", "1")),
            ("--values", ("evar", "maximal", "--values", "-2,1")),
            ("--map", ("evar", "maximal", "--values=-2,1", "--map", "-1,-1")),
        ],
    )
    def test_spaced_form_exits_2_naming_its_flag(self, capsys, flag, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert f"argument {flag}: expected one argument" in err


# ---------------------------------------------------------------------------
# exit contract


class TestExitContract:
    @pytest.mark.parametrize(
        "module,name,error,argv",
        [
            (spin, "eigenstate_recursion", RuntimeError,
             ("spin", "state", "--j", "1", "--dir", "0,0,1", "--h", "1")),
            # verify_eigenstates reaches the oracle through `_oracle_states`,
            # the oracle's one path, which solves each pass's operator stack.
            (spin, "_oracle_states", RuntimeError, ("spin", "verify", "--j", "1", "--samples", "1")),
            (symmetry, "verify_theorem1", KeyError,
             ("symmetry", "check", "--model", "structural_example")),
        ],
        ids=["spin_state", "spin_verify", "symmetry_check"],
    )
    def test_internal_error_exits_2(self, capsys, monkeypatch, module, name, error, argv):
        def broken(*args, **kwargs):
            raise error("injected failure")

        monkeypatch.setattr(module, name, broken)
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {error.__name__}: ")
        assert "injected failure" in err
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_unwritable_out_exits_2(self, capsys, tmp_path):
        target = tmp_path / "missing" / "state.json"
        code, out, err = run_cli(
            capsys,
            "spin", "state", "--j", "1", "--dir", "0,0,1", "--h", "1",
            "--out", str(target),
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: --out: ")
        assert err.count("\n") == 1
        assert not target.exists()


    def test_payload_is_strict_json(self):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                cli.render_payload({"eigenvalues": [1.0, value]})


# ---------------------------------------------------------------------------
# the --eps contract


class TestEpsContract:
    @pytest.mark.parametrize(
        "eps", ["5e-324", "1e-300", "1e-16", "3e-16", "1e-9", "0.5", "0.9999999999999999"]
    )
    @pytest.mark.parametrize(
        "argv",
        [
            ("spin", "verify", "--j", "1.5", "--samples", "2"),
            ("spin", "overlap", "--j", "1.5", "--samples", "3"),
            ("qubit", "prop2", "--samples", "3"),
        ],
        ids=["spin_verify", "spin_overlap", "qubit_prop2"],
    )
    def test_valid_eps_never_exits_2(self, argv, eps):
        code, out, err = run_in_process([*argv, "--eps", eps])
        assert code in (0, 1), err
        verdicts = [r["verdict"] for r in json.loads(out)["reports"]]
        assert (code == 1) == ("fail" in verdicts)

    # The values the flag once accepted: none of them is taken now.
    @pytest.mark.parametrize(
        "eps", ["5e-324", "1e-300", "1e-16", "3e-16", "1e-9", "0.5", "0.9999999999999999"]
    )
    def test_theorem1_takes_no_eps(self, eps):
        # Theorem 1 counts equal-level pairs exactly, so it has no tolerance.
        code, out, err = run_in_process(
            ["symmetry", "theorem1", "--model", "structural_example", "--eps", eps]
        )
        assert code == 2
        assert out == ""
        assert "--eps" in err


# ---------------------------------------------------------------------------
# payload rendering


def _real_payloads() -> tuple[dict, dict]:
    """A j=25 spin catalog payload and a D_6 symmetry check payload, as the
    handlers build them."""
    args = cli._build_parser().parse_args(["spin", "catalog", "--j", "25", "--dir", "0.6,0,0.8"])
    catalog, _, _ = args.handler(args)
    reports = symmetry.check_reports(dihedral_model(6))
    check = {
        "command": "symmetry check",
        "parameters": {"model": "D_6"},
        "reports": cli._report_dicts(reports),
    }
    return catalog, check


CATALOG_PAYLOAD, D6_CHECK_PAYLOAD = _real_payloads()
EDGE_FLOATS = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1e16, 1e-7])
NUMBERS = st.one_of(
    st.integers(), st.floats(allow_nan=False, allow_infinity=False), EDGE_FLOATS
)
NUMPY_FLOATS = st.floats(allow_nan=False, allow_infinity=False).map(np.float64)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    NUMBERS,
    st.integers(min_value=-(10**40), max_value=10**40),
    NUMPY_FLOATS,
    # Non-ASCII and control characters, escaped by the ASCII encoder.
    st.text(st.characters(codec=None, exclude_categories=())),
)
PAYLOAD_TREES = st.recursive(
    st.one_of(
        SCALARS,
        st.lists(NUMBERS, max_size=5),
        # Lists that the number fast path must leave to the general one.
        st.lists(st.one_of(NUMBERS, st.booleans(), NUMPY_FLOATS), max_size=5),
        # Ragged rows, empty rows and integer rows included.
        st.lists(st.lists(NUMBERS, max_size=3), max_size=4),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(), children, max_size=4),
        # json writes a None, bool or number key as its text.
        st.dictionaries(st.one_of(st.none(), NUMBERS, st.booleans()), children, max_size=3),
    ),
    max_leaves=40,
)
NON_FINITE = (math.nan, math.inf, -math.inf, np.float64(math.nan))


class TestRenderPayload:
    """The rendered text is exactly ``json.dumps(indent=2, allow_nan=False)``
    plus a newline; the standard library is the oracle."""

    @settings(max_examples=100, deadline=None)
    @given(PAYLOAD_TREES)
    @example(CATALOG_PAYLOAD)
    @example(D6_CHECK_PAYLOAD)
    @example({"a": [], "b": {}, "c": [[]], "d": [{}, [[], [[]]]], "e": [[1.0], []]})
    @example({"z": [[-0.0, 5e-324], [1e308, 0]], "i": [True, 1, None], "s": "\x00é\u2028"})
    # Scalar containers, one encoder call each past four items and written
    # in place up to four: separators, brackets, braces, quotes and
    # backslashes inside their strings and keys.
    @example({", ": ": ", "[": "]", "{": "}", '"': "\\", "],\n  [": '",\n'})
    @example(["a, b", "c: d", "[1, 2]", "{}", '"', "\\", '\\"', "],\n    ["])
    @example({"x": {", ": ": ", "]": "[", '"': "\\"}, "y": ["a, b", '"', "}{"]})
    @example({None: 1, True: "t", False: 0.5, 2: None, -1.5: [1, 2], 1e300: {"k": 0}})
    @example([{None: "a", True: 1, -0.0: 2.5, 7: False}, {1e16: None, False: True}])
    @example(["x", True, None, 3, -0.0, 1e-7, False, "", 10**30])
    @example({"a": np.float64(0.1), "b": np.float64(-0.0), "c": 1.0, "d": np.float64(1e16)})
    # Rows of scalars, one encoder call for all of them.
    @example({"word": [["0", 5], ["1, ]", 1], ["],\n[", None], [True, 2.5]]})
    # Ten levels of nesting: lists and dicts in turn around a scalar list.
    @example(
        functools.reduce(
            lambda inner, k: [k, inner] if k % 2 else {"k": inner, "s": "x"}, range(9), [1.0, "x"]
        )
    )
    # An assumption_3b witness: rows of [str, int] and 16-int lists.
    @example(
        {
            "from": "0", "to": "1", "status": "pair",
            "word_1": [["0", 5], ["2", 3]], "image_1": list(range(16)),
            "word_2": [["2", 5]], "image_2": list(range(15, -1, -1)),
        }
    )
    # Dicts mixing scalars and a short list, as assumption_3c's witnesses.
    @example(
        [
            {"i": 0, "j": 1, "value_i": 0, "value_j": 1, "level_sizes": [2, 2]},
            {"i": 1, "j": 0, "value_i": "b", "value_j": None, "level_sizes": [2]},
        ]
    )
    # Empty lists and dicts at depths 1 to 4, first, inside and last.
    @example({"d1": [], "x": {"d2": {}, "y": [[], {"d4": []}, {}]}, "z": {}})
    @example([[], {}, [[]], [{}, []], [[[{}]], {"k": {"m": []}}]])
    # Tuples: short, long, rows of them, and one at the top.
    @example({"t": (1, 2), "u": ((1, "a"), (2, "b")), "v": (1, 2, 3, 4, 5, 6), "w": ({"k": (1,)},)})
    @example((1, [2, (3,)], {"a": ()}, ("x", (None, True))))
    # Non-str keys inside nested dicts, in every kind of container.
    @example({"o": {1: {"in": {None: [1, 2], 2.5: {True: "x"}}}, False: []}, "p": [{-3: 1}]})
    @example({"o": {"a": {0: 1, 1: 2, 2: 3, 3: 4, 4: 5}, "b": {False: [[1, 2]], None: {}}}})
    def test_matches_json_dumps(self, payload):
        expected = json.dumps(payload, indent=2, allow_nan=False) + "\n"
        assert cli.render_payload(payload) == expected

    @pytest.mark.parametrize(
        "argv",
        [["report", "--golden"], ["spin", "catalog", "--j", "25", "--dir", "0,-0.6,0.8"]],
        ids=["golden", "catalog_25"],
    )
    def test_matches_json_dumps_on_command_payloads(self, argv):
        args = cli._build_parser().parse_args(argv)
        payload, _, _ = args.handler(args)
        expected = json.dumps(payload, indent=2, allow_nan=False) + "\n"
        assert cli.render_payload(payload) == expected

    @pytest.mark.parametrize("value", NON_FINITE, ids=["nan", "inf", "-inf", "np.nan"])
    @pytest.mark.parametrize(
        "place",
        [
            lambda v: v,
            lambda v: [1.0, v],
            lambda v: [[1.0, 2.0], [v, 0.0]],
            lambda v: {"x": {"y": v}},
            lambda v: {v: 0},
            lambda v: {"amplitudes": [[0.0, np.float64(v)]]},
            lambda v: {"m": {"a": 1.0, "b": v}},
            lambda v: ["x", v],
        ],
        ids=[
            "scalar", "float_list", "row", "dict_value", "key", "numpy_in_row",
            "scalar_dict", "mixed_list",
        ],
    )
    def test_non_finite_raises_value_error(self, value, place):
        with pytest.raises(ValueError):
            cli.render_payload(place(value))

    @pytest.mark.parametrize(
        "payload",
        [
            {1, 2}, {"x": [1j]}, {"x": np.array([1.0, 2.0])}, [[1.0], np.zeros(2)], {(1,): 0},
            {"a": 1, "b": 1j}, {"x": {(1,): 0}},
        ],
        ids=[
            "set", "complex", "ndarray", "ndarray_row", "tuple_key",
            "complex_in_dict", "nested_tuple_key",
        ],
    )
    def test_unserializable_raises_type_error(self, payload):
        with pytest.raises(TypeError):
            cli.render_payload(payload)


# ---------------------------------------------------------------------------
# argv fuzzing


# Boundary tokens every number or list flag may draw: non-finite,
# overflowing, signed zero, not a number, empty.
BOUNDARY = ("nan", "inf", "-inf", "1e308", "-1e308", "-0.0", "0", "1", "x", "")
# Evar values around the separation threshold at scale 1 and 1e6, and
# values of which any set is separated.
EVAR_VALUES = (
    "1", "1.0000000005", "1.000000002", "2", "1000000", "1000000.0005", "1000000.002",
)
SEPARATED_VALUES = ("-3", "1", "2", "1000000", "1000000.002")


def tokens(valid, invalid=()):
    """A flag's text as a (well-formed, any) pair of strategies: one of the
    ``valid`` tokens, or that or an ``invalid`` or boundary token."""
    good = st.sampled_from(valid)
    return good, good | st.sampled_from(invalid + BOUNDARY)


def evar_lists(ascending: bool):
    """Comma-joined evar values, ascending for ``--values``.  A well-formed
    list has three separated values, so a well-formed map fits it; any
    other list has up to four values near the threshold, or holds boundary
    tokens (an empty list is the empty string)."""

    def joined(values, min_size: int, max_size: int):
        lists = st.lists(
            st.sampled_from(values), min_size=min_size, max_size=max_size, unique=ascending
        )
        if ascending:
            lists = lists.map(lambda items: sorted(items, key=float))
        return lists.map(",".join)

    good = joined(SEPARATED_VALUES, 3, 3)
    return good, good | joined(EVAR_VALUES, 1, 4) | st.lists(
        st.sampled_from(BOUNDARY), max_size=3
    ).map(",".join)


# How often a flag is given: a required flag is sometimes left out, an
# optional one half the time, and --samples always, because the defaults
# run 100 or more samples.  A well-formed argv gives every required flag.
REQUIRED, OPTIONAL, ALWAYS = "required", "optional", "always"
SAMPLING_FLAGS = (
    ("--samples", tokens(("1", "2"), ("-1", "1.5")), ALWAYS),
    ("--eps", tokens(("1e-9", "0.5", "5e-324", "0.9999999999999999")), OPTIONAL),
    ("--seed", tokens(("7", str(2**64 - 1)), (str(2**64), "-1")), OPTIONAL),
)
# Spin magnitudes: valid, off the half-integer grid, and just past 25.
J_FLAG = ("--j", tokens(("0.5", "2.5", "4", "25"), ("25.5", "26")), REQUIRED)
UNIT_DIRS = st.sampled_from(("0,0,1", "0.6,0,0.8", "0,-1,0", "-0.0,0,1"))
DIR_FLAG = (
    "--dir",
    (
        UNIT_DIRS,
        UNIT_DIRS
        | st.lists(st.sampled_from(BOUNDARY), min_size=3, max_size=3).map(",".join)
        | st.sampled_from(("1,0", "0,0,1,0")),
    ),
    REQUIRED,
)
VALUES_FLAG = ("--values", evar_lists(True), REQUIRED)
MAP_TEXT = evar_lists(False)
MODEL_FLAGS = (
    (
        "--model",
        tokens(("structural_example", "designed_failure"), ("no_such_model", "no/such/model.json")),
        REQUIRED,
    ),
)
# Each subcommand's flags.  spin verify runs the Jacobi oracle once per
# answer, so it keeps to valid j <= 4; report never gets --golden, since
# the battery runs for seconds and has its own tests.
ARGV_FLAGS = {
    ("spin", "state"): (J_FLAG, DIR_FLAG, ("--h", tokens(("0.5", "-2.5", "4"), ("0.25",)), REQUIRED)),
    ("spin", "verify"): (("--j", tokens(("0.5", "2.5", "4"), ("25.5", "26")), REQUIRED), *SAMPLING_FLAGS),
    ("spin", "catalog"): (J_FLAG, DIR_FLAG),
    ("spin", "overlap"): (J_FLAG, *SAMPLING_FLAGS),
    ("qubit", "bloch"): (DIR_FLAG,),
    ("qubit", "prop2"): SAMPLING_FLAGS,
    ("evar", "coarse-grain"): (VALUES_FLAG, ("--map", MAP_TEXT, REQUIRED)),
    ("evar", "maximal"): (VALUES_FLAG, ("--map", MAP_TEXT, OPTIONAL)),
    ("symmetry", "check"): MODEL_FLAGS,
    ("symmetry", "assumptions"): MODEL_FLAGS,
    ("symmetry", "theorem1"): MODEL_FLAGS,
    ("report",): (SAMPLING_FLAGS[2],),
}
# Every name an exit-2 line may cite.
FLAG_NAMES = (
    "--j", "--dir", "--h", "--samples", "--eps", "--seed", "--values", "--map",
    "--model", "--out", "--golden",
)


@st.composite
def cli_argvs(draw) -> list[str]:
    """One subcommand with some of its flags, each as ``--flag=token`` so
    that a token such as ``-1`` is never read as an option.  Half the
    argvs are well-formed: every flag given takes a valid token, so more
    runs get past parsing to a report."""
    command = draw(st.sampled_from(sorted(ARGV_FLAGS)))
    well_formed = draw(st.sampled_from((True, False)))
    argv = list(command)
    for flag, (good, text), presence in ARGV_FLAGS[command]:
        given = presence == ALWAYS or (well_formed and presence == REQUIRED)
        if given or draw(st.integers(0, 4 if presence == REQUIRED else 1)):
            argv.append(f"{flag}={draw(good if well_formed else text)}")
    return argv


@pytest.fixture(scope="module")
def missing_out_path(tmp_path_factory):
    return tmp_path_factory.mktemp("argv") / "missing" / "payload.json"


class TestArgvContract:
    @settings(max_examples=200, deadline=None)
    @given(argv=cli_argvs(), unwritable_out=st.integers(0, 9).map(lambda k: k == 0))
    # argparse once printed its usage lines before the error line.
    @example(argv=["spin", "verify", "--j=1", "--samples=1.5"], unwritable_out=False)
    def test_exit_contract(self, missing_out_path, argv, unwritable_out):
        if unwritable_out:
            argv.append(f"--out={missing_out_path}")
        code, out, err = run_in_process(argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in out + err
        if code == 2:
            # Every path, argparse's included, ends in one error line alone.
            assert out == ""
            assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1, err
            assert any(name in err for name in FLAG_NAMES), err
        else:
            verdicts = [r["verdict"] for r in json.loads(out).get("reports", [])]
            assert (code == 1) == ("fail" in verdicts)


# ---------------------------------------------------------------------------
# model file fuzzing


BUNDLED_MODELS = tuple(
    json.loads(symmetry.bundled_model_path(name).read_text(encoding="utf-8"))
    for name in ("structural_example", "designed_failure")
)
# One transposition across two distinguished levels per bundled model.  Its
# closure with the distinguished generators stays small (384 and 24
# elements).
LEVEL_SPLITTING = (SWAP_1_2, [1, 0, 2, 3])
# The full group of each bundled model (6 and 3 elements).  A generator
# drawn from it is a valid permutation whose closures stay within that
# group; a closure that outgrew symmetry.CLOSURE_LIMIT would exit 2 anyway.
FULL_GROUPS = tuple(symmetry.load_model(copy.deepcopy(raw)).full_group for raw in BUNDLED_MODELS)
# Every name an exit-2 line may cite: the flag, the top-level fields, and the
# top-level field the extra-field mutation adds.
MODEL_NAMES = (
    "--model", "phi_size", "distinguished", "variables", "subgroups", "transfer", "mystery",
)
WRONG_TYPES = (None, True, 1.5, "x", [], {})
HUGE_OR_NEGATIVE = (-1, -(10**30), 10**30, 2**63)


def _slots(node):
    """Every (container, key) slot below a parsed JSON node."""
    for key, value in list(node.items() if isinstance(node, dict) else enumerate(node)):
        yield node, key
        if isinstance(value, (dict, list)):
            yield from _slots(value)


def _permutation_slots(raw):
    """Slots of the subgroup generators and transfer maps still in place."""
    slots = []
    if isinstance(raw.get("subgroups"), dict):
        for gens in raw["subgroups"].values():
            if isinstance(gens, list):
                slots += [(gens, i) for i in range(len(gens))]
    if isinstance(raw.get("transfer"), dict):
        slots += [(raw["transfer"], key) for key in raw["transfer"]]
    return [(c, k) for c, k in slots if isinstance(c[k], list) and len(c[k]) >= 2]


def _wrong_type(raw, draw):
    container, key = draw(st.sampled_from(list(_slots(raw))))
    container[key] = copy.deepcopy(draw(st.sampled_from(WRONG_TYPES)))


def _missing(raw, draw):
    container, key = draw(st.sampled_from(list(_slots(raw))))
    del container[key]


def _extra(raw, draw):
    where = draw(st.sampled_from(("top", "entry", "subgroup", "transfer", "variable")))
    variables = raw.get("variables")
    entries = [v for v in variables if isinstance(v, dict)] if isinstance(variables, list) else []
    if where == "entry" and entries:
        draw(st.sampled_from(entries))["mystery"] = 1
    elif where == "subgroup" and isinstance(raw.get("subgroups"), dict):
        raw["subgroups"]["9"] = []
    elif where == "transfer" and isinstance(raw.get("transfer"), dict):
        raw["transfer"]["09"] = []
    elif where == "variable" and entries:
        extra = copy.deepcopy(draw(st.sampled_from(entries)))
        if draw(st.booleans()):
            extra["label"] = "9"
        variables.append(extra)
    else:
        raw["mystery"] = 1


def _non_bijective(raw, draw):
    slots = _permutation_slots(raw)
    if slots:
        container, key = draw(st.sampled_from(slots))
        perm = container[key]
        i, j = draw(st.lists(st.integers(0, len(perm) - 1), min_size=2, max_size=2, unique=True))
        perm[i] = perm[j]


def _wrong_length(raw, draw):
    slots = _permutation_slots(raw)
    if slots:
        container, key = draw(st.sampled_from(slots))
        perm = container[key]
        if draw(st.booleans()):
            perm.append(perm[0])  # a repeated point: a permutation of no length
        else:
            perm.pop()


def _broken_chain(raw, draw):
    # Drops every transfer that touches one label (the labels are one character).
    if isinstance(raw.get("transfer"), dict) and raw["transfer"]:
        label = draw(st.sampled_from(sorted({key[-1] for key in raw["transfer"]})))
        raw["transfer"] = {k: v for k, v in raw["transfer"].items() if label not in k}


def _huge_or_negative(raw, draw):
    slots = [(c, k) for c, k in _slots(raw) if type(c[k]) is int]
    if slots:
        container, key = draw(st.sampled_from(slots))
        container[key] = draw(st.sampled_from(HUGE_OR_NEGATIVE))


MUTATIONS = (
    _wrong_type, _missing, _extra, _non_bijective, _wrong_length, _broken_chain,
    _huge_or_negative,
)


@st.composite
def mutated_models(draw):
    """A bundled model file with one of: a distinguished-subgroup element
    that splits a level set; one to three malformations; or a valid
    permutation from the model's own group added to one subgroup's
    generators, then up to three malformations."""
    pick = draw(st.integers(0, len(BUNDLED_MODELS) - 1))
    raw = copy.deepcopy(BUNDLED_MODELS[pick])
    roll = draw(st.integers(0, 9))
    if roll == 0:
        raw["subgroups"]["0"].append(LEVEL_SPLITTING[pick])
        return raw
    joined = roll <= 3
    if joined:
        gens = raw["subgroups"][draw(st.sampled_from(sorted(raw["subgroups"])))]
        gens.insert(draw(st.integers(0, len(gens))), list(draw(st.sampled_from(FULL_GROUPS[pick]))))
    for mutate in draw(st.lists(st.sampled_from(MUTATIONS), min_size=int(not joined), max_size=3)):
        mutate(raw, draw)
    return raw


@pytest.fixture(scope="module")
def fuzz_model_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "model.json"


class TestModelFileContract:
    @settings(max_examples=150, deadline=1000)
    @given(raw=mutated_models())
    # Both messages once named no field: "subgroup entry names unknown
    # variable '9'" and "duplicate variable label '0'".
    @example(raw={**BUNDLED_MODELS[1], "subgroups": {"0": [], "9": []}})
    @example(raw={**BUNDLED_MODELS[1], "variables": BUNDLED_MODELS[1]["variables"] * 2})
    # An index that is no integer, or out of range, names "distinguished".
    @example(raw={**BUNDLED_MODELS[0], "distinguished": True})
    @example(raw={**BUNDLED_MODELS[0], "distinguished": 1.0})
    @example(raw={**BUNDLED_MODELS[0], "distinguished": -1})
    @example(raw={**BUNDLED_MODELS[0], "distinguished": 3})
    def test_symmetry_exit_contract(self, fuzz_model_path, raw):
        fuzz_model_path.write_text(json.dumps(raw), encoding="utf-8")
        for command in ("check", "assumptions", "theorem1"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(["symmetry", command, "--model", str(fuzz_model_path)])
            out, err = out.getvalue(), err.getvalue()
            assert code in (0, 1, 2)
            assert "Traceback" not in out + err
            if code == 2:
                assert out == ""
                assert err.startswith("error: ") and err.count("\n") == 1
                assert any(name in err for name in MODEL_NAMES), err
            else:
                verdicts = [r["verdict"] for r in json.loads(out)["reports"]]
                assert (code == 1) == ("fail" in verdicts)


# ---------------------------------------------------------------------------
# stderr summaries and report payloads


def summary_lines(reports) -> list[str]:
    """The summary of a report command, a repeated subject numbered
    ``subject.2``, ``subject.3``, ..."""
    seen: dict[str, int] = {}
    lines = []
    for r in reports:
        seen[r["subject"]] = seen.get(r["subject"], 0) + 1
        n = seen[r["subject"]]
        name = r["subject"] if n == 1 else f"{r['subject']}.{n}"
        lines.append(f"{name}: {r['verdict']} ({len(r['witnesses'])} witnesses)")
    return lines


class TestSummaries:
    @pytest.mark.parametrize(
        "argv,summary",
        [
            (("spin", "state", "--j", "1.5", "--dir", "0.6,0,0.8", "--h", "-0.5"),
             lambda p: "state built: j=1.5, h=-0.5"),
            (("spin", "catalog", "--j", "2.5", "--dir", "0.6,0,0.8"),
             lambda p: f"built 6 states; gram defect {p['gram_defect']:.3e}"),
            (("evar", "maximal", "--values", "1,2,3"), lambda p: "maximal: True"),
            (("evar", "maximal", "--values", "1,2,3", "--map", "1,1,2"),
             lambda p: "maximal: False"),
        ],
        ids=["spin_state", "spin_catalog", "evar_maximal", "evar_maximal_map"],
    )
    def test_construction_summary(self, capsys, argv, summary):
        code, payload, err = run_json(capsys, *argv)
        assert code == 0
        assert err == summary(payload) + "\n"

    def test_bloch_summary_reads_the_bloch_vector(self, capsys):
        code, _, err = run_cli(capsys, "qubit", "bloch", "--dir", "0,1,0")
        assert code == 0
        assert err == "bloch direction (0.000000, 1.000000, 0.000000)\n"

    @pytest.mark.parametrize(
        "argv,fields",
        [
            (("spin", "verify", "--j", "1", "--samples", "2"), []),
            (("spin", "overlap", "--j", "1", "--samples", "2"), []),
            (("qubit", "prop2", "--samples", "4"), []),
            (("evar", "coarse-grain", "--values", "1,2,3", "--map", "1,1,2"),
             ["coarse_values", "classes"]),
            (("symmetry", "check", "--model", "designed_failure"), []),
            (("symmetry", "assumptions", "--model", "designed_failure"), []),
            (("symmetry", "theorem1", "--model", "designed_failure"), []),
        ],
        ids=[
            "spin_verify",
            "spin_overlap",
            "qubit_prop2",
            "evar_coarse_grain",
            "symmetry_check",
            "symmetry_assumptions",
            "symmetry_theorem1",
        ],
    )
    def test_report_payload_and_summary(self, capsys, argv, fields):
        code, payload, err = run_json(capsys, *argv)
        assert code == int(any(r["verdict"] == "fail" for r in payload["reports"]))
        assert payload["command"] == f"{argv[0]} {argv[1]}"
        assert list(payload) == ["command", "parameters", *fields, "reports"]
        assert err.splitlines() == summary_lines(payload["reports"])

    def test_prop2_summary_numbers_the_repeated_subject(self, capsys):
        code, payload, err = run_json(capsys, "qubit", "prop2", "--samples", "10")
        assert code == 0
        witnesses = [len(r["witnesses"]) for r in payload["reports"]]
        assert err == (
            f"prop2: pass ({witnesses[0]} witnesses)\n"
            f"prop2.2: pass ({witnesses[1]} witnesses)\n"
        )

    def test_golden_summary(self, capsys):
        code, payload, err = run_json(capsys, "report", "--golden")
        assert code == 1
        reports = [r for section in payload["sections"] for r in section["reports"]]
        assert err.splitlines() == summary_lines(reports)
        assert err.startswith("prop1: pass (0 witnesses)\ncor1: pass (0 witnesses)\n")
        assert "\nprop1.2: " in err and "\nprop1.4: " in err


# ---------------------------------------------------------------------------
# one parser per process


def solo_call(capsys, argv):
    """One main call on a freshly built parser."""
    cli._build_parser.cache_clear()
    return run_cli(capsys, *argv)


class TestSharedParser:
    def test_built_once(self):
        assert cli._build_parser() is cli._build_parser()
        assert cli._build_parser().prog == "qastates"

    def test_calls_on_a_shared_parser_are_independent(self, capsys):
        calls = [
            ("spin", "state", "--j", "1", "--dir", "0,0,1", "--h", "7", "--bogus"),
            ("spin", "state", "--j", "1.5", "--dir", "0.6,0,0.8", "--h", "-0.5"),
            ("spin", "catalog", "--help"),
            ("evar", "maximal", "--values", "1,2,3"),
        ]
        alone = [solo_call(capsys, argv) for argv in calls]
        assert [code for code, _, _ in alone] == [2, 0, 0, 0]
        cli._build_parser.cache_clear()
        shared = [run_cli(capsys, *argv) for argv in calls]
        assert shared == alone
        # The shared parser keeps no value from an earlier call.
        parser = cli._build_parser()
        first = parser.parse_args(["evar", "maximal", "--values", "1,2", "--map", "1,1"])
        second = parser.parse_args(["evar", "maximal", "--values", "1,2"])
        assert first is not second
        assert second.outcome_map is None


# ---------------------------------------------------------------------------
# installed entry points


class TestEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qastates", "spin", "state",
             "--j", "0.5", "--dir", "0,0,1", "--h", "0.5"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        record = json.loads(proc.stdout)
        assert record["amplitudes"] == [[0.0, 0.0], [1.0, 0.0]]

    def test_console_script(self):
        exe = shutil.which("qastates")
        if exe is None:
            pytest.skip("console script not on PATH")
        proc = subprocess.run(
            [exe, "symmetry", "check", "--model", "designed_failure"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert any(
            r["subject"] == "lemma1" and r["verdict"] == "fail"
            for r in payload["reports"]
        )
