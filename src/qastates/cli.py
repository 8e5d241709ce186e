"""Command-line front end: construction, verification, report emission.

Subcommands mirror the library: ``spin`` builds and checks component
eigenstates, ``qubit`` covers the two-level geometry, ``evar`` the
coarse-graining of accessible variables, ``symmetry`` the finite-model
checkers, and ``report --golden`` regenerates the full deterministic
battery.  Each handler returns ``(payload, reports, summary)``: structured
JSON goes to stdout (or ``--out``) with a stable field order, and the
summary, written by the handler that built the payload, goes to stderr.
Each flag is checked once, by its argparse type; ``--j`` is checked by
:class:`spin.SpinSystem` itself.  The argument parser is built once per
process: every ``main`` call parses into a fresh namespace, so in-process
callers running many commands pay for it once.

Exit status: 0 when every emitted report passes or the command is pure
construction, 1 when any report fails, 2 on usage or model errors (the
diagnostic names the offending field) and on any other error, with one
``error:`` line on stderr instead of a traceback.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path
from typing import Mapping

import numpy as np

from . import evariables, linalg, qubit, spin, symmetry
from .report import VerificationReport, summarize

DEFAULT_EPS = 1e-9
DEFAULT_SEED = 0


# ---------------------------------------------------------------------------
# state records


def emit_state(state: spin.QuestionAnswerState, form: str = "json") -> dict:
    """Serialize a state to the documented record schema.

    The record holds the spin magnitude, the unit direction, the sharp
    answer, and the amplitudes in the ascending magnetic basis as
    ``[re, im]`` pairs.  Round-trips exactly through :func:`parse_state`.
    """
    if form != "json":
        raise ValueError(f"unsupported format {form!r}; only 'json' is supported")
    d = state.direction
    return {
        "j": float(state.system.j),
        "dir": [float(d.x), float(d.y), float(d.z)],
        "h": float(state.answer),
        "amplitudes": [[float(z.real), float(z.imag)] for z in state.ket],
    }


def _json_number(value, field: str) -> float:
    """A finite JSON number (int or float) as a float; bools, strings and
    anything else are rejected, naming the field."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if math.isfinite(number):
            return number
    raise ValueError(f"{field} must be a finite JSON number, got {value!r}")


def parse_state(record: Mapping) -> spin.QuestionAnswerState:
    """Rebuild a state from its record, validating every field.

    Only JSON numbers are read as numbers, and each error names its field
    (``j``, ``dir[2]``, ``amplitudes[3][1]``).
    """
    if not isinstance(record, Mapping):
        raise ValueError("state record must be a JSON object")
    expected = {"j", "dir", "h", "amplitudes"}
    if set(record) != expected:
        raise ValueError(
            f"state record fields must be {sorted(expected)}, got {sorted(record)}"
        )
    system = spin.SpinSystem(_json_number(record["j"], "j"))
    components = record["dir"]
    if not isinstance(components, list) or len(components) != 3:
        raise ValueError("field 'dir' must hold three components")
    x, y, z = (_json_number(c, f"dir[{k}]") for k, c in enumerate(components))
    try:
        direction = spin.Direction(x, y, z)
    except ValueError as exc:
        raise ValueError(f"dir: {exc}")
    pairs = record["amplitudes"]
    if not isinstance(pairs, list):
        raise ValueError(f"amplitudes must be a list of [re, im] pairs, got {pairs!r}")
    ket = np.empty(len(pairs), dtype=complex)
    for i, pair in enumerate(pairs):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ValueError(
                f"amplitudes[{i}] must be a two-element [re, im] list, got {pair!r}"
            )
        re, im = (_json_number(x, f"amplitudes[{i}][{k}]") for k, x in enumerate(pair))
        ket[i] = complex(re, im)
    h = _json_number(record["h"], "h")
    return spin.QuestionAnswerState(system, direction, h, ket)


# ---------------------------------------------------------------------------
# argument parsing


def _spin_system(text: str) -> spin.SpinSystem:
    """``--j``, accepted exactly when :class:`spin.SpinSystem` accepts it."""
    try:
        return spin.SpinSystem(float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _dir_argument(text: str) -> spin.Direction:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected x,y,z, got {text!r}")
    try:
        x, y, z = (float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"components must be decimals, got {text!r}")
    n = math.sqrt(x * x + y * y + z * z)
    if not math.isfinite(n) or abs(n - 1.0) > 1e-6:
        raise argparse.ArgumentTypeError(
            f"must be a unit vector within 1e-6, got norm {n!r}"
        )
    return spin.Direction.normalized(x, y, z)


def _number(convert, kind: str, accept, requirement: str):
    """An argparse type: ``convert`` the text (failing as "must be
    <kind>"), then require ``accept(value)`` (failing as "must
    <requirement>")."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"must be {kind}, got {text!r}")
        if not accept(value):
            raise argparse.ArgumentTypeError(f"must {requirement}, got {text!r}")
        return value

    return parse


_eps_argument = _number(float, "a decimal number", lambda v: 0.0 < v < 1.0, "lie in (0, 1)")
_seed_argument = _number(
    int, "an integer", lambda v: 0 <= v < 2**64, "be a 64-bit unsigned integer"
)
_positive_int = _number(int, "an integer", lambda v: v >= 1, "be at least 1")


def _float_list(flag: str, text: str) -> list[float]:
    try:
        return [float(p) for p in text.split(",")]
    except ValueError:
        raise ValueError(f"{flag} must be comma-separated decimals, got {text!r}")


def _validated_answer(system: spin.SpinSystem, h: float) -> float:
    try:
        system.m_index(h)
    except ValueError as exc:
        raise ValueError(f"--h: {exc}")
    return h


def _resolve_model(text: str) -> tuple[symmetry.FiniteSymmetryModel, str]:
    """Load a model from a file path or a bundled model name."""
    path = Path(text)
    if path.is_file():
        return symmetry.load_model(path), text
    if path.suffix == "" and "/" not in text:
        try:
            bundled = symmetry.bundled_model_path(text)
        except ValueError:
            raise ValueError(f"--model: {text!r} is neither a file nor a bundled model name")
        return symmetry.load_model(bundled), text
    raise ValueError(f"--model: no such file: {text!r}")


def _add_out(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", metavar="PATH", help="write the JSON payload here instead of stdout")


def _add_sampling(parser: argparse.ArgumentParser, samples: int) -> None:
    parser.add_argument("--samples", type=_positive_int, default=samples)
    parser.add_argument("--eps", type=_eps_argument, default=DEFAULT_EPS)
    parser.add_argument("--seed", type=_seed_argument, default=DEFAULT_SEED)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every
    `main` call; each parse fills a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="qastates",
        description="Build question-answer states and verify their structural claims.",
    )
    top = parser.add_subparsers(dest="group", required=True)

    spin_cmd = top.add_parser("spin", help="component eigenstates for one spin magnitude")
    spin_sub = spin_cmd.add_subparsers(dest="command", required=True)

    p = spin_sub.add_parser("state", help="build one state and print its record")
    p.add_argument("--j", type=_spin_system, required=True, dest="system", metavar="J")
    p.add_argument("--dir", type=_dir_argument, required=True, metavar="X,Y,Z")
    p.add_argument("--h", type=float, required=True)
    _add_out(p)
    p.set_defaults(handler=_cmd_spin_state)

    p = spin_sub.add_parser("verify", help="recursion vs oracle, plus per-direction completeness")
    p.add_argument("--j", type=_spin_system, required=True, dest="system", metavar="J")
    _add_sampling(p, samples=100)
    _add_out(p)
    p.set_defaults(handler=_cmd_spin_verify)

    p = spin_sub.add_parser("catalog", help="all states for one direction")
    p.add_argument("--j", type=_spin_system, required=True, dest="system", metavar="J")
    p.add_argument("--dir", type=_dir_argument, required=True, metavar="X,Y,Z")
    _add_out(p)
    p.set_defaults(handler=_cmd_spin_catalog)

    p = spin_sub.add_parser("overlap", help="ray collisions between opposite questions")
    p.add_argument("--j", type=_spin_system, required=True, dest="system", metavar="J")
    _add_sampling(p, samples=100)
    _add_out(p)
    p.set_defaults(handler=_cmd_spin_overlap)

    qubit_cmd = top.add_parser("qubit", help="two-level geometry")
    qubit_sub = qubit_cmd.add_subparsers(dest="command", required=True)

    p = qubit_sub.add_parser("bloch", help="state along a direction and its Bloch vector")
    p.add_argument("--dir", type=_dir_argument, required=True, metavar="X,Y,Z")
    _add_out(p)
    p.set_defaults(handler=_cmd_qubit_bloch)

    p = qubit_sub.add_parser("prop2", help="round trips and the rotation cover map")
    _add_sampling(p, samples=1000)
    _add_out(p)
    p.set_defaults(handler=_cmd_qubit_prop2)

    evar_cmd = top.add_parser("evar", help="accessible variables and coarse-graining")
    evar_sub = evar_cmd.add_subparsers(dest="command", required=True)

    p = evar_sub.add_parser("coarse-grain", help="merge outcomes and verify the projector identities")
    p.add_argument("--values", required=True, metavar="V1,V2,...")
    p.add_argument("--map", required=True, metavar="U1,U2,...", dest="outcome_map")
    _add_out(p)
    p.set_defaults(handler=_cmd_evar_coarse_grain)

    p = evar_sub.add_parser("maximal", help="maximality of the (possibly merged) operator")
    p.add_argument("--values", required=True, metavar="V1,V2,...")
    p.add_argument("--map", metavar="U1,U2,...", dest="outcome_map")
    _add_out(p)
    p.set_defaults(handler=_cmd_evar_maximal)

    sym_cmd = top.add_parser("symmetry", help="finite symmetry model checkers")
    sym_sub = sym_cmd.add_subparsers(dest="command", required=True)
    for name, blurb in (
        ("check", "run every checker on a model"),
        ("assumptions", "measure, closure, representation, separation"),
        ("theorem1", "word kernel and state distinctness"),
    ):
        p = sym_sub.add_parser(name, help=blurb)
        p.add_argument("--model", required=True, metavar="PATH|NAME")
        p.add_argument("--max-word-len", type=_positive_int, default=symmetry.WORD_DEPTH_DEFAULT)
        if name == "theorem1":
            p.add_argument("--eps", type=_eps_argument, default=DEFAULT_EPS)
        _add_out(p)
        p.set_defaults(handler=_cmd_symmetry)

    p = top.add_parser("report", help="emit the full verification battery")
    p.add_argument("--golden", action="store_true", help="regenerate the golden battery")
    p.add_argument("--seed", type=_seed_argument, default=DEFAULT_SEED)
    _add_out(p)
    p.set_defaults(handler=_cmd_report)

    return parser


# ---------------------------------------------------------------------------
# handlers: each returns (payload, reports, summary); the summary goes to stderr


def _report_dicts(reports) -> list[dict]:
    return [r.to_json_dict() for r in reports]


def _reports_payload(args, parameters: dict, reports: list, **fields) -> tuple[dict, list, str]:
    """Handler result of a report command: the payload (command, parameters,
    any extra ``fields``, then the reports), the reports, and their summary."""
    payload = {
        "command": f"{args.group} {args.command}",
        "parameters": parameters,
        **fields,
        "reports": _report_dicts(reports),
    }
    return payload, reports, summarize(reports)


def _cmd_spin_state(args) -> tuple[dict, list, str]:
    h = _validated_answer(args.system, args.h)
    record = emit_state(spin.eigenstate_recursion(args.system, args.dir, h))
    return record, [], f"state built: j={record['j']:g}, h={record['h']:g}"


def _cmd_spin_verify(args) -> tuple[dict, list, str]:
    rng = np.random.default_rng(args.seed)
    reports = [
        spin.verify_eigenstates(args.system, samples=args.samples, eps=args.eps, rng=rng),
        spin.verify_orthogonality(args.system, samples=args.samples, eps=args.eps, rng=rng),
    ]
    parameters = {"j": args.system.j, "samples": args.samples, "eps": args.eps, "seed": args.seed}
    return _reports_payload(args, parameters, reports)


def _cmd_spin_catalog(args) -> tuple[dict, list, str]:
    states = spin.state_catalog(args.system, [args.dir])
    defect = linalg.gram_defect(np.array([s.ket for s in states]).T)
    payload = {
        "command": "spin catalog",
        "parameters": {
            "j": args.system.j,
            "dir": [args.dir.x, args.dir.y, args.dir.z],
        },
        "states": [emit_state(s) for s in states],
        "gram_defect": defect,
    }
    return payload, [], f"built {len(states)} states; gram defect {defect:.3e}"


def _cmd_spin_overlap(args) -> tuple[dict, list, str]:
    rng = np.random.default_rng(args.seed)
    report = spin.verify_ray_collisions(args.system, samples=args.samples, eps=args.eps, rng=rng)
    parameters = {"j": args.system.j, "samples": args.samples, "eps": args.eps, "seed": args.seed}
    return _reports_payload(args, parameters, [report])


def _cmd_qubit_bloch(args) -> tuple[dict, list, str]:
    state = spin.eigenstate_recursion(spin.SpinSystem(0.5), args.dir, 0.5)
    bloch = qubit.bloch_direction(state.ket)
    payload = {
        "command": "qubit bloch",
        "parameters": {"dir": [args.dir.x, args.dir.y, args.dir.z]},
        "state": emit_state(state),
        "bloch": [bloch.x, bloch.y, bloch.z],
        "roundtrip_angle": spin.angle_between(args.dir, bloch),
    }
    return payload, [], f"bloch direction ({bloch.x:.6f}, {bloch.y:.6f}, {bloch.z:.6f})"


def _cmd_qubit_prop2(args) -> tuple[dict, list, str]:
    rng = np.random.default_rng(args.seed)
    pairs = max(1, args.samples // 2)
    reports = [
        qubit.verify_prop2(samples=args.samples, eps=args.eps, rng=rng),
        qubit.verify_homomorphism(pairs=pairs, rng=rng),
    ]
    parameters = {"samples": args.samples, "pairs": pairs, "eps": args.eps, "seed": args.seed}
    return _reports_payload(args, parameters, reports)


def _parse_evar_inputs(args) -> tuple[evariables.EVariableSpec, dict | None]:
    values = _float_list("--values", args.values)
    try:
        spec = evariables.EVariableSpec.standard("theta", values)
    except ValueError as exc:
        raise ValueError(f"--values: {exc}")
    if args.outcome_map is None:
        return spec, None
    mapped = _float_list("--map", args.outcome_map)
    if len(mapped) != len(values):
        raise ValueError(f"--map lists {len(mapped)} outcomes for {len(values)} values")
    return spec, dict(zip(spec.values, mapped))


def _cmd_evar_coarse_grain(args) -> tuple[dict, list, str]:
    spec, mapping = _parse_evar_inputs(args)
    try:
        cg, a = evariables.coarse_grain(spec, mapping)
        # The merged operator's eigenvalues are the --map values.
        report = evariables.coarse_grain_report(cg, a)
    except ValueError as exc:
        raise ValueError(f"--map: {exc}")
    return _reports_payload(
        args,
        {"values": list(spec.values), "map": [mapping[v] for v in spec.values]},
        [report],
        coarse_values=list(cg.coarse_values),
        classes=[list(c) for c in cg.classes],
    )


def _cmd_evar_maximal(args) -> tuple[dict, list, str]:
    spec, mapping = _parse_evar_inputs(args)
    if mapping is None:
        a = evariables.operator_from_maximal(spec)
    else:
        try:
            _, a = evariables.coarse_grain(spec, mapping)
        except ValueError as exc:
            raise ValueError(f"--map: {exc}")
    try:
        dec = linalg.hermitian_eig(a)
    except ValueError as exc:
        raise ValueError(f"{'--values' if mapping is None else '--map'}: {exc}")
    maximal = bool(evariables.is_maximally_accessible(dec))
    payload = {
        "command": "evar maximal",
        "parameters": {
            "values": list(spec.values),
            "map": None if mapping is None else [mapping[v] for v in spec.values],
        },
        "maximal": maximal,
        "eigenvalues": [float(v) for v in dec.eigenvalues],
    }
    return payload, [], f"maximal: {maximal}"


# Symmetry checkers: each takes (model, max_len, eps) and returns its
# reports in payload order.  They look the library functions up at call
# time, so a rebound ``symmetry`` attribute is honoured.


def _lemma1(model, max_len: int, eps: float) -> list:
    return [symmetry.validate_model(model)]


def _assumptions(model, max_len: int, eps: float) -> list:
    # assumption_3b comes from the word scan and sits between 3a and 3c.
    measure, closure, irreducibility, separation, lemma2 = symmetry.check_assumptions(model)
    multivalued = symmetry.detect_multivaluedness(model, max_len)
    return [measure, closure, irreducibility, multivalued, separation, lemma2]


def _theorem1(model, max_len: int, eps: float) -> list:
    return [
        symmetry.verify_word_kernel(model, max_len),
        symmetry.verify_theorem1(model, max_len, eps),
    ]


# Checker list of each ``symmetry`` subcommand, in report order.
SYMMETRY_CHECKERS = {
    "check": (_lemma1, _assumptions, _theorem1),
    "assumptions": (_assumptions,),
    "theorem1": (_theorem1,),
}


def _symmetry_reports(model, max_len: int, checkers, eps: float = DEFAULT_EPS) -> list:
    return [report for checker in checkers for report in checker(model, max_len, eps)]


def _cmd_symmetry(args) -> tuple[dict, list, str]:
    model, shown = _resolve_model(args.model)
    eps = getattr(args, "eps", DEFAULT_EPS)
    reports = _symmetry_reports(
        model, args.max_word_len, SYMMETRY_CHECKERS[args.command], eps
    )
    return _reports_payload(args, {"model": shown, "max_word_len": args.max_word_len}, reports)


# ---------------------------------------------------------------------------
# golden battery


def golden_battery(seed: int = DEFAULT_SEED) -> tuple[dict, list]:
    """The full deterministic verification battery.

    One seeded generator feeds every section in a fixed order, so the
    entire payload is reproducible byte for byte from the seed.
    """
    rng = np.random.default_rng(seed)
    sections = []
    all_reports: list[VerificationReport] = []

    def section(name: str, reports: list) -> None:
        all_reports.extend(reports)
        sections.append({"name": name, "reports": _report_dicts(reports)})

    for j in (0.5, 1.0, 1.5, 2.0):
        system = spin.SpinSystem(j)
        section(
            f"spin j={j:g}",
            [
                spin.verify_eigenstates(system, samples=10, eps=DEFAULT_EPS, rng=rng),
                spin.verify_orthogonality(system, samples=10, eps=DEFAULT_EPS, rng=rng),
                spin.verify_ray_collisions(system, samples=25, eps=DEFAULT_EPS, rng=rng),
            ],
        )

    section(
        "qubit",
        [
            qubit.verify_prop2(samples=200, eps=DEFAULT_EPS, rng=rng),
            qubit.verify_homomorphism(pairs=100, rng=rng),
        ],
    )

    spec = evariables.EVariableSpec.standard("theta", (1.0, 2.0, 3.0, 4.0, 5.0, 6.0))
    merging = {1.0: 1.0, 2.0: 1.0, 3.0: 2.0, 4.0: 2.0, 5.0: 3.0, 6.0: 3.0}
    keeping = {v: v for v in spec.values}
    section(
        "coarse graining",
        [
            evariables.coarse_grain_report(*evariables.coarse_grain(spec, merging)),
            evariables.coarse_grain_report(*evariables.coarse_grain(spec, keeping)),
        ],
    )

    for name in ("structural_example", "designed_failure"):
        model = symmetry.load_model(symmetry.bundled_model_path(name))
        section(
            f"symmetry {name}",
            _symmetry_reports(
                model, symmetry.WORD_DEPTH_DEFAULT, SYMMETRY_CHECKERS["check"]
            ),
        )

    payload = {
        "schema": "qastates-battery/1",
        "seed": seed,
        "sections": sections,
    }
    return payload, all_reports


def _cmd_report(args) -> tuple[dict, list, str]:
    if not args.golden:
        raise ValueError("report requires --golden")
    payload, reports = golden_battery(args.seed)
    return payload, reports, summarize(reports)


# ---------------------------------------------------------------------------
# entry point


def render_payload(payload: Mapping) -> str:
    """Stable JSON text for a payload: fixed field order, trailing newline.

    Strict JSON: a NaN or infinite value raises ValueError instead of
    printing as ``NaN`` or ``Infinity``.  Payloads hold Python types only
    (numpy floats are ``float`` subclasses); anything else raises TypeError.
    """
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    # Exit 1 belongs to failing reports alone: anything raised on the way,
    # bad input or an internal failure, becomes one error line and exit 2.
    try:
        payload, reports, summary = args.handler(args)
        text = render_payload(payload)
        if args.out:
            try:
                Path(args.out).write_text(text, encoding="utf-8")
            except OSError as exc:
                raise ValueError(f"--out: {exc}")
        else:
            sys.stdout.write(text)
    except Exception as exc:
        message = str(exc)
        if not isinstance(exc, (ValueError, OSError)):
            message = f"{type(exc).__name__}: {message}"
        print("error:", " ".join(message.split()), file=sys.stderr)
        return 2
    print(summary, file=sys.stderr)
    return 1 if any(r.verdict == "fail" for r in reports) else 0


if __name__ == "__main__":
    sys.exit(main())
