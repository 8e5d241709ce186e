"""Command-line front end: construction, verification, report emission.

Subcommands mirror the library: ``spin`` builds and checks component
eigenstates, ``qubit`` covers the two-level geometry, ``evar`` the
coarse-graining of accessible variables, ``symmetry`` the finite-model
checkers, and ``report --golden`` regenerates the full deterministic
battery.  Structured JSON goes to stdout (or ``--out``) with a stable
field order; a human summary goes to stderr.  The argument parser is built
once per process: every ``main`` call parses into a fresh namespace, so
in-process callers running many commands pay for it once.

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
from typing import Any, Mapping

import numpy as np

from . import evariables, linalg, qubit, spin, symmetry
from .report import VerificationReport, summarize

DEFAULT_EPS = 1e-9
DEFAULT_SEED = 0
_SEED_LIMIT = 2**64


class CommandError(Exception):
    """Invalid usage or model input; maps to exit status 2."""


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


def _half_integer(text: str, low: float, high: float) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a decimal number, got {text!r}")
    if not math.isfinite(value) or abs(2.0 * value - round(2.0 * value)) > 1e-9:
        raise argparse.ArgumentTypeError(f"must be a half-integer, got {text!r}")
    value = round(2.0 * value) / 2.0
    if not low <= value <= high:
        raise argparse.ArgumentTypeError(
            f"must lie in [{low:g}, {high:g}], got {text!r}"
        )
    return value


def _j_argument(text: str) -> float:
    return _half_integer(text, 0.5, spin.MAX_J)


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


def _eps_argument(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a decimal number, got {text!r}")
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"must lie in (0, 1), got {text!r}")
    return value


def _seed_argument(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}")
    if not 0 <= value < _SEED_LIMIT:
        raise argparse.ArgumentTypeError(f"must be a 64-bit unsigned integer, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text!r}")
    return value


def _float_list(flag: str, text: str) -> list[float]:
    try:
        return [float(p) for p in text.split(",")]
    except ValueError:
        raise CommandError(f"{flag} must be comma-separated decimals, got {text!r}")


def _validated_answer(system: spin.SpinSystem, h: float) -> float:
    try:
        system.m_index(h)
    except ValueError as exc:
        raise CommandError(f"--h: {exc}")
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
            raise CommandError(f"--model: {text!r} is neither a file nor a bundled model name")
        return symmetry.load_model(bundled), text
    raise CommandError(f"--model: no such file: {text!r}")


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
    p.add_argument("--j", type=_j_argument, required=True)
    p.add_argument("--dir", type=_dir_argument, required=True, metavar="X,Y,Z")
    p.add_argument("--h", type=float, required=True)
    _add_out(p)
    p.set_defaults(handler=_cmd_spin_state)

    p = spin_sub.add_parser("verify", help="recursion vs oracle, plus per-direction completeness")
    p.add_argument("--j", type=_j_argument, required=True)
    _add_sampling(p, samples=100)
    _add_out(p)
    p.set_defaults(handler=_cmd_spin_verify)

    p = spin_sub.add_parser("catalog", help="all states for one direction")
    p.add_argument("--j", type=_j_argument, required=True)
    p.add_argument("--dir", type=_dir_argument, required=True, metavar="X,Y,Z")
    _add_out(p)
    p.set_defaults(handler=_cmd_spin_catalog)

    p = spin_sub.add_parser("overlap", help="ray collisions between opposite questions")
    p.add_argument("--j", type=_j_argument, required=True)
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
# handlers: each returns (payload, reports)


def _report_dicts(reports) -> list[dict]:
    return [r.to_json_dict() for r in reports]


def _cmd_spin_state(args) -> tuple[dict, list]:
    system = spin.SpinSystem(args.j)
    h = _validated_answer(system, args.h)
    state = spin.eigenstate_recursion(system, args.dir, h)
    return emit_state(state), []


def _cmd_spin_verify(args) -> tuple[dict, list]:
    system = spin.SpinSystem(args.j)
    rng = np.random.default_rng(args.seed)
    reports = [
        spin.verify_eigenstates(system, samples=args.samples, eps=args.eps, rng=rng),
        spin.verify_orthogonality(system, samples=args.samples, eps=args.eps, rng=rng),
    ]
    payload = {
        "command": "spin verify",
        "parameters": {
            "j": system.j,
            "samples": args.samples,
            "eps": args.eps,
            "seed": args.seed,
        },
        "reports": _report_dicts(reports),
    }
    return payload, reports


def _cmd_spin_catalog(args) -> tuple[dict, list]:
    system = spin.SpinSystem(args.j)
    states = spin.state_catalog(system, [args.dir])
    kets = np.array([s.ket for s in states])
    gram = np.conjugate(kets) @ kets.T
    defect = float(np.max(np.abs(gram - np.eye(len(states)))))
    payload = {
        "command": "spin catalog",
        "parameters": {
            "j": system.j,
            "dir": [args.dir.x, args.dir.y, args.dir.z],
        },
        "states": [emit_state(s) for s in states],
        "gram_defect": defect,
    }
    return payload, []


def _cmd_spin_overlap(args) -> tuple[dict, list]:
    system = spin.SpinSystem(args.j)
    rng = np.random.default_rng(args.seed)
    report = spin.verify_ray_collisions(system, samples=args.samples, eps=args.eps, rng=rng)
    payload = {
        "command": "spin overlap",
        "parameters": {
            "j": system.j,
            "samples": args.samples,
            "eps": args.eps,
            "seed": args.seed,
        },
        "reports": _report_dicts([report]),
    }
    return payload, [report]


def _cmd_qubit_bloch(args) -> tuple[dict, list]:
    system = spin.SpinSystem(0.5)
    state = spin.eigenstate_recursion(system, args.dir, 0.5)
    bloch = qubit.bloch_direction(state.ket)
    payload = {
        "command": "qubit bloch",
        "parameters": {"dir": [args.dir.x, args.dir.y, args.dir.z]},
        "state": emit_state(state),
        "bloch": [bloch.x, bloch.y, bloch.z],
        "roundtrip_angle": spin.angle_between(args.dir, bloch),
    }
    return payload, []


def _cmd_qubit_prop2(args) -> tuple[dict, list]:
    rng = np.random.default_rng(args.seed)
    pairs = max(1, args.samples // 2)
    reports = [
        qubit.verify_prop2(samples=args.samples, eps=args.eps, rng=rng),
        qubit.verify_homomorphism(pairs=pairs, rng=rng),
    ]
    payload = {
        "command": "qubit prop2",
        "parameters": {
            "samples": args.samples,
            "pairs": pairs,
            "eps": args.eps,
            "seed": args.seed,
        },
        "reports": _report_dicts(reports),
    }
    return payload, reports


def _parse_evar_inputs(args) -> tuple[evariables.EVariableSpec, dict | None]:
    values = _float_list("--values", args.values)
    try:
        spec = evariables.EVariableSpec.standard("theta", values)
    except ValueError as exc:
        raise CommandError(f"--values: {exc}")
    mapping = None
    if getattr(args, "outcome_map", None) is not None:
        mapped = _float_list("--map", args.outcome_map)
        if len(mapped) != len(values):
            raise CommandError(
                f"--map lists {len(mapped)} outcomes for {len(values)} values"
            )
        mapping = dict(zip(spec.values, mapped))
    return spec, mapping


def _cmd_evar_coarse_grain(args) -> tuple[dict, list]:
    spec, mapping = _parse_evar_inputs(args)
    if mapping is None:
        raise CommandError("--map is required for coarse-grain")
    try:
        cg, a = evariables.coarse_grain(spec, mapping)
    except ValueError as exc:
        raise CommandError(f"--map: {exc}")
    try:
        # The merged operator's eigenvalues are the --map values.
        report = evariables.coarse_grain_report(cg, a)
    except ValueError as exc:
        raise CommandError(f"--map: {exc}")
    payload = {
        "command": "evar coarse-grain",
        "parameters": {
            "values": list(spec.values),
            "map": [mapping[v] for v in spec.values],
        },
        "coarse_values": list(cg.coarse_values),
        "classes": [list(c) for c in cg.classes],
        "reports": _report_dicts([report]),
    }
    return payload, [report]


def _cmd_evar_maximal(args) -> tuple[dict, list]:
    spec, mapping = _parse_evar_inputs(args)
    if mapping is None:
        a = evariables.operator_from_maximal(spec)
    else:
        try:
            _, a = evariables.coarse_grain(spec, mapping)
        except ValueError as exc:
            raise CommandError(f"--map: {exc}")
    try:
        dec = linalg.hermitian_eig(a)
    except ValueError as exc:
        raise CommandError(f"{'--values' if mapping is None else '--map'}: {exc}")
    payload = {
        "command": "evar maximal",
        "parameters": {
            "values": list(spec.values),
            "map": None if mapping is None else [mapping[v] for v in spec.values],
        },
        "maximal": bool(evariables.is_maximally_accessible(dec)),
        "eigenvalues": [float(v) for v in dec.eigenvalues],
    }
    return payload, []


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


def _cmd_symmetry(args) -> tuple[dict, list]:
    model, shown = _resolve_model(args.model)
    eps = getattr(args, "eps", DEFAULT_EPS)
    reports = _symmetry_reports(
        model, args.max_word_len, SYMMETRY_CHECKERS[args.command], eps
    )
    payload = {
        "command": f"symmetry {args.command}",
        "parameters": {"model": shown, "max_word_len": args.max_word_len},
        "reports": _report_dicts(reports),
    }
    return payload, reports


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


def _cmd_report(args) -> tuple[dict, list]:
    if not args.golden:
        raise CommandError("report requires --golden")
    payload, reports = golden_battery(args.seed)
    return payload, reports


# ---------------------------------------------------------------------------
# entry point


def _json_default(obj: Any):
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def render_payload(payload: Mapping) -> str:
    """Stable JSON text for a payload: fixed field order, trailing newline.

    Strict JSON: a NaN or infinite value raises ValueError instead of
    printing as ``NaN`` or ``Infinity``.
    """
    return json.dumps(payload, indent=2, default=_json_default, allow_nan=False) + "\n"


def _summary(payload: Mapping, reports) -> str:
    if reports:
        named: dict[str, VerificationReport] = {}
        for r in reports:
            key = r.subject
            n = 2
            while key in named:
                key = f"{r.subject}.{n}"
                n += 1
            named[key] = r
        return summarize(named)
    command = payload.get("command")
    if command == "spin catalog":
        n = len(payload["states"])
        return f"built {n} states; gram defect {payload['gram_defect']:.3e}"
    if command == "qubit bloch":
        x, y, z = payload["bloch"]
        return f"bloch direction ({x:.6f}, {y:.6f}, {z:.6f})"
    if command == "evar maximal":
        return f"maximal: {payload['maximal']}"
    if "amplitudes" in payload:
        return f"state built: j={payload['j']:g}, h={payload['h']:g}"
    return "done"


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    # Exit 1 belongs to failing reports alone: anything raised on the way,
    # bad input or an internal failure, becomes one error line and exit 2.
    try:
        payload, reports = args.handler(args)
        text = render_payload(payload)
        summary = _summary(payload, reports)
        if args.out:
            try:
                Path(args.out).write_text(text, encoding="utf-8")
            except OSError as exc:
                raise CommandError(f"--out: {exc}")
        else:
            sys.stdout.write(text)
    except Exception as exc:
        message = str(exc)
        if not isinstance(exc, (CommandError, ValueError, OSError)):
            message = f"{type(exc).__name__}: {message}"
        print("error:", " ".join(message.split()), file=sys.stderr)
        return 2
    print(summary, file=sys.stderr)
    return 1 if any(r.verdict == "fail" for r in reports) else 0


if __name__ == "__main__":
    sys.exit(main())
