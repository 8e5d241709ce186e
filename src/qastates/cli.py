"""Command-line front end: construction, verification, report emission.

Subcommands mirror the library: ``spin`` builds and checks component
eigenstates, ``qubit`` covers the two-level geometry, ``evar`` the
coarse-graining of accessible variables, ``symmetry`` the finite-model
checkers (each subcommand runs one report battery of
:mod:`qastates.symmetry`, which fixes the report order), and ``report
--golden`` prints the full deterministic battery (it regenerates no file).
Each handler returns ``(payload, reports, summary)``: structured JSON goes
to stdout (or ``--out``) with a stable field order, and the summary,
written by the handler that built the payload, goes to stderr.
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
import itertools
import json
import math
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Mapping

import numpy as np

from . import evariables, linalg, qubit, spin, symmetry
from .report import VerificationReport, summarize

DEFAULT_EPS = 1e-9
DEFAULT_SEED = 0


# ---------------------------------------------------------------------------
# state records


def emit_state(state: spin.QuestionAnswerState) -> dict:
    """Serialize a state to the documented record schema.

    The record holds the spin magnitude, the unit direction, the sharp
    answer, and the amplitudes in the ascending magnetic basis as
    ``[re, im]`` pairs.  Round-trips exactly through :func:`parse_state`.
    """
    d = state.direction
    return {
        "j": float(state.system.j),
        "dir": [float(d.x), float(d.y), float(d.z)],
        "h": float(state.answer),
        "amplitudes": np.column_stack((state.ket.real, state.ket.imag)).tolist(),
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
    if not path.is_file():
        if path.suffix or "/" in text:
            if path.exists():
                raise ValueError(f"--model: {text!r} is not a regular file")
            raise ValueError(f"--model: no such file: {text!r}")
        try:
            path = symmetry.bundled_model_path(text)
        except ValueError:
            raise ValueError(f"--model: {text!r} is neither a file nor a bundled model name")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ValueError(f"--model: {text!r} is not a UTF-8 JSON file: {exc}")
    if not isinstance(raw, dict):
        raise ValueError(f"--model: {text!r} does not hold a JSON object")
    return symmetry.load_model(raw), text


def _add_out(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", metavar="PATH", help="write the JSON payload here instead of stdout")


def _add_sampling(parser: argparse.ArgumentParser, samples: int) -> None:
    parser.add_argument("--samples", type=_positive_int, default=samples)
    parser.add_argument("--eps", type=_eps_argument, default=DEFAULT_EPS)
    parser.add_argument("--seed", type=_seed_argument, default=DEFAULT_SEED)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors end as every other exit-2 path
    does: one ``error:`` line on stderr, with no usage lines before it.
    Subparsers are built by the parser's own class, so they inherit it."""

    def error(self, message: str):
        self.exit(2, f"error: {' '.join(message.split())}\n")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every
    `main` call; each parse fills a fresh namespace."""
    parser = _Parser(
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
    for name, blurb, battery in (
        ("check", "run every checker on a model", symmetry.check_reports),
        ("assumptions", "measure, closure, representation, separation",
         symmetry.assumption_reports),
        ("theorem1", "word kernel and state distinctness", symmetry.theorem1_reports),
    ):
        p = sym_sub.add_parser(name, help=blurb)
        p.add_argument("--model", required=True, metavar="PATH|NAME")
        _add_out(p)
        p.set_defaults(handler=_cmd_symmetry, battery=battery)

    p = top.add_parser("report", help="emit the full verification battery")
    p.add_argument(
        "--golden",
        action="store_true",
        required=True,
        help="print the golden battery (required; regenerates nothing)",
    )
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
    states = spin.state_catalog(args.system, args.dir)
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
    except ValueError as exc:
        raise ValueError(f"--map: {exc}")
    # The merged operator's eigenvalues are the --map values, which the
    # eigensolver can always decide once coarse_grain accepts them.
    report = evariables.coarse_grain_report(cg, a)
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
    # Accepted values always give an operator the eigensolver can decide.
    dec = linalg.hermitian_eig(a)
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


def _cmd_symmetry(args) -> tuple[dict, list, str]:
    model, shown = _resolve_model(args.model)
    return _reports_payload(args, {"model": shown}, args.battery(model))


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
        section(f"symmetry {name}", symmetry.check_reports(model))

    payload = {
        "schema": "qastates-battery/1",
        "seed": seed,
        "sections": sections,
    }
    return payload, all_reports


def _cmd_report(args) -> tuple[dict, list, str]:
    payload, reports = golden_battery(args.seed)
    return payload, reports, summarize(reports)


# ---------------------------------------------------------------------------
# entry point


# JSON scalars: a list or dict holding more than _INLINE_SCALARS of these is
# written by one call of the C encoder, its item separator carrying the
# indentation.  A call costs about what writing four scalars in place does
# (1.2 us for [2, 2] against 0.6 us by hand, on a 2-vCPU host), so shorter
# containers are written in place.
_SCALAR_TYPES = frozenset((str, int, float, bool, type(None)))
_INLINE_SCALARS = 4
_ROW_TYPES = frozenset((list, tuple))


@functools.cache
def _encoder(inner: str):
    """Encode with items separated by ``,`` and ``inner`` (a newline and
    spaces).  It writes scalar containers only, which cannot hold
    themselves, so it keeps no record of the containers it has entered."""
    return json.JSONEncoder(
        separators=("," + inner, ": "), allow_nan=False, check_circular=False
    ).encode


def _key(key) -> str:
    """A dict key as ``json`` writes it: str, or a coerced scalar."""
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if key is None or isinstance(key, (int, float)):
        return encode_basestring_ascii(_encoder("")(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _render(value, indent: str, out: list) -> None:
    """Append the JSON text of ``value``, nested at ``indent`` (a newline
    and spaces), to ``out`` as fragments that `render_payload` joins once."""
    if isinstance(value, dict):
        items, ends = value.values(), "{}"
    elif isinstance(value, (list, tuple)):
        items, ends = value, "[]"
    else:
        out.append(_encoder(indent)(value))
        return
    if not value:
        out.append(ends)
        return
    inner = indent + "  "
    kinds = set(map(type, items))
    if kinds <= _SCALAR_TYPES and len(value) > _INLINE_SCALARS:
        out += ends[0], inner, _encoder(inner)(value)[1:-1], indent, ends[1]
        return
    if (
        ends == "[]"
        and kinds <= _ROW_TYPES
        and all(value)
        and set(map(type, itertools.chain.from_iterable(value))) <= _SCALAR_TYPES
    ):
        # Encoded scalars hold no raw newline, so "]," and ``deeper`` meet
        # only where one row ends and the next begins.
        deeper = inner + "  "
        rows = _encoder(deeper)(value)[2:-2]
        rows = rows.replace("]," + deeper + "[", inner + "]," + inner + "[" + deeper)
        out += "[", inner, "[", deeper, rows, inner, "]", indent, "]"
        return
    comma = "," + inner
    keyed = ends == "{}"
    append = out.append
    append(ends[0])
    separator = inner
    for key, item in value.items() if keyed else enumerate(value):
        append(separator)
        separator = comma
        if keyed:
            append(encode_basestring_ascii(key) if type(key) is str else _key(key))
            append(": ")
        kind = type(item)
        if kind is str:
            append(encode_basestring_ascii(item))
        elif kind is int or kind is float and math.isfinite(item):
            append(kind.__repr__(item))
        else:  # a container, or a scalar the encoder writes or refuses
            _render(item, inner, out)
    append(indent)
    append(ends[1])


def render_payload(payload: Mapping) -> str:
    """Stable JSON text for a payload: fixed field order, trailing newline.

    The text is exactly ``json.dumps(payload, indent=2, allow_nan=False)``
    plus a newline, with the formatting done by the C encoder.  A list or
    dict of more than four JSON scalars (str, int, float, bool, None, by
    exact type) is one encoder call whose item separator carries the
    indentation, and a list of non-empty rows of scalars is one call at
    the rows' indent plus one replacement of the row breaks.  In any other
    container the str, int and finite float items are written in place
    and the rest rendered one level deeper.  Every fragment goes to one
    list that is joined once, here, so a fragment is copied into the text
    once, whatever its depth.  Strict JSON: a NaN or infinite value raises
    ValueError instead of printing as ``NaN`` or ``Infinity``.  Payloads
    hold Python types only (numpy floats are ``float`` subclasses);
    anything else raises TypeError.
    """
    out: list[str] = []
    _render(payload, "\n", out)
    out.append("\n")
    return "".join(out)


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
