"""JSON workspace format and the command-line interface.

Reports are emitted as canonical JSON (sorted keys, two-space indent, one
trailing newline) so repeated runs are byte-identical. Exit codes: 0 on
success, 2 on validation/domain failure, 64 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Any, Mapping, Sequence

from .archimedean import ArchBlock, combined_inf_char, inf_char, is_regular, normalization_order
from .core_types import (
    CuspidalLabel,
    GroupKind,
    GroupType,
    LContext,
    MINUS,
    PLUS,
    Parity,
    TriBool,
    parse_halfint,
    parse_sign,
    sign_str,
)
from .eisenstein import GlobalJord, eisenstein_verdict, residue_verdict
from .jacquet import JacSequence, jac_nonvanishing_necessary, jac_normal_form, irreducible_cuspidal_twist
from .jordan import ZERO_TWIST, ArthurParameter, JordanBlock, validate_parameter
from .lfactors import r_order
from .packets import (
    PSI_PLUS_SIDE,
    PSI_SIDE,
    PacketParams,
    TargetTriple,
    canonical_order,
    count_params,
    enumerate_params,
    locate_pivot,  # unused here, but perfbench/tracer.py wraps it in this module
    validate_order,
    validate_params,
)
from .transfer import apply_transfer, build_psi_plus, check_target_parity

EXIT_OK = 0
EXIT_FAIL = 2
EXIT_USAGE = 64


class WorkspaceError(ValueError):
    """A schema violation at a JSON-pointer path."""

    def __init__(self, pointer: str, message: str):
        self.pointer = pointer
        self.message = message
        super().__init__(f"{pointer or '/'}: {message}")


class UsageError(Exception):
    """A command-line usage problem detected after argument parsing."""


# ---------------------------------------------------------------------------
# workspace parsing
#
# Each record kind is a _Table: its fields in key order, each a (key,
# converter, default) triple, and the function that builds the record from
# the converted fields. A converter takes (value, ctx), where ctx holds the
# root fields converted so far (labels come first), and returns the
# converted value. A WorkspaceError raised while converting a value carries a
# pointer relative to that value; each enclosing object or array prefixes its
# key or index on the way out, so a valid document builds no pointer strings.

_REQUIRED = object()  # default of a key the record must have


def _under(key: Any, exc: WorkspaceError) -> WorkspaceError:
    return WorkspaceError(f"/{key}{exc.pointer}", exc.message)


def _typed(kind: type, name: str):
    # JSON values only, so an exact type test: a bool is not an integer.
    def convert(value: Any, ctx: dict | None = None) -> Any:
        if type(value) is not kind:
            if type(value) is _LongInt:
                raise WorkspaceError("", f"integer of {value} digits is too long")
            raise WorkspaceError("", f"expected {name}, got {type(value).__name__}")
        return value

    return convert


_object, _array = _typed(dict, "an object"), _typed(list, "an array")
_str, _int, _bool = _typed(str, "a string"), _typed(int, "an integer"), _typed(bool, "a boolean")


class _Table:
    """One record kind; calling it checks and converts one JSON object."""

    def __init__(self, build, *fields):
        self.build = build
        self.fields = fields
        self.keys = frozenset(key for key, _, _ in fields)
        self.required = frozenset(key for key, _, default in fields if default is _REQUIRED)

    def __call__(self, value: Any, ctx: dict | None) -> Any:
        obj = _object(value)
        keys = obj.keys()
        if not keys <= self.keys:
            unknown = next(k for k in obj if k not in self.keys)
            # A pointer token escapes '~' and '/' (RFC 6901).
            token = unknown.replace("~", "~0").replace("/", "~1")
            raise WorkspaceError(f"/{token}", "unknown key")
        if not keys >= self.required:
            missing = next(k for k, _, d in self.fields if d is _REQUIRED and k not in obj)
            raise WorkspaceError("", f"missing required key {missing!r}")
        got: dict[str, Any] = {}
        if ctx is None:
            ctx = got
        try:
            for key, convert, default in self.fields:
                got[key] = convert(obj[key], ctx) if key in obj else default
        except WorkspaceError as exc:
            raise _under(key, exc) from None
        try:
            return self.build(got, ctx)
        except WorkspaceError:
            raise
        except ValueError as exc:
            raise WorkspaceError("", str(exc)) from None


# Every JSON array becomes a tuple here, the one sequence type of a record's
# fields, so no record copies what it is given.
def _list_of(convert):
    def convert_list(value: Any, ctx: dict) -> tuple:
        items = _array(value)
        out = []
        k = 0
        try:
            for k, item in enumerate(items):
                out.append(convert(item, ctx))
        except WorkspaceError as exc:
            raise _under(k, exc) from None
        return tuple(out)

    return convert_list


def _named(kind: str, table: _Table):
    """A list of ``table`` records as a dict keyed by their first field."""
    key = table.fields[0][0]
    records = _list_of(table)

    def convert(value: Any, ctx: dict) -> dict:
        out: dict[str, Any] = {}
        for k, (item, record) in enumerate(zip(value, records(value, ctx))):
            if item[key] in out:
                raise WorkspaceError(f"/{k}/{key}", f"duplicate {kind} {key} {item[key]!r}")
            out[item[key]] = record
        return out

    return convert


def _nullable(convert):
    return lambda value, ctx: None if value is None else convert(value, ctx)


def _positive(what: str):
    def convert(value: Any, ctx: dict) -> int:
        if _int(value) < 1:
            raise WorkspaceError("", f"expected a positive {what}, got {value}")
        return value

    return convert


_size = _positive("size")


def _choice(values: Mapping[str, Any], expected: str):
    def convert(value: Any, ctx: dict) -> Any:
        if _str(value) not in values:
            raise WorkspaceError("", f"expected {expected}, got {value!r}")
        return values[value]

    return convert


def _sign(value: Any, ctx: dict) -> int:
    text = _str(value)
    try:
        return parse_sign(text)
    except ValueError as exc:
        raise WorkspaceError("", str(exc)) from None


def _label_id(value: Any, ctx: dict) -> str:
    if _str(value) not in ctx["labels"]:
        raise WorkspaceError("", f"undeclared label id {value!r}")
    return value


def _self_dual_label_id(value: Any, ctx: dict) -> str:
    if not ctx["labels"][_label_id(value, ctx)].self_dual:
        raise WorkspaceError("", f"label {value!r} must be self-dual in a global datum")
    return value


_label_ids = _list_of(_label_id)


def _label_pair(value: Any, ctx: dict) -> tuple[str, str]:
    ids = _label_ids(value, ctx)
    if len(ids) != 2:
        raise WorkspaceError("", f"expected a pair of label ids, got {len(ids)} entries")
    return ids[0], ids[1]


@dataclass
class ParamEntry:
    """A named parameter, its optional block order, and optional coordinates."""

    parameter: ArthurParameter
    order: tuple[int, ...] | None = None
    params: PacketParams | None = None

    def ordered(self) -> tuple[JordanBlock, ...]:
        blocks = self.parameter.blocks
        if self.order is None:
            return blocks
        return tuple(blocks[k] for k in self.order)


@dataclass
class Workspace:
    """Parsed workspace: labels, group, declared facts, and named inputs."""

    labels: dict[str, CuspidalLabel]
    group: GroupType
    lcontext: LContext
    parameters: dict[str, ParamEntry]
    arch: dict[str, tuple[ArchBlock, ...]]
    global_jords: dict[str, GlobalJord]


def _param_entry(got: dict, ctx: dict) -> ParamEntry:
    blocks, order, t, eta = got["jord"], got["order"], got["t"], got["eta"]
    n = len(blocks)
    if order is not None and sorted(order) != list(range(n)):
        raise WorkspaceError("/order", f"expected a permutation of 0..{n - 1}")
    if (t is None) != (eta is None):
        raise WorkspaceError("", "keys 't' and 'eta' must be given together")
    if t is not None and not len(t) == len(eta) == n:
        raise WorkspaceError("", f"'t' and 'eta' must each cover all {n} blocks")
    return ParamEntry(
        parameter=ArthurParameter(group=ctx["group"], blocks=blocks),
        order=order,
        params=None if t is None else PacketParams(t=t, eta=eta),
    )


def _workspace(got: dict, ctx: dict) -> Workspace:
    # Absent and null lfacts both declare no facts.
    return Workspace(
        labels=got["labels"],
        group=got["group"],
        lcontext=LContext.build(got["labels"]) if got["lfacts"] is None else got["lfacts"],
        parameters=got["parameters"] or {},
        arch=got["arch"] or {},
        global_jords=got["global"] or {},
    )


_PARITY_VALUES = {p.value: p for p in Parity}
_KIND_VALUES = {k.value: k for k in GroupKind}
_LABEL = _Table(
    lambda got, ctx: CuspidalLabel(**got),
    ("id", _str, _REQUIRED),
    ("dim", _int, _REQUIRED),
    ("self_dual", _bool, _REQUIRED),
    ("parity", _nullable(_choice(_PARITY_VALUES, "'orthogonal', 'symplectic', or null")), None),
)
_GROUP = _Table(
    lambda got, ctx: GroupType(got["kind"], got["m_star"], got["epsilon"]),
    ("kind", _choice(_KIND_VALUES, f"one of {sorted(_KIND_VALUES)}"), _REQUIRED),
    ("m_star", _int, _REQUIRED),
    ("epsilon", _sign, PLUS),
)
_LFACTS = _Table(
    lambda got, ctx: LContext.build(
        ctx["labels"], got["rg_pole_at_1"], got["central_nonvanishing"], got["central_vanishing"]
    ),
    ("rg_pole_at_1", _label_ids, ()),
    ("central_nonvanishing", _list_of(_label_pair), ()),
    ("central_vanishing", _list_of(_label_pair), ()),
)
_BLOCK = _Table(
    lambda got, ctx: JordanBlock(
        got["rho"],
        got["a"],
        got["b"],
        Fraction(got["twist_num"], got["twist_den"]) if got["twist_num"] else ZERO_TWIST,
    ),
    ("rho", _label_id, _REQUIRED),
    ("a", _size, _REQUIRED),
    ("b", _size, _REQUIRED),
    ("twist_num", _int, 0),
    ("twist_den", _positive("denominator"), 1),
)


def _jord_row(row: Any, ctx: dict) -> JordanBlock:
    """A ``jord`` row: a valid one passes one test and is built; any other
    goes to _BLOCK, which names its first fault."""
    if (
        type(row) is dict and row.keys() <= _BLOCK.keys
        and type(rho := row.get("rho")) is str and rho in ctx["labels"]
        and type(a := row.get("a")) is int and a >= 1
        and type(b := row.get("b")) is int and b >= 1
        and type(num := row.get("twist_num", 0)) is int
        and type(den := row.get("twist_den", 1)) is int and den >= 1
    ):
        try:
            return JordanBlock(rho, a, b, Fraction(num, den) if num else ZERO_TWIST)
        except ValueError:
            pass
    return _BLOCK(row, ctx)


_PARAMETER = _Table(
    _param_entry,
    ("name", _str, _REQUIRED),
    ("jord", _list_of(_jord_row), _REQUIRED),
    ("order", _list_of(_int), None),
    ("t", _list_of(_int), None),
    ("eta", _list_of(_sign), None),
)
_ARCH_BLOCK = _Table(
    lambda got, ctx: ArchBlock(**got),
    ("a_delta", _size, _REQUIRED),
    ("b", _size, _REQUIRED),
    ("ell", _nullable(_int), None),
)
_ARCH = _Table(
    lambda got, ctx: got["blocks"],
    ("name", _str, _REQUIRED),
    ("blocks", _list_of(_ARCH_BLOCK), _REQUIRED),
)
_PAIR = _Table(
    lambda got, ctx: (got["rho"], got["b"]),
    ("rho", _self_dual_label_id, _REQUIRED),
    ("b", _size, _REQUIRED),
)
_GLOBAL = _Table(
    lambda got, ctx: GlobalJord(pairs=got["pairs"]),
    ("name", _str, _REQUIRED),
    ("pairs", _list_of(_PAIR), _REQUIRED),
)
_ROOT = _Table(
    _workspace,
    ("labels", _named("label", _LABEL), _REQUIRED),
    ("group", _GROUP, _REQUIRED),
    ("lfacts", _nullable(_LFACTS), None),
    ("parameters", _named("parameter", _PARAMETER), None),
    ("arch", _named("arch", _ARCH), None),
    ("global", _named("global", _GLOBAL), None),
)


# Bytes that are not text, or text that is not JSON: both ValueErrors, but not
# the one an over-long integer literal raises.
_DECODE_ERRORS = (json.JSONDecodeError, UnicodeDecodeError)


def parse_workspace(text: str | bytes) -> Workspace:
    """Parse and validate a workspace document; schema problems raise a
    WorkspaceError carrying the JSON-pointer path of the offending value."""
    try:
        try:
            data = json.loads(text)
        except _DECODE_ERRORS:
            raise
        except ValueError:  # an integer literal longer than int() accepts
            data = json.loads(text, parse_int=_LongInt)
    except _DECODE_ERRORS as exc:
        raise WorkspaceError("", f"invalid JSON: {exc}") from None
    except RecursionError:
        raise WorkspaceError("", "invalid JSON: nesting too deep") from None
    return _ROOT(data, None)


class _LongInt(int):
    """parse_int once json.loads has raised: a literal too long for int()
    becomes its digit count, of a type that no schema field takes."""

    def __new__(cls, text: str) -> Any:
        try:
            return int(text)
        except ValueError:
            return super().__new__(cls, len(text.lstrip("-")))


def serialize_workspace(ws: Workspace) -> str:
    """Canonical JSON form of a workspace; parse -> serialize is idempotent."""
    doc: dict[str, Any] = {
        "labels": [
            {
                "id": lab.id,
                "dim": lab.dim,
                "self_dual": lab.self_dual,
                "parity": lab.parity.value if lab.parity is not None else None,
            }
            for lab in ws.labels.values()
        ],
        "group": {
            "kind": ws.group.kind.value,
            "m_star": ws.group.rank_dim,
            "epsilon": sign_str(ws.group.epsilon),
        },
        "lfacts": {
            "rg_pole_at_1": sorted(ws.lcontext.rg_pole_at_1),
            "central_nonvanishing": sorted(ws.lcontext.nonvanishing_pairs),
            "central_vanishing": sorted(ws.lcontext.vanishing_pairs),
        },
        "parameters": [],
        "arch": [],
        "global": [],
    }
    for name, entry in ws.parameters.items():
        pdoc: dict[str, Any] = {
            "name": name,
            "jord": entry.parameter.blocks,
        }
        if entry.order is not None:
            pdoc["order"] = entry.order
        if entry.params is not None:
            pdoc["t"] = entry.params.t
            pdoc["eta"] = [sign_str(e) for e in entry.params.eta]
        doc["parameters"].append(pdoc)
    for name, blocks in ws.arch.items():
        doc["arch"].append(
            {
                "name": name,
                "blocks": [
                    {"a_delta": blk.a_delta, "b": blk.b, "ell": blk.ell} for blk in blocks
                ],
            }
        )
    for name, jord in ws.global_jords.items():
        doc["global"].append(
            {"name": name, "pairs": [{"rho": r, "b": b} for r, b in jord.pairs]}
        )
    return canonical_json(doc)


# Per depth, a line break with that depth's indent, alone and after a comma;
# shared by every document written, so an item appends them and its own text
# and no string is built per item.
_BREAKS = [("\n", ",\n")]


def _breaks(depth: int) -> tuple[str, str]:
    if depth == len(_BREAKS):
        _BREAKS.append(tuple(s + "  " for s in _BREAKS[-1]))
    return _BREAKS[depth]


def _write(value: Any, depth: int, out: list[str]) -> None:
    # A block, most of a large answer, is tested first and written as its
    # jord row, keys sorted. The other types and their order are those of
    # json.encoder: a str or int subclass is written as its base type, and a
    # tuple as a list.
    if type(value) is JordanBlock:
        sep = _breaks(depth + 1)[0]
        twist = value.twist
        out.append(
            f'{{{sep}"a": {value.a},{sep}"b": {value.b},'
            f'{sep}"rho": {encode_basestring_ascii(value.rho)},'
            f'{sep}"twist_den": {twist.denominator},{sep}"twist_num": {twist.numerator}'
            f"{_BREAKS[depth][0]}}}"
        )
    elif isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        sep, comma = _breaks(depth + 1)
        out.append("[")
        for item in value:
            out.append(sep)
            _write(item, depth + 1, out)
            sep = comma
        out.append(_BREAKS[depth][0])
        out.append("]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        sep, comma = _breaks(depth + 1)
        out.append("{")
        for key in sorted(value):
            out.append(sep)
            out.append(encode_basestring_ascii(key))
            out.append(": ")
            _write(value[key], depth + 1, out)
            sep = comma
        out.append(_BREAKS[depth][0])
        out.append("}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def canonical_json(value: Any) -> str:
    """``json.dumps(value, sort_keys=True, indent=2)`` plus a newline, for
    the values a report holds: str-keyed dicts, lists, tuples, str, int,
    bool, None, and a JordanBlock, written as its ``jord`` row of all five
    keys. Anything else, floats included, raises TypeError."""
    out: list[str] = []
    _write(value, 0, out)
    out.append("\n")
    return "".join(out)


def _packet_list_json(
    epsilon: int, blocks: Sequence[JordanBlock], members: Sequence[PacketParams]
) -> str:
    """``canonical_json({"epsilon": ..., "params": [{"eta": [...], "t": [...]}]})``
    for the members of a nonempty block list (which has members of either
    sign), written from lines rendered once: one per sign and one per t value
    up to the largest floor(min(a, b)/2)."""
    eta_line = {PLUS: '        "+"', MINUS: '        "-"'}.__getitem__
    top = max(min(blk.a, blk.b) for blk in blocks) // 2
    t_line = [f"        {t}" for t in range(top + 1)].__getitem__
    body = ",\n".join(
        '    {\n      "eta": [\n' + ",\n".join(map(eta_line, p.eta))
        + '\n      ],\n      "t": [\n' + ",\n".join(map(t_line, p.t)) + "\n      ]\n    }"
        for p in members
    )
    return f'{{\n  "epsilon": "{sign_str(epsilon)}",\n  "params": [\n{body}\n  ]\n}}\n'


# ---------------------------------------------------------------------------
# command-line interface

_NEGATIVE_VALUE = re.compile(r"-\d")


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage problems exit 64, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")

    def _parse_optional(self, arg_string):
        # No option starts with '-<digit>', so such a token is a value such
        # as '-3/2' or '-1,2'; argparse alone only accepts plain '-3'.
        if _NEGATIVE_VALUE.match(arg_string):
            return None
        return super()._parse_optional(arg_string)


def _option_value(parse, expected: str):
    """An argparse ``type``: ``parse(text)``, with a malformed value reported
    as a usage error that names the option (argparse adds it) and the value."""

    def convert(text: str) -> Any:
        try:
            return parse(text)
        except (ValueError, ZeroDivisionError):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}") from None

    return convert


def _fraction(text: str) -> Fraction:
    # No exponent notation: Fraction('1e999999999') would build 10 ** 999999999.
    if "e" in text or "E" in text:
        raise ValueError(text)
    return Fraction(text)


_halfint = _option_value(parse_halfint, "a half-integer such as 3 or -3/2")
_rational = _option_value(_fraction, "an exact rational such as 3/2")


def _halfints(text: str) -> tuple:
    return tuple(_halfint(tok) for tok in text.split(",") if tok.strip())


def _load_workspace(args: argparse.Namespace) -> Workspace:
    path = getattr(args, "workspace", None)
    if path is None:
        raise UsageError("this command requires --workspace")
    if path == "-":
        return parse_workspace(sys.stdin.read())
    with open(path, "rb") as fh:
        return parse_workspace(fh.read())


def _lookup(table: Mapping[str, Any], key: str, what: str) -> Any:
    """``table[key]``, or a ValueError naming ``what`` and the key."""
    if key not in table:
        raise ValueError(f"{what}: {key!r}")
    return table[key]


def _violation_docs(violations, where: str | None = None) -> list[dict]:
    docs = []
    for v in violations:
        doc = {"code": v.code, "message": v.message}
        if where is not None:
            doc["where"] = where
        docs.append(doc)
    return docs


def _cmd_validate(args: argparse.Namespace) -> tuple[int, dict]:
    ws = _load_workspace(args)
    names = [args.param] if args.param else list(ws.parameters)
    docs: list[dict] = []
    for name in names:
        entry = _lookup(ws.parameters, name, "unknown parameter")
        where = f"parameters/{name}"
        docs.extend(_violation_docs(validate_parameter(entry.parameter, ws.labels), where))
        if entry.params is not None:
            found = validate_params(entry.ordered(), entry.params, ws.group.epsilon)
            docs.extend(_violation_docs(found, where))
    return (EXIT_FAIL if docs else EXIT_OK), {"violations": docs}


def _cmd_packet(args: argparse.Namespace) -> tuple[int, dict | str]:
    ws = _load_workspace(args)
    entry = _lookup(ws.parameters, args.param, "unknown parameter")
    epsilon = parse_sign(args.epsilon) if args.epsilon else ws.group.epsilon
    blocks = entry.ordered()
    if args.count:
        count = count_params(blocks, epsilon)
        return EXIT_OK, {"count": count, "epsilon": sign_str(epsilon)}
    members = enumerate_params(blocks, epsilon)
    if not blocks:  # one member with no entries for +, none for -
        return EXIT_OK, {
            "epsilon": sign_str(epsilon),
            "params": [{"t": [], "eta": []} for _ in members],
        }
    return EXIT_OK, _packet_list_json(epsilon, blocks, members)


def _cmd_order(args: argparse.Namespace) -> tuple[int, dict]:
    ws = _load_workspace(args)
    entry = _lookup(ws.parameters, args.param, "unknown parameter")
    target = TargetTriple(_lookup(ws.labels, args.rho, "undeclared label").id, args.a0, args.b0)
    check_target_parity(target, ws.group, ws.labels)
    if args.validate:
        violations = validate_order(entry.ordered(), target, args.side)
        return (EXIT_FAIL if violations else EXIT_OK), {
            "violations": _violation_docs(violations)
        }
    blocks = entry.parameter.blocks
    indices = canonical_order(blocks, target, args.side)
    return EXIT_OK, {"indices": indices, "blocks": [blocks[k] for k in indices]}


def _cmd_pole_order(args: argparse.Namespace) -> tuple[int, dict]:
    ws = _load_workspace(args)
    entry = _lookup(ws.parameters, args.param, "unknown parameter")
    rho = _lookup(ws.labels, args.rho, "undeclared label").id
    return EXIT_OK, {"order": r_order(entry.parameter, rho, args.a0, args.s0)}


def _cmd_transfer(args: argparse.Namespace) -> tuple[int, dict]:
    if args.b0 == 2 and args.insert_position is None:
        raise UsageError("--b0 2 requires --insert-position")
    if args.b0 != 2 and args.insert_position is not None:
        raise UsageError("--insert-position applies only when --b0 is 2")
    ws = _load_workspace(args)
    entry = _lookup(ws.parameters, args.param, "unknown parameter")
    target = TargetTriple(_lookup(ws.labels, args.rho, "undeclared label").id, args.a0, args.b0)
    if entry.params is None:
        raise ValueError(f"parameter {args.param!r} declares no packet coordinates (t/eta)")
    psi_plus = build_psi_plus(entry.parameter, target, ws.labels)
    ordered = entry.ordered()
    # Only admissible coordinates are transported; the order is not validated.
    violations = validate_params(ordered, entry.params, ws.group.epsilon)
    if violations:
        raise ValueError(str(violations[0]))
    new_order, new_params, pivot_pos = apply_transfer(
        ordered, entry.params, target, insert_position=args.insert_position
    )
    return EXIT_OK, {
        "psi_plus": {
            "m_star": psi_plus.group.rank_dim,
            "jord": psi_plus.blocks,
        },
        "order": new_order,
        "t": new_params.t,
        "eta": [sign_str(e) for e in new_params.eta],
        "pivot": {
            "position": pivot_pos,
            "t": new_params.t[pivot_pos],
            "eta": sign_str(new_params.eta[pivot_pos]),
        },
    }


# The options only one ``jac`` mode reads, as (namespace attribute, option).
_NORMAL_FORM_ONLY = (("exponents", "--exponents"),)
_NONVANISHING_ONLY = (
    ("param", "--param"),
    ("seg_from", "--from"),
    ("seg_to", "--to"),
    ("workspace", "--workspace"),
)


def _cmd_jac(args: argparse.Namespace) -> tuple[int, dict]:
    other, foreign = (
        ("--nonvanishing", _NONVANISHING_ONLY)
        if args.normal_form
        else ("--normal-form", _NORMAL_FORM_ONLY)
    )
    for attr, option in foreign:
        if getattr(args, attr) is not None:
            raise UsageError(f"{option} applies only to {other}")
    if args.normal_form:
        if args.exponents is None:
            raise UsageError("--normal-form requires --exponents")
        nf = jac_normal_form(JacSequence(args.rho or "", args.exponents))
        return EXIT_OK, {"exponents_x2": nf.exponents}
    if None in (args.param, args.rho, args.seg_from, args.seg_to):
        raise UsageError("--nonvanishing requires --param, --rho, --from, and --to")
    ws = _load_workspace(args)
    entry = _lookup(ws.parameters, args.param, "unknown parameter")
    rho = _lookup(ws.labels, args.rho, "undeclared label").id
    nonzero = jac_nonvanishing_necessary(entry.parameter, rho, args.seg_from, args.seg_to)
    return EXIT_OK, {"nonvanishing_possible": nonzero}


def _cmd_irreducible(args: argparse.Namespace) -> tuple[int, dict]:
    ws = _load_workspace(args)
    entry = _lookup(ws.parameters, args.param, "unknown parameter")
    rho = _lookup(ws.labels, args.rho, "undeclared label").id
    verdict = irreducible_cuspidal_twist(entry.parameter, rho, args.x)
    return EXIT_OK, {"verdict": verdict.value}


def _cmd_infchar(args: argparse.Namespace) -> tuple[int, dict]:
    if args.a_tau is not None and args.s0 is None:
        raise UsageError("--a-tau requires --s0")
    if args.a_tau is None and args.s0 is not None:
        raise UsageError("--s0 requires --a-tau")
    ws = _load_workspace(args)
    blocks = _lookup(ws.arch, args.arch, "unknown arch input")
    if args.a_tau is not None:
        entries = combined_inf_char(blocks, args.a_tau, args.s0)
    else:
        entries = inf_char(blocks)
    payload: dict[str, Any] = {"entries_x2": entries}
    if args.check_regular:
        payload["regular"] = is_regular(entries)
    return EXIT_OK, payload


def _cmd_arch_order(args: argparse.Namespace) -> tuple[int, dict]:
    ws = _load_workspace(args)
    blocks = _lookup(ws.arch, args.arch, "unknown arch input")
    return EXIT_OK, {"order": normalization_order(args.a_tau, blocks, args.s0)}


_TRIBOOL_FLAGS = {"t": TriBool.TRUE, "f": TriBool.FALSE, "u": TriBool.UNKNOWN}


def _cmd_eisenstein(args: argparse.Namespace) -> tuple[int, dict]:
    ws = _load_workspace(args)
    jord = _lookup(ws.global_jords, args.global_name, "unknown global datum")
    rho = _lookup(ws.labels, args.rho, "undeclared label").id
    verdict = eisenstein_verdict(jord, rho, args.s0, ws.lcontext)
    payload: dict[str, Any] = {
        "kind": verdict.kind.value,
        "cond1": verdict.cond1,
        "cond2": verdict.cond2.value,
    }
    if args.local or args.residue:
        places = tuple(_TRIBOOL_FLAGS[v] for v in (args.local or []))
        payload["residue"] = residue_verdict(verdict, places).value
    return EXIT_OK, payload


def _add_workspace_arg(sub: argparse.ArgumentParser, required: bool = True) -> None:
    sub.add_argument(
        "-w",
        "--workspace",
        required=required,
        default=None,
        help="path to the workspace JSON document ('-' for stdin)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="apackets",
        description="Exact combinatorics of Jordan-block parameters: packet "
        "coordinates, pole orders, block enlargement, Jacquet and "
        "irreducibility criteria, Eisenstein verdicts.",
    )
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sub = subs.add_parser("validate", help="structural checks on parameters")
    _add_workspace_arg(sub)
    sub.add_argument("--param", help="restrict to one named parameter")

    sub = subs.add_parser("packet", help="count or list packet coordinates")
    _add_workspace_arg(sub)
    sub.add_argument("--param", required=True)
    mode = sub.add_mutually_exclusive_group(required=True)
    mode.add_argument("--count", action="store_true")
    mode.add_argument("--list", action="store_true")
    sub.add_argument("--epsilon", choices=["+", "-"], help="override the group's sign")

    sub = subs.add_parser("order", help="validate or build an admissible order")
    _add_workspace_arg(sub)
    sub.add_argument("--param", required=True)
    sub.add_argument("--rho", required=True)
    sub.add_argument("--a0", type=int, required=True)
    sub.add_argument("--b0", type=int, required=True)
    mode = sub.add_mutually_exclusive_group(required=True)
    mode.add_argument("--validate", action="store_true")
    mode.add_argument("--canonical", action="store_true")
    sub.add_argument("--side", choices=[PSI_SIDE, PSI_PLUS_SIDE], default=PSI_SIDE)

    sub = subs.add_parser("pole-order", help="pole order of the normalization factor")
    _add_workspace_arg(sub)
    sub.add_argument("--param", required=True)
    sub.add_argument("--rho", required=True)
    sub.add_argument("--a0", type=int, required=True)
    sub.add_argument("--s0", type=_halfint, required=True, help="e.g. '2' or '3/2'")

    sub = subs.add_parser("transfer", help="enlarge one block and transport everything")
    _add_workspace_arg(sub)
    sub.add_argument("--param", required=True)
    sub.add_argument("--rho", required=True)
    sub.add_argument("--a0", type=int, required=True)
    sub.add_argument("--b0", type=int, required=True)
    sub.add_argument(
        "--insert-position",
        type=int,
        default=None,
        help="where the fresh block goes; required when b0 = 2, rejected otherwise",
    )

    sub = subs.add_parser("jac", help="Jacquet words and their nonvanishing")
    _add_workspace_arg(sub, required=False)
    mode = sub.add_mutually_exclusive_group(required=True)
    mode.add_argument("--normal-form", action="store_true")
    mode.add_argument("--nonvanishing", action="store_true")
    sub.add_argument("--rho")
    sub.add_argument("--exponents", type=_halfints, help="comma-separated half-integers")
    sub.add_argument("--param")
    sub.add_argument("--from", dest="seg_from", type=_halfint, help="segment start")
    sub.add_argument("--to", dest="seg_to", type=_halfint, help="segment stop")

    sub = subs.add_parser("irreducible", help="sufficient irreducibility criterion")
    _add_workspace_arg(sub)
    sub.add_argument("--param", required=True)
    sub.add_argument("--rho", required=True)
    sub.add_argument("--x", type=_halfint, required=True, help="nonzero half-integer twist")

    sub = subs.add_parser("infchar", help="infinitesimal-character entries")
    _add_workspace_arg(sub)
    sub.add_argument("--arch", required=True)
    sub.add_argument("--a-tau", type=int, default=None)
    sub.add_argument("--s0", type=_halfint, help="half-integer twist point; needs --a-tau")
    sub.add_argument("--check-regular", action="store_true")

    sub = subs.add_parser("arch-order", help="total Gamma-factor pole order")
    _add_workspace_arg(sub)
    sub.add_argument("--arch", required=True)
    sub.add_argument("--a-tau", type=int, action="append", required=True)
    sub.add_argument("--s0", type=_halfint, required=True)

    sub = subs.add_parser("eisenstein", help="pole and residue verdicts")
    _add_workspace_arg(sub)
    sub.add_argument("--global", dest="global_name", required=True)
    sub.add_argument("--rho", required=True)
    sub.add_argument(
        "--s0", type=_rational, required=True, help="exact rational >= 1/2, e.g. '3/2'"
    )
    sub.add_argument(
        "--local",
        action="append",
        choices=sorted(_TRIBOOL_FLAGS),
        help="local nonvanishing facts: t(rue)/f(alse)/u(nknown)",
    )
    sub.add_argument("--residue", action="store_true", help="include the residue verdict")

    return parser


_HANDLERS = {
    "validate": _cmd_validate,
    "packet": _cmd_packet,
    "order": _cmd_order,
    "pole-order": _cmd_pole_order,
    "transfer": _cmd_transfer,
    "jac": _cmd_jac,
    "irreducible": _cmd_irreducible,
    "infchar": _cmd_infchar,
    "arch-order": _cmd_arch_order,
    "eisenstein": _cmd_eisenstein,
}


def _emit(payload: dict | str) -> None:
    """Write an answer: a str as it is (``packet --list`` renders its own
    bytes), anything else through canonical_json."""
    sys.stdout.write(payload if isinstance(payload, str) else canonical_json(payload))


# Built by the first run(), not at import: an import that answers no query
# pays nothing for it. parse_args keeps no state between calls.
_parser: argparse.ArgumentParser | None = None


def run(argv: Sequence[str]) -> int:
    """Run one subcommand; returns the exit code (0 / 2 / 64)."""
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code, payload = _HANDLERS[args.command](args)
        _emit(payload)  # an int too long for str() raises before writing
    except UsageError as exc:
        sys.stderr.write(f"apackets {args.command}: error: {exc}\n")
        return EXIT_USAGE
    except (WorkspaceError, ValueError, OSError) as exc:
        _emit({"error": str(exc)})
        return EXIT_FAIL
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
