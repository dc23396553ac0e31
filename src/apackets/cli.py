"""JSON workspace format and the command-line interface.

Reports are emitted as canonical JSON (sorted keys, two-space indent, one
trailing newline) so repeated runs are byte-identical. Exit codes: 0 on
success, 2 on validation/domain failure, 64 on usage errors.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace
from typing import Any, Mapping, NamedTuple, Sequence

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
    """A command line that breaks a rule of _COMMANDS; its text is the line
    written to stderr."""


# ---------------------------------------------------------------------------
# workspace format
#
# Each record kind is a _Table: its fields in key order, each a (key,
# converter, default, writer), and the function that builds the record from
# the converted fields. A converter takes (value, ctx), where ctx holds the
# root fields converted so far (labels come first), and returns the
# converted value. A WorkspaceError raised while converting a value carries a
# pointer relative to that value; each enclosing object or array prefixes its
# key or index on the way out, so a valid document builds no pointer strings.
# A writer maps the record to the key's JSON value, or to _ABSENT to leave the
# key out. It is None where the key is written elsewhere: canonical_json
# writes a block as its jord row, and _Named writes a record's name.

_REQUIRED = object()  # default of a key the record must have
_ABSENT = object()  # writer's value of a key the record leaves out


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
    """One record kind; calling it checks and converts one JSON object, and
    ``write`` gives a record's JSON object."""

    def __init__(self, build, *fields):
        self.build = build
        self.fields = fields
        self.keys = frozenset(key for key, *_ in fields)
        self.required = frozenset(key for key, _, default, _ in fields if default is _REQUIRED)
        self.writers = [(key, write) for key, _, _, write in fields if write is not None]

    def __call__(self, value: Any, ctx: dict | None) -> Any:
        obj = _object(value)
        keys = obj.keys()
        if not keys <= self.keys:
            unknown = next(k for k in obj if k not in self.keys)
            # A pointer token escapes '~' and '/' (RFC 6901).
            token = unknown.replace("~", "~0").replace("/", "~1")
            raise WorkspaceError(f"/{token}", "unknown key")
        if not keys >= self.required:
            missing = next(k for k, _, d, _ in self.fields if d is _REQUIRED and k not in obj)
            raise WorkspaceError("", f"missing required key {missing!r}")
        got: dict[str, Any] = {}
        if ctx is None:
            ctx = got
        try:
            for key, convert, default, _ in self.fields:
                got[key] = convert(obj[key], ctx) if key in obj else default
        except WorkspaceError as exc:
            raise _under(key, exc) from None
        try:
            return self.build(got, ctx)
        except WorkspaceError:
            raise
        except ValueError as exc:
            raise WorkspaceError("", str(exc)) from None

    def write(self, record: Any) -> dict:
        return {key: v for key, write in self.writers if (v := write(record)) is not _ABSENT}


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


class _Named:
    """A list of ``table`` records, read as a dict keyed by their first field
    and written back as that list."""

    def __init__(self, kind: str, table: _Table):
        self.kind, self.table = kind, table
        self.key = table.fields[0][0]
        self.records = _list_of(table)

    def __call__(self, value: Any, ctx: dict) -> dict:
        key, out = self.key, {}
        for k, (item, record) in enumerate(zip(value, self.records(value, ctx))):
            if item[key] in out:
                raise WorkspaceError(f"/{k}/{key}", f"duplicate {self.kind} {key} {item[key]!r}")
            out[item[key]] = record
        return out

    def write(self, records: dict) -> list:
        return [{self.key: name, **self.table.write(record)} for name, record in records.items()]


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


class ParamEntry(NamedTuple):
    """A named parameter, its optional block order, and optional coordinates."""

    parameter: ArthurParameter
    order: tuple[int, ...] | None = None
    params: PacketParams | None = None

    def ordered(self) -> tuple[JordanBlock, ...]:
        blocks = self.parameter.blocks
        if self.order is None:
            return blocks
        return tuple(blocks[k] for k in self.order)


class Workspace(NamedTuple):
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
    ("id", _str, _REQUIRED, None),
    ("dim", _int, _REQUIRED, lambda lab: lab.dim),
    ("self_dual", _bool, _REQUIRED, lambda lab: lab.self_dual),
    ("parity", _nullable(_choice(_PARITY_VALUES, "'orthogonal', 'symplectic', or null")), None,
     lambda lab: None if lab.parity is None else lab.parity.value),
)
_GROUP = _Table(
    lambda got, ctx: GroupType(got["kind"], got["m_star"], got["epsilon"]),
    ("kind", _choice(_KIND_VALUES, f"one of {sorted(_KIND_VALUES)}"), _REQUIRED,
     lambda group: group.kind.value),
    ("m_star", _int, _REQUIRED, lambda group: group.rank_dim),
    ("epsilon", _sign, PLUS, lambda group: sign_str(group.epsilon)),
)
_LFACTS = _Table(
    lambda got, ctx: LContext.build(
        ctx["labels"], got["rg_pole_at_1"], got["central_nonvanishing"], got["central_vanishing"]
    ),
    ("rg_pole_at_1", _label_ids, (), lambda lc: sorted(lc.rg_pole_at_1)),
    ("central_nonvanishing", _list_of(_label_pair), (), lambda lc: sorted(lc.nonvanishing_pairs)),
    ("central_vanishing", _list_of(_label_pair), (), lambda lc: sorted(lc.vanishing_pairs)),
)
_BLOCK = _Table(
    lambda got, ctx: JordanBlock(
        got["rho"],
        got["a"],
        got["b"],
        Fraction(got["twist_num"], got["twist_den"]) if got["twist_num"] else ZERO_TWIST,
    ),
    ("rho", _label_id, _REQUIRED, None),
    ("a", _size, _REQUIRED, None),
    ("b", _size, _REQUIRED, None),
    ("twist_num", _int, 0, None),
    ("twist_den", _positive("denominator"), 1, None),
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
    ("name", _str, _REQUIRED, None),
    ("jord", _list_of(_jord_row), _REQUIRED, lambda entry: entry.parameter.blocks),
    ("order", _list_of(_int), None, lambda entry: _ABSENT if entry.order is None else entry.order),
    ("t", _list_of(_int), None, lambda entry: _ABSENT if entry.params is None else entry.params.t),
    ("eta", _list_of(_sign), None,
     lambda entry: _ABSENT if entry.params is None else [*map(sign_str, entry.params.eta)]),
)
_ARCH_BLOCK = _Table(
    lambda got, ctx: ArchBlock(**got),
    ("a_delta", _size, _REQUIRED, lambda blk: blk.a_delta),
    ("b", _size, _REQUIRED, lambda blk: blk.b),
    ("ell", _nullable(_int), None, lambda blk: blk.ell),
)
_ARCH = _Table(
    lambda got, ctx: got["blocks"],
    ("name", _str, _REQUIRED, None),
    ("blocks", _list_of(_ARCH_BLOCK), _REQUIRED, lambda blocks: [*map(_ARCH_BLOCK.write, blocks)]),
)
_PAIR = _Table(
    lambda got, ctx: (got["rho"], got["b"]),
    ("rho", _self_dual_label_id, _REQUIRED, lambda pair: pair[0]),
    ("b", _size, _REQUIRED, lambda pair: pair[1]),
)
_GLOBAL = _Table(
    lambda got, ctx: GlobalJord(pairs=got["pairs"]),
    ("name", _str, _REQUIRED, None),
    ("pairs", _list_of(_PAIR), _REQUIRED, lambda jord: [*map(_PAIR.write, jord.pairs)]),
)
_LABELS, _PARAMETERS = _Named("label", _LABEL), _Named("parameter", _PARAMETER)
_ARCHES, _GLOBALS = _Named("arch", _ARCH), _Named("global", _GLOBAL)
_ROOT = _Table(
    _workspace,
    ("labels", _LABELS, _REQUIRED, lambda ws: _LABELS.write(ws.labels)),
    ("group", _GROUP, _REQUIRED, lambda ws: _GROUP.write(ws.group)),
    ("lfacts", _nullable(_LFACTS), None, lambda ws: _LFACTS.write(ws.lcontext)),
    ("parameters", _PARAMETERS, None, lambda ws: _PARAMETERS.write(ws.parameters)),
    ("arch", _ARCHES, None, lambda ws: _ARCHES.write(ws.arch)),
    ("global", _GLOBALS, None, lambda ws: _GLOBALS.write(ws.global_jords)),
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
    return canonical_json(_ROOT.write(ws))


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
#
# _COMMANDS holds every rule of the command line. A command's row is its
# handler, its summary, its options and its rules. An option is (names,
# converter, default), plus the attribute the handler reads when that is not
# the last name with '-' read as '_'. The converter reads the value's text;
# a flag has None. The default is the value of an absent option: _REQUIRED
# for one the command must have, and () for one that may repeat, whose
# values are collected in a tuple. A rule is (test, message): a namespace
# that passes test is refused with message, before the handler runs.


def _expect(parse, expected: str):
    """An option's converter: ``parse(text)``, or a ValueError that says what
    was expected and quotes the text."""

    def convert(text: str) -> Any:
        try:
            return parse(text)
        except (ValueError, ZeroDivisionError, KeyError):
            raise ValueError(f"expected {expected}, got {text!r}") from None

    return convert


def _one_of(values: Mapping[str, Any]):
    return _expect(values.__getitem__, f"one of {', '.join(values)}")


def _fraction(text: str) -> Fraction:
    # No exponent notation: Fraction('1e999999999') would build 10 ** 999999999.
    if "e" in text or "E" in text:
        raise ValueError(text)
    return Fraction(text)


_integer = _expect(int, "an integer")
_halfint = _expect(parse_halfint, "a half-integer such as 3 or -3/2")
_rational = _expect(_fraction, "an exact rational such as 3/2")


def _halfints(text: str) -> tuple:
    return tuple(_halfint(tok) for tok in text.split(",") if tok.strip())


def _cmd_validate(args: SimpleNamespace, ws: Workspace) -> tuple[int, dict]:
    given = ws.parameters if args.param is None else {args.names["param"]: args.param}
    docs: list[dict] = []
    for name, entry in given.items():
        found = validate_parameter(entry.parameter, ws.labels)
        if entry.params is not None:
            found = found + validate_params(entry.ordered(), entry.params, ws.group.epsilon)
        docs.extend({**v._asdict(), "where": f"parameters/{name}"} for v in found)
    return (EXIT_FAIL if docs else EXIT_OK), {"violations": docs}


def _cmd_packet(args: SimpleNamespace, ws: Workspace) -> tuple[int, dict | str]:
    epsilon = ws.group.epsilon if args.epsilon is None else args.epsilon
    blocks = args.param.ordered()
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


def _cmd_order(args: SimpleNamespace, ws: Workspace) -> tuple[int, dict]:
    target = TargetTriple(args.rho, args.a0, args.b0)
    check_target_parity(target, ws.group, ws.labels)
    if args.validate:
        violations = validate_order(args.param.ordered(), target, args.side)
        return (EXIT_FAIL if violations else EXIT_OK), {
            "violations": [v._asdict() for v in violations]
        }
    blocks = args.param.parameter.blocks
    indices = canonical_order(blocks, target, args.side)
    return EXIT_OK, {"indices": indices, "blocks": [blocks[k] for k in indices]}


def _cmd_pole_order(args: SimpleNamespace, ws: Workspace) -> tuple[int, dict]:
    return EXIT_OK, {"order": r_order(args.param.parameter, args.rho, args.a0, args.s0)}


def _cmd_transfer(args: SimpleNamespace, ws: Workspace) -> tuple[int, dict]:
    entry = args.param
    target = TargetTriple(args.rho, args.a0, args.b0)
    if entry.params is None:
        name = args.names["param"]
        raise ValueError(f"parameter {name!r} declares no packet coordinates (t/eta)")
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


def _cmd_jac(args: SimpleNamespace, ws: Workspace | None) -> tuple[int, dict]:
    if args.normal_form:
        nf = jac_normal_form(JacSequence(args.rho or "", args.exponents))
        return EXIT_OK, {"exponents_x2": nf.exponents}
    nonzero = jac_nonvanishing_necessary(args.param.parameter, args.rho, args.seg_from, args.seg_to)
    return EXIT_OK, {"nonvanishing_possible": nonzero}


def _cmd_irreducible(args: SimpleNamespace, ws: Workspace) -> tuple[int, dict]:
    verdict = irreducible_cuspidal_twist(args.param.parameter, args.rho, args.x)
    return EXIT_OK, {"verdict": verdict.value}


def _cmd_infchar(args: SimpleNamespace, ws: Workspace) -> tuple[int, dict]:
    if args.a_tau is not None:
        entries = combined_inf_char(args.arch, args.a_tau, args.s0)
    else:
        entries = inf_char(args.arch)
    payload: dict[str, Any] = {"entries_x2": entries}
    if args.check_regular:
        payload["regular"] = is_regular(entries)
    return EXIT_OK, payload


def _cmd_arch_order(args: SimpleNamespace, ws: Workspace) -> tuple[int, dict]:
    return EXIT_OK, {"order": normalization_order(args.a_tau, args.arch, args.s0)}


def _cmd_eisenstein(args: SimpleNamespace, ws: Workspace) -> tuple[int, dict]:
    verdict = eisenstein_verdict(args.global_jord, args.rho, args.s0, ws.lcontext)
    payload: dict[str, Any] = {
        "kind": verdict.kind.value,
        "cond1": verdict.cond1,
        "cond2": verdict.cond2.value,
    }
    if args.local or args.residue:
        payload["residue"] = residue_verdict(verdict, args.local).value
    return EXIT_OK, payload


_WORKSPACE = ("-w --workspace", str, _REQUIRED)
_PARAM, _RHO = ("--param", str, _REQUIRED), ("--rho", str, _REQUIRED)
_A0, _B0 = ("--a0", _integer, _REQUIRED), ("--b0", _integer, _REQUIRED)

_COMMANDS = {
    "validate": (
        _cmd_validate, "structural checks on parameters", (_WORKSPACE, ("--param", str, None)), []
    ),
    "packet": (
        _cmd_packet, "count or list packet coordinates",
        (_WORKSPACE, _PARAM, ("--count", None, False), ("--list", None, False),
         ("--epsilon", _one_of({"+": PLUS, "-": MINUS}), None)),
        [(lambda a: a.count == a.list, "expected exactly one of --count and --list")],
    ),
    "order": (
        _cmd_order, "validate or build an admissible order",
        (_WORKSPACE, _PARAM, _RHO, _A0, _B0, ("--validate", None, False),
         ("--canonical", None, False),
         ("--side", _one_of({PSI_SIDE: PSI_SIDE, PSI_PLUS_SIDE: PSI_PLUS_SIDE}), PSI_SIDE)),
        [(lambda a: a.validate == a.canonical,
          "expected exactly one of --validate and --canonical")],
    ),
    "pole-order": (
        _cmd_pole_order, "pole order of the normalization factor",
        (_WORKSPACE, _PARAM, _RHO, _A0, ("--s0", _halfint, _REQUIRED)), [],
    ),
    "transfer": (
        _cmd_transfer, "enlarge one block and transport everything",
        (_WORKSPACE, _PARAM, _RHO, _A0, _B0, ("--insert-position", _integer, None)),
        [(lambda a: a.b0 == 2 and a.insert_position is None, "--b0 2 requires --insert-position"),
         (lambda a: a.b0 != 2 and a.insert_position is not None,
          "--insert-position applies only when --b0 is 2")],
    ),
    "jac": (
        _cmd_jac, "Jacquet words and their nonvanishing",
        (("-w --workspace", str, None), ("--normal-form", None, False),
         ("--nonvanishing", None, False), ("--rho", str, None), ("--exponents", _halfints, None),
         ("--param", str, None), ("--from", _halfint, None, "seg_from"),
         ("--to", _halfint, None, "seg_to")),
        [(lambda a: a.normal_form == a.nonvanishing,
          "expected exactly one of --normal-form and --nonvanishing"),
         (lambda a: a.normal_form and a.param is not None,
          "--param applies only to --nonvanishing"),
         (lambda a: a.normal_form and a.seg_from is not None,
          "--from applies only to --nonvanishing"),
         (lambda a: a.normal_form and a.seg_to is not None, "--to applies only to --nonvanishing"),
         (lambda a: a.normal_form and a.workspace is not None,
          "--workspace applies only to --nonvanishing"),
         (lambda a: a.normal_form and a.exponents is None, "--normal-form requires --exponents"),
         (lambda a: a.nonvanishing and a.exponents is not None,
          "--exponents applies only to --normal-form"),
         (lambda a: a.nonvanishing and None in (a.param, a.rho, a.seg_from, a.seg_to),
          "--nonvanishing requires --param, --rho, --from, and --to"),
         (lambda a: a.nonvanishing and a.workspace is None, "this command requires --workspace")],
    ),
    "irreducible": (
        _cmd_irreducible, "sufficient irreducibility criterion",
        (_WORKSPACE, _PARAM, _RHO, ("--x", _halfint, _REQUIRED)), [],
    ),
    "infchar": (
        _cmd_infchar, "infinitesimal-character entries",
        (_WORKSPACE, ("--arch", str, _REQUIRED), ("--a-tau", _integer, None),
         ("--s0", _halfint, None), ("--check-regular", None, False)),
        [(lambda a: a.a_tau is not None and a.s0 is None, "--a-tau requires --s0"),
         (lambda a: a.a_tau is None and a.s0 is not None, "--s0 requires --a-tau")],
    ),
    "arch-order": (
        _cmd_arch_order, "total Gamma-factor pole order",
        (_WORKSPACE, ("--arch", str, _REQUIRED), ("--a-tau", _integer, ()),
         ("--s0", _halfint, _REQUIRED)),
        [(lambda a: not a.a_tau, "this command requires --a-tau")],
    ),
    "eisenstein": (
        _cmd_eisenstein, "pole and residue verdicts",
        (_WORKSPACE, ("--global", str, _REQUIRED, "global_jord"), _RHO,
         ("--s0", _rational, _REQUIRED),
         ("--local", _one_of({"t": TriBool.TRUE, "f": TriBool.FALSE, "u": TriBool.UNKNOWN}), ()),
         ("--residue", None, False)),
        [],
    ),
}


def _options(rows: tuple) -> tuple[dict, list]:
    """A command's options, each as (long name, attribute, converter,
    default): by each of its names, and in the order of the table."""
    by_name, listed = {}, []
    for names, convert, default, *attr in rows:
        *short, long = names.split()
        option = (long, attr[0] if attr else long[2:].replace("-", "_"), convert, default)
        listed.append(option)
        by_name.update(dict.fromkeys([*short, long], option))
    return by_name, listed


_HANDLERS = {command: row[0] for command, row in _COMMANDS.items()}
_OPTIONS = {command: _options(row[2]) for command, row in _COMMANDS.items()}
_HELP = ("-h", "--help")


def _usage(*commands: str) -> str:
    """Each command's usage line, built from its options, and its summary."""
    lines = []
    for command in commands:
        _, summary, rows, _ = _COMMANDS[command]
        words = [f"apackets {command}"]
        for names, convert, default, *_ in rows:
            word = names.split()[0]
            if convert is not None:
                word += f" {names.split()[-1][2:].upper()}"
            if default == ():
                word += " ..."
            words.append(word if default is _REQUIRED else f"[{word}]")
        lines += [" ".join(words), f"    {summary}"]
    return "\n".join(lines) + "\n"


def _read(argv: Sequence[str]) -> SimpleNamespace:
    """Read argv against _COMMANDS: the namespace its handler reads, once
    every rule of the command holds, or ``command=None`` and the usage text
    for -h or --help. An option's value is its '=' suffix or else the next
    token, whatever that starts with. Raises UsageError."""
    command = argv[0] if argv else ""
    if command not in _COMMANDS:
        if command in _HELP:
            return SimpleNamespace(command=None, usage=_usage(*_COMMANDS))
        what = f"unknown command {command!r}" if argv else "no command"
        raise UsageError(f"apackets: error: {what}; expected one of {', '.join(_COMMANDS)}")
    prog = f"apackets {command}"
    by_name, listed = _OPTIONS[command]
    got = {attr: default for _, attr, _, default in listed}
    tokens = iter(argv[1:])
    for token in tokens:
        name, eq, text = token.partition("=")
        if name in _HELP:
            return SimpleNamespace(command=None, usage=_usage(command))
        if name not in by_name:
            raise UsageError(f"{prog}: error: unrecognized argument {token!r}")
        long, attr, convert, default = by_name[name]
        if convert is None:
            if eq:
                raise UsageError(f"{prog}: error: argument {long}: takes no value")
            got[attr] = True
            continue
        if not eq and (text := next(tokens, None)) is None:
            raise UsageError(f"{prog}: error: argument {long}: expected a value")
        try:
            value = convert(text)
        except ValueError as exc:
            raise UsageError(f"{prog}: error: argument {long}: {exc}") from None
        got[attr] = got[attr] + (value,) if default == () else value
    for long, attr, _, _ in listed:
        if got[attr] is _REQUIRED:
            raise UsageError(f"{prog}: error: this command requires {long}")
    args = SimpleNamespace(command=command, **got)
    for test, message in _COMMANDS[command][3]:
        if test(args):
            raise UsageError(f"{prog}: error: {message}")
    return args


def build_parser() -> SimpleNamespace:
    """The command-line reader: ``build_parser().parse_args(argv)``."""
    return SimpleNamespace(parse_args=_read)


# Each option that names a workspace record, in the order the names are looked
# up: its attribute, the Workspace field holding the records, and the message
# for a name the workspace lacks.
_NAMES = (
    ("param", "parameters", "unknown parameter"),
    ("arch", "arch", "unknown arch input"),
    ("global_jord", "global_jords", "unknown global datum"),
    ("rho", "labels", "undeclared label"),
)


def _resolve(args: SimpleNamespace) -> tuple[SimpleNamespace, Workspace | None]:
    """Read the workspace ``args`` names, once (``-`` is stdin), and return
    the handler's arguments: ``args`` with each name _NAMES lists swapped for
    its record, and the workspace. A label stays its id, and the names as
    given stay in ``names``. A command without a workspace (``jac
    --normal-form``) gets ``args`` and None. Raises ValueError naming the
    first name the workspace lacks."""
    if args.workspace is None:
        return args, None
    if args.workspace == "-":  # bytes, as from a file; a text-only stream as text
        ws = parse_workspace(getattr(sys.stdin, "buffer", sys.stdin).read())
    else:
        with open(args.workspace, "rb") as fh:
            ws = parse_workspace(fh.read())
    got, names = vars(args).copy(), {}
    for attr, field, message in _NAMES:
        name = got.get(attr)
        if name is None:
            continue
        records = getattr(ws, field)
        if name not in records:
            raise ValueError(f"{message}: {name!r}")
        names[attr] = name
        if field != "labels":
            got[attr] = records[name]
    return SimpleNamespace(**got, names=names), ws


def _emit(payload: dict | str) -> None:
    """Write an answer: a str as it is (``packet --list`` renders its own
    bytes), anything else through canonical_json."""
    sys.stdout.write(payload if isinstance(payload, str) else canonical_json(payload))


def run(argv: Sequence[str]) -> int:
    """Run one subcommand; returns the exit code (0 / 2 / 64)."""
    try:
        args = build_parser().parse_args(argv)
    except UsageError as exc:
        sys.stderr.write(f"{exc}\n")
        return EXIT_USAGE
    if args.command is None:
        sys.stdout.write(args.usage)
        return EXIT_OK
    try:
        code, payload = _HANDLERS[args.command](*_resolve(args))
        _emit(payload)  # an int too long for str() raises before writing
    except (WorkspaceError, ValueError, OSError) as exc:
        _emit({"error": str(exc)})
        return EXIT_FAIL
    return code


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except OSError as exc:  # the reader is gone or the disk is full
        # Stdout goes to devnull, so the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.stderr.write(f"apackets: cannot write the answer: {exc}\n")
        code = EXIT_FAIL
    sys.exit(code)


if __name__ == "__main__":
    main()
