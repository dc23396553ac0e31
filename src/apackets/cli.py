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
from typing import Any, Mapping, Sequence

from .archimedean import ArchBlock, combined_inf_char, inf_char, is_regular, normalization_order
from .core_types import (
    CuspidalLabel,
    GroupKind,
    GroupType,
    LContext,
    Parity,
    TriBool,
    parse_halfint,
    parse_sign,
    sign_str,
)
from .eisenstein import GlobalJord, eisenstein_verdict, residue_verdict
from .jacquet import JacSequence, Segment, jac_nonvanishing_necessary, jac_normal_form, irreducible_cuspidal_twist
from .jordan import ArthurParameter, JordanBlock, validate_parameter
from .lfactors import r_order
from .packets import (
    OrderedJord,
    PSI_PLUS_SIDE,
    PSI_SIDE,
    PacketParams,
    TargetTriple,
    canonical_order,
    enumerate_params,
    locate_pivot,
    validate_order,
    validate_params,
)
from .transfer import apply_transfer, build_psi_plus

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


def _as_obj(value: Any, pointer: str) -> dict:
    if not isinstance(value, dict):
        raise WorkspaceError(pointer, f"expected an object, got {type(value).__name__}")
    return value


def _as_list(value: Any, pointer: str) -> list:
    if not isinstance(value, list):
        raise WorkspaceError(pointer, f"expected an array, got {type(value).__name__}")
    return value


def _as_str(value: Any, pointer: str) -> str:
    if not isinstance(value, str):
        raise WorkspaceError(pointer, f"expected a string, got {type(value).__name__}")
    return value


def _as_int(value: Any, pointer: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise WorkspaceError(pointer, f"expected an integer, got {type(value).__name__}")
    return value


def _as_bool(value: Any, pointer: str) -> bool:
    if not isinstance(value, bool):
        raise WorkspaceError(pointer, f"expected a boolean, got {type(value).__name__}")
    return value


def _check_keys(obj: dict, allowed: set[str], required: set[str], pointer: str) -> None:
    for key in obj:
        if key not in allowed:
            raise WorkspaceError(f"{pointer}/{key}", "unknown key")
    for key in required:
        if key not in obj:
            raise WorkspaceError(pointer, f"missing required key {key!r}")


def _as_sign(value: Any, pointer: str) -> int:
    text = _as_str(value, pointer)
    try:
        return parse_sign(text)
    except ValueError as exc:
        raise WorkspaceError(pointer, str(exc)) from None


@dataclass
class ParamEntry:
    """A named parameter, its optional block order, and optional coordinates."""

    parameter: ArthurParameter
    order: tuple[int, ...] | None = None
    params: PacketParams | None = None

    def ordered(self) -> OrderedJord:
        blocks = self.parameter.blocks
        order = self.order if self.order is not None else tuple(range(len(blocks)))
        return OrderedJord(tuple(blocks[k] for k in order))


@dataclass
class Workspace:
    """Parsed workspace: labels, group, declared facts, and named inputs."""

    labels: dict[str, CuspidalLabel]
    group: GroupType
    lcontext: LContext
    parameters: dict[str, ParamEntry]
    arch: dict[str, tuple[ArchBlock, ...]]
    global_jords: dict[str, GlobalJord]


_PARITY_VALUES = {p.value: p for p in Parity}
_KIND_VALUES = {k.value: k for k in GroupKind}


def _parse_labels(raw: Any) -> dict[str, CuspidalLabel]:
    labels: dict[str, CuspidalLabel] = {}
    for i, item in enumerate(_as_list(raw, "/labels")):
        p = f"/labels/{i}"
        obj = _as_obj(item, p)
        _check_keys(obj, {"id", "dim", "self_dual", "parity"}, {"id", "dim", "self_dual"}, p)
        lid = _as_str(obj["id"], f"{p}/id")
        if lid in labels:
            raise WorkspaceError(f"{p}/id", f"duplicate label id {lid!r}")
        parity = None
        if obj.get("parity") is not None:
            text = _as_str(obj["parity"], f"{p}/parity")
            if text not in _PARITY_VALUES:
                raise WorkspaceError(
                    f"{p}/parity", f"expected 'orthogonal', 'symplectic', or null, got {text!r}"
                )
            parity = _PARITY_VALUES[text]
        try:
            labels[lid] = CuspidalLabel(
                id=lid,
                dim=_as_int(obj["dim"], f"{p}/dim"),
                self_dual=_as_bool(obj["self_dual"], f"{p}/self_dual"),
                parity=parity,
            )
        except ValueError as exc:
            raise WorkspaceError(p, str(exc)) from None
    return labels


def _parse_group(raw: Any) -> GroupType:
    p = "/group"
    obj = _as_obj(raw, p)
    _check_keys(obj, {"kind", "m_star", "epsilon"}, {"kind", "m_star"}, p)
    kind_text = _as_str(obj["kind"], f"{p}/kind")
    if kind_text not in _KIND_VALUES:
        raise WorkspaceError(f"{p}/kind", f"expected one of {sorted(_KIND_VALUES)}, got {kind_text!r}")
    epsilon = _as_sign(obj["epsilon"], f"{p}/epsilon") if "epsilon" in obj else 1
    try:
        return GroupType(_KIND_VALUES[kind_text], _as_int(obj["m_star"], f"{p}/m_star"), epsilon)
    except ValueError as exc:
        raise WorkspaceError(p, str(exc)) from None


def _parse_id_pairs(raw: Any, pointer: str, labels: Mapping[str, CuspidalLabel]) -> list[tuple[str, str]]:
    pairs = []
    for i, item in enumerate(_as_list(raw, pointer)):
        p = f"{pointer}/{i}"
        pair = _as_list(item, p)
        if len(pair) != 2:
            raise WorkspaceError(p, f"expected a pair of label ids, got {len(pair)} entries")
        ids = []
        for j, one in enumerate(pair):
            lid = _as_str(one, f"{p}/{j}")
            if lid not in labels:
                raise WorkspaceError(f"{p}/{j}", f"undeclared label id {lid!r}")
            ids.append(lid)
        pairs.append((ids[0], ids[1]))
    return pairs


def _parse_lfacts(raw: Any, labels: Mapping[str, CuspidalLabel]) -> LContext:
    p = "/lfacts"
    obj = _as_obj(raw, p) if raw is not None else {}
    _check_keys(obj, {"rg_pole_at_1", "central_nonvanishing", "central_vanishing"}, set(), p)
    pole = []
    for i, item in enumerate(_as_list(obj.get("rg_pole_at_1", []), f"{p}/rg_pole_at_1")):
        lid = _as_str(item, f"{p}/rg_pole_at_1/{i}")
        if lid not in labels:
            raise WorkspaceError(f"{p}/rg_pole_at_1/{i}", f"undeclared label id {lid!r}")
        pole.append(lid)
    nonvan = _parse_id_pairs(obj.get("central_nonvanishing", []), f"{p}/central_nonvanishing", labels)
    van = _parse_id_pairs(obj.get("central_vanishing", []), f"{p}/central_vanishing", labels)
    try:
        return LContext.build(labels.keys(), pole, nonvan, van)
    except ValueError as exc:
        raise WorkspaceError(p, str(exc)) from None


def _parse_parameters(
    raw: Any, labels: Mapping[str, CuspidalLabel], group: GroupType
) -> dict[str, ParamEntry]:
    entries: dict[str, ParamEntry] = {}
    for i, item in enumerate(_as_list(raw, "/parameters")):
        p = f"/parameters/{i}"
        obj = _as_obj(item, p)
        _check_keys(obj, {"name", "jord", "order", "t", "eta"}, {"name", "jord"}, p)
        name = _as_str(obj["name"], f"{p}/name")
        if name in entries:
            raise WorkspaceError(f"{p}/name", f"duplicate parameter name {name!r}")

        blocks: list[JordanBlock] = []
        for j, bitem in enumerate(_as_list(obj["jord"], f"{p}/jord")):
            pj = f"{p}/jord/{j}"
            bobj = _as_obj(bitem, pj)
            _check_keys(bobj, {"rho", "a", "b", "twist_num", "twist_den"}, {"rho", "a", "b"}, pj)
            rho = _as_str(bobj["rho"], f"{pj}/rho")
            if rho not in labels:
                raise WorkspaceError(f"{pj}/rho", f"undeclared label id {rho!r}")
            num = _as_int(bobj.get("twist_num", 0), f"{pj}/twist_num")
            den = _as_int(bobj.get("twist_den", 1), f"{pj}/twist_den")
            if den < 1:
                raise WorkspaceError(f"{pj}/twist_den", f"expected a positive denominator, got {den}")
            a = _as_int(bobj["a"], f"{pj}/a")
            if a < 1:
                raise WorkspaceError(f"{pj}/a", f"expected a positive size, got {a}")
            b = _as_int(bobj["b"], f"{pj}/b")
            if b < 1:
                raise WorkspaceError(f"{pj}/b", f"expected a positive size, got {b}")
            try:
                blocks.append(JordanBlock(rho=rho, a=a, b=b, twist=Fraction(num, den)))
            except ValueError as exc:
                raise WorkspaceError(pj, str(exc)) from None
        n = len(blocks)

        order = None
        if "order" in obj:
            order_list = [
                _as_int(v, f"{p}/order/{k}")
                for k, v in enumerate(_as_list(obj["order"], f"{p}/order"))
            ]
            if sorted(order_list) != list(range(n)):
                raise WorkspaceError(f"{p}/order", f"expected a permutation of 0..{n - 1}")
            order = tuple(order_list)

        params = None
        if ("t" in obj) != ("eta" in obj):
            raise WorkspaceError(p, "keys 't' and 'eta' must be given together")
        if "t" in obj:
            t_list = [
                _as_int(v, f"{p}/t/{k}") for k, v in enumerate(_as_list(obj["t"], f"{p}/t"))
            ]
            eta_list = [
                _as_sign(v, f"{p}/eta/{k}") for k, v in enumerate(_as_list(obj["eta"], f"{p}/eta"))
            ]
            if len(t_list) != n or len(eta_list) != n:
                raise WorkspaceError(p, f"'t' and 'eta' must each cover all {n} blocks")
            params = PacketParams(t=tuple(t_list), eta=tuple(eta_list))

        entries[name] = ParamEntry(
            parameter=ArthurParameter(group=group, blocks=tuple(blocks)),
            order=order,
            params=params,
        )
    return entries


def _parse_arch(raw: Any) -> dict[str, tuple[ArchBlock, ...]]:
    result: dict[str, tuple[ArchBlock, ...]] = {}
    for i, item in enumerate(_as_list(raw, "/arch")):
        p = f"/arch/{i}"
        obj = _as_obj(item, p)
        _check_keys(obj, {"name", "blocks"}, {"name", "blocks"}, p)
        name = _as_str(obj["name"], f"{p}/name")
        if name in result:
            raise WorkspaceError(f"{p}/name", f"duplicate arch name {name!r}")
        blocks = []
        for j, bitem in enumerate(_as_list(obj["blocks"], f"{p}/blocks")):
            pj = f"{p}/blocks/{j}"
            bobj = _as_obj(bitem, pj)
            _check_keys(bobj, {"a_delta", "b", "ell"}, {"a_delta", "b"}, pj)
            ell = None
            if bobj.get("ell") is not None:
                ell = _as_int(bobj["ell"], f"{pj}/ell")
            a_delta = _as_int(bobj["a_delta"], f"{pj}/a_delta")
            if a_delta < 1:
                raise WorkspaceError(f"{pj}/a_delta", f"expected a positive size, got {a_delta}")
            b = _as_int(bobj["b"], f"{pj}/b")
            if b < 1:
                raise WorkspaceError(f"{pj}/b", f"expected a positive size, got {b}")
            blocks.append(ArchBlock(a_delta=a_delta, b=b, ell=ell))
        result[name] = tuple(blocks)
    return result


def _parse_global(raw: Any, labels: Mapping[str, CuspidalLabel]) -> dict[str, GlobalJord]:
    result: dict[str, GlobalJord] = {}
    for i, item in enumerate(_as_list(raw, "/global")):
        p = f"/global/{i}"
        obj = _as_obj(item, p)
        _check_keys(obj, {"name", "pairs"}, {"name", "pairs"}, p)
        name = _as_str(obj["name"], f"{p}/name")
        if name in result:
            raise WorkspaceError(f"{p}/name", f"duplicate global name {name!r}")
        pairs = []
        for j, pitem in enumerate(_as_list(obj["pairs"], f"{p}/pairs")):
            pj = f"{p}/pairs/{j}"
            pobj = _as_obj(pitem, pj)
            _check_keys(pobj, {"rho", "b"}, {"rho", "b"}, pj)
            rho = _as_str(pobj["rho"], f"{pj}/rho")
            if rho not in labels:
                raise WorkspaceError(f"{pj}/rho", f"undeclared label id {rho!r}")
            if not labels[rho].self_dual:
                raise WorkspaceError(f"{pj}/rho", f"label {rho!r} must be self-dual in a global datum")
            b = _as_int(pobj["b"], f"{pj}/b")
            if b < 1:
                raise WorkspaceError(f"{pj}/b", f"expected a positive size, got {b}")
            pairs.append((rho, b))
        try:
            result[name] = GlobalJord(pairs=tuple(pairs))
        except ValueError as exc:
            raise WorkspaceError(p, str(exc)) from None
    return result


def parse_workspace(text: str | bytes) -> Workspace:
    """Parse and validate a workspace document; schema problems raise a
    WorkspaceError carrying the JSON-pointer path of the offending value."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise WorkspaceError("", f"invalid JSON: {exc}") from None
    root = _as_obj(data, "")
    _check_keys(
        root,
        {"labels", "group", "lfacts", "parameters", "arch", "global"},
        {"labels", "group"},
        "",
    )
    labels = _parse_labels(root["labels"])
    group = _parse_group(root["group"])
    lctx = _parse_lfacts(root.get("lfacts"), labels)
    parameters = _parse_parameters(root.get("parameters", []), labels, group)
    arch = _parse_arch(root.get("arch", []))
    global_jords = _parse_global(root.get("global", []), labels)
    return Workspace(
        labels=labels,
        group=group,
        lcontext=lctx,
        parameters=parameters,
        arch=arch,
        global_jords=global_jords,
    )


def _block_doc(blk: JordanBlock) -> dict:
    return {
        "rho": blk.rho,
        "a": blk.a,
        "b": blk.b,
        "twist_num": blk.twist.numerator,
        "twist_den": blk.twist.denominator,
    }


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
            "central_nonvanishing": [list(p) for p in sorted(ws.lcontext.nonvanishing_pairs)],
            "central_vanishing": [list(p) for p in sorted(ws.lcontext.vanishing_pairs)],
        },
        "parameters": [],
        "arch": [],
        "global": [],
    }
    for name, entry in ws.parameters.items():
        pdoc: dict[str, Any] = {
            "name": name,
            "jord": [_block_doc(blk) for blk in entry.parameter.blocks],
        }
        if entry.order is not None:
            pdoc["order"] = list(entry.order)
        if entry.params is not None:
            pdoc["t"] = list(entry.params.t)
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
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


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


def _load_workspace(args: argparse.Namespace) -> Workspace:
    path = getattr(args, "workspace", None)
    if path is None:
        raise UsageError("this command requires --workspace")
    if path == "-":
        return parse_workspace(sys.stdin.read())
    with open(path, "rb") as fh:
        return parse_workspace(fh.read())


def _get_entry(ws: Workspace, name: str) -> ParamEntry:
    if name not in ws.parameters:
        raise ValueError(f"unknown parameter: {name!r}")
    return ws.parameters[name]


def _get_target(ws: Workspace, rho: str, a0: int, b0: int) -> TargetTriple:
    if rho not in ws.labels:
        raise ValueError(f"undeclared label: {rho!r}")
    return TargetTriple(rho=rho, a0=a0, b0=b0)


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
        entry = _get_entry(ws, name)
        where = f"parameters/{name}"
        docs.extend(_violation_docs(validate_parameter(entry.parameter, ws.labels), where))
        if entry.params is not None:
            docs.extend(
                _violation_docs(
                    validate_params(entry.ordered(), entry.params, ws.group.epsilon), where
                )
            )
    return (EXIT_FAIL if docs else EXIT_OK), {"violations": docs}


def _cmd_packet(args: argparse.Namespace) -> tuple[int, dict]:
    ws = _load_workspace(args)
    entry = _get_entry(ws, args.param)
    epsilon = parse_sign(args.epsilon) if args.epsilon else ws.group.epsilon
    found = enumerate_params(entry.ordered(), epsilon)
    if args.count:
        return EXIT_OK, {"count": len(found), "epsilon": sign_str(epsilon)}
    return EXIT_OK, {
        "epsilon": sign_str(epsilon),
        "params": [
            {"t": list(p.t), "eta": [sign_str(e) for e in p.eta]} for p in found
        ],
    }


def _cmd_order(args: argparse.Namespace) -> tuple[int, dict]:
    ws = _load_workspace(args)
    entry = _get_entry(ws, args.param)
    target = _get_target(ws, args.rho, args.a0, args.b0)
    side = PSI_PLUS_SIDE if args.side == "psi_plus" else PSI_SIDE
    if args.validate:
        violations = validate_order(entry.ordered(), target, side)
        return (EXIT_FAIL if violations else EXIT_OK), {
            "violations": _violation_docs(violations)
        }
    co = canonical_order(entry.parameter.blocks, target, side)
    # Equal blocks take their original indices in ascending order.
    positions: dict[JordanBlock, list[int]] = {}
    for k, blk in enumerate(entry.parameter.blocks):
        positions.setdefault(blk, []).append(k)
    unused = {blk: iter(ks) for blk, ks in positions.items()}
    indices = [next(unused[blk]) for blk in co.blocks]
    return EXIT_OK, {
        "indices": indices,
        "blocks": [_block_doc(blk) for blk in co.blocks],
    }


def _cmd_pole_order(args: argparse.Namespace) -> tuple[int, dict]:
    ws = _load_workspace(args)
    entry = _get_entry(ws, args.param)
    if args.rho not in ws.labels:
        raise ValueError(f"undeclared label: {args.rho!r}")
    s0 = parse_halfint(args.s0)
    return EXIT_OK, {"order": r_order(entry.parameter, args.rho, args.a0, s0)}


def _cmd_transfer(args: argparse.Namespace) -> tuple[int, dict]:
    ws = _load_workspace(args)
    entry = _get_entry(ws, args.param)
    target = _get_target(ws, args.rho, args.a0, args.b0)
    if entry.params is None:
        raise ValueError(
            f"parameter {args.param!r} declares no packet coordinates (t/eta)"
        )
    psi_plus = build_psi_plus(entry.parameter, target, ws.labels)
    new_order, new_params = apply_transfer(
        entry.ordered(), entry.params, target, insert_position=args.insert_position
    )
    if target.b0 == 2:
        pivot_pos = args.insert_position
    else:
        pivot_pos = locate_pivot(new_order.blocks, target, PSI_PLUS_SIDE)
    return EXIT_OK, {
        "psi_plus": {
            "m_star": psi_plus.group.rank_dim,
            "jord": [_block_doc(blk) for blk in psi_plus.blocks],
        },
        "order": [_block_doc(blk) for blk in new_order.blocks],
        "t": list(new_params.t),
        "eta": [sign_str(e) for e in new_params.eta],
        "pivot": {
            "position": pivot_pos,
            "t": new_params.t[pivot_pos],
            "eta": sign_str(new_params.eta[pivot_pos]),
        },
    }


def _cmd_jac(args: argparse.Namespace) -> tuple[int, dict]:
    if args.normal_form:
        if args.exponents is None:
            raise UsageError("--normal-form requires --exponents")
        exps = tuple(
            parse_halfint(tok) for tok in args.exponents.split(",") if tok.strip()
        )
        nf = jac_normal_form(JacSequence(args.rho or "", exps))
        return EXIT_OK, {"exponents_x2": [e.doubled for e in nf.exponents]}
    if args.param is None or args.seg_from is None or args.seg_to is None:
        raise UsageError("--nonvanishing requires --param, --from, and --to")
    ws = _load_workspace(args)
    entry = _get_entry(ws, args.param)
    if args.rho is None or args.rho not in ws.labels:
        raise ValueError(f"undeclared label: {args.rho!r}")
    seg = Segment(parse_halfint(args.seg_from), parse_halfint(args.seg_to))
    return EXIT_OK, {
        "nonvanishing_possible": jac_nonvanishing_necessary(
            entry.parameter, args.rho, seg
        )
    }


def _cmd_irreducible(args: argparse.Namespace) -> tuple[int, dict]:
    ws = _load_workspace(args)
    entry = _get_entry(ws, args.param)
    if args.rho not in ws.labels:
        raise ValueError(f"undeclared label: {args.rho!r}")
    verdict = irreducible_cuspidal_twist(entry.parameter, args.rho, parse_halfint(args.x))
    return EXIT_OK, {"verdict": verdict.value}


def _get_arch(ws: Workspace, name: str) -> tuple[ArchBlock, ...]:
    if name not in ws.arch:
        raise ValueError(f"unknown arch input: {name!r}")
    return ws.arch[name]


def _cmd_infchar(args: argparse.Namespace) -> tuple[int, dict]:
    ws = _load_workspace(args)
    blocks = _get_arch(ws, args.arch)
    if args.a_tau is not None:
        if args.s0 is None:
            raise UsageError("--a-tau requires --s0")
        entries = combined_inf_char(blocks, args.a_tau, parse_halfint(args.s0))
    else:
        entries = inf_char(blocks)
    payload: dict[str, Any] = {"entries_x2": [e.doubled for e in entries]}
    if args.check_regular:
        payload["regular"] = is_regular(entries)
    return EXIT_OK, payload


def _cmd_arch_order(args: argparse.Namespace) -> tuple[int, dict]:
    ws = _load_workspace(args)
    blocks = _get_arch(ws, args.arch)
    s0 = parse_halfint(args.s0)
    return EXIT_OK, {"order": normalization_order(tuple(args.a_tau), blocks, s0)}


_TRIBOOL_FLAGS = {"t": TriBool.TRUE, "f": TriBool.FALSE, "u": TriBool.UNKNOWN}


def _cmd_eisenstein(args: argparse.Namespace) -> tuple[int, dict]:
    ws = _load_workspace(args)
    if args.global_name not in ws.global_jords:
        raise ValueError(f"unknown global datum: {args.global_name!r}")
    jord = ws.global_jords[args.global_name]
    if args.rho not in ws.labels:
        raise ValueError(f"undeclared label: {args.rho!r}")
    s0 = Fraction(args.s0)
    verdict = eisenstein_verdict(jord, args.rho, s0, ws.lcontext)
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
    sub.add_argument("--side", choices=["psi", "psi_plus"], default="psi")

    sub = subs.add_parser("pole-order", help="pole order of the normalization factor")
    _add_workspace_arg(sub)
    sub.add_argument("--param", required=True)
    sub.add_argument("--rho", required=True)
    sub.add_argument("--a0", type=int, required=True)
    sub.add_argument("--s0", required=True, help="half-integer, e.g. '2' or '3/2'")

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
        help="where the fresh block goes when b0 = 2",
    )

    sub = subs.add_parser("jac", help="Jacquet words and their nonvanishing")
    _add_workspace_arg(sub, required=False)
    mode = sub.add_mutually_exclusive_group(required=True)
    mode.add_argument("--normal-form", action="store_true")
    mode.add_argument("--nonvanishing", action="store_true")
    sub.add_argument("--rho")
    sub.add_argument("--exponents", help="comma-separated half-integers")
    sub.add_argument("--param")
    sub.add_argument("--from", dest="seg_from", help="segment start (half-integer)")
    sub.add_argument("--to", dest="seg_to", help="segment stop (half-integer)")

    sub = subs.add_parser("irreducible", help="sufficient irreducibility criterion")
    _add_workspace_arg(sub)
    sub.add_argument("--param", required=True)
    sub.add_argument("--rho", required=True)
    sub.add_argument("--x", required=True, help="nonzero half-integer twist")

    sub = subs.add_parser("infchar", help="infinitesimal-character entries")
    _add_workspace_arg(sub)
    sub.add_argument("--arch", required=True)
    sub.add_argument("--a-tau", type=int, default=None)
    sub.add_argument("--s0", help="half-integer twist point")
    sub.add_argument("--check-regular", action="store_true")

    sub = subs.add_parser("arch-order", help="total Gamma-factor pole order")
    _add_workspace_arg(sub)
    sub.add_argument("--arch", required=True)
    sub.add_argument("--a-tau", type=int, action="append", required=True)
    sub.add_argument("--s0", required=True)

    sub = subs.add_parser("eisenstein", help="pole and residue verdicts")
    _add_workspace_arg(sub)
    sub.add_argument("--global", dest="global_name", required=True)
    sub.add_argument("--rho", required=True)
    sub.add_argument("--s0", required=True, help="exact rational >= 1/2, e.g. '3/2'")
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


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def run(argv: Sequence[str]) -> int:
    """Run one subcommand; returns the exit code (0 / 2 / 64)."""
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code, payload = _HANDLERS[args.command](args)
    except UsageError as exc:
        sys.stderr.write(f"apackets {args.command}: error: {exc}\n")
        return EXIT_USAGE
    except (WorkspaceError, ValueError, OSError) as exc:
        _emit({"error": str(exc)})
        return EXIT_FAIL
    _emit(payload)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
