"""Tests for the JSON workspace format and the command-line interface."""

import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apackets import cli
from apackets.cli import (
    EXIT_FAIL,
    EXIT_OK,
    EXIT_USAGE,
    WorkspaceError,
    canonical_json,
    parse_workspace,
    run,
    serialize_workspace,
)
from apackets.core_types import halfint_str
from apackets.jordan import ZERO_TWIST, JordanBlock
from _helpers import blk, closed_form_count, packet_list_json, respects_commutation_order

DATA = Path(__file__).parent / "data"
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = json.loads((ROOT / "perfbench" / "golden" / "fixtures.json").read_text())
DEMO = DATA / "demo_workspace.json"
SP = DATA / "sp_workspace.json"


def _minimal(**extra):
    doc = {
        "labels": [{"id": "r", "dim": 1, "self_dual": True, "parity": "orthogonal"}],
        "group": {"kind": "SOodd", "m_star": 24},
    }
    doc.update(extra)
    return json.dumps(doc)


def _param_doc(jord, **extra):
    entry = {"name": "P", "jord": jord}
    entry.update(extra)
    return _minimal(parameters=[entry])


def _own_dim_doc(jord, **extra):
    """_param_doc with the blocks' own dimension as m_star (r has dimension 1,
    u and v have 2), so validate finds no DimensionMismatch. The parameter of
    no blocks gets m_star 1: no group has dimension 0."""
    doc = json.loads(_param_doc(jord, **extra))
    dims = {"r": 1, "u": 2, "v": 2}
    doc["group"]["m_star"] = sum(dims[row["rho"]] * row["a"] * row["b"] for row in jord) or 1
    return json.dumps(doc)


def _run(capsys, *args):
    code = run(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_json(capsys, *args):
    code, out, _ = _run(capsys, *args)
    return code, json.loads(out)


# --- parsing ----------------------------------------------------------------------


def test_parse_minimal_document():
    ws = parse_workspace(_minimal())
    assert set(ws.labels) == {"r"}
    assert ws.group.rank_dim == 24
    assert ws.group.epsilon == 1  # default sign
    assert ws.parameters == {} and ws.arch == {} and ws.global_jords == {}


def test_parse_accepts_bytes():
    assert parse_workspace(_minimal().encode()).group.rank_dim == 24


def _pointer_of(text):
    with pytest.raises(WorkspaceError) as excinfo:
        parse_workspace(text)
    return excinfo.value.pointer, excinfo.value.message


def test_zero_size_block_pointer():
    pointer, message = _pointer_of(_param_doc([{"rho": "r", "a": 1, "b": 0}]))
    assert pointer == "/parameters/0/jord/0/b"
    assert message == "expected a positive size, got 0"


def test_zero_a_block_pointer():
    pointer, _ = _pointer_of(_param_doc([{"rho": "r", "a": 0, "b": 1}]))
    assert pointer == "/parameters/0/jord/0/a"


def test_undeclared_block_label_pointer():
    pointer, message = _pointer_of(_param_doc([{"rho": "zz", "a": 1, "b": 1}]))
    assert pointer == "/parameters/0/jord/0/rho"
    assert "zz" in message


def test_overlarge_twist_is_rejected_at_block_pointer():
    pointer, _ = _pointer_of(
        _param_doc([{"rho": "r", "a": 1, "b": 1, "twist_num": 1, "twist_den": 2}])
    )
    assert pointer == "/parameters/0/jord/0"


def test_bad_twist_denominator_pointer():
    pointer, _ = _pointer_of(
        _param_doc([{"rho": "r", "a": 1, "b": 1, "twist_num": 1, "twist_den": 0}])
    )
    assert pointer == "/parameters/0/jord/0/twist_den"


def test_duplicate_label_pointer():
    doc = json.loads(_minimal())
    doc["labels"].append(doc["labels"][0].copy())
    pointer, _ = _pointer_of(json.dumps(doc))
    assert pointer == "/labels/1/id"


def test_bad_parity_pointer():
    doc = json.loads(_minimal())
    doc["labels"][0]["parity"] = "selfdual"
    pointer, _ = _pointer_of(json.dumps(doc))
    assert pointer == "/labels/0/parity"


def test_duplicate_parameter_name_pointer():
    doc = json.loads(_param_doc([{"rho": "r", "a": 1, "b": 1}]))
    doc["parameters"].append(doc["parameters"][0])
    pointer, _ = _pointer_of(json.dumps(doc))
    assert pointer == "/parameters/1/name"


def test_order_must_be_permutation():
    pointer, _ = _pointer_of(
        _param_doc([{"rho": "r", "a": 1, "b": 1}], order=[1])
    )
    assert pointer == "/parameters/0/order"


def test_declared_order_permutes_the_blocks():
    ws = parse_workspace(DEMO.read_text())
    declared, plain = ws.parameters["P"], ws.parameters["Q"]
    blocks = declared.parameter.blocks
    assert declared.ordered() == tuple(blocks[k] for k in (1, 2, 0, 3))
    assert plain.ordered() is plain.parameter.blocks  # no order: the blocks themselves


def test_t_and_eta_must_come_together():
    pointer, message = _pointer_of(_param_doc([{"rho": "r", "a": 1, "b": 1}], t=[0]))
    assert pointer == "/parameters/0"
    assert "together" in message


def test_t_and_eta_must_cover_all_blocks():
    pointer, _ = _pointer_of(
        _param_doc([{"rho": "r", "a": 1, "b": 1}], t=[0, 0], eta=["+", "+"])
    )
    assert pointer == "/parameters/0"


def test_unknown_root_key_pointer():
    pointer, _ = _pointer_of(_minimal(bogus=[]))
    assert pointer == "/bogus"


def test_missing_required_root_key():
    pointer, message = _pointer_of(json.dumps({"labels": []}))
    assert pointer == ""
    assert "group" in message


def test_invalid_json_pointer():
    pointer, message = _pointer_of("{nope")
    assert pointer == ""
    assert "invalid JSON" in message


def test_workspace_not_utf8_is_invalid_json_decoded_once(capsys, monkeypatch, tmp_path):
    path = tmp_path / "ws.json"
    path.write_bytes(b"\xff{}")
    loads, calls = json.loads, []
    monkeypatch.setattr(json, "loads", lambda *a, **k: calls.append(a) or loads(*a, **k))
    code, out, _ = _run(capsys, "validate", "-w", str(path))
    assert len(calls) == 1
    assert code == EXIT_FAIL
    assert loads(out) == {"error": "/: invalid JSON: 'utf-8' codec can't decode byte 0xff "
                                   "in position 0: invalid start byte"}


def test_bad_group_kind_pointer():
    doc = json.loads(_minimal())
    doc["group"]["kind"] = "GL"
    pointer, _ = _pointer_of(json.dumps(doc))
    assert pointer == "/group/kind"


def test_bad_m_star_pointer():
    doc = json.loads(_minimal())
    doc["group"]["m_star"] = 0
    pointer, _ = _pointer_of(json.dumps(doc))
    assert pointer == "/group"


def test_lfacts_undeclared_label_pointer():
    pointer, _ = _pointer_of(
        _minimal(lfacts={"central_vanishing": [["r", "zz"]]})
    )
    assert pointer == "/lfacts/central_vanishing/0/1"


def test_arch_bad_size_pointer():
    pointer, _ = _pointer_of(
        _minimal(arch=[{"name": "A", "blocks": [{"a_delta": 0, "b": 1}]}])
    )
    assert pointer == "/arch/0/blocks/0/a_delta"


def test_global_label_must_be_self_dual():
    doc = json.loads(_minimal())
    doc["labels"].append({"id": "u", "dim": 2, "self_dual": False, "parity": None})
    doc["global"] = [{"name": "G", "pairs": [{"rho": "u", "b": 3}]}]
    pointer, message = _pointer_of(json.dumps(doc))
    assert pointer == "/global/0/pairs/0/rho"
    assert "self-dual" in message


_DROP = object()


class _Digits(str):
    """An integer literal spliced into the edited text as it stands, since
    json.dumps cannot write an int this long."""


# One document per schema check: the demo workspace with one edit (pointer,
# new value; _DROP deletes the key, "-" appends), and the (pointer, message)
# of the error; None for an edit the schema accepts.
_SCHEMA_FAULTS = [
    ("", [], "", "expected an object, got list"),
    ("/bogus", [], "/bogus", "unknown key"),
    ("/group", _DROP, "", "missing required key 'group'"),
    ("/labels", {}, "/labels", "expected an array, got dict"),
    ("/labels/0", 1, "/labels/0", "expected an object, got int"),
    ("/labels/0/bogus", 1, "/labels/0/bogus", "unknown key"),
    ("/labels/0/self_dual", _DROP, "/labels/0", "missing required key 'self_dual'"),
    ("/labels/3/id", 7, "/labels/3/id", "expected a string, got int"),
    ("/labels/3/id", "u", "/labels/3/id", "duplicate label id 'u'"),
    ("/labels/0/id", "", "/labels/0", "label id must be nonempty"),
    ("/labels/0/dim", "x", "/labels/0/dim", "expected an integer, got str"),
    ("/labels/0/dim", 0, "/labels/0", "label dimension must be >= 1, got 0"),
    ("/labels/0/self_dual", 1, "/labels/0/self_dual", "expected a boolean, got int"),
    ("/labels/0/parity", 1, "/labels/0/parity", "expected a string, got int"),
    ("/labels/0/parity", "selfdual", "/labels/0/parity",
     "expected 'orthogonal', 'symplectic', or null, got 'selfdual'"),
    ("/labels/2/parity", "orthogonal", "/labels/2",
     "label 'u': parity declared but not self-dual"),
    ("/group", [], "/group", "expected an object, got list"),
    ("/group/bogus", 1, "/group/bogus", "unknown key"),
    ("/group/kind", _DROP, "/group", "missing required key 'kind'"),
    ("/group/kind", 1, "/group/kind", "expected a string, got int"),
    ("/group/kind", "GL", "/group/kind", "expected one of ['Oeven', 'SOodd', 'Sp'], got 'GL'"),
    ("/group/m_star", "x", "/group/m_star", "expected an integer, got str"),
    ("/group/m_star", 0, "/group", "rank_dim must be >= 1, got 0"),
    ("/group/epsilon", 1, "/group/epsilon", "expected a string, got int"),
    ("/group/epsilon", "x", "/group/epsilon", "not a sign: 'x'"),
    ("/lfacts", None, None, None),
    ("/lfacts", [], "/lfacts", "expected an object, got list"),
    ("/lfacts/bogus", [], "/lfacts/bogus", "unknown key"),
    ("/lfacts/rg_pole_at_1", "r", "/lfacts/rg_pole_at_1", "expected an array, got str"),
    ("/lfacts/rg_pole_at_1/-", 1, "/lfacts/rg_pole_at_1/1", "expected a string, got int"),
    ("/lfacts/rg_pole_at_1/-", "zz", "/lfacts/rg_pole_at_1/1", "undeclared label id 'zz'"),
    ("/lfacts/central_vanishing", {}, "/lfacts/central_vanishing",
     "expected an array, got dict"),
    ("/lfacts/central_nonvanishing/0", "r", "/lfacts/central_nonvanishing/0",
     "expected an array, got str"),
    ("/lfacts/central_nonvanishing/0", ["r", "r", "r"], "/lfacts/central_nonvanishing/0",
     "expected a pair of label ids, got 3 entries"),
    ("/lfacts/central_nonvanishing/0", ["r"], "/lfacts/central_nonvanishing/0",
     "expected a pair of label ids, got 1 entries"),
    ("/lfacts/central_nonvanishing/0/1", 2, "/lfacts/central_nonvanishing/0/1",
     "expected a string, got int"),
    ("/lfacts/central_nonvanishing/0/1", "zz", "/lfacts/central_nonvanishing/0/1",
     "undeclared label id 'zz'"),
    ("/lfacts/central_nonvanishing/-", ["rs", "r"], "/lfacts",
     "pairs declared both nonvanishing and vanishing: [('r', 'rs')]"),
    ("/parameters", {}, "/parameters", "expected an array, got dict"),
    ("/parameters/0", [], "/parameters/0", "expected an object, got list"),
    ("/parameters/0/bogus", 1, "/parameters/0/bogus", "unknown key"),
    ("/parameters/0/jord", _DROP, "/parameters/0", "missing required key 'jord'"),
    ("/parameters/0/name", 1, "/parameters/0/name", "expected a string, got int"),
    ("/parameters/1/name", "P", "/parameters/1/name", "duplicate parameter name 'P'"),
    ("/parameters/0/jord", {}, "/parameters/0/jord", "expected an array, got dict"),
    ("/parameters/0/jord/0", 1, "/parameters/0/jord/0", "expected an object, got int"),
    ("/parameters/0/jord/0/bogus", 1, "/parameters/0/jord/0/bogus", "unknown key"),
    ("/parameters/0/jord/0/b", _DROP, "/parameters/0/jord/0", "missing required key 'b'"),
    ("/parameters/0/jord/0/rho", 1, "/parameters/0/jord/0/rho", "expected a string, got int"),
    ("/parameters/0/jord/0/rho", "zz", "/parameters/0/jord/0/rho", "undeclared label id 'zz'"),
    ("/parameters/0/jord/0/twist_num", "1", "/parameters/0/jord/0/twist_num",
     "expected an integer, got str"),
    ("/parameters/0/jord/0/twist_den", 1.0, "/parameters/0/jord/0/twist_den",
     "expected an integer, got float"),
    ("/parameters/0/jord/0/twist_den", 0, "/parameters/0/jord/0/twist_den",
     "expected a positive denominator, got 0"),
    ("/parameters/0/jord/0/a", True, "/parameters/0/jord/0/a", "expected an integer, got bool"),
    ("/parameters/0/jord/0/a", 0, "/parameters/0/jord/0/a", "expected a positive size, got 0"),
    ("/parameters/0/jord/0/b", None, "/parameters/0/jord/0/b",
     "expected an integer, got NoneType"),
    ("/parameters/0/jord/0/b", -1, "/parameters/0/jord/0/b", "expected a positive size, got -1"),
    ("/parameters/0/jord/0/b", _Digits("9" * 4301), "/parameters/0/jord/0/b",
     "integer of 4301 digits is too long"),
    ("/parameters/0/jord/0/twist_num", -7, "/parameters/0/jord/0",
     "twist must satisfy |x| < 1/2, got -7"),
    ("/parameters/0/order", "0", "/parameters/0/order", "expected an array, got str"),
    ("/parameters/0/order", None, "/parameters/0/order", "expected an array, got NoneType"),
    ("/parameters/0/order/2", "0", "/parameters/0/order/2", "expected an integer, got str"),
    ("/parameters/0/order/2", 1, "/parameters/0/order", "expected a permutation of 0..3"),
    ("/parameters/0/eta", _DROP, "/parameters/0", "keys 't' and 'eta' must be given together"),
    ("/parameters/1/t", [0, 0], "/parameters/1", "keys 't' and 'eta' must be given together"),
    ("/parameters/0/t", {}, "/parameters/0/t", "expected an array, got dict"),
    ("/parameters/0/t", None, "/parameters/0/t", "expected an array, got NoneType"),
    ("/parameters/0/t/1", "1", "/parameters/0/t/1", "expected an integer, got str"),
    ("/parameters/0/eta", "+", "/parameters/0/eta", "expected an array, got str"),
    ("/parameters/0/eta/1", 1, "/parameters/0/eta/1", "expected a string, got int"),
    ("/parameters/0/eta/1", "x", "/parameters/0/eta/1", "not a sign: 'x'"),
    ("/parameters/0/eta", ["+", "+", "+"], "/parameters/0",
     "'t' and 'eta' must each cover all 4 blocks"),
    ("/parameters/0/t", [0, 1, 0, 1, 0], "/parameters/0",
     "'t' and 'eta' must each cover all 4 blocks"),
    ("/arch", {}, "/arch", "expected an array, got dict"),
    ("/arch/0", "AR", "/arch/0", "expected an object, got str"),
    ("/arch/0/bogus", 1, "/arch/0/bogus", "unknown key"),
    ("/arch/0/blocks", _DROP, "/arch/0", "missing required key 'blocks'"),
    ("/arch/0/name", None, "/arch/0/name", "expected a string, got NoneType"),
    ("/arch/1/name", "AR", "/arch/1/name", "duplicate arch name 'AR'"),
    ("/arch/0/blocks", 3, "/arch/0/blocks", "expected an array, got int"),
    ("/arch/0/blocks/0", [], "/arch/0/blocks/0", "expected an object, got list"),
    ("/arch/0/blocks/0/bogus", 1, "/arch/0/blocks/0/bogus", "unknown key"),
    ("/arch/0/blocks/0/a_delta", _DROP, "/arch/0/blocks/0", "missing required key 'a_delta'"),
    ("/arch/0/blocks/0/ell", None, None, None),
    ("/arch/0/blocks/0/ell", "2", "/arch/0/blocks/0/ell", "expected an integer, got str"),
    ("/arch/0/blocks/0/a_delta", "3", "/arch/0/blocks/0/a_delta", "expected an integer, got str"),
    ("/arch/0/blocks/0/a_delta", 0, "/arch/0/blocks/0/a_delta", "expected a positive size, got 0"),
    ("/arch/0/blocks/0/b", [], "/arch/0/blocks/0/b", "expected an integer, got list"),
    ("/arch/0/blocks/0/b", 0, "/arch/0/blocks/0/b", "expected a positive size, got 0"),
    ("/global", {}, "/global", "expected an array, got dict"),
    ("/global/0", 1, "/global/0", "expected an object, got int"),
    ("/global/0/bogus", 1, "/global/0/bogus", "unknown key"),
    ("/global/0/pairs", _DROP, "/global/0", "missing required key 'pairs'"),
    ("/global/0/name", 1, "/global/0/name", "expected a string, got int"),
    ("/global/1/name", "G1", "/global/1/name", "duplicate global name 'G1'"),
    ("/global/0/pairs", {}, "/global/0/pairs", "expected an array, got dict"),
    ("/global/0/pairs/0", ["r", 3], "/global/0/pairs/0", "expected an object, got list"),
    ("/global/0/pairs/0/bogus", 1, "/global/0/pairs/0/bogus", "unknown key"),
    ("/global/0/pairs/0/rho", _DROP, "/global/0/pairs/0", "missing required key 'rho'"),
    ("/global/0/pairs/0/rho", 1, "/global/0/pairs/0/rho", "expected a string, got int"),
    ("/global/0/pairs/0/rho", "zz", "/global/0/pairs/0/rho", "undeclared label id 'zz'"),
    ("/global/0/pairs/0/rho", "u", "/global/0/pairs/0/rho",
     "label 'u' must be self-dual in a global datum"),
    ("/global/0/pairs/0/b", "3", "/global/0/pairs/0/b", "expected an integer, got str"),
    ("/global/0/pairs/0/b", 0, "/global/0/pairs/0/b", "expected a positive size, got 0"),
]


def _value_id(value):
    if value is _DROP:
        return "drop"
    return f"{len(value)} digits" if isinstance(value, _Digits) else json.dumps(value)


def _edited_demo(pointer, value):
    doc = json.loads(DEMO.read_text())
    if not pointer:
        return json.dumps(value)
    *path, last = pointer[1:].split("/")
    parent = doc
    for part in path:
        parent = parent[int(part) if isinstance(parent, list) else part]
    if isinstance(parent, list):
        last = len(parent) if last == "-" else int(last)
        parent[last:last + 1] = [] if value is _DROP else [value]
    elif value is _DROP:
        del parent[last]
    else:
        parent[last] = value
    text = json.dumps(doc)
    return text.replace(json.dumps(value), value) if isinstance(value, _Digits) else text


@pytest.mark.parametrize(
    "edit, value, pointer, message",
    _SCHEMA_FAULTS,
    ids=[f"{e}={_value_id(v)}" for e, v, _, _ in _SCHEMA_FAULTS],
)
def test_schema_fault_pointer_and_message(edit, value, pointer, message):
    text = _edited_demo(edit, value)
    if pointer is None:
        parse_workspace(text)
    else:
        assert _pointer_of(text) == (pointer, message)


@pytest.mark.parametrize(
    "doc, first",
    [({}, "/: missing required key 'labels'"),
     ({"labels": [{}], "group": {"kind": "Sp", "m_star": 2}},
      "/labels/0: missing required key 'id'")],
    ids=["root", "label"],
)
def test_missing_key_message_ignores_hash_seed(doc, first):
    outputs = set()
    for seed in range(8):
        proc = subprocess.run(
            [sys.executable, "-m", "apackets.cli", "validate", "-w", "-"],
            input=json.dumps(doc), capture_output=True, text=True,
            env={**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": str(SRC)},
        )
        outputs.add((proc.returncode, proc.stdout))
    assert outputs == {(EXIT_FAIL, json.dumps({"error": first}, indent=2) + "\n")}


@pytest.mark.parametrize(
    "doc, pointer",
    [({"a/b": 1}, "/a~1b"),
     ({"labels": [{"id": "r", "dim": 1, "self_dual": True, "x~y": 1}]}, "/labels/0/x~0y"),
     ({"~1/": 1}, "/~01~1")],
    ids=["slash", "tilde", "both"],
)
def test_unknown_key_pointer_escapes_tilde_and_slash(doc, pointer):
    assert _pointer_of(_minimal(**doc)) == (pointer, "unknown key")


def test_workspace_error_str_carries_pointer():
    err = WorkspaceError("/labels/0/dim", "expected an integer, got str")
    assert str(err) == "/labels/0/dim: expected an integer, got str"


# One pool per jord key: valid values first, then every kind of fault the
# table reports, the too-long literal and |twist| >= 1/2 included.
_LONG = cli._LongInt("9" * 4301)
_ROW_VALUES = {
    "rho": (["r", "u"], ["zz", "", 1, None, True]),
    "a": ([1, 2, 7, 10**30], [0, -1, True, False, 1.0, "3", None, _LONG]),
    "b": ([1, 3, 4, 2**70], [0, -1, True, 2.0, "1", [], _LONG]),
    "twist_num": ([0, 1, -1, -2, 2, 3], [7, -9, True, 1.5, "1", None, _LONG]),
    "twist_den": ([1, 3, 5, 7, 11], [2, 0, -3, True, 2.0, "2", None, _LONG]),
}


def _random_row(rng):
    """A jord row with its keys in a random order, or now and then not an object."""
    if rng.random() < 0.03:
        return rng.choice([1, [], "x", None, True])
    row = {}
    for key in rng.sample(sorted(_ROW_VALUES), len(_ROW_VALUES)):
        good, bad = _ROW_VALUES[key]
        if rng.random() < (0.95 if key in ("rho", "a", "b") else 0.6):
            row[key] = rng.choice(good if rng.random() < 0.85 else bad)
    if rng.random() < 0.05:
        row[rng.choice(["bogus", "twist", "A"])] = 1
    return row


def _read_outcome(read, row, ctx):
    try:
        got = read(row, ctx)
    except WorkspaceError as exc:
        return "error", exc.pointer, exc.message
    return "block", got, [type(v) for v in (got.rho, got.a, got.b, got.twist)]


@pytest.mark.parametrize("seed", range(4))
def test_jord_row_reader_agrees_with_the_table(seed):
    """The one-check row reader gives the table's block, or the table's
    pointer and message, on valid rows and on every kind of fault."""
    rng = random.Random(seed)
    ctx = {"labels": parse_workspace(DEMO.read_text()).labels}
    kinds = {"block": 0, "error": 0}
    for _ in range(3000):
        row = _random_row(rng)
        want = _read_outcome(cli._BLOCK, row, ctx)
        assert _read_outcome(cli._jord_row, row, ctx) == want, row
        kinds[want[0]] += 1
    assert min(kinds.values()) > 500, kinds


# --- serialization -----------------------------------------------------------------


def test_fixture_files_are_canonical():
    for path in (DEMO, SP):
        text = path.read_text()
        assert serialize_workspace(parse_workspace(text)) == text


def _random_workspace(rng):
    """A workspace document that parses: every schema key, each optional one
    now and then absent, with values in each accepted spelling."""
    labels = [
        {"id": "r", "dim": 1, "self_dual": True, "parity": "orthogonal"},
        {"id": "s", "dim": 2, "self_dual": True, "parity": "symplectic"},
        {"id": "u", "dim": 2, "self_dual": False, "parity": None},
        {"id": "w", "dim": 3, "self_dual": True},
    ]
    doc = {"labels": rng.sample(labels, rng.randint(1, len(labels)))}
    ids = [lab["id"] for lab in doc["labels"]]
    self_dual = [lab["id"] for lab in doc["labels"] if lab["self_dual"]]
    group = {"kind": rng.choice(["SOodd", "Sp", "Oeven"]), "m_star": rng.randint(1, 99)}
    if rng.random() < 0.5:
        group["epsilon"] = rng.choice(["+", "-", "+1", "-1"])
    doc["group"] = group

    def pairs():
        return [[rng.choice(ids), rng.choice(ids)] for _ in range(rng.randint(0, 3))]

    roll = rng.random()
    if roll < 0.2:
        doc["lfacts"] = None
    elif roll < 0.8:
        facts = {"rg_pole_at_1": rng.sample(ids, rng.randint(0, len(ids)))}
        facts["central_nonvanishing"] = pairs()
        known = {tuple(sorted(p)) for p in facts["central_nonvanishing"]}
        facts["central_vanishing"] = [p for p in pairs() if tuple(sorted(p)) not in known]
        doc["lfacts"] = {k: v for k, v in facts.items() if rng.random() < 0.8}
    if rng.random() < 0.8:
        doc["parameters"] = []
        for k in range(rng.randint(0, 3)):
            jord = []
            for _ in range(rng.randint(0, 6)):
                row = {"rho": rng.choice(ids), "a": rng.randint(1, 9), "b": rng.randint(1, 9)}
                if rng.random() < 0.3:  # |num / den| < 1/2, not always reduced
                    den = rng.randint(1, 12)
                    row["twist_num"] = rng.randint(-((den - 1) // 2), (den - 1) // 2)
                    row["twist_den"] = den
                jord.append(row)
            entry = {"name": f"P{k}", "jord": jord}
            if rng.random() < 0.5:
                entry["order"] = rng.sample(range(len(jord)), len(jord))
            if rng.random() < 0.5:
                entry["t"] = [rng.randint(0, 4) for _ in jord]
                entry["eta"] = [rng.choice(["+", "-", "+1", "-1"]) for _ in jord]
            doc["parameters"].append(entry)
    if rng.random() < 0.7:
        doc["arch"] = [
            {"name": f"A{k}", "blocks": [
                {"a_delta": rng.randint(1, 9), "b": rng.randint(1, 9),
                 **rng.choice([{}, {"ell": None}, {"ell": rng.randint(-5, 5)}])}
                for _ in range(rng.randint(0, 4))
            ]}
            for k in range(rng.randint(0, 2))
        ]
    if self_dual and rng.random() < 0.7:
        doc["global"] = [
            {"name": f"G{k}", "pairs": [
                {"rho": rng.choice(self_dual), "b": rng.randint(1, 9)}
                for _ in range(rng.randint(0, 4))
            ]}
            for k in range(rng.randint(0, 2))
        ]
    return json.dumps(doc)


@pytest.mark.parametrize("seed", range(4))
def test_serialize_is_a_fixed_point_on_random_workspaces(seed):
    """Writing a parsed workspace and parsing it back gives the same
    workspace, and writing that gives the same bytes."""
    rng = random.Random(seed)
    for _ in range(150):
        ws = parse_workspace(_random_workspace(rng))
        text = serialize_workspace(ws)
        again = parse_workspace(text)
        assert again == ws, text
        assert serialize_workspace(again) == text


def _canonical_doc(doc):
    """The canonical form of a parsed workspace document, normalized by hand:
    defaults filled in, null for a missing parity or ell, signs as '+'/'-',
    twists reduced (zero as 0/1), and fact labels and pairs deduplicated,
    each pair ordered, and the lists sorted."""
    sign = {"+": "+", "+1": "+", "-": "-", "-1": "-"}
    facts = doc.get("lfacts") or {}

    def pairs(key):
        return sorted({tuple(sorted(p)) for p in facts.get(key, [])})

    def row(r):
        twist = Fraction(r.get("twist_num", 0), r.get("twist_den", 1))
        return {"rho": r["rho"], "a": r["a"], "b": r["b"],
                "twist_num": twist.numerator, "twist_den": twist.denominator}

    def parameter(entry):
        out = {"name": entry["name"], "jord": [row(r) for r in entry["jord"]]}
        if "order" in entry:
            out["order"] = entry["order"]
        if "t" in entry:
            out["t"], out["eta"] = entry["t"], [sign[e] for e in entry["eta"]]
        return out

    return {
        "labels": [{"parity": None, **lab} for lab in doc["labels"]],
        "group": {**doc["group"], "epsilon": sign[doc["group"].get("epsilon", "+")]},
        "lfacts": {
            "rg_pole_at_1": sorted(set(facts.get("rg_pole_at_1", []))),
            "central_nonvanishing": pairs("central_nonvanishing"),
            "central_vanishing": pairs("central_vanishing"),
        },
        "parameters": [parameter(entry) for entry in doc.get("parameters", [])],
        "arch": [{"name": a["name"], "blocks": [{"ell": None, **blk} for blk in a["blocks"]]}
                 for a in doc.get("arch", [])],
        "global": doc.get("global", []),
    }


@pytest.mark.parametrize("seed", range(4))
def test_serialize_writes_the_hand_normalized_document(seed):
    """The canonical bytes against an oracle that shares no code with the
    writer: json.dumps of the input document normalized by hand."""
    rng = random.Random(seed)
    for _ in range(150):
        text = _random_workspace(rng)
        expected = json.dumps(_canonical_doc(json.loads(text)), sort_keys=True, indent=2) + "\n"
        assert serialize_workspace(parse_workspace(text)) == expected, text


def test_serialize_emits_defaults_and_sorted_facts():
    out = serialize_workspace(parse_workspace(_minimal()))
    doc = json.loads(out)
    assert set(doc) == {"labels", "group", "lfacts", "parameters", "arch", "global"}
    assert doc["group"]["epsilon"] == "+"
    assert doc["lfacts"] == {
        "rg_pole_at_1": [],
        "central_nonvanishing": [],
        "central_vanishing": [],
    }
    assert out.endswith("\n")


def test_serialize_orders_declared_facts():
    text = _minimal(
        lfacts={
            "rg_pole_at_1": ["r"],
            "central_nonvanishing": [["r", "r"]],
        }
    )
    doc = json.loads(serialize_workspace(parse_workspace(text)))
    assert doc["lfacts"]["rg_pole_at_1"] == ["r"]
    assert doc["lfacts"]["central_nonvanishing"] == [["r", "r"]]


def test_serialize_omits_optional_param_keys():
    doc = json.loads(
        serialize_workspace(parse_workspace(_param_doc([{"rho": "r", "a": 2, "b": 1}])))
    )
    entry = doc["parameters"][0]
    assert "order" not in entry and "t" not in entry and "eta" not in entry
    assert entry["jord"][0] == {
        "rho": "r",
        "a": 2,
        "b": 1,
        "twist_num": 0,
        "twist_den": 1,
    }


# --- command-line interface ---------------------------------------------------------


def test_validate_demo_workspace(capsys):
    code, payload = _run_json(capsys, "validate", "-w", str(DEMO))
    assert code == EXIT_OK
    assert payload == {"violations": []}


def test_validate_reports_violations(capsys, tmp_path):
    bad = tmp_path / "ws.json"
    bad.write_text(_param_doc([{"rho": "r", "a": 2, "b": 1}]))  # dims 2 != 24
    code, payload = _run_json(capsys, "validate", "-w", str(bad))
    assert code == EXIT_FAIL
    assert [v["code"] for v in payload["violations"]] == ["DimensionMismatch"]
    assert payload["violations"][0]["where"] == "parameters/P"


def test_validate_unknown_parameter_is_an_error(capsys):
    code, payload = _run_json(capsys, "validate", "-w", str(DEMO), "--param", "NOPE")
    assert code == EXIT_FAIL
    assert "NOPE" in payload["error"]


def test_validate_empty_parameter_name_is_a_name(capsys, tmp_path):
    code, payload = _run_json(capsys, "validate", "-w", str(DEMO), "--param", "")
    assert (code, payload) == (EXIT_FAIL, {"error": "unknown parameter: ''"})
    ws = tmp_path / "ws.json"
    ws.write_text(_minimal(parameters=[{"name": "", "jord": [{"rho": "r", "a": 2, "b": 1}]},
                                       {"name": "P", "jord": []}]))
    code, payload = _run_json(capsys, "validate", "-w", str(ws), "--param", "")
    assert code == EXIT_FAIL
    assert [v["where"] for v in payload["violations"]] == ["parameters/"]


def test_minus_sign_character_is_not_a_sign(capsys, tmp_path):
    # Only '+', '-', '+1' and '-1' spell a sign; U+2212 MINUS SIGN does not.
    bad = tmp_path / "ws.json"
    bad.write_text(_param_doc([{"rho": "r", "a": 1, "b": 1}], t=[0], eta=["\u2212"]))
    code, payload = _run_json(capsys, "validate", "-w", str(bad))
    assert code == EXIT_FAIL
    assert payload == {"error": "/parameters/0/eta/0: not a sign: '\u2212'"}


def test_validate_schema_error_payload(capsys, tmp_path):
    bad = tmp_path / "ws.json"
    bad.write_text(_param_doc([{"rho": "r", "a": 1, "b": 0}]))
    code, payload = _run_json(capsys, "validate", "-w", str(bad))
    assert code == EXIT_FAIL
    assert payload["error"].startswith("/parameters/0/jord/0/b:")


def test_packet_count(capsys):
    code, payload = _run_json(capsys, "packet", "-w", str(DEMO), "--param", "Q", "--count")
    assert code == EXIT_OK
    assert payload == {"count": 6, "epsilon": "+"}


def test_packet_count_other_sign(capsys):
    code, payload = _run_json(
        capsys, "packet", "-w", str(DEMO), "--param", "Q", "--count", "--epsilon", "-"
    )
    assert code == EXIT_OK
    assert payload == {"count": 6, "epsilon": "-"}


def test_packet_list(capsys):
    code, payload = _run_json(capsys, "packet", "-w", str(DEMO), "--param", "Q", "--list")
    assert code == EXIT_OK
    assert payload["epsilon"] == "+"
    assert payload["params"] == [
        {"t": [0, 0], "eta": ["+", "+"]},
        {"t": [0, 1], "eta": ["+", "-"]},
        {"t": [0, 0], "eta": ["-", "+"]},
        {"t": [0, 1], "eta": ["-", "-"]},
        {"t": [1, 0], "eta": ["+", "-"]},
        {"t": [1, 1], "eta": ["+", "+"]},
    ]


def _packet_list_cases(rng):
    """(sizes, order) of good-parity SOodd blocks: the parameter of no blocks
    (one member with "eta": [] and "t": [] for +, "params": [] for -), one with
    two-digit t values, one with a declared order, the two largest rows of
    the benchmark's packet-survey spectrum, whose members share each t and
    eta list with many others, then 0-6 blocks drawn at random, some with a
    declared order."""
    yield [], None
    yield [(21, 20), (2, 3), (44, 41)], None
    yield [(1, 2), (4, 3), (2, 5)], [2, 0, 1]
    # min(a, b) + 1 = (2, 2, 2, 4, 4, 5, 6, 6): 23,040 choices.
    yield [(1, 2), (2, 1), (1, 4), (3, 4), (4, 3), (4, 5), (5, 6), (8, 5)], None
    # min(a, b) + 1 = (3, 3, 3, 3, 3, 3, 3, 5): 10,935 choices.
    yield ([(2, 3), (3, 2), (2, 5), (2, 3), (3, 2), (2, 3), (5, 2), (4, 5)],
           [7, 0, 6, 1, 5, 2, 4, 3])
    for _ in range(40):
        sizes = []
        for _ in range(rng.randint(0, 6)):
            a = rng.randint(1, 5)
            sizes.append((a, rng.choice([b for b in range(1, 6) if (a + b) % 2])))
        yield sizes, (rng.sample(range(len(sizes)), len(sizes)) if rng.random() < 0.5 else None)


def test_packet_list_bytes_match_oracle(capsys, tmp_path):
    ws = tmp_path / "ws.json"
    for sizes, order in _packet_list_cases(random.Random(13)):
        extra = {} if order is None else {"order": order}
        ws.write_text(_own_dim_doc([{"rho": "r", "a": a, "b": b} for a, b in sizes], **extra))
        blocks = [blk("r", *sizes[k]) for k in (range(len(sizes)) if order is None else order)]
        for epsilon, sign in ((1, "+"), (-1, "-")):
            code, out, _ = _run(
                capsys, "packet", "-w", str(ws), "--param", "P", "--list", "--epsilon", sign
            )
            assert code == EXIT_OK
            # Equal as lines exactly when equal as text; a failure names the
            # first differing line instead of diffing up to a megabyte.
            lines = packet_list_json(blocks, epsilon).split("\n")
            assert out.split("\n") == lines, (sizes, order, sign)


@pytest.mark.parametrize("epsilon", [1, -1])
def test_packet_count_forty_blocks(capsys, tmp_path, epsilon):
    # About 1.8 * 10^23 choices: the count must come from the closed form, not a search.
    # Every block has good parity for SOodd (a + b odd), so validate accepts them
    # unpaired: b grows by 1 where (1 + k % 7) + (1 + (3k) % 8) is even.
    sizes = [(a, b + 1 - (a + b) % 2) for a, b in ((1 + k % 7, 1 + (3 * k) % 8) for k in range(40))]
    ws = tmp_path / "ws.json"
    ws.write_text(_own_dim_doc([{"rho": "r", "a": a, "b": b} for a, b in sizes]))
    sign = "+" if epsilon > 0 else "-"
    code, payload = _run_json(
        capsys, "packet", "-w", str(ws), "--param", "P", "--count", "--epsilon", sign
    )
    assert code == EXIT_OK
    assert payload == {"count": closed_form_count(sizes, epsilon), "epsilon": sign}


def test_packet_count_too_long_to_write_exits_2(capsys, tmp_path):
    # 1,000^1,500 members: 4,501 digits, more than str() writes by default.
    ws = tmp_path / "ws.json"
    ws.write_text(_own_dim_doc([{"rho": "r", "a": 1000, "b": 999}] * 1500))
    code, out, _ = _run(capsys, "packet", "-w", str(ws), "--param", "P", "--count")
    assert code == EXIT_FAIL
    assert "4300 digits" in json.loads(out)["error"]


def test_jac_normal_form_twenty_thousand_letters(capsys):
    # A cubic greedy takes about 3 s on 800 letters already; this word needs
    # the O(n log n) heap-driven sort.
    rng = random.Random(41)
    word = [rng.randint(-60, 60) for _ in range(20_000)]
    exponents = ",".join(halfint_str(d) for d in word)
    code, payload = _run_json(capsys, "jac", "--normal-form", f"--exponents={exponents}")
    assert code == EXIT_OK
    assert respects_commutation_order(word, payload["exponents_x2"])
    assert not respects_commutation_order(word, sorted(word))  # the check has teeth


def test_order_validate_five_thousand_block_canonical_order(capsys, tmp_path):
    # An all-pairs P check takes about 20 s on this order; the sweep is
    # O(n log n).
    rng = random.Random(41)
    jord = []
    while len(jord) < 5_000:
        a, b = rng.randint(1, 80), rng.randint(1, 80)
        if (a + b) % 2 == 1:  # good parity for SOodd and r
            jord.append({"rho": "r", "a": a, "b": b})
    jord.append({"rho": "r", "a": 4, "b": 3})  # the shrunken block of (r, 4, 5)
    ws = tmp_path / "ws.json"
    ws.write_text(_own_dim_doc(jord))
    target = ("--rho", "r", "--a0", "4", "--b0", "5")
    code, canonical = _run_json(capsys, "order", "-w", str(ws), "--param", "P", *target, "--canonical")
    assert code == EXIT_OK
    assert sorted(canonical["indices"]) == list(range(len(jord)))
    ws.write_text(_own_dim_doc(jord, order=canonical["indices"]))
    code, payload = _run_json(capsys, "order", "-w", str(ws), "--param", "P", *target, "--validate")
    assert (code, payload) == (EXIT_OK, {"violations": []})


def test_order_validate(capsys):
    code, payload = _run_json(
        capsys,
        "order", "-w", str(DEMO), "--param", "P",
        "--rho", "r", "--a0", "4", "--b0", "3", "--validate",
    )
    assert code == EXIT_OK
    assert payload == {"violations": []}


def test_order_validate_failure(capsys, tmp_path):
    doc = json.loads(DEMO.read_text())
    doc["parameters"][0]["order"] = [0, 1, 2, 3]  # (4,1) before (2,1): dominated below
    ws = tmp_path / "ws.json"
    ws.write_text(json.dumps(doc))
    code, payload = _run_json(
        capsys,
        "order", "-w", str(ws), "--param", "P",
        "--rho", "r", "--a0", "4", "--b0", "3", "--validate",
    )
    assert code == EXIT_FAIL
    assert any(v["code"] == "P" for v in payload["violations"])


@pytest.mark.parametrize("mode", ["--validate", "--canonical"])
@pytest.mark.parametrize(
    "rho, a0, b0, block",
    [("u", 1, 2, "(u,1,2)"), ("r", 4, 2, "(r,4,2)")],
    ids=["not-self-dual", "bad-parity"],
)
def test_order_rejects_target_not_of_good_parity(capsys, mode, rho, a0, b0, block):
    code, payload = _run_json(
        capsys,
        "order", "-w", str(DEMO), "--param", "P",
        "--rho", rho, "--a0", str(a0), "--b0", str(b0), mode,
    )
    assert code == EXIT_FAIL
    assert payload == {"error": f"target block {block} is not of good parity"}


def test_order_canonical(capsys):
    code, payload = _run_json(
        capsys,
        "order", "-w", str(DEMO), "--param", "P",
        "--rho", "r", "--a0", "4", "--b0", "3", "--canonical",
    )
    assert code == EXIT_OK
    assert payload["indices"] == [1, 2, 0, 3]
    assert [(b["a"], b["b"]) for b in payload["blocks"]] == [(2, 1), (2, 3), (4, 1), (4, 3)]


@pytest.mark.parametrize(
    "sizes, a0, b0, indices",
    [
        # Normal target (r,4,3): pivot (r,4,1), A'0 = 3/2; both copies end the order.
        ([(4, 1), (2, 1), (4, 1), (2, 3)], 4, 3, [1, 3, 0, 2]),
        # Exceptional target (r,3,4): pivot (r,3,2) goes first, its copy sorts.
        ([(3, 2), (2, 1), (3, 2), (1, 2)], 3, 4, [0, 3, 1, 2]),
    ],
    ids=["normal", "exceptional"],
)
def test_order_canonical_indices_with_two_pivot_copies(capsys, tmp_path, sizes, a0, b0, indices):
    ws = tmp_path / "ws.json"
    ws.write_text(_own_dim_doc([{"rho": "r", "a": a, "b": b} for a, b in sizes]))
    code, payload = _run_json(
        capsys,
        "order", "-w", str(ws), "--param", "P",
        "--rho", "r", "--a0", str(a0), "--b0", str(b0), "--canonical",
    )
    assert code == EXIT_OK
    assert payload["indices"] == indices


@pytest.mark.parametrize("mode", ["--validate", "--canonical"])
def test_order_missing_pivot_message(capsys, mode):
    # Both modes find the pivot with locate_pivot and say so alike.
    code, payload = _run_json(
        capsys,
        "order", "-w", str(DEMO), "--param", "P",
        "--rho", "r", "--a0", "2", "--b0", "7", mode,
    )
    assert code == EXIT_FAIL
    assert payload == {"error": "required block (r,2,5) absent from the order"}


@st.composite
def _repeated_pivot_orders(draw):
    """A target, a side, and a shuffled list of (rho, a, b, twist) rows holding
    several copies of that side's pivot block, copies of it that differ only
    in twist, a u/v pair of equal sizes, and repeats of other blocks. Each
    block that validate would leave unpaired comes with its partner: the
    twist twins as a pair, (r,2,3; 1/5) with (r,2,3; -1/5), u with v, and a
    bad-parity r block twice."""
    exceptional = draw(st.booleans())
    a0 = draw(st.integers(2, 4))
    b0 = a0 + 1 if exceptional else draw(st.integers(3, 6).filter(lambda b: b != a0 + 1))
    side = draw(st.sampled_from(["psi", "psi_plus"]))
    pivot = ("r", a0, b0 - 2 if side == "psi" else b0, ZERO_TWIST)
    twins = [pivot[:3] + (Fraction(1, 3),), pivot[:3] + (Fraction(-1, 3),)]
    # The group is SOodd when a0 + b0 is odd, Sp when even: an r block has
    # good parity exactly when a + b has the parity of a0 + b0.
    units = [[row] if (row[1] + row[2] - a0 - b0) % 2 == 0 else [row, row] for row in [
        ("r", 1, 1, ZERO_TWIST), ("r", 2, 1, ZERO_TWIST), ("r", 2, 3, ZERO_TWIST),
        ("r", 3, 3, ZERO_TWIST), ("r", a0, b0 + 2, ZERO_TWIST),
    ]]
    units += [
        [("r", 2, 3, Fraction(1, 5)), ("r", 2, 3, Fraction(-1, 5))],
        [("u", 2, 2, ZERO_TWIST), ("v", 2, 2, ZERO_TWIST)], twins,
    ]
    others = [row for unit in draw(st.lists(st.sampled_from(units), max_size=8)) for row in unit]
    copies = draw(st.integers(2, 4))
    rows = draw(st.permutations([pivot] * copies + others))
    return a0, b0, side, rows


@settings(max_examples=80, deadline=None)
@given(_repeated_pivot_orders())
def test_order_canonical_indices_with_repeated_blocks(case):
    a0, b0, side, rows = case
    jord = [{"rho": rho, "a": a, "b": b, "twist_num": x.numerator, "twist_den": x.denominator}
            for rho, a, b, x in rows]
    # order takes only good-parity targets: (r, a0, b0) is of good parity
    # for SOodd when a0 + b0 is odd, and for Sp when it is even.
    doc = json.loads(_own_dim_doc(jord))
    doc["group"]["kind"] = "SOodd" if (a0 + b0) % 2 else "Sp"
    doc["labels"] += [{"id": rho, "dim": 2, "self_dual": False} for rho in "uv"]
    out = io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(json.dumps(doc))), \
            contextlib.redirect_stdout(out):
        code = run([
            "order", "-w", "-", "--param", "P", "--rho", "r", "--a0", str(a0),
            "--b0", str(b0), "--side", side, "--canonical",
        ])
    assert code == EXIT_OK
    payload = json.loads(out.getvalue())
    indices = payload["indices"]
    assert sorted(indices) == list(range(len(jord)))
    assert [jord[k] for k in indices] == payload["blocks"]
    for j in range(len(indices)):
        for k in range(j + 1, len(indices)):
            if payload["blocks"][j] == payload["blocks"][k]:
                assert indices[j] < indices[k]


def test_pole_order(capsys):
    code, payload = _run_json(
        capsys,
        "pole-order", "-w", str(DEMO), "--param", "P", "--rho", "r", "--a0", "4", "--s0", "1",
    )
    assert code == EXIT_OK
    assert payload == {"order": -1}


def test_transfer_full_record(capsys):
    code, payload = _run_json(
        capsys,
        "transfer", "-w", str(DEMO), "--param", "P",
        "--rho", "r", "--a0", "4", "--b0", "3",
    )
    assert code == EXIT_OK
    assert payload["psi_plus"]["m_star"] == 32
    assert [(b["a"], b["b"]) for b in payload["psi_plus"]["jord"]] == [
        (4, 3), (2, 1), (2, 3), (4, 3),
    ]
    assert [(b["a"], b["b"]) for b in payload["order"]] == [
        (2, 1), (2, 3), (4, 3), (4, 3),
    ]
    assert payload["t"] == [0, 1, 1, 1]
    assert payload["eta"] == ["+", "+", "+", "+"]
    assert payload["pivot"] == {"position": 2, "t": 1, "eta": "+"}


def test_transfer_pivot_names_the_block_it_wrote(capsys, tmp_path):
    # A copy of the enlarged block (r,4,3) sits below the pivot (r,4,1): the
    # order fails order --validate, and transfer, which does not validate,
    # still reports the position it transported.
    doc = json.loads(DEMO.read_text())
    entry = next(p for p in doc["parameters"] if p["name"] == "P")
    entry.update(order=[3, 1, 2, 0], t=[0, 0, 0, 0], eta=["+"] * 4)
    ws = tmp_path / "ws.json"
    ws.write_text(json.dumps(doc))
    target = ("--param", "P", "--rho", "r", "--a0", "4", "--b0", "3")
    code, payload = _run_json(capsys, "order", "-w", str(ws), *target, "--validate")
    assert code == EXIT_FAIL
    assert {v["code"] for v in payload["violations"]} == {"Pp1", "Pp2"}
    code, payload = _run_json(capsys, "transfer", "-w", str(ws), *target)
    assert code == EXIT_OK
    assert [(b["a"], b["b"]) for b in payload["order"]] == [(4, 3), (2, 1), (2, 3), (4, 3)]
    assert payload["t"] == [0, 0, 0, 1]
    assert payload["pivot"] == {"position": 3, "t": 1, "eta": "+"}


def test_transfer_without_coordinates_is_an_error(capsys):
    code, payload = _run_json(
        capsys,
        "transfer", "-w", str(DEMO), "--param", "Q",
        "--rho", "r", "--a0", "2", "--b0", "3",
    )
    assert code == EXIT_FAIL
    assert "t/eta" in payload["error"]


@pytest.mark.parametrize(
    "t, eta, message",
    [
        ([0, 7], ["+", "-"],
         "[Constraint1] position 1, block (r,2,1): t=7 outside [0, 0] for block sizes (2, 1)"),
        ([0, 0], ["+", "-"], "[Constraint2] sign product is -, group requires +"),
    ],
    ids=["t-out-of-range", "sign-product"],
)
def test_transfer_rejects_inadmissible_coordinates(capsys, tmp_path, t, eta, message):
    # Transport keeps admissible coordinates admissible; it is not asked to
    # transport others, and names the first violation that validate reports.
    doc = json.loads(_param_doc([{"rho": "r", "a": 4, "b": 1}, {"rho": "r", "a": 2, "b": 1}],
                                t=t, eta=eta))
    doc["group"]["m_star"] = 6
    ws = tmp_path / "ws.json"
    ws.write_text(json.dumps(doc))
    code, payload = _run_json(capsys, "validate", "-w", str(ws))
    assert code == EXIT_FAIL
    first = payload["violations"][0]
    assert f"[{first['code']}] {first['message']}" == message
    code, payload = _run_json(
        capsys, "transfer", "-w", str(ws), "--param", "P", "--rho", "r", "--a0", "4", "--b0", "3"
    )
    assert (code, payload) == (EXIT_FAIL, {"error": message})


def test_jac_normal_form_needs_no_workspace(capsys):
    code, payload = _run_json(capsys, "jac", "--normal-form", "--exponents", "3,1")
    assert code == EXIT_OK
    assert payload == {"exponents_x2": [2, 6]}


def test_jac_normal_form_half_integers(capsys):
    code, payload = _run_json(
        capsys, "jac", "--normal-form", "--exponents", "5/2,1/2,7/2"
    )
    assert code == EXIT_OK
    assert payload == {"exponents_x2": [1, 5, 7]}


def test_jac_nonvanishing(capsys):
    code, payload = _run_json(
        capsys,
        "jac", "--nonvanishing", "-w", str(SP), "--param", "J",
        "--rho", "r", "--from", "1", "--to", "4",
    )
    assert code == EXIT_OK
    assert payload == {"nonvanishing_possible": True}


def test_irreducible(capsys):
    code, payload = _run_json(
        capsys, "irreducible", "-w", str(SP), "--param", "J", "--rho", "r", "--x", "6"
    )
    assert code == EXIT_OK
    assert payload == {"verdict": "irreducible"}
    code, payload = _run_json(
        capsys, "irreducible", "-w", str(SP), "--param", "J", "--rho", "r", "--x", "3"
    )
    assert code == EXIT_OK
    assert payload == {"verdict": "unknown"}


def test_infchar(capsys):
    code, payload = _run_json(
        capsys, "infchar", "-w", str(DEMO), "--arch", "AR", "--check-regular"
    )
    assert code == EXIT_OK
    assert payload == {"entries_x2": [3, 1, -1, -3], "regular": True}


def test_infchar_combined(capsys):
    code, payload = _run_json(
        capsys,
        "infchar", "-w", str(DEMO), "--arch", "AI",
        "--a-tau", "1", "--s0", "1", "--check-regular",
    )
    assert code == EXIT_OK
    assert payload == {"entries_x2": [2, 2, 0, -2, -2], "regular": False}


def test_arch_order(capsys):
    code, payload = _run_json(
        capsys, "arch-order", "-w", str(DEMO), "--arch", "AI", "--a-tau", "1", "--s0", "1"
    )
    assert code == EXIT_OK
    assert payload == {"order": -1}


@pytest.mark.parametrize("blocks", [[], [{"a_delta": 2, "b": 1}]], ids=["no-blocks", "one-block"])
def test_arch_order_rejects_a_tau_below_one_with_or_without_blocks(capsys, tmp_path, blocks):
    ws = tmp_path / "ws.json"
    ws.write_text(_minimal(arch=[{"name": "E", "blocks": blocks}]))
    code, payload = _run_json(
        capsys, "arch-order", "-w", str(ws), "--arch", "E", "--a-tau", "1", "--a-tau", "0", "--s0", "1"
    )
    assert code == EXIT_FAIL
    assert payload == {"error": "a_tau must be >= 1, got 0"}


def test_eisenstein_pole_and_residue(capsys):
    code, payload = _run_json(
        capsys,
        "eisenstein", "-w", str(DEMO), "--global", "G1",
        "--rho", "r", "--s0", "2", "--residue", "--local", "t",
    )
    assert code == EXIT_OK
    assert payload == {
        "kind": "pole_order_at_most_one",
        "cond1": True,
        "cond2": "true",
        "residue": "residue_is_pi_plus",
    }


def test_eisenstein_holomorphic(capsys):
    code, payload = _run_json(
        capsys,
        "eisenstein", "-w", str(DEMO), "--global", "G2", "--rho", "r", "--s0", "3/2",
    )
    assert code == EXIT_OK
    assert payload == {"kind": "holomorphic", "cond1": False, "cond2": "false"}


def test_eisenstein_s0_exact_forms(capsys):
    # A half-integer is read in either form; one below 1/2 is a domain
    # failure, not a usage error.
    argv = ("eisenstein", "-w", str(DEMO), "--global", "G2", "--rho", "r", "--s0")
    assert _run(capsys, *argv, "4/2") == _run(capsys, *argv, "2")
    assert _run(capsys, *argv, "2")[0] == EXIT_OK
    code, payload = _run_json(capsys, *argv, "-1/2")
    assert (code, payload) == (EXIT_FAIL, {"error": "s0 must be >= 1/2, got -1/2"})


@pytest.mark.parametrize(
    "prefix, option, value",
    [
        (("irreducible", "-w", str(SP), "--param", "J", "--rho", "r"), "--x", "-3/2"),
        (("jac", "--normal-form"), "--exponents", "-1,2"),
        (
            ("jac", "--nonvanishing", "-w", str(SP), "--param", "J", "--rho", "r",
             "--from", "1/2"),
            "--to",
            "-7/2",
        ),
    ],
    ids=["irreducible-x", "jac-exponents", "jac-to"],
)
def test_negative_option_values(capsys, prefix, option, value):
    joined = _run(capsys, *prefix, f"{option}={value}")
    spaced = _run(capsys, *prefix, option, value)
    assert joined[0] == EXIT_OK
    assert spaced == joined
    assert _run(capsys, *prefix, option)[0] == EXIT_USAGE  # value really missing


@pytest.mark.parametrize(
    "argv, option, value",
    [
        (("irreducible", "-w", str(SP), "--param", "J", "--rho", "r"), "--x", "3/4"),
        (("pole-order", "-w", str(DEMO), "--param", "P", "--rho", "r", "--a0", "4"),
         "--s0", "1.5"),
        (("jac", "--normal-form", "--rho", "r"), "--exponents", "1,x,2"),
        (("jac", "--nonvanishing", "-w", str(SP), "--param", "J", "--rho", "r", "--to", "4"),
         "--from", "1/3"),
        (("infchar", "-w", str(DEMO), "--arch", "AI", "--a-tau", "1"), "--s0", "half"),
        (("arch-order", "-w", str(DEMO), "--arch", "AR", "--a-tau", "2"), "--s0", "5/4"),
        (("eisenstein", "-w", str(DEMO), "--global", "G1", "--rho", "r"), "--s0", "1/0"),
        # eisenstein's --s0 is a half-integer like every other --s0: no
        # exponent notation, no decimal and no other rational.
        (("eisenstein", "-w", str(DEMO), "--global", "G1", "--rho", "r"), "--s0", "1e5"),
        (("eisenstein", "-w", str(DEMO), "--global", "G1", "--rho", "r"), "--s0", "1E-3"),
        (("eisenstein", "-w", str(DEMO), "--global", "G2", "--rho", "r"), "--s0", "1.5"),
        (("eisenstein", "-w", str(DEMO), "--global", "G2", "--rho", "r"), "--s0", "3/4"),
        # A number is an optional sign and ASCII digits: no digit-group
        # underscore and no other script's digits, which int() would take.
        (("pole-order", "-w", str(DEMO), "--param", "P", "--rho", "r", "--a0", "4"),
         "--s0", "\u0663"),
        (("eisenstein", "-w", str(DEMO), "--global", "G2", "--rho", "r"), "--s0", "1_5/2"),
        (("transfer", "-w", str(DEMO), "--param", "P", "--rho", "r", "--b0", "5"),
         "--a0", "\uff14"),
        (("jac", "--normal-form"), "--exponents", "1_0,\u0662"),
    ],
    ids=["irreducible-x", "pole-order-s0", "jac-exponents", "jac-from", "infchar-s0",
         "arch-order-s0", "eisenstein-s0", "eisenstein-s0-1e5", "eisenstein-s0-1E-3",
         "eisenstein-s0-decimal", "eisenstein-s0-quarter", "pole-order-s0-arabic-indic",
         "eisenstein-s0-underscore", "transfer-a0-full-width", "jac-exponents-underscore"],
)
def test_malformed_number_option_is_a_usage_error(capsys, argv, option, value):
    code, out, err = _run(capsys, *argv, f"{option}={value}")
    assert (code, out) == (EXIT_USAGE, "")
    bad = {"1,x,2": "x", "1_0,\u0662": "1_0"}.get(value, value)  # the token that fails
    assert f"argument {option}: " in err
    assert repr(bad) in err


def test_workspace_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(DEMO.read_text()))
    code, payload = _run_json(capsys, "packet", "-w", "-", "--param", "Q", "--count")
    assert code == EXIT_OK
    assert payload["count"] == 6


@pytest.mark.parametrize(
    "data",
    [b"\xef\xbb\xbf" + DEMO.read_bytes(), b'{"labels": [{"id": "\xff"}]}'],
    ids=["utf-8-bom", "not-utf-8"],
)
def test_workspace_from_stdin_reads_the_bytes_a_file_gives(capsys, monkeypatch, tmp_path, data):
    path = tmp_path / "ws.json"
    path.write_bytes(data)
    from_file = _run(capsys, "validate", "-w", str(path))
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    assert _run(capsys, "validate", "-w", "-") == from_file


# --- exit codes and determinism ------------------------------------------------------


def test_usage_errors_exit_64(capsys):
    assert _run(capsys, "no-such-command")[0] == EXIT_USAGE
    assert _run(capsys, "packet", "-w", str(DEMO))[0] == EXIT_USAGE  # no --param
    assert _run(capsys, "jac", "--normal-form")[0] == EXIT_USAGE  # no --exponents
    code, out, err = _run(
        capsys, "jac", "--nonvanishing", "--param", "J", "--rho", "r", "--from", "1", "--to", "4"
    )  # no --workspace
    assert (code, out) == (EXIT_USAGE, "")
    assert "this command requires --workspace" in err
    assert (
        _run(capsys, "infchar", "-w", str(DEMO), "--arch", "AI", "--a-tau", "1")[0]
        == EXIT_USAGE
    )  # --a-tau without --s0
    # The reader's own rules: an option is named in full, a flag takes no
    # value, and a value option has one.
    w = ("-w", str(DEMO))
    for argv, message in [
        (("transfer", *w, "--param", "P", "--rho", "r", "--a0", "3", "--b0", "2", "--insert", "0"),
         "unrecognized argument '--insert'"),
        (("packet", *w, "--param", "P", "--count=1"), "argument --count: takes no value"),
        (("packet", *w, "--param", "P", "--count", "--verbose"),
         "unrecognized argument '--verbose'"),
        (("packet", *w, "--count", "--param"), "argument --param: expected a value"),
        (("packet", *w, "--param", "P", "--count", "--", "x"), "unrecognized argument '--'"),
    ]:
        assert _run(capsys, *argv) == (EXIT_USAGE, "", f"apackets {argv[0]}: error: {message}\n")


def test_help_prints_a_usage_line_and_a_summary_per_command(capsys):
    code, out, err = _run(capsys, "--help")
    assert (code, err) == (EXIT_OK, "")
    lines = out.splitlines()
    assert [line.split()[1] for line in lines[::2]] == list(cli._COMMANDS)
    assert lines[0] == "apackets validate -w WORKSPACE [--param PARAM]"
    assert _run(capsys, "packet", "-w", "x", "-h") == (
        EXIT_OK,
        "apackets packet -w WORKSPACE --param PARAM [--count] [--list] [--epsilon EPSILON]\n"
        "    count or list packet coordinates\n",
        "",
    )


def test_readme_usage_names_each_commands_options():
    """README's usage block and _COMMANDS name the same options for each command."""
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    named: dict[str, set] = {}
    for line in block.replace("\\\n", " ").splitlines():
        named.setdefault(line.split()[1], set()).update(re.findall(r"(?<![\w-])--?[a-z][\w-]*", line))
    assert named == {
        command: {names.split()[0] for names, *_ in row[2]}
        for command, row in cli._COMMANDS.items()
    }


@pytest.mark.parametrize(
    "argv, message",
    [
        (("transfer", "--param", "P", "--rho", "r", "--a0", "4", "--b0", "3",
          "--insert-position", "9"), "--insert-position applies only when --b0 is 2"),
        (("transfer", "--param", "P", "--rho", "r", "--a0", "3", "--b0", "2"),
         "--b0 2 requires --insert-position"),
        (("infchar", "--arch", "AI", "--s0", "1"), "--s0 requires --a-tau"),
        (("infchar", "--arch", "AI", "--a-tau", "1"), "--a-tau requires --s0"),
    ],
    ids=["insert-position-without-fresh-block", "fresh-block-without-insert-position",
         "s0-without-a-tau", "a-tau-without-s0"],
)
def test_option_pairing_is_checked_before_the_workspace(capsys, tmp_path, argv, message):
    # The workspace does not exist, so a check made after reading it would exit 2.
    code, out, err = _run(capsys, *argv, "-w", str(tmp_path / "nope.json"))
    assert (code, out) == (EXIT_USAGE, "")
    assert message in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("jac", "--normal-form", "--exponents=1,3", "--param", "P", "--from", "1", "--to", "2"),
         "--param applies only to --nonvanishing"),
        (("jac", "--normal-form", "--exponents=1,3", "--from", "1"),
         "--from applies only to --nonvanishing"),
        (("jac", "--normal-form", "--exponents=1,3", "--to", "2"),
         "--to applies only to --nonvanishing"),
        (("jac", "--normal-form", "--exponents=1,3"),
         "--workspace applies only to --nonvanishing"),
        (("jac", "--nonvanishing", "--param", "J", "--rho", "r", "--from", "1", "--to", "4",
          "--exponents=1,2"), "--exponents applies only to --normal-form"),
    ],
    ids=["normal-form-param", "normal-form-from", "normal-form-to", "normal-form-workspace",
         "nonvanishing-exponents"],
)
def test_jac_rejects_the_other_modes_options(capsys, tmp_path, argv, message):
    # Checked before the (missing) workspace is read, which would exit 2.
    code, out, err = _run(capsys, *argv, "-w", str(tmp_path / "nope.json"))
    assert (code, out) == (EXIT_USAGE, "")
    assert message in err


def test_jac_nonvanishing_without_rho_is_a_usage_error(capsys):
    code, out, err = _run(
        capsys, "jac", "--nonvanishing", "-w", str(SP), "--param", "J", "--from", "1", "--to", "4"
    )
    assert (code, out) == (EXIT_USAGE, "")
    assert "--nonvanishing requires --param, --rho, --from, and --to" in err


def test_usage_error_text_goes_to_stderr(capsys):
    code, out, err = _run(capsys, "jac", "--normal-form")
    assert code == EXIT_USAGE
    assert out == ""
    assert "error" in err


def test_missing_file_reports_error(capsys, tmp_path):
    code, payload = _run_json(capsys, "validate", "-w", str(tmp_path / "nope.json"))
    assert code == EXIT_FAIL
    assert "error" in payload


def _closed_pipe():
    """The write end of a pipe whose read end is closed: a write fails at once."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    return write_end


def _dev_full():
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this system")
    return os.open("/dev/full", os.O_WRONLY)


_EIGHT_BLOCKS = _own_dim_doc([{"rho": "r", "a": 2, "b": 3}] * 8)  # an answer of 813 KB


@pytest.mark.parametrize("sink", [_closed_pipe, _dev_full], ids=["closed-pipe", "dev-full"])
@pytest.mark.parametrize(
    "argv, stdin",
    [(["validate", "-w", str(DEMO)], None),
     (["packet", "-w", "-", "--param", "P", "--list"], _EIGHT_BLOCKS)],
    ids=["small-answer", "large-answer"],
)
def test_a_failed_write_of_the_answer_exits_2_with_one_line(sink, argv, stdin):
    """A reader that is gone or a full disk: exit 2 with one line on stderr,
    no traceback. Buffered stdout (no PYTHONUNBUFFERED) holds a small answer
    until the flush at exit; a large one fails while it is written."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    fd = sink()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "apackets.cli", *argv], input=stdin, stdout=fd,
            stderr=subprocess.PIPE, text=True, env={**env, "PYTHONPATH": str(SRC)}, timeout=60,
        )
    finally:
        os.close(fd)
    assert proc.returncode == EXIT_FAIL
    assert re.fullmatch(r"apackets: cannot write the answer: \[Errno \d+\] [^\n]+\n", proc.stderr)


# --- names looked up in the workspace --------------------------------------------------

# Each workspace command, with names the demo workspace declares; and for each
# option that names a record, the message for a name the workspace lacks, in
# the order the names are looked up.
_NAMED = {
    "validate": ["--param", "P"],
    "packet": ["--param", "P", "--count"],
    "order": ["--param", "P", "--rho", "r", "--a0", "4", "--b0", "3", "--validate"],
    "pole-order": ["--param", "P", "--rho", "r", "--a0", "4", "--s0", "1"],
    "transfer": ["--param", "P", "--rho", "r", "--a0", "4", "--b0", "3"],
    "jac": ["--nonvanishing", "--rho", "r", "--param", "P", "--from", "1/2", "--to", "3/2"],
    "irreducible": ["--param", "P", "--rho", "r", "--x", "5/2"],
    "infchar": ["--arch", "AR"],
    "arch-order": ["--arch", "AR", "--a-tau", "2", "--s0", "1"],
    "eisenstein": ["--rho", "r", "--global", "G1", "--s0", "2"],
}
_MISSING = {
    "--param": "unknown parameter",
    "--arch": "unknown arch input",
    "--global": "unknown global datum",
    "--rho": "undeclared label",
}


def _renamed(command, options, name="zz"):
    """The command's _NAMED argv with the value of each of ``options`` replaced."""
    argv = ["-w", str(DEMO), *_NAMED[command]]
    for option in options:
        argv[argv.index(option) + 1] = name
    return [command, *argv]


@pytest.mark.parametrize(
    "command, option",
    [(c, o) for c, argv in _NAMED.items() for o in argv if o in _MISSING],
)
def test_unknown_name_exits_2_with_its_message(capsys, command, option):
    assert _run(capsys, *_renamed(command, []))[0] == EXIT_OK
    code, out, err = _run(capsys, *_renamed(command, [option]))
    assert (code, json.loads(out), err) == (EXIT_FAIL, {"error": f"{_MISSING[option]}: 'zz'"}, "")


@pytest.mark.parametrize("command", _NAMED)
def test_first_unknown_name_in_lookup_order_is_reported(capsys, command):
    # jac --nonvanishing and eisenstein give --rho first on the command line.
    options = [o for o in _NAMED[command] if o in _MISSING]
    first = next(o for o in _MISSING if o in options)
    code, payload = _run_json(capsys, *_renamed(command, options))
    assert (code, payload) == (EXIT_FAIL, {"error": f"{_MISSING[first]}: 'zz'"})


@pytest.mark.parametrize("fault", ["missing file", "schema"])
@pytest.mark.parametrize("command", _NAMED)
def test_workspace_faults_come_before_names(capsys, tmp_path, command, fault):
    path = tmp_path / "ws.json"
    if fault == "schema":
        path.write_text("{}")
        error = "/: missing required key 'labels'"
    else:
        error = str(FileNotFoundError(2, os.strerror(2), str(path)))
    argv = _renamed(command, [o for o in _NAMED[command] if o in _MISSING])
    argv[argv.index("-w") + 1] = str(path)
    code, payload = _run_json(capsys, *argv)
    assert (code, payload) == (EXIT_FAIL, {"error": error})


def _golden_id(k: int, argv: list) -> str:
    shown = [a for i, a in enumerate(argv) if "-w" not in (a, argv[i - 1] if i else None)]
    return f"{k}-{' '.join(shown)}"


@pytest.mark.parametrize("case", GOLDEN, ids=[_golden_id(k, c["argv"]) for k, c in enumerate(GOLDEN)])
def test_golden_bytes(capsys, monkeypatch, case):
    """The benchmark's recorded fixture outputs, byte for byte, with the
    workspace read from its file and then from stdin, which can be read once."""
    monkeypatch.chdir(ROOT)
    argv = case["argv"]
    code, out, _ = _run(capsys, *argv)
    assert (code, out) == (case["code"], case["stdout"])
    if "-w" in argv:
        k = argv.index("-w") + 1
        monkeypatch.setattr(sys, "stdin", io.StringIO(Path(argv[k]).read_text()))
        code, out, _ = _run(capsys, *argv[:k], "-", *argv[k + 1:])
        assert (code, out) == (case["code"], case["stdout"])


def test_repeated_runs_are_byte_identical(capsys):
    args = ("transfer", "-w", str(DEMO), "--param", "P", "--rho", "r", "--a0", "4", "--b0", "3")
    _, first, _ = _run(capsys, *args)
    _, second, _ = _run(capsys, *args)
    assert first == second
    assert first.endswith("\n")
    assert json.dumps(json.loads(first), sort_keys=True, indent=2) + "\n" == first


# --- one process, many queries ---------------------------------------------------------

_W = ("-w", "tests/data/demo_workspace.json")
_MIXED_ARGVS = [case["argv"] for case in GOLDEN] + [
    [],
    ["no-such-command"],
    ["validate", "--help"],
    ["packet", *_W],
    ["packet", *_W, "--param", "P", "--count", "--list"],
    ["order", *_W, "--param", "P", "--rho", "r", "--a0", "x", "--b0", "3", "--validate"],
    ["jac", "--normal-form"],
    ["jac", "--normal-form", "--exponents"],
    ["infchar", *_W, "--arch", "AI", "--a-tau", "1"],
    ["eisenstein", *_W, "--global", "G1", "--rho", "r", "--s0", "2", "--local", "x"],
    ["arch-order", *_W, "--arch", "AR", "--a-tau", "2", "--s0", "1"],
    ["arch-order", *_W, "--arch", "AR", "--a-tau", "2", "--a-tau", "3", "--a-tau", "1",
     "--s0", "1"],
    ["eisenstein", *_W, "--global", "G1", "--rho", "r", "--s0", "2", "--local", "t",
     "--local", "u", "--residue"],
    ["eisenstein", *_W, "--global", "G1", "--rho", "r", "--s0", "2", "--residue"],
    ["irreducible", *_W, "--param", "P", "--rho", "r", "--x", "-5/2"],
    ["jac", "--normal-form", "--rho", "r", "--exponents", "-1,2"],
    ["jac", "--nonvanishing", *_W, "--param", "P", "--rho", "r", "--from", "3/2",
     "--to", "-7/2"],
    ["pole-order", *_W, "--param", "P", "--rho", "r", "--a0", "-4", "--s0", "-1"],
    ["validate", *_W, "--param", "nope"],
]


def test_one_process_answers_as_a_fresh_process_per_query(capsys, monkeypatch):
    """The reader keeps no state between queries: each answer (exit code,
    stdout and stderr) equals that of a fresh process."""
    env = {**os.environ, "PYTHONPATH": str(SRC), "COLUMNS": "80"}
    fresh = []
    for argv in _MIXED_ARGVS:
        proc = subprocess.run(
            [sys.executable, "-m", "apackets.cli", *argv],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
        )
        fresh.append((proc.returncode, proc.stdout, proc.stderr))
    assert {code for code, _, _ in fresh} == {EXIT_OK, EXIT_FAIL, EXIT_USAGE}
    monkeypatch.chdir(ROOT)
    monkeypatch.setenv("COLUMNS", "80")
    for _ in range(2):
        assert [_run(capsys, *argv) for argv in _MIXED_ARGVS] == fresh


# --- the canonical writer ---------------------------------------------------------------

_TEXT = st.text(st.characters(min_codepoint=0, max_codepoint=0x10FFFF, exclude_categories=()))
_SCALARS = (
    _TEXT
    | st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64, max_value=2**200)
    | st.integers(min_value=-(2**200), max_value=-(2**64))
)
_BLOCKS = st.builds(
    JordanBlock,
    _TEXT,
    st.integers(min_value=1) | st.integers(min_value=2**64, max_value=2**200),
    st.integers(min_value=1),
    st.just(ZERO_TWIST)
    | st.fractions(Fraction(-1, 2), Fraction(1, 2)).filter(lambda x: abs(x) != Fraction(1, 2)),
)
_TREES = st.recursive(
    _SCALARS | _BLOCKS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=30,
)


def _rows(value):
    """The tree with each block replaced by its jord row of all five keys."""
    if isinstance(value, JordanBlock):
        twist = value.twist
        return {"rho": value.rho, "a": value.a, "b": value.b,
                "twist_num": twist.numerator, "twist_den": twist.denominator}
    if isinstance(value, dict):
        return {k: _rows(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(map(_rows, value))
    return value


@settings(max_examples=200, deadline=None)
@given(_TREES)
def test_canonical_json_matches_json_dumps(value):
    assert canonical_json(value) == json.dumps(_rows(value), sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize(
    "value",
    ["\x00\x1f\"\\/é \U0001f600\ud800", [[], {}, (), [[]], {"": {}}], (1, (2,)),
     {"b": 1, "a": [True, False, None], "\U0001f600": -(2**70)},
     JordanBlock("\x00\x1f\"\\/é \U0001f600\ud800", 2, 1),
     {"k": [[JordanBlock("r", 3, 5, Fraction(-3, 7))]]},
     (JordanBlock("r", int("9" * 4300), 1, Fraction(1, int("9" * 4300))),),
     {"order": (), "jord": [JordanBlock("u", 1, 1), JordanBlock("v", 1, 1, Fraction(-1, 3))]}],
    ids=["escapes", "empty-containers", "nested-tuples", "mixed", "block-label-escapes",
         "block-negative-twist", "block-4300-digits", "blocks-mixed"],
)
def test_canonical_json_edge_values(value):
    assert canonical_json(value) == json.dumps(_rows(value), sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize(
    "block",
    [JordanBlock("r", 10**4300, 1), JordanBlock("r", 1, 10**4300),
     JordanBlock("r", 1, 1, Fraction(1, 10**4300))],
    ids=["a", "b", "twist_den"],
)
def test_canonical_json_too_long_int_in_a_block_keeps_the_message(block):
    with pytest.raises(ValueError) as want:
        json.dumps(_rows([block]))
    with pytest.raises(ValueError) as got:
        canonical_json([block])
    assert str(got.value) == str(want.value)
    assert "4300 digits" in str(got.value)


@pytest.mark.parametrize(
    "value",
    [Fraction(1, 2), {1, 2}, 1.5, {"k": [0, 0.0]}],
    ids=["fraction", "set", "float", "nested-float"],
)
def test_canonical_json_rejects_other_types(value):
    with pytest.raises(TypeError):
        canonical_json(value)


def test_deep_nesting_is_a_workspace_error(capsys, monkeypatch):
    depth = 100_000  # past the decoder's recursion limit on every supported version
    text = "[" * depth + "]" * depth
    with pytest.raises(WorkspaceError) as excinfo:
        parse_workspace(text)
    assert (excinfo.value.pointer, excinfo.value.message) == ("", "invalid JSON: nesting too deep")
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, payload = _run_json(capsys, "validate", "-w", "-")
    assert (code, payload) == (EXIT_FAIL, {"error": "/: invalid JSON: nesting too deep"})
