"""Tests for the JSON workspace format and the command-line interface."""

import contextlib
import io
import json
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apackets.cli import (
    EXIT_FAIL,
    EXIT_OK,
    EXIT_USAGE,
    WorkspaceError,
    parse_workspace,
    run,
    serialize_workspace,
)

DATA = Path(__file__).parent / "data"
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


def test_workspace_error_str_carries_pointer():
    err = WorkspaceError("/labels/0/dim", "expected an integer, got str")
    assert str(err) == "/labels/0/dim: expected an integer, got str"


# --- serialization -----------------------------------------------------------------


def test_fixture_files_are_canonical():
    for path in (DEMO, SP):
        text = path.read_text()
        assert serialize_workspace(parse_workspace(text)) == text


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


def test_order_canonical(capsys):
    code, payload = _run_json(
        capsys,
        "order", "-w", str(DEMO), "--param", "P",
        "--rho", "r", "--a0", "4", "--b0", "3", "--canonical",
    )
    assert code == EXIT_OK
    assert payload["indices"] == [1, 2, 0, 3]
    assert [(b["a"], b["b"]) for b in payload["blocks"]] == [(2, 1), (2, 3), (4, 1), (4, 3)]


@st.composite
def _repeated_pivot_orders(draw):
    """A target, a side, and a shuffled block list holding several copies of
    that side's pivot block and repeats of other blocks."""
    exceptional = draw(st.booleans())
    a0 = draw(st.integers(2, 4))
    b0 = a0 + 1 if exceptional else draw(st.integers(3, 6).filter(lambda b: b != a0 + 1))
    side = draw(st.sampled_from(["psi", "psi_plus"]))
    pivot = (a0, b0 - 2) if side == "psi" else (a0, b0)
    others = draw(
        st.lists(st.sampled_from([(1, 1), (2, 1), (2, 3), (3, 3), (a0, b0 + 2)]), max_size=5)
    )
    copies = draw(st.integers(2, 4))
    blocks = draw(st.permutations([pivot] * copies + others))
    return a0, b0, side, blocks


@settings(max_examples=60, deadline=None)
@given(_repeated_pivot_orders())
def test_order_canonical_indices_with_repeated_blocks(case):
    a0, b0, side, sizes = case
    jord = [{"rho": "r", "a": a, "b": b, "twist_num": 0, "twist_den": 1} for a, b in sizes]
    out = io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(_param_doc(jord))), \
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


def test_transfer_without_coordinates_is_an_error(capsys):
    code, payload = _run_json(
        capsys,
        "transfer", "-w", str(DEMO), "--param", "Q",
        "--rho", "r", "--a0", "2", "--b0", "3",
    )
    assert code == EXIT_FAIL
    assert "t/eta" in payload["error"]


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


def test_workspace_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(DEMO.read_text()))
    code, payload = _run_json(capsys, "packet", "-w", "-", "--param", "Q", "--count")
    assert code == EXIT_OK
    assert payload["count"] == 6


# --- exit codes and determinism ------------------------------------------------------


def test_usage_errors_exit_64(capsys):
    assert _run(capsys, "no-such-command")[0] == EXIT_USAGE
    assert _run(capsys, "packet", "-w", str(DEMO))[0] == EXIT_USAGE  # no --param
    assert _run(capsys, "jac", "--normal-form")[0] == EXIT_USAGE  # no --exponents
    assert (
        _run(capsys, "infchar", "-w", str(DEMO), "--arch", "AI", "--a-tau", "1")[0]
        == EXIT_USAGE
    )  # --a-tau without --s0


def test_usage_error_text_goes_to_stderr(capsys):
    code, out, err = _run(capsys, "jac", "--normal-form")
    assert code == EXIT_USAGE
    assert out == ""
    assert "error" in err


def test_missing_file_reports_error(capsys, tmp_path):
    code, payload = _run_json(capsys, "validate", "-w", str(tmp_path / "nope.json"))
    assert code == EXIT_FAIL
    assert "error" in payload


def test_repeated_runs_are_byte_identical(capsys):
    args = ("transfer", "-w", str(DEMO), "--param", "P", "--rho", "r", "--a0", "4", "--b0", "3")
    _, first, _ = _run(capsys, *args)
    _, second, _ = _run(capsys, *args)
    assert first == second
    assert first.endswith("\n")
    assert json.dumps(json.loads(first), sort_keys=True, indent=2) + "\n" == first
