"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. Every expected value here
is produced by an oracle written independently of the implementation:
exhaustive searches, brute-force enumerations, or hand-checked fixtures.
"""

import itertools
import json
import random
import time
from pathlib import Path

import pytest

from apackets.archimedean import ArchBlock, combined_inf_char, is_regular, arch_lfactor_order, normalization_order
from apackets.cli import parse_workspace, serialize_workspace
from apackets.core_types import LContext, MINUS, PLUS, TriBool
from apackets.eisenstein import (
    GlobalJord,
    ResidueOutcome,
    VerdictKind,
    eisenstein_verdict,
    global_pole_conditions,
    residue_verdict,
)
from apackets.jacquet import JacSequence, jac_nonvanishing_necessary, jac_normal_form
from apackets.jordan import JordanBlock, to_quadruple
from apackets.lfactors import pole_contribution_table
from apackets.packets import (
    PSI_PLUS_SIDE,
    PSI_SIDE,
    TargetTriple,
    admissible_pairs,
    canonical_order,
    check_constraint1,
    enumerate_params,
    validate_order,
    validate_params,
)
from apackets.transfer import apply_transfer, check_sign_identity, transfer_params
from _helpers import (
    canonical_blocks,
    commutation_class_min,
    from_quadruple,
    pivot_block,
    pole_contribution_interval,
)

SEED = 20260819
DATA = Path(__file__).parent / "data"


def _blk(a: int, b: int) -> JordanBlock:
    return JordanBlock(rho="r", a=a, b=b)


# --- criterion 1: the two pole-criterion routes agree on the full grid -------------


def test_criterion_1_pole_route_equivalence():
    quads = {
        (a, b): to_quadruple(a, b)
        for a in range(1, 17)
        for b in range(1, 17)
    }
    checked = 0
    started = time.perf_counter()
    for a0 in range(1, 17):
        for b0 in range(2, 17):
            tq = quads[a0, b0]
            for a in range(1, 17):
                for b in range(1, 17):
                    assert pole_contribution_table(
                        quads[a, b], tq
                    ) == pole_contribution_interval(a, b, a0, b0), (a, b, a0, b0)
                    checked += 1
    elapsed = time.perf_counter() - started
    assert checked == 16 * 16 * 16 * 15
    assert elapsed < 1.0, f"grid took {elapsed:.3f}s"
    print(f"\nPASS criterion 1: pole routes agree on {checked} cases in {elapsed:.3f}s")


# --- criterion 2: enlargement is sound and injective on packet coordinates ----------


def test_criterion_2_transfer_soundness():
    checked = 0
    for a0 in range(1, 13):
        for b0 in range(2, 13):
            if b0 == 2:
                sources = [(0, PLUS)]
            else:
                sources = list(admissible_pairs(a0, b0 - 2))
            images = []
            for t0, eta0 in sources:
                t_plus, eta_plus = transfer_params(t0, eta0, a0, b0)
                assert check_constraint1(a0, b0, t_plus, eta_plus) is None, (
                    a0, b0, t0, eta0, t_plus, eta_plus,
                )
                assert check_sign_identity(a0, b0, t0, eta0), (a0, b0, t0, eta0)
                images.append((t_plus, eta_plus))
                checked += 1
            assert len(set(images)) == len(images), (a0, b0, images)
    print(f"\nPASS criterion 2: transfer sound and injective on {checked} source pairs")


# --- criterion 3: packet enumeration matches brute force ----------------------------


def _brute_force_members(blocks, epsilon):
    """Independent enumeration: all per-block coordinate choices whose sign
    product is epsilon, with the top-of-range sign collapsed to +."""
    per_block = []
    for blk in blocks:
        m = min(blk.a, blk.b)
        options = []
        for t in range(m // 2 + 1):
            signs = (PLUS,) if 2 * t == m else (PLUS, MINUS)
            for eta in signs:
                sign = (eta ** m) * ((-1) ** (m // 2 + t))
                options.append((t, eta, sign))
        per_block.append(options)
    members = set()
    for combo in itertools.product(*per_block):
        product = 1
        for _, _, sign in combo:
            product *= sign
        if product == epsilon:
            members.add(
                (tuple(t for t, _, _ in combo), tuple(e for _, e, _ in combo))
            )
    return members


def test_criterion_3_packet_enumeration_matches_brute_force():
    rng = random.Random(SEED)
    cases = 0
    for _ in range(500):
        blocks = [
            _blk(rng.randint(1, 6), rng.randint(1, 6))
            for _ in range(rng.randint(1, 4))
        ]
        for epsilon in (PLUS, MINUS):
            got = {
                (p.t, p.eta) for p in enumerate_params(blocks, epsilon)
            }
            assert got == _brute_force_members(blocks, epsilon), (blocks, epsilon)
            cases += 1
    print(f"\nPASS criterion 3: packet enumeration matches brute force on {cases} cases")


# --- criterion 4: the normal form is the commutation-class minimum ------------------


def test_criterion_4_normal_form_confluence():
    rng = random.Random(SEED)
    for _ in range(1000):
        word = tuple(rng.randint(-6, 6) for _ in range(rng.randint(0, 8)))
        nf = jac_normal_form(JacSequence("r", word))
        assert nf.exponents == commutation_class_min(word), word
    print("\nPASS criterion 4: normal form equals the class minimum on 1000 words")


# --- criterion 5: the chain search matches exhaustive sequence enumeration ----------


def _chain_oracle(quads, start_d, stop_x2):
    stop_abs = abs(stop_x2)

    def signed(q):
        return q.B_x2 if q.zeta == PLUS else -q.B_x2

    n = len(quads)
    for k in range(1, n + 1):
        for seq in itertools.permutations(range(n), k):
            if signed(quads[seq[0]]) != start_d:
                continue
            if any(
                quads[seq[i + 1]].B_x2 > quads[seq[i]].A_x2 + 2
                for i in range(k - 1)
            ):
                continue
            if quads[seq[-1]].A_x2 >= stop_abs:
                return True
    return False


def test_criterion_5_chain_criterion_matches_exhaustive_search():
    from apackets.jordan import ArthurParameter
    from apackets.core_types import GroupKind, GroupType

    rng = random.Random(SEED)
    hits = 0
    for _ in range(500):
        blocks = [
            _blk(rng.randint(1, 8), rng.randint(1, 8))
            for _ in range(rng.randint(1, 5))
        ]
        psi = ArthurParameter(GroupType(GroupKind.SP, 1), tuple(blocks))
        quads = [to_quadruple(b.a, b.b) for b in blocks]
        if rng.random() < 0.5:
            q = rng.choice(quads)
            start = q.B_x2 if q.zeta == PLUS else -q.B_x2
        else:
            start = rng.randint(-8, 8)
        stop = start + 2 * rng.randint(-4, 4)
        got = jac_nonvanishing_necessary(psi, "r", start, stop)
        want = _chain_oracle(quads, start, stop)
        assert got == want, (blocks, start, stop)
        hits += got
    assert 0 < hits < 500  # both outcomes exercised
    print(f"\nPASS criterion 5: chain criterion matches exhaustive search (500 cases, {hits} nonzero)")


# --- criterion 6: regular infinitesimal character means no Gamma pole ---------------


def test_criterion_6_regularity_excludes_poles():
    checked = 0
    for a_tau in range(1, 10):
        for a_delta in range(1, 10):
            for b in range(1, 10):
                for d in range(1, 10):
                    s0 = d
                    block = ArchBlock(a_delta, b)
                    if is_regular(combined_inf_char([block], a_tau, s0)):
                        assert arch_lfactor_order(a_tau, a_delta, b, s0) == 0, (
                            a_tau, a_delta, b, s0,
                        )
                    checked += 1
    # An irregular witness with an actual pole.
    assert normalization_order([1], [ArchBlock(1, 3)], 2) == -1
    print(f"\nPASS criterion 6: regularity excludes poles across {checked} grid points")


# --- criterion 7: pole/residue verdict fixture -------------------------------------


def test_criterion_7_eisenstein_fixture():
    ctx = LContext(
        universe={"r", "s", "w"},
        rg_pole_at_1=["r"],
        nonvanishing=[("r", "r")],
        vanishing=[("r", "s")],
    )
    T, F, U = TriBool.TRUE, TriBool.FALSE, TriBool.UNKNOWN
    POLE, HOLO = VerdictKind.POLE_ORDER_AT_MOST_ONE, VerdictKind.HOLOMORPHIC
    NONE_, PI, UND = (
        ResidueOutcome.NO_RESIDUE,
        ResidueOutcome.RESIDUE_IS_PI_PLUS,
        ResidueOutcome.UNDETERMINED,
    )
    cases = [
        # (jord pairs, rho, s0_x2, kind, cond1, cond2, places, residue)
        ([("r", 3)], "r", 4, POLE, True, T, [T], PI),
        ([("r", 3)], "r", 4, POLE, True, T, [], PI),
        ([("r", 3)], "r", 4, POLE, True, T, [T, U], UND),
        ([("r", 3)], "r", 4, POLE, True, T, [U, F], NONE_),
        ([("r", 3), ("s", 3)], "r", 3, HOLO, False, F, [T], NONE_),
        ([("r", 2)], "r", 1, POLE, True, T, [T], PI),
        ([("s", 2)], "s", 1, HOLO, False, T, [T], NONE_),
        ([("r", 1), ("w", 2)], "r", 2, HOLO, True, U, [T], NONE_),
        ([("r", 1), ("r", 2)], "r", 2, POLE, True, T, [T, T], PI),
        ([("r", 4)], "r", 4, HOLO, False, T, [T], NONE_),
    ]
    for pairs, rho, s0_x2, kind, cond1, cond2, places, residue in cases:
        jord = GlobalJord(tuple(pairs))
        verdict = eisenstein_verdict(jord, rho, s0_x2, ctx)
        assert verdict.kind is kind, (pairs, rho, s0_x2)
        assert verdict.cond1 is cond1, (pairs, rho, s0_x2)
        assert verdict.cond2 is cond2, (pairs, rho, s0_x2)
        assert residue_verdict(verdict, places) is residue, (pairs, rho, s0_x2, places)
    with pytest.raises(ValueError):
        global_pole_conditions(GlobalJord((("r", 3),)), "r", 0, ctx)
    with pytest.raises(ValueError):
        global_pole_conditions(GlobalJord((("r", 3),)), "zz", 2, ctx)
    print(f"\nPASS criterion 7: verdict fixture covers {len(cases)} cases plus 2 error paths")


# --- criterion 8: round-trips and canonical-order admissibility ---------------------


def test_criterion_8_round_trips():
    # Block sizes <-> quadruple coordinates.
    for a in range(1, 51):
        for b in range(1, 51):
            q = to_quadruple(a, b)
            assert from_quadruple(q.A_x2, q.B_x2, q.zeta) == (a, b)

    # Workspace corpus: canonical files are fixed points of parse -> serialize.
    for path in sorted(DATA.glob("*.json")):
        text = path.read_text()
        once = serialize_workspace(parse_workspace(text))
        assert once == text, path.name
        assert serialize_workspace(parse_workspace(once)) == once, path.name

    # Canonical orders pass their own validation on both sides.
    rng = random.Random(SEED)
    cases = 0
    for _ in range(150):
        a0 = rng.randint(1, 6)
        b0 = rng.randint(2, 8)
        target = TargetTriple("r", a0, b0)
        parity = (a0 + b0) % 2
        blocks = []
        for _ in range(rng.randint(0, 4)):
            a = rng.randint(1, 8)
            b = rng.choice([v for v in range(1, 9) if (a + v) % 2 == parity])
            blocks.append(_blk(a, b))
        psi_side = blocks + ([target.prime] if b0 > 2 else [])
        ordered = canonical_blocks(psi_side, target, PSI_SIDE)
        assert validate_order(ordered, target, PSI_SIDE) == [], (psi_side, a0, b0)
        cases += 1
        plus_side = blocks + [target.plus]
        ordered = canonical_blocks(plus_side, target, PSI_PLUS_SIDE)
        assert validate_order(ordered, target, PSI_PLUS_SIDE) == [], (plus_side, a0, b0)
        cases += 1
    print(f"\nPASS criterion 8: round-trips hold; {cases} canonical orders validate")


# --- criterion 9: admissible orders exist, and transfer keeps them admissible ------


def _class_blocks(parity: int) -> list[JordanBlock]:
    """The good-parity r blocks with a, b <= 4 of one class: a + b odd is
    good parity for SOodd, a + b even for Sp and Oeven."""
    return [_blk(a, b) for a in range(1, 5) for b in range(1, 5) if (a + b) % 2 == parity]


def _class_multisets(parity: int, r_only: int, with_rs: int) -> list[tuple[JordanBlock, ...]]:
    """Multisets of at most ``r_only`` blocks of the class, then those of at
    most ``with_rs`` blocks that hold at least one rs block of good parity for
    the class's group. rs is symplectic, so such a block has a + b even for
    SOodd and odd for Sp: the other parity than the class's r blocks."""
    r_pool = _class_blocks(parity)
    pool = r_pool + [JordanBlock("rs", a, b) for a in range(1, 5) for b in range(1, 5)
                     if (a + b) % 2 != parity]
    combos = [combo for k in range(r_only + 1)
              for combo in itertools.combinations_with_replacement(r_pool, k)]
    combos += [combo for k in range(1, with_rs + 1)
               for combo in itertools.combinations_with_replacement(pool, k)
               if any(blk.rho == "rs" for blk in combo)]
    return combos


def _class_targets(parity: int) -> list[TargetTriple]:
    """Targets (r, a0, b0) of the class with a0 <= 4 and 2 <= b0 <= 4, so the
    pivot block on either side is a block of the class."""
    return [TargetTriple("r", a0, b0) for a0 in range(1, 5) for b0 in range(2, 5)
            if (a0 + b0) % 2 == parity]


def test_criterion_9_admissible_orders_exist_and_transfer_keeps_them():
    """Good-parity r blocks of both classes and the rs blocks of good parity
    for the same group, a and b at most 4, every target whose pivot block is
    one of the r blocks, on both sides.

    Search: at most 3 r blocks, or at most 2 blocks with an rs block among
    them, besides the pivot; every distinct order tried until one passes
    validate_order; the canonical order passes too.
    Transfer: on the small side, at most 2 r blocks, or 1 rs block, besides
    the pivot; every member of both signs of the canonical order,
    transferred, passes validate_order on the enlarged side and
    validate_params; for b0 = 2 some insert position passes both. The two
    parts took 0.5-0.7 s and 0.2-0.3 s on a 2-vCPU VM (Python 3.11). One more
    block with rs would take the search to 3 s and the transfer to 0.8 s.
    """
    started = time.perf_counter()
    searched = tried = 0
    for parity in (0, 1):
        others = _class_multisets(parity, 3, 2)
        for target in _class_targets(parity):
            for side in (PSI_SIDE, PSI_PLUS_SIDE):
                pivot = pivot_block(target, side)
                for combo in others:
                    blocks = list(combo) + ([pivot] if pivot is not None else [])
                    if not blocks:
                        continue
                    found = False
                    for order in dict.fromkeys(itertools.permutations(blocks)):
                        tried += 1
                        if validate_order(order, target, side) == []:
                            found = True
                            break
                    assert found, (blocks, target, side)
                    ordered = canonical_blocks(blocks, target, side)
                    assert validate_order(ordered, target, side) == [], (blocks, target, side)
                    searched += 1
    search_s = time.perf_counter() - started

    started = time.perf_counter()
    moved = members = 0
    for parity in (0, 1):
        others = _class_multisets(parity, 2, 1)
        for target in _class_targets(parity):
            prime = target.prime
            for combo in others:
                blocks = list(combo) + ([prime] if prime is not None else [])
                ordered = canonical_blocks(blocks, target, PSI_SIDE)
                # b0 = 2 inserts a fresh block: some position must do.
                positions = [None] if prime is not None else range(len(ordered) + 1)
                for epsilon in (PLUS, MINUS):
                    for params in enumerate_params(ordered, epsilon):
                        moves = [apply_transfer(ordered, params, target, pos) for pos in positions]
                        assert any(
                            validate_order(order, target, PSI_PLUS_SIDE) == []
                            and validate_params(order, moved_params, epsilon) == []
                            for order, moved_params, _ in moves
                        ), (ordered, params, target)
                        members += 1
                moved += 1
    transfer_s = time.perf_counter() - started
    print(f"\nPASS criterion 9: {searched} cases (at most 3 r blocks, or 2 with rs, besides the "
          f"pivot) have an admissible order ({tried} orders tried) in {search_s:.2f}s; "
          f"{members} members of {moved} small-side orders (at most 2 r blocks, or 1 rs, besides "
          f"the pivot) transfer to admissible ones in {transfer_s:.2f}s")
